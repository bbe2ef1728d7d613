#include "query/query.h"

#include <algorithm>
#include <queue>
#include <set>

namespace sqopt {

std::vector<Predicate> Query::AllPredicates() const {
  std::vector<Predicate> out = join_predicates;
  out.insert(out.end(), selective_predicates.begin(),
             selective_predicates.end());
  return out;
}

bool Query::ReferencesClass(ClassId id) const {
  return std::find(classes.begin(), classes.end(), id) != classes.end();
}

int Query::RelationshipDegree(ClassId id, const Schema& schema) const {
  int degree = 0;
  for (RelId rel_id : relationships) {
    if (schema.relationship(rel_id).Involves(id)) ++degree;
  }
  return degree;
}

bool Query::ProjectsFrom(ClassId id) const {
  for (const AttrRef& ref : projection) {
    if (ref.class_id == id) return true;
  }
  return false;
}

bool Query::HasPredicate(const Predicate& p) const {
  const std::vector<Predicate>& list =
      p.is_attr_attr() ? join_predicates : selective_predicates;
  return std::find(list.begin(), list.end(), p) != list.end();
}

void Query::AddPredicate(const Predicate& p) {
  (p.is_attr_attr() ? join_predicates : selective_predicates).push_back(p);
}

void Query::RemovePredicate(const Predicate& p) {
  std::vector<Predicate>& list =
      p.is_attr_attr() ? join_predicates : selective_predicates;
  list.erase(std::remove(list.begin(), list.end(), p), list.end());
}

void Query::RemoveClass(ClassId id, const Schema& schema) {
  std::erase(classes, id);
  std::erase_if(relationships, [&](RelId rel_id) {
    return schema.relationship(rel_id).Involves(id);
  });
  auto touches = [id](const Predicate& p) { return p.ReferencesClass(id); };
  std::erase_if(join_predicates, touches);
  std::erase_if(selective_predicates, touches);
}

void Query::Normalize() {
  std::sort(projection.begin(), projection.end());
  auto pred_less = [](const Predicate& a, const Predicate& b) {
    return a.Hash() < b.Hash();
  };
  std::stable_sort(join_predicates.begin(), join_predicates.end(),
                   pred_less);
  std::stable_sort(selective_predicates.begin(), selective_predicates.end(),
                   pred_less);
  std::sort(relationships.begin(), relationships.end());
  std::sort(classes.begin(), classes.end());
}

Status ValidateQuery(const Schema& schema, const Query& query) {
  if (query.classes.empty()) {
    return Status::InvalidArgument("query has no object classes");
  }
  std::set<ClassId> listed(query.classes.begin(), query.classes.end());
  if (listed.size() != query.classes.size()) {
    return Status::InvalidArgument("duplicate class in class list");
  }
  for (ClassId id : query.classes) {
    if (id < 0 || static_cast<size_t>(id) >= schema.num_classes()) {
      return Status::OutOfRange("class id out of range");
    }
  }

  auto check_ref = [&](const AttrRef& ref) -> Status {
    if (!ref.valid()) return Status::InvalidArgument("invalid AttrRef");
    if (listed.count(ref.class_id) == 0) {
      return Status::InvalidArgument(
          "attribute " + schema.AttrRefName(ref) +
          " references a class not in the query's class list");
    }
    return Status::OK();
  };

  for (const AttrRef& ref : query.projection) {
    SQOPT_RETURN_IF_ERROR(check_ref(ref));
  }
  for (const Predicate& p : query.join_predicates) {
    if (!p.is_attr_attr()) {
      return Status::InvalidArgument(
          "join predicate list contains a selective predicate: " +
          p.ToString(schema));
    }
    SQOPT_RETURN_IF_ERROR(check_ref(p.lhs()));
    SQOPT_RETURN_IF_ERROR(check_ref(p.rhs_attr()));
  }
  for (const Predicate& p : query.selective_predicates) {
    if (!p.is_attr_const()) {
      return Status::InvalidArgument(
          "selective predicate list contains a join predicate: " +
          p.ToString(schema));
    }
    SQOPT_RETURN_IF_ERROR(check_ref(p.lhs()));
  }

  std::set<RelId> listed_rels(query.relationships.begin(),
                              query.relationships.end());
  if (listed_rels.size() != query.relationships.size()) {
    return Status::InvalidArgument("duplicate relationship in query");
  }
  for (RelId rel_id : query.relationships) {
    if (rel_id < 0 ||
        static_cast<size_t>(rel_id) >= schema.num_relationships()) {
      return Status::OutOfRange("relationship id out of range");
    }
    const Relationship& rel = schema.relationship(rel_id);
    if (listed.count(rel.a) == 0 || listed.count(rel.b) == 0) {
      return Status::InvalidArgument(
          "relationship '" + rel.name +
          "' connects a class not in the query's class list");
    }
  }

  // Connectivity: single-class queries are trivially connected; otherwise
  // the relationship edges must span all listed classes.
  if (query.classes.size() > 1) {
    std::set<ClassId> visited;
    std::queue<ClassId> frontier;
    frontier.push(query.classes[0]);
    visited.insert(query.classes[0]);
    while (!frontier.empty()) {
      ClassId cur = frontier.front();
      frontier.pop();
      for (RelId rel_id : query.relationships) {
        const Relationship& rel = schema.relationship(rel_id);
        if (!rel.Involves(cur)) continue;
        ClassId next = rel.Other(cur);
        if (visited.insert(next).second) frontier.push(next);
      }
    }
    if (visited.size() != listed.size()) {
      return Status::InvalidArgument(
          "query graph is disconnected: relationships do not span the "
          "class list");
    }
  }
  return Status::OK();
}

}  // namespace sqopt
