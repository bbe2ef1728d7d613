#include "constraints/constraint_validator.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

namespace sqopt {

namespace {

// Evaluates one predicate of `clause` under a class -> row binding.
// Every class a base clause references is bound by the caller.
bool EvalOn(const ObjectStore& store,
            const std::unordered_map<ClassId, int64_t>& binding,
            const Predicate& p) {
  // By value: ValueAt materializes from the columnar segments.
  const Value lhs = store.extent(p.lhs().class_id)
                        .ValueAt(binding.at(p.lhs().class_id),
                                 p.lhs().attr_id);
  if (p.is_attr_const()) {
    return EvalCompare(lhs, p.op(), p.rhs_value());
  }
  const Value rhs = store.extent(p.rhs_attr().class_id)
                        .ValueAt(binding.at(p.rhs_attr().class_id),
                                 p.rhs_attr().attr_id);
  return EvalCompare(lhs, p.op(), rhs);
}

// antecedents all true and consequent false => violated.
bool ClauseViolated(const ObjectStore& store,
                    const std::unordered_map<ClassId, int64_t>& binding,
                    const HornClause& clause) {
  for (const Predicate& a : clause.antecedents()) {
    if (!EvalOn(store, binding, a)) return false;
  }
  return !EvalOn(store, binding, clause.consequent());
}

Status Violation(const Schema& schema, const HornClause& clause,
                 const std::unordered_map<ClassId, int64_t>& binding) {
  std::string msg = "constraint '" + clause.label() + "' (" +
                    clause.ToString(schema) + ") violated by";
  for (const auto& [cid, row] : binding) {
    msg += " " + schema.object_class(cid).name + "[" +
           std::to_string(row) + "]";
  }
  return Status::ConstraintViolation(std::move(msg));
}

}  // namespace

Status ValidateMutations(const ObjectStore& store,
                         const ConstraintCatalog& catalog,
                         const MutationFootprint& footprint,
                         ValidationStats* stats) {
  const Schema& schema = store.schema();
  ValidationStats local;
  if (stats == nullptr) stats = &local;

  const std::vector<HornClause>& clauses = catalog.clauses();
  const size_t num_base = catalog.num_base();
  for (size_t i = 0; i < num_base && i < clauses.size(); ++i) {
    const HornClause& clause = clauses[i];
    std::vector<ClassId> referenced = clause.ReferencedClasses();

    if (referenced.size() == 1) {
      const ClassId cid = referenced[0];
      auto it = footprint.touched_rows.find(cid);
      if (it == footprint.touched_rows.end()) continue;
      for (int64_t row : it->second) {
        if (!store.IsLive(cid, row)) continue;  // deleted later in batch
        ++stats->clauses_checked;
        std::unordered_map<ClassId, int64_t> binding{{cid, row}};
        if (ClauseViolated(store, binding, clause)) {
          return Violation(schema, clause, binding);
        }
      }
      continue;
    }

    if (referenced.size() != 2) {
      // Base constraints in this system are at most two-class; a wider
      // clause could only arrive hand-built. Checking it would require
      // enumerating join paths, so it is (conservatively) skipped —
      // mirroring RuleHoldsOnStore.
      continue;
    }

    // Two-class clause: collect every directly-linked (c1, c2) pair the
    // footprint could have affected — new links between the classes,
    // plus the current partners of every touched row on either side.
    const ClassId c1 = referenced[0];
    const ClassId c2 = referenced[1];
    std::set<std::pair<int64_t, int64_t>> pairs;
    for (const MutationFootprint::LinkRef& link : footprint.new_links) {
      const Relationship& rel = schema.relationship(link.rel);
      if (!rel.Connects(c1, c2)) continue;
      // Only pairs that SURVIVED the batch constrain the final state: a
      // later Unlink (or a delete's cascade) may have removed this link
      // again, and then it must not reject the batch.
      std::span<const int64_t> partners =
          store.Partners(link.rel, rel.a, link.row_a);
      if (std::find(partners.begin(), partners.end(), link.row_b) ==
          partners.end()) {
        continue;
      }
      pairs.insert(rel.a == c1 ? std::make_pair(link.row_a, link.row_b)
                               : std::make_pair(link.row_b, link.row_a));
    }
    auto add_partners = [&](ClassId from, ClassId to, int64_t row) {
      for (RelId rel_id : schema.RelationshipsOf(from)) {
        const Relationship& rel = schema.relationship(rel_id);
        if (rel.Other(from) != to || rel.a == rel.b) continue;
        for (int64_t partner : store.Partners(rel_id, from, row)) {
          pairs.insert(from == c1 ? std::make_pair(row, partner)
                                  : std::make_pair(partner, row));
        }
      }
    };
    if (auto it = footprint.touched_rows.find(c1);
        it != footprint.touched_rows.end()) {
      for (int64_t row : it->second) {
        if (store.IsLive(c1, row)) add_partners(c1, c2, row);
      }
    }
    if (auto it = footprint.touched_rows.find(c2);
        it != footprint.touched_rows.end()) {
      for (int64_t row : it->second) {
        if (store.IsLive(c2, row)) add_partners(c2, c1, row);
      }
    }

    for (const auto& [row1, row2] : pairs) {
      if (!store.IsLive(c1, row1) || !store.IsLive(c2, row2)) continue;
      ++stats->clauses_checked;
      std::unordered_map<ClassId, int64_t> binding{{c1, row1}, {c2, row2}};
      if (ClauseViolated(store, binding, clause)) {
        return Violation(schema, clause, binding);
      }
    }
  }
  return Status::OK();
}

}  // namespace sqopt
