// The query representation from Section 2 of the paper:
//
//   (SELECT {projectList} {joinPredicateList} {selectivePredicateList}
//           {relationshipList} {classList})
//
// The five parts name the projected attributes, the attr-attr (join)
// predicates, the attr-constant (selective) predicates, the named
// relationships traversed, and the object classes accessed.
#ifndef SQOPT_QUERY_QUERY_H_
#define SQOPT_QUERY_QUERY_H_

#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "expr/predicate.h"

namespace sqopt {

struct Query {
  std::vector<AttrRef> projection;
  std::vector<Predicate> join_predicates;       // attr-attr form
  std::vector<Predicate> selective_predicates;  // attr-const form
  std::vector<RelId> relationships;
  std::vector<ClassId> classes;

  // All predicates, joins first. The semantic optimizer treats both
  // kinds uniformly as "predicates in the query".
  std::vector<Predicate> AllPredicates() const;

  bool ReferencesClass(ClassId id) const;

  // Number of relationships in the query that touch `id` — the "links"
  // count used by the class elimination rule (a dangling class is linked
  // to exactly one other class).
  int RelationshipDegree(ClassId id, const Schema& schema) const;

  // True if any projected attribute belongs to `id`.
  bool ProjectsFrom(ClassId id) const;

  // Predicate edits, each on the list `p`'s form selects (attr-attr
  // into join_predicates, attr-const into selective_predicates).
  bool HasPredicate(const Predicate& p) const;
  void AddPredicate(const Predicate& p);
  void RemovePredicate(const Predicate& p);  // every copy of `p`

  // Drops class `id` with every relationship and predicate touching it.
  void RemoveClass(ClassId id, const Schema& schema);

  // Structural equality (order-sensitive; use Normalize() before
  // comparing queries built through different paths).
  bool operator==(const Query& other) const = default;

  // Sorts each component into canonical order so that structurally
  // identical queries compare equal.
  void Normalize();
};

// Checks referential consistency of `query` against `schema`:
//  * every projected/predicated class appears in the class list;
//  * every relationship connects two listed classes;
//  * join predicates are attr-attr, selective predicates attr-const;
//  * the query graph (classes + relationships) is connected.
Status ValidateQuery(const Schema& schema, const Query& query);

}  // namespace sqopt

#endif  // SQOPT_QUERY_QUERY_H_
