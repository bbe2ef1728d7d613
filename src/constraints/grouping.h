// Constraint grouping (Section 3). Every constraint is assigned to
// exactly one group g_k attached to an object class o_k that the
// constraint references. To optimize a query, only groups attached to
// classes appearing in the query are fetched; because a relevant
// constraint references only query classes, this retrieval is complete
// (never misses a relevant constraint), though it may fetch irrelevant
// ones. Assignment policies trade retrieval precision against
// maintenance cost:
//   * kArbitrary: first referenced class (paper's baseline scheme);
//   * kLeastFrequentlyAccessed: the class with the lowest access count,
//     so constraints over rarely-queried classes are rarely fetched
//     (paper's enhancement);
//   * kBalanced: the referenced class with the currently smallest group
//     (paper's alternative for when access patterns drift).
#ifndef SQOPT_CONSTRAINTS_GROUPING_H_
#define SQOPT_CONSTRAINTS_GROUPING_H_

#include <vector>

#include "catalog/access_stats.h"
#include "catalog/schema.h"
#include "constraints/horn_clause.h"

namespace sqopt {

enum class GroupingPolicy {
  kArbitrary,
  kLeastFrequentlyAccessed,
  kBalanced,
};

class ConstraintGrouping {
 public:
  ConstraintGrouping() = default;

  // Assigns every clause to one group. `stats` is only consulted by
  // kLeastFrequentlyAccessed and may be null for the other policies.
  void Build(const Schema& schema, const std::vector<HornClause>& clauses,
             GroupingPolicy policy, const AccessStats* stats);

  // Group (class) a constraint was assigned to.
  ClassId GroupOf(ConstraintId id) const { return assignment_[id]; }

  // All constraints in the group attached to `class_id`.
  const std::vector<ConstraintId>& Group(ClassId class_id) const {
    return groups_[class_id];
  }

  // Union of the groups attached to `query_classes` — everything the
  // optimizer fetches for a query. Sorted, deduplicated (assignment is a
  // partition, so no duplicates arise).
  std::vector<ConstraintId> Retrieve(
      const std::vector<ClassId>& query_classes) const;

  size_t num_groups() const { return groups_.size(); }
  size_t group_size(ClassId class_id) const {
    return groups_[class_id].size();
  }

  // Persistence hooks (src/persist/snapshot.cc): the assignment IS the
  // grouping (groups are its inverse), so a snapshot serializes only
  // the per-constraint class and Restore rebuilds the group lists.
  const std::vector<ClassId>& assignment() const { return assignment_; }
  Status Restore(std::vector<ClassId> assignment, size_t num_classes);

 private:
  std::vector<ClassId> assignment_;             // constraint -> class
  std::vector<std::vector<ConstraintId>> groups_;  // class -> constraints
};

}  // namespace sqopt

#endif  // SQOPT_CONSTRAINTS_GROUPING_H_
