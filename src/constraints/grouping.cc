#include "constraints/grouping.h"

#include <algorithm>
#include <cassert>

namespace sqopt {

void ConstraintGrouping::Build(const Schema& schema,
                               const std::vector<HornClause>& clauses,
                               GroupingPolicy policy,
                               const AccessStats* stats) {
  assignment_.assign(clauses.size(), kInvalidClass);
  groups_.assign(schema.num_classes(), {});

  for (size_t i = 0; i < clauses.size(); ++i) {
    std::vector<ClassId> referenced = clauses[i].ReferencedClasses();
    assert(!referenced.empty());
    ClassId chosen = referenced[0];
    switch (policy) {
      case GroupingPolicy::kArbitrary:
        chosen = referenced[0];
        break;
      case GroupingPolicy::kLeastFrequentlyAccessed:
        assert(stats != nullptr &&
               "LFA grouping requires access statistics");
        chosen = stats->LeastFrequent(referenced);
        break;
      case GroupingPolicy::kBalanced: {
        chosen = referenced[0];
        for (ClassId candidate : referenced) {
          if (groups_[candidate].size() < groups_[chosen].size()) {
            chosen = candidate;
          }
        }
        break;
      }
    }
    assignment_[i] = chosen;
    groups_[chosen].push_back(static_cast<ConstraintId>(i));
  }
}

Status ConstraintGrouping::Restore(std::vector<ClassId> assignment,
                                   size_t num_classes) {
  groups_.assign(num_classes, {});
  for (size_t i = 0; i < assignment.size(); ++i) {
    ClassId chosen = assignment[i];
    if (chosen < 0 || static_cast<size_t>(chosen) >= num_classes) {
      return Status::Corruption(
          "grouping assignment names an unknown class " +
          std::to_string(chosen));
    }
    groups_[chosen].push_back(static_cast<ConstraintId>(i));
  }
  assignment_ = std::move(assignment);
  return Status::OK();
}

std::vector<ConstraintId> ConstraintGrouping::Retrieve(
    const std::vector<ClassId>& query_classes) const {
  std::vector<ConstraintId> out;
  for (ClassId id : query_classes) {
    if (id < 0 || static_cast<size_t>(id) >= groups_.size()) continue;
    out.insert(out.end(), groups_[id].begin(), groups_[id].end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace sqopt
