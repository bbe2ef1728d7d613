#include "storage/index.h"

#include <algorithm>

namespace sqopt {

namespace {

// Sorts `rows` made of ascending runs (a range lookup yields one per
// key) by merging adjacent runs pairwise, pass after pass: O(n log
// runs), and a single pass over `rows` when it is already sorted.
void MergeAscendingRuns(std::vector<int64_t>* rows) {
  std::vector<size_t> bounds = {0};
  for (size_t i = 1; i < rows->size(); ++i) {
    if ((*rows)[i] < (*rows)[i - 1]) bounds.push_back(i);
  }
  if (bounds.size() == 1) return;
  bounds.push_back(rows->size());
  std::vector<int64_t> buffer(rows->size());
  std::vector<int64_t>* src = rows;
  std::vector<int64_t>* dst = &buffer;
  while (bounds.size() > 2) {
    std::vector<size_t> merged = {0};
    for (size_t r = 0; r + 1 < bounds.size(); r += 2) {
      const size_t mid = bounds[r + 1];
      const size_t end = r + 2 < bounds.size() ? bounds[r + 2] : mid;
      std::merge(src->begin() + static_cast<long>(bounds[r]),
                 src->begin() + static_cast<long>(mid),
                 src->begin() + static_cast<long>(mid),
                 src->begin() + static_cast<long>(end),
                 dst->begin() + static_cast<long>(bounds[r]));
      merged.push_back(end);
    }
    bounds = std::move(merged);
    std::swap(src, dst);
  }
  if (src != rows) *rows = std::move(*src);
}

}  // namespace

std::vector<int64_t> AttributeIndex::Equal(const Value& key) const {
  ++probes;
  return tree_.Equal(key);
}

std::vector<int64_t> AttributeIndex::Lookup(CompareOp op,
                                            const Value& value) const {
  ++probes;
  std::vector<int64_t> out;
  switch (op) {
    case CompareOp::kEq:
      return tree_.Equal(value);
    case CompareOp::kLt:
      out = tree_.LessThan(value, /*inclusive=*/false);
      break;
    case CompareOp::kLe:
      out = tree_.LessThan(value, /*inclusive=*/true);
      break;
    case CompareOp::kGt:
      out = tree_.GreaterThan(value, /*inclusive=*/false);
      break;
    case CompareOp::kGe:
      out = tree_.GreaterThan(value, /*inclusive=*/true);
      break;
    case CompareOp::kNe:
      for (const auto& [key, row] : tree_.Scan()) {
        if (EvalCompare(key, CompareOp::kNe, value)) out.push_back(row);
      }
      break;
  }
  MergeAscendingRuns(&out);
  return out;
}

}  // namespace sqopt
