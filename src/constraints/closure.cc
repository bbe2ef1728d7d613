#include "constraints/closure.h"

#include <optional>
#include <unordered_set>

#include "expr/implication.h"
#include "expr/interval.h"

namespace sqopt {

namespace {

// Structural dedup set over HornClause.
struct ClauseKeyHash {
  size_t operator()(const HornClause* c) const { return c->StructuralHash(); }
};
struct ClauseKeyEq {
  bool operator()(const HornClause* a, const HornClause* b) const {
    return a->StructurallyEquals(*b);
  }
};

// Builds the chained clause for c1 feeding antecedent index `ai` of c2.
// Returns nullopt when the result is trivial/over-long per options.
std::optional<HornClause> Chain(const HornClause& c1, ConstraintId id1,
                                const HornClause& c2, ConstraintId id2,
                                size_t ai, const ClosureOptions& options) {
  std::vector<Predicate> antecedents = c1.antecedents();
  for (size_t i = 0; i < c2.antecedents().size(); ++i) {
    if (i == ai) continue;
    const Predicate& p = c2.antecedents()[i];
    bool dup = false;
    for (const Predicate& q : antecedents) {
      if (p == q) {
        dup = true;
        break;
      }
    }
    if (!dup) antecedents.push_back(p);
  }
  if (antecedents.size() > options.max_antecedents) return std::nullopt;

  const Predicate& consequent = c2.consequent();
  // Vacuous: consequent already among (or implied by) the antecedents.
  if (options.prune_trivial) {
    if (ConjunctionImplies(antecedents, consequent)) return std::nullopt;
    if (!ConjunctionSatisfiable(antecedents)) return std::nullopt;
  } else {
    for (const Predicate& p : antecedents) {
      if (p == consequent) return std::nullopt;
    }
  }

  HornClause derived(c1.label() + "*" + c2.label(), std::move(antecedents),
                     consequent);
  derived.set_derived_from({id1, id2});
  return derived;
}

}  // namespace

Result<ClosureResult> ComputeClosure(const Schema& /*schema*/,
                                     std::vector<HornClause> base,
                                     const ClosureOptions& options) {
  size_t max_derived = options.max_derived == 0 ? 4096 : options.max_derived;

  ClosureResult result;
  result.clauses = std::move(base);
  result.num_base = result.clauses.size();

  std::unordered_set<const HornClause*, ClauseKeyHash, ClauseKeyEq> seen;
  // Note: pointers into result.clauses are invalidated by growth, so we
  // rebuild `seen` from scratch at the start of each round. Rounds are
  // few and clause counts small; clarity wins.
  auto rebuild_seen = [&] {
    seen.clear();
    for (const HornClause& c : result.clauses) seen.insert(&c);
  };

  // Semi-naive fixpoint: in each round, chain pairs where at least one
  // side is from the previous round's frontier.
  size_t frontier_begin = 0;
  while (true) {
    rebuild_seen();
    size_t frontier_end = result.clauses.size();
    std::vector<HornClause> fresh;
    for (size_t i = 0; i < frontier_end; ++i) {
      for (size_t j = 0; j < frontier_end; ++j) {
        if (i == j) continue;
        // Skip pairs entirely below the frontier (already chained).
        if (i < frontier_begin && j < frontier_begin) continue;
        const HornClause& c1 = result.clauses[i];
        const HornClause& c2 = result.clauses[j];
        for (size_t ai = 0; ai < c2.antecedents().size(); ++ai) {
          if (!Implies(c1.consequent(), c2.antecedents()[ai])) continue;
          std::optional<HornClause> derived =
              Chain(c1, static_cast<ConstraintId>(i), c2,
                    static_cast<ConstraintId>(j), ai, options);
          if (!derived.has_value()) continue;
          if (seen.count(&*derived) > 0) continue;
          bool dup_in_fresh = false;
          for (const HornClause& f : fresh) {
            if (f.StructurallyEquals(*derived)) {
              dup_in_fresh = true;
              break;
            }
          }
          if (dup_in_fresh) continue;
          fresh.push_back(std::move(*derived));
          if (result.num_derived + fresh.size() > max_derived) {
            return Status::OutOfRange(
                "constraint closure exceeded max_derived=" +
                std::to_string(max_derived) +
                "; the constraint set likely chains pathologically");
          }
        }
      }
    }
    ++result.rounds;
    if (fresh.empty()) break;
    frontier_begin = frontier_end;
    for (HornClause& c : fresh) {
      result.clauses.push_back(std::move(c));
      ++result.num_derived;
    }
  }
  return result;
}

}  // namespace sqopt
