// Tuning knobs of the semantic optimizer. Defaults reproduce the paper's
// design (index-aware tag tables, FIFO queue, class elimination on);
// non-default values exist for ablation benches and tests. The
// contradiction short-circuit (§4 hint: an unsatisfiable retained
// predicate set is answered without touching the database) always runs.
#ifndef SQOPT_SQO_OPTIONS_H_
#define SQOPT_SQO_OPTIONS_H_

#include <cstddef>

namespace sqopt {

// How firing a constraint chooses the consequent's new tag.
enum class TagPolicy {
  // Tables 3.1/3.2: intra-class + non-indexed consequent -> redundant;
  // intra-class + indexed -> optional; inter-class -> optional.
  kIndexAware,
  // §3.3 pseudocode simplification: intra -> redundant, inter ->
  // optional, ignoring indexes. Ablation only.
  kIgnoreIndexes,
};

// How "predicate appears in the query" is decided.
enum class MatchMode {
  // Syntactic identity, as in the paper's exposition.
  kExact,
  // Logical implication: a query predicate stronger than a constraint
  // antecedent satisfies it (x > 30 satisfies x > 10), and a consequent
  // that implies a query predicate can eliminate it. Sound and strictly
  // more effective; the default.
  kImplied,
};

// Order in which fireable constraints are processed (§4 discussion).
enum class QueueDiscipline {
  kFifo,
  // index introduction > restriction elimination > restriction
  // introduction; used with a budget to spend limited transformations on
  // the most promising rules first.
  kPriority,
};

struct OptimizerOptions {
  TagPolicy tag_policy = TagPolicy::kIndexAware;
  MatchMode match_mode = MatchMode::kImplied;
  QueueDiscipline queue = QueueDiscipline::kFifo;

  // Maximum number of constraint firings; 0 = unlimited. Meaningful
  // mostly with QueueDiscipline::kPriority (§4: "assign a budget and
  // limit the number of transformations").
  size_t transformation_budget = 0;

  bool enable_class_elimination = true;
};

}  // namespace sqopt

#endif  // SQOPT_SQO_OPTIONS_H_
