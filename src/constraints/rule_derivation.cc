#include "constraints/rule_derivation.h"

#include <map>
#include <set>
#include <string>

namespace sqopt {

namespace {

// Group of rows sharing one value of the antecedent attribute.
struct ValueGroup {
  Value value;
  std::vector<int64_t> rows;
};

std::vector<ValueGroup> GroupByAttr(const Extent& extent, AttrId attr_id) {
  std::map<Value, std::vector<int64_t>> groups;
  for (int64_t row = 0; row < extent.size(); ++row) {
    if (!extent.IsLive(row)) continue;
    groups[extent.ValueAt(row, attr_id)].push_back(row);
  }
  std::vector<ValueGroup> out;
  out.reserve(groups.size());
  for (auto& [value, rows] : groups) {
    out.push_back(ValueGroup{value, std::move(rows)});
  }
  return out;
}

std::string ValueLabel(const Value& v) {
  std::string s = v.ToString();
  // Strip quotes for compact labels.
  std::erase(s, '"');
  return s;
}

}  // namespace

Result<std::vector<HornClause>> DeriveStateRules(const ObjectStore& store) {
  const Schema& schema = store.schema();
  std::vector<HornClause> rules;

  for (const ObjectClass& oc : schema.classes()) {
    const Extent& extent = store.extent(oc.id);
    if (extent.live_count() < kMinRuleSupport) continue;
    std::vector<AttrId> layout = schema.LayoutOf(oc.id);

    // Global bounds and distinct counts per attribute.
    struct AttrSummary {
      bool numeric = false;
      Value min, max;
      int64_t distinct = 0;
    };
    std::map<AttrId, AttrSummary> summaries;
    for (AttrId attr : layout) {
      AttrSummary s;
      std::set<Value> seen;
      bool all_numeric = extent.live_count() > 0;
      for (int64_t row = 0; row < extent.size(); ++row) {
        if (!extent.IsLive(row)) continue;
        const Value v = extent.ValueAt(row, attr);
        seen.insert(v);
        if (!v.is_numeric()) all_numeric = false;
      }
      s.distinct = static_cast<int64_t>(seen.size());
      s.numeric = all_numeric;
      if (all_numeric && !seen.empty()) {
        s.min = *seen.begin();
        s.max = *seen.rbegin();
      }
      summaries[attr] = std::move(s);
    }

    // Global range rules: (empty antecedent) -> attr >= min / <= max.
    for (AttrId attr : layout) {
      const AttrSummary& s = summaries[attr];
      if (!s.numeric || s.distinct < 2) continue;
      AttrRef ref{oc.id, attr};
      const std::string& attr_name = schema.attribute(ref).name;
      rules.emplace_back("state:" + oc.name + "." + attr_name + ".lo",
                         std::vector<Predicate>{},
                         Predicate::AttrConst(ref, CompareOp::kGe, s.min));
      rules.emplace_back("state:" + oc.name + "." + attr_name + ".hi",
                         std::vector<Predicate>{},
                         Predicate::AttrConst(ref, CompareOp::kLe, s.max));
    }

    // Per-antecedent-value rules.
    for (AttrId a_attr : layout) {
      const AttrSummary& a_summary = summaries[a_attr];
      if (a_summary.distinct < 2 ||
          a_summary.distinct > kMaxAntecedentValues) {
        continue;
      }
      AttrRef a_ref{oc.id, a_attr};
      const std::string& a_name = schema.attribute(a_ref).name;

      for (const ValueGroup& group : GroupByAttr(extent, a_attr)) {
        if (static_cast<int64_t>(group.rows.size()) < kMinRuleSupport) {
          continue;
        }
        Predicate antecedent =
            Predicate::AttrConst(a_ref, CompareOp::kEq, group.value);

        for (AttrId b_attr : layout) {
          if (b_attr == a_attr) continue;
          const AttrSummary& b_summary = summaries[b_attr];
          if (b_summary.distinct < 2) continue;  // globally constant
          AttrRef b_ref{oc.id, b_attr};
          const std::string& b_name = schema.attribute(b_ref).name;

          // Group-local value set.
          std::set<Value> values;
          for (int64_t row : group.rows) {
            values.insert(extent.ValueAt(row, b_attr));
          }

          if (values.size() == 1) {
            rules.emplace_back(
                "state:" + oc.name + "." + a_name + "=" +
                    ValueLabel(group.value) + "->" + b_name,
                std::vector<Predicate>{antecedent},
                Predicate::AttrConst(b_ref, CompareOp::kEq,
                                     *values.begin()));
            continue;  // a value rule subsumes the range rules
          }

          if (b_summary.numeric && !values.empty()) {
            const Value& lo = *values.begin();
            const Value& hi = *values.rbegin();
            // Only strictly tighter-than-global bounds carry knowledge.
            if (b_summary.max.Compare(hi).value_or(0) > 0) {
              rules.emplace_back(
                  "state:" + oc.name + "." + a_name + "=" +
                      ValueLabel(group.value) + "->" + b_name + ".hi",
                  std::vector<Predicate>{antecedent},
                  Predicate::AttrConst(b_ref, CompareOp::kLe, hi));
            }
            if (b_summary.min.Compare(lo).value_or(0) < 0) {
              rules.emplace_back(
                  "state:" + oc.name + "." + a_name + "=" +
                      ValueLabel(group.value) + "->" + b_name + ".lo",
                  std::vector<Predicate>{antecedent},
                  Predicate::AttrConst(b_ref, CompareOp::kGe, lo));
            }
          }
        }
      }
    }
  }
  return rules;
}

bool RuleHoldsOnStore(const ObjectStore& store, const HornClause& clause) {
  std::vector<ClassId> classes = clause.ReferencedClasses();
  if (classes.size() != 1) return true;  // conservative for inter-class
  ClassId cid = classes[0];
  const Extent& extent = store.extent(cid);

  auto eval = [&](const Predicate& p, int64_t row) {
    if (!p.is_attr_const()) return true;  // conservative
    const Value lhs = extent.ValueAt(row, p.lhs().attr_id);
    return EvalCompare(lhs, p.op(), p.rhs_value());
  };
  for (int64_t row = 0; row < extent.size(); ++row) {
    if (!extent.IsLive(row)) continue;
    bool antecedents_hold = true;
    for (const Predicate& a : clause.antecedents()) {
      if (!eval(a, row)) {
        antecedents_hold = false;
        break;
      }
    }
    if (antecedents_hold && !eval(clause.consequent(), row)) return false;
  }
  return true;
}

}  // namespace sqopt
