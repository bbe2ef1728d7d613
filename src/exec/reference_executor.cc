#include "exec/reference_executor.h"

#include <algorithm>

namespace sqopt {

namespace {

bool Linked(const ObjectStore& store, const Relationship& rel,
            int64_t row_a, int64_t row_b) {
  std::span<const int64_t> partners =
      store.Partners(rel.id, rel.a, row_a);
  return std::find(partners.begin(), partners.end(), row_b) !=
         partners.end();
}

}  // namespace

Result<ResultSet> ExecuteReference(const ObjectStore& store,
                                   const Query& query) {
  SQOPT_RETURN_IF_ERROR(ValidateQuery(store.schema(), query));
  const Schema& schema = store.schema();

  ResultSet result;
  std::vector<int64_t> binding(schema.num_classes(), -1);
  std::vector<Predicate> preds = query.AllPredicates();

  // By value: Extent::ValueAt materializes from columnar segments, so
  // there is no stored row to lend a reference into.
  auto attr_value = [&](const AttrRef& ref) -> Value {
    return store.extent(ref.class_id)
        .ValueAt(binding[ref.class_id], ref.attr_id);
  };

  // Recursive enumeration over query.classes.
  auto enumerate = [&](auto&& self, size_t depth) -> void {
    if (depth == query.classes.size()) {
      // All bound: check relationships and predicates.
      for (RelId rel_id : query.relationships) {
        const Relationship& rel = schema.relationship(rel_id);
        if (!Linked(store, rel, binding[rel.a], binding[rel.b])) return;
      }
      for (const Predicate& p : preds) {
        const Value lhs = attr_value(p.lhs());
        bool ok = p.is_attr_const()
                      ? EvalCompare(lhs, p.op(), p.rhs_value())
                      : EvalCompare(lhs, p.op(), attr_value(p.rhs_attr()));
        if (!ok) return;
      }
      std::vector<Value> row;
      row.reserve(query.projection.size());
      for (const AttrRef& ref : query.projection) {
        row.push_back(attr_value(ref));
      }
      result.rows.push_back(std::move(row));
      return;
    }
    ClassId cid = query.classes[depth];
    int64_t n = store.NumObjects(cid);
    for (int64_t row = 0; row < n; ++row) {
      if (!store.IsLive(cid, row)) continue;
      binding[cid] = row;
      self(self, depth + 1);
    }
    binding[cid] = -1;
  };
  enumerate(enumerate, 0);
  return result;
}

}  // namespace sqopt
