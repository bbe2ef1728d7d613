// Renders queries back into the paper's textual form. Round-trips with
// ParseQuery (modulo whitespace).
#ifndef SQOPT_QUERY_QUERY_PRINTER_H_
#define SQOPT_QUERY_QUERY_PRINTER_H_

#include <string>

#include "query/query.h"

namespace sqopt {

// Single-line form:
//   (SELECT {a, b} {j} {s} {rels} {classes})
std::string PrintQuery(const Schema& schema, const Query& query);

// Multi-line indented form for logs and examples.
std::string PrintQueryPretty(const Schema& schema, const Query& query);

// Canonical cache key: the single-line form of the Normalize()d query,
// with the projection kept in the caller's order. Two query texts that
// parse to the same normalized structure (same predicates, relationships
// and classes in any order, any whitespace) and project the same
// columns in the same order map to the same key, so the plan cache
// coalesces them onto one entry.
std::string CanonicalQueryKey(const Schema& schema, const Query& query);

}  // namespace sqopt

#endif  // SQOPT_QUERY_QUERY_PRINTER_H_
