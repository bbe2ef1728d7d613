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

}  // namespace sqopt

#endif  // SQOPT_QUERY_QUERY_PRINTER_H_
