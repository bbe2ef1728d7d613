#include "query/query_printer.h"

#include <sstream>

namespace sqopt {

namespace {

std::string ProjectionList(const Schema& schema, const Query& query) {
  std::string out;
  for (size_t i = 0; i < query.projection.size(); ++i) {
    if (i) out += ", ";
    out += schema.AttrRefName(query.projection[i]);
  }
  return out;
}

std::string PredicateList(const Schema& schema,
                          const std::vector<Predicate>& preds) {
  std::string out;
  for (size_t i = 0; i < preds.size(); ++i) {
    if (i) out += ", ";
    out += preds[i].ToString(schema);
  }
  return out;
}

std::string RelationshipList(const Schema& schema, const Query& query) {
  std::string out;
  for (size_t i = 0; i < query.relationships.size(); ++i) {
    if (i) out += ", ";
    out += schema.relationship(query.relationships[i]).name;
  }
  return out;
}

std::string ClassList(const Schema& schema, const Query& query) {
  std::string out;
  for (size_t i = 0; i < query.classes.size(); ++i) {
    if (i) out += ", ";
    out += schema.object_class(query.classes[i]).name;
  }
  return out;
}

}  // namespace

std::string PrintQuery(const Schema& schema, const Query& query) {
  std::ostringstream os;
  os << "(SELECT {" << ProjectionList(schema, query) << "} {"
     << PredicateList(schema, query.join_predicates) << "} {"
     << PredicateList(schema, query.selective_predicates) << "} {"
     << RelationshipList(schema, query) << "} {" << ClassList(schema, query)
     << "})";
  return os.str();
}

std::string PrintQueryPretty(const Schema& schema, const Query& query) {
  std::ostringstream os;
  os << "(SELECT {" << ProjectionList(schema, query) << "}\n"
     << "        {" << PredicateList(schema, query.join_predicates) << "}\n"
     << "        {" << PredicateList(schema, query.selective_predicates)
     << "}\n"
     << "        {" << RelationshipList(schema, query) << "}\n"
     << "        {" << ClassList(schema, query) << "})";
  return os.str();
}

}  // namespace sqopt
