// Object-oriented schema catalog: object classes with typed attributes,
// single inheritance, named relationships between classes, and index
// declarations. This is the data model of Figure 2.1 in the paper.
#ifndef SQOPT_CATALOG_SCHEMA_H_
#define SQOPT_CATALOG_SCHEMA_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "types/value.h"

namespace sqopt {

using ClassId = int32_t;
using AttrId = int32_t;
using RelId = int32_t;

inline constexpr ClassId kInvalidClass = -1;
inline constexpr AttrId kInvalidAttr = -1;
inline constexpr RelId kInvalidRel = -1;

// A scalar attribute of an object class. Relationships between classes
// are modeled separately (`Relationship`), mirroring the paper where the
// pointer attributes in Figure 2.1 exist solely to implement the named
// relationships used in queries ({collects, supplies}, ...).
struct Attribute {
  std::string name;
  ValueType type = ValueType::kString;
  bool indexed = false;  // true if an access-method index exists
  // Number of distinct values the attribute takes; used by selectivity
  // estimation. 0 = unknown (estimator applies defaults).
  int64_t distinct_values = 0;
};

// An object class. `parent` supports single inheritance (employee is the
// superclass of manager/driver/supervisor in the example database).
struct ObjectClass {
  ClassId id = kInvalidClass;
  std::string name;
  ClassId parent = kInvalidClass;
  std::vector<Attribute> attributes;  // declared on this class only
};

// A binary relationship between two classes, identified by name in query
// relationship lists. `a` and `b` are unordered endpoints.
struct Relationship {
  RelId id = kInvalidRel;
  std::string name;
  ClassId a = kInvalidClass;
  ClassId b = kInvalidClass;

  bool Connects(ClassId x, ClassId y) const {
    return (a == x && b == y) || (a == y && b == x);
  }
  bool Involves(ClassId x) const { return a == x || b == x; }
  ClassId Other(ClassId x) const { return a == x ? b : a; }
};

// A fully-resolved reference to an attribute of a class: the unit the
// predicate algebra operates on.
struct AttrRef {
  ClassId class_id = kInvalidClass;
  AttrId attr_id = kInvalidAttr;

  bool valid() const { return class_id >= 0 && attr_id >= 0; }
  bool operator==(const AttrRef& other) const = default;
  auto operator<=>(const AttrRef& other) const = default;
};

struct AttrRefHash {
  size_t operator()(const AttrRef& r) const {
    return static_cast<size_t>(r.class_id) * 1000003u +
           static_cast<size_t>(r.attr_id);
  }
};

// Immutable after construction (use SchemaBuilder). All lookups are by
// value-semantics ids or by name.
class Schema {
 public:
  Schema() = default;

  size_t num_classes() const { return classes_.size(); }
  size_t num_relationships() const { return relationships_.size(); }

  const ObjectClass& object_class(ClassId id) const { return classes_[id]; }
  const Relationship& relationship(RelId id) const {
    return relationships_[id];
  }
  const std::vector<ObjectClass>& classes() const { return classes_; }
  const std::vector<Relationship>& relationships() const {
    return relationships_;
  }

  // Name lookups. Return invalid ids when absent.
  ClassId FindClass(std::string_view name) const;
  RelId FindRelationship(std::string_view name) const;

  // Finds `attr_name` on `class_id`, walking up the inheritance chain.
  // Returns the AttrRef naming the class that *declares* the attribute
  // paired with the queried class (so predicate identity stays on the
  // queried class). Invalid AttrRef when absent.
  AttrRef FindAttribute(ClassId class_id, std::string_view attr_name) const;

  // The attribute metadata behind a resolved reference.
  const Attribute& attribute(const AttrRef& ref) const;

  // Resolves "class.attr" notation. Errors on unknown class/attribute.
  Result<AttrRef> ResolveQualified(std::string_view qualified) const;

  // "class.attr" display form of a resolved reference.
  std::string AttrRefName(const AttrRef& ref) const;

  // All relationships with `class_id` as an endpoint.
  std::vector<RelId> RelationshipsOf(ClassId class_id) const;

  // All attributes visible on `class_id` — inherited ones first (root
  // ancestor downward), declaration order within each class — as attr
  // ids usable with attribute()/FindAttribute. This is the storage
  // layout order of the class's extent.
  std::vector<AttrId> LayoutOf(ClassId class_id) const;

  // Transitive subclasses of `class_id` (not including itself).
  std::vector<ClassId> SubclassesOf(ClassId class_id) const;

  // True if `maybe_sub` equals `ancestor` or derives from it.
  bool IsKindOf(ClassId maybe_sub, ClassId ancestor) const;

  std::string ToString() const;

 private:
  friend class SchemaBuilder;

  // Packs (declaring class, attribute slot) into an AttrId. See .cc.
  static int32_t EncodeSlot(ClassId queried, ClassId declaring, size_t slot);

  std::vector<ObjectClass> classes_;
  std::vector<Relationship> relationships_;
  std::unordered_map<std::string, ClassId> class_by_name_;
  std::unordered_map<std::string, RelId> rel_by_name_;
};

}  // namespace sqopt

#endif  // SQOPT_CATALOG_SCHEMA_H_
