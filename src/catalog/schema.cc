#include "catalog/schema.h"

#include <sstream>

#include "common/string_util.h"

namespace sqopt {

ClassId Schema::FindClass(std::string_view name) const {
  auto it = class_by_name_.find(std::string(name));
  return it == class_by_name_.end() ? kInvalidClass : it->second;
}

RelId Schema::FindRelationship(std::string_view name) const {
  auto it = rel_by_name_.find(std::string(name));
  return it == rel_by_name_.end() ? kInvalidRel : it->second;
}

AttrRef Schema::FindAttribute(ClassId class_id,
                              std::string_view attr_name) const {
  ClassId cur = class_id;
  while (cur != kInvalidClass) {
    const ObjectClass& oc = classes_[cur];
    for (size_t i = 0; i < oc.attributes.size(); ++i) {
      if (oc.attributes[i].name == attr_name) {
        // Attribute identity is (queried class, declaring slot): the
        // declaring class's slot index is unique along the chain because
        // SchemaBuilder rejects shadowed names.
        return AttrRef{class_id, static_cast<AttrId>(
                                     EncodeSlot(class_id, cur, i))};
      }
    }
    cur = oc.parent;
  }
  return AttrRef{};
}

// Attribute ids encode (declaring class, slot) so that inherited
// attributes resolve to the declaring class's metadata while keeping the
// queried class in AttrRef::class_id. Layout: decl_class * 4096 + slot.
// 4096 attributes per class is far beyond any realistic schema.
namespace {
constexpr int32_t kSlotBits = 12;
constexpr int32_t kSlotMask = (1 << kSlotBits) - 1;
}  // namespace

int32_t Schema::EncodeSlot(ClassId /*queried*/, ClassId declaring,
                           size_t slot) {
  return (declaring << kSlotBits) | static_cast<int32_t>(slot);
}

const Attribute& Schema::attribute(const AttrRef& ref) const {
  ClassId declaring = ref.attr_id >> kSlotBits;
  int32_t slot = ref.attr_id & kSlotMask;
  return classes_[declaring].attributes[slot];
}

Result<AttrRef> Schema::ResolveQualified(std::string_view qualified) const {
  std::string_view s = StripWhitespace(qualified);
  size_t dot = s.find('.');
  if (dot == std::string_view::npos) {
    return Status::ParseError("expected class.attr, got '" +
                              std::string(s) + "'");
  }
  std::string_view class_name = StripWhitespace(s.substr(0, dot));
  std::string_view attr_name = StripWhitespace(s.substr(dot + 1));
  ClassId cid = FindClass(class_name);
  if (cid == kInvalidClass) {
    return Status::NotFound("unknown class '" + std::string(class_name) +
                            "'");
  }
  AttrRef ref = FindAttribute(cid, attr_name);
  if (!ref.valid()) {
    return Status::NotFound("class '" + std::string(class_name) +
                            "' has no attribute '" + std::string(attr_name) +
                            "'");
  }
  return ref;
}

std::string Schema::AttrRefName(const AttrRef& ref) const {
  if (!ref.valid()) return "<invalid>";
  return classes_[ref.class_id].name + "." + attribute(ref).name;
}

std::vector<RelId> Schema::RelationshipsOf(ClassId class_id) const {
  std::vector<RelId> out;
  for (const Relationship& rel : relationships_) {
    if (rel.Involves(class_id)) out.push_back(rel.id);
  }
  return out;
}

std::vector<AttrId> Schema::LayoutOf(ClassId class_id) const {
  // Chain from root ancestor down to class_id.
  std::vector<ClassId> chain;
  for (ClassId cur = class_id; cur != kInvalidClass;
       cur = classes_[cur].parent) {
    chain.push_back(cur);
  }
  std::vector<AttrId> layout;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const ObjectClass& oc = classes_[*it];
    for (size_t slot = 0; slot < oc.attributes.size(); ++slot) {
      layout.push_back(EncodeSlot(class_id, *it, slot));
    }
  }
  return layout;
}

std::vector<ClassId> Schema::SubclassesOf(ClassId class_id) const {
  std::vector<ClassId> out;
  // Schemas are tiny; a quadratic walk is clearer than building a tree.
  bool changed = true;
  std::vector<bool> in(classes_.size(), false);
  while (changed) {
    changed = false;
    for (const ObjectClass& oc : classes_) {
      if (in[oc.id]) continue;
      if (oc.parent == class_id ||
          (oc.parent != kInvalidClass && in[oc.parent])) {
        in[oc.id] = true;
        changed = true;
      }
    }
  }
  for (const ObjectClass& oc : classes_) {
    if (in[oc.id]) out.push_back(oc.id);
  }
  return out;
}

bool Schema::IsKindOf(ClassId maybe_sub, ClassId ancestor) const {
  ClassId cur = maybe_sub;
  while (cur != kInvalidClass) {
    if (cur == ancestor) return true;
    cur = classes_[cur].parent;
  }
  return false;
}

std::string Schema::ToString() const {
  std::ostringstream os;
  for (const ObjectClass& oc : classes_) {
    os << oc.name;
    if (oc.parent != kInvalidClass) {
      os << " : " << classes_[oc.parent].name;
    }
    os << "(";
    for (size_t i = 0; i < oc.attributes.size(); ++i) {
      if (i) os << ", ";
      os << oc.attributes[i].name;
      if (oc.attributes[i].indexed) os << "*";
    }
    os << ")\n";
  }
  for (const Relationship& rel : relationships_) {
    os << rel.name << ": " << classes_[rel.a].name << " -- "
       << classes_[rel.b].name << "\n";
  }
  return os.str();
}

}  // namespace sqopt
