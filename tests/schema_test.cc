#include "catalog/schema.h"

#include <gtest/gtest.h>

#include "catalog/schema_builder.h"
#include "tests/test_util.h"
#include "workload/example_schema.h"

namespace sqopt {
namespace {

Schema MakeSmall() {
  SchemaBuilder b;
  b.AddClass("person")
      .Attr("name", ValueType::kString, /*indexed=*/true)
      .Attr("age", ValueType::kInt);
  b.AddClass("student").Parent("person").Attr("gpa", ValueType::kDouble);
  b.AddClass("course").Attr("title", ValueType::kString);
  b.AddRelationship("enrolled", "student", "course");
  auto result = b.Build();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(SchemaTest, FindClassAndRelationship) {
  Schema s = MakeSmall();
  EXPECT_NE(s.FindClass("person"), kInvalidClass);
  EXPECT_NE(s.FindClass("student"), kInvalidClass);
  EXPECT_EQ(s.FindClass("nope"), kInvalidClass);
  EXPECT_NE(s.FindRelationship("enrolled"), kInvalidRel);
  EXPECT_EQ(s.FindRelationship("nope"), kInvalidRel);
}

TEST(SchemaTest, AttributeResolution) {
  Schema s = MakeSmall();
  ClassId person = s.FindClass("person");
  AttrRef name = s.FindAttribute(person, "name");
  ASSERT_TRUE(name.valid());
  EXPECT_EQ(s.attribute(name).name, "name");
  EXPECT_TRUE(s.attribute(name).indexed);
  EXPECT_FALSE(s.FindAttribute(person, "gpa").valid());
}

TEST(SchemaTest, InheritedAttributeResolvesOnSubclass) {
  Schema s = MakeSmall();
  ClassId student = s.FindClass("student");
  AttrRef name = s.FindAttribute(student, "name");
  ASSERT_TRUE(name.valid());
  // Identity stays on the queried class.
  EXPECT_EQ(name.class_id, student);
  EXPECT_EQ(s.attribute(name).name, "name");
  EXPECT_EQ(s.AttrRefName(name), "student.name");
}

TEST(SchemaTest, ResolveQualified) {
  Schema s = MakeSmall();
  auto ok = s.ResolveQualified("student.gpa");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(s.AttrRefName(*ok), "student.gpa");
  EXPECT_FALSE(s.ResolveQualified("student").ok());
  EXPECT_FALSE(s.ResolveQualified("ghost.x").ok());
  EXPECT_FALSE(s.ResolveQualified("student.ghost").ok());
}

TEST(SchemaTest, LayoutPutsInheritedFirst) {
  Schema s = MakeSmall();
  ClassId student = s.FindClass("student");
  std::vector<AttrId> layout = s.LayoutOf(student);
  ASSERT_EQ(layout.size(), 3u);
  EXPECT_EQ(s.attribute(AttrRef{student, layout[0]}).name, "name");
  EXPECT_EQ(s.attribute(AttrRef{student, layout[1]}).name, "age");
  EXPECT_EQ(s.attribute(AttrRef{student, layout[2]}).name, "gpa");
}

TEST(SchemaTest, SubclassesAndKindOf) {
  Schema s = MakeSmall();
  ClassId person = s.FindClass("person");
  ClassId student = s.FindClass("student");
  std::vector<ClassId> subs = s.SubclassesOf(person);
  ASSERT_EQ(subs.size(), 1u);
  EXPECT_EQ(subs[0], student);
  EXPECT_TRUE(s.IsKindOf(student, person));
  EXPECT_FALSE(s.IsKindOf(person, student));
  EXPECT_TRUE(s.IsKindOf(person, person));
}

TEST(SchemaTest, RelationshipLookups) {
  Schema s = MakeSmall();
  ClassId student = s.FindClass("student");
  ClassId person = s.FindClass("person");
  EXPECT_EQ(s.RelationshipsOf(student).size(), 1u);
  EXPECT_EQ(s.RelationshipsOf(person).size(), 0u);
}

TEST(SchemaBuilderTest, RejectsDuplicateClass) {
  SchemaBuilder b;
  b.AddClass("x");
  b.AddClass("x");
  EXPECT_FALSE(b.Build().ok());
}

TEST(SchemaBuilderTest, RejectsUnknownParent) {
  SchemaBuilder b;
  b.AddClass("x").Parent("ghost");
  EXPECT_FALSE(b.Build().ok());
}

TEST(SchemaBuilderTest, RejectsSelfParent) {
  SchemaBuilder b;
  b.AddClass("x").Parent("x");
  EXPECT_FALSE(b.Build().ok());
}

TEST(SchemaBuilderTest, RejectsInheritanceCycle) {
  SchemaBuilder b;
  b.AddClass("a").Parent("b");
  b.AddClass("b").Parent("a");
  EXPECT_FALSE(b.Build().ok());
}

TEST(SchemaBuilderTest, RejectsDuplicateAttribute) {
  SchemaBuilder b;
  b.AddClass("x").Attr("a", ValueType::kInt).Attr("a", ValueType::kInt);
  EXPECT_FALSE(b.Build().ok());
}

TEST(SchemaBuilderTest, RejectsShadowedAttribute) {
  SchemaBuilder b;
  b.AddClass("base").Attr("a", ValueType::kInt);
  b.AddClass("derived").Parent("base").Attr("a", ValueType::kInt);
  EXPECT_FALSE(b.Build().ok());
}

TEST(SchemaBuilderTest, RejectsRelationshipToUnknownClass) {
  SchemaBuilder b;
  b.AddClass("x");
  b.AddRelationship("r", "x", "ghost");
  EXPECT_FALSE(b.Build().ok());
}

TEST(SchemaBuilderTest, RejectsDuplicateRelationship) {
  SchemaBuilder b;
  b.AddClass("x");
  b.AddClass("y");
  b.AddRelationship("r", "x", "y");
  b.AddRelationship("r", "y", "x");
  EXPECT_FALSE(b.Build().ok());
}

TEST(Figure21SchemaTest, MatchesPaper) {
  auto schema = BuildFigure21Schema();
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_classes(), 9u);
  EXPECT_EQ(schema->num_relationships(), 5u);
  // Inheritance: driver and manager under employee, supervisor under
  // driver.
  ClassId employee = schema->FindClass("employee");
  ClassId supervisor = schema->FindClass("supervisor");
  EXPECT_TRUE(schema->IsKindOf(supervisor, employee));
  // supervisor inherits licenseClass through driver.
  EXPECT_TRUE(schema->FindAttribute(supervisor, "licenseClass").valid());
  // vehicle# resolves.
  EXPECT_TRUE(schema->ResolveQualified("vehicle.vehicle#").ok());
}

}  // namespace
}  // namespace sqopt
