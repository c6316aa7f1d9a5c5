#include "stream/basic_ops.h"

#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace tempus {
namespace {

using ::tempus::testing::MakeIntervals;
using ::tempus::testing::MustMaterialize;

TEST(FilterStreamTest, KeepsMatchingTuples) {
  const TemporalRelation rel =
      MakeIntervals("R", {{1, 2}, {3, 9}, {4, 5}, {2, 8}});
  FilterStream filter(VectorStream::Scan(rel),
                      [](const Tuple& t) -> Result<bool> {
                        return t[3].time_value() - t[2].time_value() > 2;
                      });
  const TemporalRelation out = MustMaterialize(&filter, "out");
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(filter.metrics().tuples_read_left, 4u);
  EXPECT_EQ(filter.metrics().tuples_emitted, 2u);
}

TEST(FilterStreamTest, PropagatesPredicateError) {
  const TemporalRelation rel = MakeIntervals("R", {{1, 2}});
  FilterStream filter(VectorStream::Scan(rel),
                      [](const Tuple&) -> Result<bool> {
                        return Status::Internal("predicate failure");
                      });
  TEMPUS_ASSERT_OK(filter.Open());
  Tuple t;
  Result<bool> r = filter.Next(&t);
  EXPECT_FALSE(r.ok());
}

TEST(ProjectStreamTest, ReordersAndDrops) {
  const TemporalRelation rel = MakeIntervals("R", {{1, 2}});
  Result<std::unique_ptr<ProjectStream>> project =
      ProjectStream::Create(VectorStream::Scan(rel), {3, 0});
  ASSERT_TRUE(project.ok());
  EXPECT_EQ((*project)->schema().attribute_count(), 2u);
  EXPECT_EQ((*project)->schema().attribute(0).name, "ValidTo");
  const TemporalRelation out = MustMaterialize(project->get(), "out");
  EXPECT_EQ(out.tuple(0)[0].time_value(), 2);
  EXPECT_EQ(out.tuple(0)[1].int_value(), 0);
}

TEST(ProjectStreamTest, NamesRenameOutputAndKeepTheLifespan) {
  const TemporalRelation rel = MakeIntervals("R", {{1, 2}});
  Result<std::unique_ptr<ProjectStream>> project = ProjectStream::Create(
      VectorStream::Scan(rel), {3, 2, 0}, {"end", "start", "id"});
  ASSERT_TRUE(project.ok()) << project.status().ToString();
  const Schema& schema = (*project)->schema();
  EXPECT_EQ(schema.attribute(0).name, "end");
  EXPECT_EQ(schema.attribute(2).name, "id");
  ASSERT_TRUE(schema.has_lifespan());
  EXPECT_EQ(schema.valid_from_index(), 1u);
  EXPECT_EQ(schema.valid_to_index(), 0u);
  const TemporalRelation out = MustMaterialize(project->get(), "out");
  EXPECT_EQ(out.LifespanOf(0), Interval(1, 2));

  EXPECT_FALSE(ProjectStream::Create(VectorStream::Scan(rel), {3, 2}, {"x"})
                   .ok());
  EXPECT_FALSE(
      ProjectStream::Create(VectorStream::Scan(rel), {3, 2}, {"x", "x"}).ok());
}

TEST(ProjectStreamTest, RejectsBadIndex) {
  const TemporalRelation rel = MakeIntervals("R", {{1, 2}});
  EXPECT_FALSE(ProjectStream::Create(VectorStream::Scan(rel), {9}).ok());
}

TEST(SortStreamTest, SortsAndCountsWorkspace) {
  const TemporalRelation rel =
      MakeIntervals("R", {{5, 9}, {1, 4}, {3, 6}});
  Result<SortSpec> spec =
      SortSpec::ByLifespan(rel.schema(), TemporalField::kValidFrom,
                           SortDirection::kAscending);
  ASSERT_TRUE(spec.ok());
  SortStream sort(VectorStream::Scan(rel), *spec);
  const TemporalRelation out = MustMaterialize(&sort, "out");
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.LifespanOf(0), Interval(1, 4));
  EXPECT_EQ(out.LifespanOf(2), Interval(5, 9));
  // The sort buffers its whole input.
  EXPECT_EQ(sort.metrics().peak_workspace_tuples, 3u);
}

TEST(MapStreamTest, TransformsRows) {
  const TemporalRelation rel = MakeIntervals("R", {{1, 2}, {5, 6}});
  // Shift lifespans by +10.
  MapStream map(VectorStream::Scan(rel), rel.schema(),
                [](const Tuple& t) -> Result<Tuple> {
                  std::vector<Value> v = t.values();
                  v[2] = Value::Time(t[2].time_value() + 10);
                  v[3] = Value::Time(t[3].time_value() + 10);
                  return Tuple(std::move(v));
                });
  const TemporalRelation out = MustMaterialize(&map, "out");
  EXPECT_EQ(out.LifespanOf(0), Interval(11, 12));
  EXPECT_EQ(out.LifespanOf(1), Interval(15, 16));
}

TEST(DedupStreamTest, RemovesDuplicatesPreservingFirstOrder) {
  TemporalRelation rel("R", Schema::Canonical("S", ValueType::kInt64, "V",
                                              ValueType::kInt64));
  for (int round = 0; round < 3; ++round) {
    TEMPUS_ASSERT_OK(rel.AppendRow(Value::Int(1), Value::Int(0), 1, 2));
    TEMPUS_ASSERT_OK(rel.AppendRow(Value::Int(2), Value::Int(0), 3, 4));
  }
  DedupStream dedup(VectorStream::Scan(rel));
  const TemporalRelation out = MustMaterialize(&dedup, "out");
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.tuple(0)[0].int_value(), 1);
  EXPECT_EQ(out.tuple(1)[0].int_value(), 2);
  EXPECT_EQ(dedup.metrics().peak_workspace_tuples, 2u);
}

TEST(BasicOpsTest, ComposedPipeline) {
  const TemporalRelation rel =
      MakeIntervals("R", {{5, 9}, {1, 4}, {3, 6}, {1, 4}});
  Result<SortSpec> spec =
      SortSpec::ByLifespan(rel.schema(), TemporalField::kValidTo,
                           SortDirection::kDescending);
  ASSERT_TRUE(spec.ok());
  auto pipeline = std::make_unique<DedupStream>(std::make_unique<SortStream>(
      std::make_unique<FilterStream>(
          VectorStream::Scan(rel),
          [](const Tuple& t) -> Result<bool> {
            return t[2].time_value() <= 3;
          }),
      *spec));
  const TemporalRelation out = MustMaterialize(pipeline.get(), "out");
  // {1,4},{3,6},{1,4} pass the filter; dedup cannot drop any (distinct S).
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out.LifespanOf(0), Interval(3, 6));
}

}  // namespace
}  // namespace tempus
