#include "plan/planner.h"

#include "datagen/faculty_gen.h"
#include "datagen/interval_gen.h"
#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace tempus {
namespace {

using ::tempus::testing::ExpectSameTuples;
using ::tempus::testing::MakeIntervals;

ConjunctiveQuery TwoVarQuery(const std::string& op, bool distinct,
                             bool left_outputs_only) {
  ConjunctiveQuery q;
  q.range_vars = {{"a", "X"}, {"b", "Y"}};
  q.distinct = distinct;
  if (left_outputs_only) {
    q.outputs = {{{"a", "S"}, ""}, {{"a", "ValidFrom"}, ""},
                 {{"a", "ValidTo"}, ""}};
  }
  TemporalAtom atom;
  atom.left_var = "a";
  atom.right_var = "b";
  atom.op_name = op;
  if (op == "overlap") {
    atom.mask = AllenMask::Intersecting();
  } else {
    Result<AllenRelation> rel = AllenRelationFromName(op);
    EXPECT_TRUE(rel.ok());
    atom.mask = AllenMask::Single(rel.value());
  }
  q.temporal_atoms.push_back(atom);
  return q;
}

class PlannerTwoVarTest : public ::testing::Test {
 protected:
  void SetUp() override {
    IntervalWorkloadConfig config;
    config.count = 200;
    config.seed = 1;
    config.mean_duration = 20.0;
    Result<TemporalRelation> x = GenerateIntervalRelation("X", config);
    config.seed = 2;
    config.mean_duration = 6.0;
    Result<TemporalRelation> y = GenerateIntervalRelation("Y", config);
    ASSERT_TRUE(x.ok() && y.ok());
    TEMPUS_ASSERT_OK(catalog_.Register(std::move(x).value()));
    TEMPUS_ASSERT_OK(catalog_.Register(std::move(y).value()));
  }

  /// Plans + executes under both kStream and kNaive and expects identical
  /// results; returns the stream explain text.
  std::string CheckStylesAgree(const ConjunctiveQuery& q) {
    Planner planner(&catalog_, &integrity_);
    PlannerOptions stream_opts;
    stream_opts.style = PlanStyle::kStream;
    PlannerOptions naive_opts;
    naive_opts.style = PlanStyle::kNaive;
    Result<PlannedQuery> stream_plan = planner.Plan(q, stream_opts);
    Result<PlannedQuery> naive_plan = planner.Plan(q, naive_opts);
    EXPECT_TRUE(stream_plan.ok()) << stream_plan.status().ToString();
    EXPECT_TRUE(naive_plan.ok()) << naive_plan.status().ToString();
    if (!stream_plan.ok() || !naive_plan.ok()) return "";
    Result<TemporalRelation> a = stream_plan->Execute();
    Result<TemporalRelation> b = naive_plan->Execute();
    EXPECT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_TRUE(b.ok()) << b.status().ToString();
    if (a.ok() && b.ok()) ExpectSameTuples(*a, *b);
    return stream_plan->explain;
  }

  Catalog catalog_;
  IntegrityCatalog integrity_;
};

TEST_F(PlannerTwoVarTest, ContainsJoinUsesContainJoin) {
  const std::string explain =
      CheckStylesAgree(TwoVarQuery("contains", false, false));
  EXPECT_NE(explain.find("Contain-join"), std::string::npos) << explain;
}

TEST_F(PlannerTwoVarTest, DuringJoinUsesSweep) {
  const std::string explain =
      CheckStylesAgree(TwoVarQuery("during", false, false));
  EXPECT_NE(explain.find("Allen-sweep join"), std::string::npos) << explain;
}

TEST_F(PlannerTwoVarTest, OverlapJoinUsesSweep) {
  const std::string explain =
      CheckStylesAgree(TwoVarQuery("overlap", false, false));
  EXPECT_NE(explain.find("Allen-sweep join"), std::string::npos) << explain;
}

TEST_F(PlannerTwoVarTest, BeforeJoinUsesBufferedInner) {
  const std::string explain =
      CheckStylesAgree(TwoVarQuery("before", false, false));
  EXPECT_NE(explain.find("Before-join"), std::string::npos) << explain;
}

TEST_F(PlannerTwoVarTest, DuringSemijoinUsesTwoBuffers) {
  const std::string explain =
      CheckStylesAgree(TwoVarQuery("during", true, true));
  EXPECT_NE(explain.find("Contained-semijoin"), std::string::npos)
      << explain;
}

TEST_F(PlannerTwoVarTest, ContainsSemijoin) {
  const std::string explain =
      CheckStylesAgree(TwoVarQuery("contains", true, true));
  EXPECT_NE(explain.find("Contain-semijoin"), std::string::npos) << explain;
}

TEST_F(PlannerTwoVarTest, OverlapSemijoin) {
  const std::string explain =
      CheckStylesAgree(TwoVarQuery("overlap", true, true));
  EXPECT_NE(explain.find("Overlap-semijoin"), std::string::npos) << explain;
}

TEST_F(PlannerTwoVarTest, BeforeSemijoin) {
  const std::string explain =
      CheckStylesAgree(TwoVarQuery("before", true, true));
  EXPECT_NE(explain.find("Before-semijoin"), std::string::npos) << explain;
}

TEST_F(PlannerTwoVarTest, MeetsJoinStillStreams) {
  const std::string explain =
      CheckStylesAgree(TwoVarQuery("meets", false, false));
  EXPECT_NE(explain.find("Allen-sweep join"), std::string::npos) << explain;
}

TEST_F(PlannerTwoVarTest, SelectionsArePushed) {
  ConjunctiveQuery q = TwoVarQuery("during", false, false);
  q.comparisons.push_back(
      {ScalarTerm::Column("a", "ValidFrom"), CmpOp::kGe,
       ScalarTerm::Lit(Value::Int(100))});
  const std::string explain = CheckStylesAgree(q);
  EXPECT_NE(explain.find("Select"), std::string::npos) << explain;
}

TEST(PlannerTest, SelfSemijoinSingleScan) {
  Catalog catalog;
  IntegrityCatalog integrity;
  TEMPUS_ASSERT_OK(catalog.Register(testing::MakeIntervals(
      "R", {{0, 10}, {1, 5}, {2, 3}, {20, 30}, {21, 22}})));
  ConjunctiveQuery q;
  q.range_vars = {{"i", "R"}, {"j", "R"}};
  q.distinct = true;
  q.outputs = {{{"i", "S"}, ""}, {{"i", "ValidFrom"}, ""},
               {{"i", "ValidTo"}, ""}};
  TemporalAtom atom;
  atom.left_var = "i";
  atom.right_var = "j";
  atom.op_name = "during";
  atom.mask = AllenMask::Single(AllenRelation::kDuring);
  q.temporal_atoms.push_back(atom);
  Planner planner(&catalog, &integrity);
  Result<PlannedQuery> plan = planner.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->explain.find("Contained-semijoin(X,X)"),
            std::string::npos)
      << plan->explain;
  Result<TemporalRelation> result = plan->Execute();
  ASSERT_TRUE(result.ok());
  // {1,5},{2,3} inside {0,10}; {21,22} inside {20,30}.
  EXPECT_EQ(result->size(), 3u);
}


TEST(PlannerTest, CostModelPicksContainJoinOrdering) {
  // Sparse containees (large 1/lambda) make the (From^, To^) ordering's
  // retained-containee estimate cheaper than the extra transient of
  // (From^, From^); the planner should consult the cost model and pick it.
  Catalog catalog;
  IntegrityCatalog integrity;
  IntervalWorkloadConfig config;
  config.count = 400;
  config.seed = 5;
  config.mean_interarrival = 2.0;
  config.mean_duration = 16.0;
  TEMPUS_ASSERT_OK(
      catalog.Register(GenerateIntervalRelation("X", config).value()));
  config.seed = 6;
  config.mean_interarrival = 32.0;
  config.mean_duration = 8.0;
  TEMPUS_ASSERT_OK(
      catalog.Register(GenerateIntervalRelation("Y", config).value()));
  ConjunctiveQuery q;
  q.range_vars = {{"a", "X"}, {"b", "Y"}};
  TemporalAtom atom;
  atom.left_var = "a";
  atom.right_var = "b";
  atom.op_name = "contains";
  atom.mask = AllenMask::Single(AllenRelation::kContains);
  q.temporal_atoms.push_back(atom);
  Planner planner(&catalog, &integrity);
  Result<PlannedQuery> plan = planner.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->explain.find("(ValidFrom^, ValidTo^)"), std::string::npos)
      << plan->explain;
  EXPECT_NE(plan->explain.find("cost model"), std::string::npos)
      << plan->explain;
  Result<TemporalRelation> result = plan->Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(PlannerTest, ContainJoinReusesExistingInterestingOrder) {
  // A base relation already sorted ValidTo^ should be consumed as-is
  // (free interesting order) rather than re-sorted.
  Catalog catalog;
  IntegrityCatalog integrity;
  IntervalWorkloadConfig config;
  config.count = 100;
  config.seed = 7;
  TemporalRelation x = GenerateIntervalRelation("X", config).value();
  config.seed = 8;
  TemporalRelation y = GenerateIntervalRelation("Y", config).value();
  y.SortBy(SortSpec::ByLifespan(y.schema(), TemporalField::kValidTo,
                                SortDirection::kAscending)
               .value());
  TEMPUS_ASSERT_OK(catalog.Register(std::move(x)));
  TEMPUS_ASSERT_OK(catalog.Register(std::move(y)));
  ConjunctiveQuery q;
  q.range_vars = {{"a", "X"}, {"b", "Y"}};
  TemporalAtom atom;
  atom.left_var = "a";
  atom.right_var = "b";
  atom.op_name = "contains";
  atom.mask = AllenMask::Single(AllenRelation::kContains);
  q.temporal_atoms.push_back(atom);
  Planner planner(&catalog, &integrity);
  Result<PlannedQuery> plan = planner.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Right side keeps its ValidTo^ order; only the left gets a Sort.
  EXPECT_NE(plan->explain.find("(ValidFrom^, ValidTo^)"), std::string::npos)
      << plan->explain;
  Result<TemporalRelation> result = plan->Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST(PlannerTest, ContradictionYieldsEmptyPlan) {
  Catalog catalog;
  IntegrityCatalog integrity;
  TEMPUS_ASSERT_OK(
      catalog.Register(testing::MakeIntervals("R", {{0, 10}, {2, 5}})));
  ConjunctiveQuery q;
  q.range_vars = {{"a", "R"}, {"b", "R"}};
  TemporalAtom before;
  before.left_var = "a";
  before.right_var = "b";
  before.op_name = "before";
  before.mask = AllenMask::Single(AllenRelation::kBefore);
  TemporalAtom after;
  after.left_var = "a";
  after.right_var = "b";
  after.op_name = "after";
  after.mask = AllenMask::Single(AllenRelation::kAfter);
  q.temporal_atoms = {before, after};
  Planner planner(&catalog, &integrity);
  Result<PlannedQuery> plan = planner.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->explain.find("Empty"), std::string::npos);
  Result<TemporalRelation> result = plan->Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 0u);
}

TEST(PlannerTest, UnknownRelationAndVariableErrors) {
  Catalog catalog;
  IntegrityCatalog integrity;
  Planner planner(&catalog, &integrity);
  ConjunctiveQuery q;
  q.range_vars = {{"a", "Missing"}};
  EXPECT_FALSE(planner.Plan(q).ok());

  TEMPUS_ASSERT_OK(catalog.Register(testing::MakeIntervals("R", {{0, 1}})));
  ConjunctiveQuery q2;
  q2.range_vars = {{"a", "R"}};
  q2.comparisons.push_back({ScalarTerm::Column("zz", "S"), CmpOp::kEq,
                            ScalarTerm::Lit(Value::Int(1))});
  EXPECT_FALSE(planner.Plan(q2).ok());

  ConjunctiveQuery q3;
  q3.range_vars = {{"a", "R"}, {"a", "R"}};
  EXPECT_FALSE(planner.Plan(q3).ok());
}

TEST(PlannerTest, SingleVariableSelection) {
  Catalog catalog;
  IntegrityCatalog integrity;
  TEMPUS_ASSERT_OK(catalog.Register(
      testing::MakeIntervals("R", {{0, 10}, {5, 8}, {20, 25}})));
  ConjunctiveQuery q;
  q.range_vars = {{"r", "R"}};
  q.comparisons.push_back({ScalarTerm::Column("r", "ValidFrom"), CmpOp::kLt,
                           ScalarTerm::Lit(Value::Int(10))});
  Planner planner(&catalog, &integrity);
  Result<PlannedQuery> plan = planner.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Result<TemporalRelation> result = plan->Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
}

TEST(PlannerTest, ProjectionWithAliases) {
  Catalog catalog;
  IntegrityCatalog integrity;
  TEMPUS_ASSERT_OK(catalog.Register(testing::MakeIntervals("R", {{0, 10}})));
  ConjunctiveQuery q;
  q.range_vars = {{"r", "R"}};
  q.outputs = {{{"r", "ValidFrom"}, "Start"}, {{"r", "S"}, ""}};
  Planner planner(&catalog, &integrity);
  Result<PlannedQuery> plan = planner.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Result<TemporalRelation> result = plan->Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->schema().attribute(0).name, "Start");
  EXPECT_EQ(result->schema().attribute(1).name, "r.S");

  // Clashing aliases cannot name a schema: the output keeps the input's
  // attribute names (and its lifespan) instead of failing the query.
  q.outputs = {{{"r", "ValidFrom"}, "T"}, {{"r", "ValidTo"}, "T"}};
  plan = planner.Plan(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->explain.find("Project [T, T]"), std::string::npos)
      << plan->explain;
  result = plan->Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->schema().attribute(0).name, "ValidFrom");
  EXPECT_EQ(result->schema().attribute(1).name, "ValidTo");
  EXPECT_TRUE(result->schema().has_lifespan());
}

}  // namespace
}  // namespace tempus
