// Where the planner's statistics come from, counted at the
// "relation.compute_stats" fault point (one hit per ComputeStats scan):
// analyze-built stats spare the scalars entirely, and un-analyzed relations
// are scanned once per catalog entry, however many plans read them.

#include <string>
#include <vector>

#include "common/fault.h"
#include "exec/engine.h"
#include "gtest/gtest.h"
#include "plan/planner.h"
#include "stats/interval_stats.h"
#include "testing/test_util.h"
#include "testing/workload.h"
#include "tql/parser.h"

namespace tempus {
namespace {

using ::tempus::testing::MakeWorkloadRelation;
using ::tempus::testing::WorkloadSpec;

// Every statement shape that reads statistics: a two-variable stream
// operator, a self-join binding one relation twice, a three-variable
// cascade (join-order DP) and two sequenced whole-relation statements.
const std::vector<std::string>& StatementShapes() {
  static const std::vector<std::string> shapes = {
      "range of x is X range of y is Y retrieve (x.S, y.S) where x during y",
      "range of a is X range of b is X retrieve (a.S) where a overlaps b",
      "range of a is X range of b is Y range of c is X "
      "retrieve (a.S, b.S, c.S) where a.S = b.S and b.S = c.S",
      "left join X Y on overlaps",
      "coalesce Y",
  };
  return shapes;
}

class PlannerStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    FaultSpec sentinel;
    sentinel.trigger_at = 1000000000;
    FaultInjector::Global().Arm("sentinel.planner_stats", sentinel);
    options_.optimizer = OptimizerMode::kCostBased;
  }
  void TearDown() override { FaultInjector::Global().Reset(); }

  static uint64_t ComputeHits() {
    return FaultInjector::Global().HitCount("relation.compute_stats");
  }

  static TemporalRelation Workload(const std::string& name, size_t count,
                                   uint64_t seed) {
    WorkloadSpec spec;
    spec.count = count;
    spec.seed = seed;
    return MakeWorkloadRelation(name, spec).value();
  }

  PlannerOptions options_;
};

TEST_F(PlannerStatsTest, AnalyzedRelationsPlanWithoutComputingScalars) {
  Catalog catalog;
  StatsCatalog stats;
  for (const auto& [name, seed] :
       std::vector<std::pair<std::string, uint64_t>>{{"X", 1}, {"Y", 2}}) {
    TemporalRelation rel = Workload(name, 200, seed);
    stats.Put(name, BuildIntervalStats(rel).value());
    TEMPUS_ASSERT_OK(catalog.Register(std::move(rel)));
  }
  const uint64_t before = ComputeHits();
  const Planner planner(&catalog, nullptr, &stats);
  for (const std::string& tql : StatementShapes()) {
    Result<ConjunctiveQuery> query = ParseTql(tql);
    TEMPUS_ASSERT_OK(query.status());
    Result<PlannedQuery> planned = planner.Plan(*query, options_);
    TEMPUS_ASSERT_OK(planned.status());
    EXPECT_NE(planned->explain.find("est="), std::string::npos) << tql;
  }
  EXPECT_EQ(ComputeHits(), before);
}

TEST_F(PlannerStatsTest, UnanalyzedRelationsScanOncePerEntry) {
  Engine engine;
  TEMPUS_ASSERT_OK(engine.mutable_catalog()->Register(Workload("X", 200, 1)));
  TEMPUS_ASSERT_OK(engine.mutable_catalog()->Register(Workload("Y", 200, 2)));
  // RunQuery plans against a fresh Snapshot() each time; the self-join
  // binds X twice in one plan.
  for (int round = 0; round < 4; ++round) {
    for (const std::string& tql : StatementShapes()) {
      Result<QueryRun> run = engine.RunQuery(tql, options_);
      TEMPUS_ASSERT_OK(run.status());
      TEMPUS_ASSERT_OK(run->status);
    }
  }
  EXPECT_EQ(ComputeHits(), 2u);
}

TEST_F(PlannerStatsTest, ReplaceRecomputesAndEstimatesFollow) {
  Engine engine;
  const std::string tql =
      "range of a is R range of b is R retrieve (a.S) where a overlaps b";
  engine.mutable_catalog()->RegisterOrReplace(Workload("R", 100, 3));
  Result<std::string> first = engine.Explain(tql, options_);
  TEMPUS_ASSERT_OK(first.status());
  EXPECT_NE(first->find("[100 tuples] est=(rows=100 "), std::string::npos)
      << *first;
  TEMPUS_ASSERT_OK(engine.Explain(tql, options_).status());
  EXPECT_EQ(ComputeHits(), 1u);

  engine.mutable_catalog()->RegisterOrReplace(Workload("R", 250, 3));
  Result<std::string> second = engine.Explain(tql, options_);
  TEMPUS_ASSERT_OK(second.status());
  EXPECT_NE(second->find("[250 tuples] est=(rows=250 "), std::string::npos)
      << *second;
  EXPECT_EQ(ComputeHits(), 2u);
}

}  // namespace
}  // namespace tempus
