#include "relation/catalog.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "gtest/gtest.h"
#include "plan/planner.h"
#include "testing/test_util.h"
#include "testing/workload.h"
#include "tql/parser.h"

namespace tempus {
namespace {

using ::tempus::testing::MakeIntervals;
using ::tempus::testing::MakeWorkloadRelation;
using ::tempus::testing::WorkloadSpec;

TEST(CatalogTest, RegisterAndLookup) {
  Catalog catalog;
  TEMPUS_EXPECT_OK(catalog.Register(MakeIntervals("R", {{1, 2}})));
  EXPECT_TRUE(catalog.Contains("R"));
  Result<const TemporalRelation*> rel = catalog.Lookup("R");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->size(), 1u);
  EXPECT_FALSE(catalog.Lookup("S").ok());
}

TEST(CatalogTest, DuplicateRegistrationFails) {
  Catalog catalog;
  TEMPUS_EXPECT_OK(catalog.Register(MakeIntervals("R", {{1, 2}})));
  EXPECT_EQ(catalog.Register(MakeIntervals("R", {{1, 2}})).code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, RegisterOrReplace) {
  Catalog catalog;
  catalog.RegisterOrReplace(MakeIntervals("R", {{1, 2}}));
  catalog.RegisterOrReplace(MakeIntervals("R", {{1, 2}, {3, 4}}));
  Result<const TemporalRelation*> rel = catalog.Lookup("R");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->size(), 2u);
}

TEST(CatalogTest, NamesSorted) {
  Catalog catalog;
  catalog.RegisterOrReplace(MakeIntervals("B", {{1, 2}}));
  catalog.RegisterOrReplace(MakeIntervals("A", {{1, 2}}));
  const std::vector<std::string> names = catalog.Names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "A");
  EXPECT_EQ(names[1], "B");
}

// The per-entry stats slot. Hit accounting runs only while some fault
// point is armed, so each test arms a sentinel that never fires and counts
// the hits of "relation.compute_stats" (one per ComputeStats scan).
class CatalogStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    FaultSpec sentinel;
    sentinel.trigger_at = 1000000000;
    FaultInjector::Global().Arm("sentinel.catalog_stats", sentinel);
  }
  void TearDown() override { FaultInjector::Global().Reset(); }

  static uint64_t ComputeHits() {
    return FaultInjector::Global().HitCount("relation.compute_stats");
  }

  static TemporalRelation Workload(const std::string& name, size_t count) {
    WorkloadSpec spec;
    spec.count = count;
    spec.seed = 7;
    return MakeWorkloadRelation(name, spec).value();
  }
};

TEST_F(CatalogStatsTest, CachedStatsEqualAFreshComputation) {
  Catalog catalog;
  TEMPUS_ASSERT_OK(catalog.Register(Workload("R", 300)));
  Result<std::shared_ptr<const CatalogEntry>> entry = catalog.LookupEntry("R");
  TEMPUS_ASSERT_OK(entry.status());
  Result<RelationStats> cached = (*entry)->Stats();
  TEMPUS_ASSERT_OK(cached.status());
  Result<RelationStats> fresh = (*entry)->relation().ComputeStats();
  TEMPUS_ASSERT_OK(fresh.status());
  EXPECT_EQ(cached->tuple_count, fresh->tuple_count);
  EXPECT_EQ(cached->min_valid_from, fresh->min_valid_from);
  EXPECT_EQ(cached->max_valid_to, fresh->max_valid_to);
  EXPECT_EQ(cached->mean_duration, fresh->mean_duration);
  EXPECT_EQ(cached->max_duration, fresh->max_duration);
  EXPECT_EQ(cached->mean_interarrival, fresh->mean_interarrival);
  EXPECT_EQ(cached->max_concurrency, fresh->max_concurrency);
  EXPECT_EQ(cached->tuple_count, 300u);
}

TEST_F(CatalogStatsTest, ComputedOnFirstUseAndSharedBySnapshots) {
  Catalog catalog;
  TEMPUS_ASSERT_OK(catalog.Register(Workload("R", 100)));
  EXPECT_EQ(ComputeHits(), 0u) << "Register must not compute stats";
  for (int i = 0; i < 5; ++i) {
    const Catalog snapshot = catalog.Snapshot();
    Result<std::shared_ptr<const CatalogEntry>> entry =
        snapshot.LookupEntry("R");
    TEMPUS_ASSERT_OK(entry.status());
    EXPECT_EQ(&(*entry)->relation(), snapshot.Lookup("R").value());
    TEMPUS_ASSERT_OK((*entry)->Stats().status());
  }
  EXPECT_EQ(ComputeHits(), 1u);
}

TEST_F(CatalogStatsTest, ReplaceRetiresTheSlotWithTheRelation) {
  Catalog catalog;
  catalog.RegisterOrReplace(Workload("R", 100));
  const Catalog before = catalog.Snapshot();
  TEMPUS_ASSERT_OK(before.LookupEntry("R").value()->Stats().status());
  EXPECT_EQ(ComputeHits(), 1u);

  catalog.RegisterOrReplace(Workload("R", 250));
  Result<RelationStats> after = catalog.LookupEntry("R").value()->Stats();
  TEMPUS_ASSERT_OK(after.status());
  EXPECT_EQ(after->tuple_count, 250u);
  EXPECT_EQ(ComputeHits(), 2u);

  // The earlier snapshot keeps the retired entry and its filled slot.
  EXPECT_EQ(before.LookupEntry("R").value()->Stats()->tuple_count, 100u);
  EXPECT_EQ(ComputeHits(), 2u);
}

TEST_F(CatalogStatsTest, AFailedComputationIsNotCached) {
  Catalog catalog;
  TEMPUS_ASSERT_OK(catalog.Register(Workload("R", 50)));
  const std::shared_ptr<const CatalogEntry> entry =
      catalog.LookupEntry("R").value();
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  FaultInjector::Global().Arm("relation.compute_stats", spec);
  EXPECT_EQ(entry->Stats().status().code(), StatusCode::kUnavailable);
  // The fault fired once; the retry computes and fills the slot.
  TEMPUS_ASSERT_OK(entry->Stats().status());
  TEMPUS_ASSERT_OK(entry->Stats().status());
  EXPECT_EQ(ComputeHits(), 2u);

  // A non-temporal schema fails on every call, and every call retries.
  TemporalRelation plain("Plain", Schema::Create({{"N", ValueType::kInt64}})
                                      .value());
  TEMPUS_ASSERT_OK(plain.Append(Tuple({Value::Int(1)})));
  TEMPUS_ASSERT_OK(catalog.Register(std::move(plain)));
  const std::shared_ptr<const CatalogEntry> bare =
      catalog.LookupEntry("Plain").value();
  EXPECT_EQ(bare->Stats().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(bare->Stats().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ComputeHits(), 4u);
}

TEST_F(CatalogStatsTest, ConcurrentFirstPlansComputeOnce) {
  // Eight planners race to be the first user of a freshly registered,
  // un-analyzed relation: the slot computes once, and all agree.
  Catalog catalog;
  TEMPUS_ASSERT_OK(catalog.Register(Workload("R", 2000)));
  Result<ConjunctiveQuery> query = ParseTql(
      "range of a is R range of b is R retrieve (a.S) where a during b");
  TEMPUS_ASSERT_OK(query.status());
  PlannerOptions options;
  options.optimizer = OptimizerMode::kCostBased;

  constexpr int kThreads = 8;
  std::vector<std::string> explains(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Catalog snapshot = catalog.Snapshot();
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      Planner planner(&snapshot, nullptr);
      Result<PlannedQuery> planned = planner.Plan(*query, options);
      explains[t] = planned.ok() ? planned->explain
                                 : planned.status().ToString();
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(ComputeHits(), 1u);
  EXPECT_NE(explains[0].find("est="), std::string::npos) << explains[0];
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(explains[t], explains[0]);
}

}  // namespace
}  // namespace tempus
