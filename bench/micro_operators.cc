// Microbenchmarks (google-benchmark): throughput of the stream temporal
// operators against the nested-loop baseline across input sizes — the
// crossover study behind the paper's Section 3 observation that
// conventional less-than join processing incurs "severe performance
// penalties".

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <vector>

#include "bench_util.h"
#include "datagen/interval_gen.h"
#include "join/allen_sweep_join.h"
#include "join/batch_sweep.h"
#include "join/contain_join.h"
#include "join/containment_semijoin.h"
#include "join/nested_loop.h"
#include "join/self_semijoin.h"
#include "stream/basic_ops.h"
#include "stream/batch.h"

namespace tempus {
namespace bench {
namespace {

struct Workload {
  TemporalRelation x;
  TemporalRelation y;
};

const Workload& SharedWorkload(size_t n) {
  static auto* cache = new std::map<size_t, Workload>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    IntervalWorkloadConfig config;
    config.count = n;
    config.seed = 7;
    config.mean_interarrival = 4.0;
    config.mean_duration = 32.0;
    TemporalRelation x =
        ValueOrDie(GenerateIntervalRelation("X", config), "gen X");
    config.seed = 8;
    config.mean_duration = 6.0;
    TemporalRelation y =
        ValueOrDie(GenerateIntervalRelation("Y", config), "gen Y");
    const SortSpec spec =
        ValueOrDie(kByValidFromAsc.ToSortSpec(x.schema()), "spec");
    x.SortBy(spec);
    y.SortBy(spec);
    it = cache->emplace(n, Workload{std::move(x), std::move(y)}).first;
  }
  return it->second;
}

void BM_ContainJoin_Sweep(benchmark::State& state) {
  const Workload& w = SharedWorkload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::unique_ptr<ContainJoinStream> join = ValueOrDie(
        ContainJoinStream::Create(VectorStream::Scan(w.x),
                                  VectorStream::Scan(w.y), {}),
        "join");
    benchmark::DoNotOptimize(ValueOrDie(DrainCount(join.get()), "drain"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_ContainJoin_Sweep)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_ContainJoin_SweepBatch(benchmark::State& state) {
  // Batch twin of BM_ContainJoin_Sweep (docs/BATCH.md): the same sweep
  // through the columnar batch operator, drained a batch at a time.
  const Workload& w = SharedWorkload(static_cast<size_t>(state.range(0)));
  ContainJoinOptions options;
  options.batch_size = 1024;
  for (auto _ : state) {
    std::unique_ptr<TupleStream> join = ValueOrDie(
        MakeContainJoin(VectorStream::Scan(w.x), VectorStream::Scan(w.y),
                        options),
        "join");
    benchmark::DoNotOptimize(
        ValueOrDie(DrainCountBatches(join.get()), "drain"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_ContainJoin_SweepBatch)->Arg(1000)->Arg(4000)->Arg(16000);

void BM_ContainJoin_NestedLoop(benchmark::State& state) {
  const Workload& w = SharedWorkload(static_cast<size_t>(state.range(0)));
  PairPredicate pred = ValueOrDie(
      MakeIntervalPairPredicate(w.x.schema(), w.y.schema(),
                                AllenMask::Single(AllenRelation::kContains)),
      "pred");
  for (auto _ : state) {
    std::unique_ptr<NestedLoopJoin> join = ValueOrDie(
        NestedLoopJoin::Create(VectorStream::Scan(w.x),
                               VectorStream::Scan(w.y), pred),
        "join");
    benchmark::DoNotOptimize(ValueOrDie(DrainCount(join.get()), "drain"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_ContainJoin_NestedLoop)->Arg(1000)->Arg(4000);

void BM_ContainSemijoin_TwoBuffer(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Workload& w = SharedWorkload(n);
  const TemporalRelation ys = w.y.SortedBy(
      ValueOrDie(kByValidToAsc.ToSortSpec(w.y.schema()), "spec"));
  for (auto _ : state) {
    std::unique_ptr<TupleStream> semi = ValueOrDie(
        MakeContainSemijoin(VectorStream::Scan(w.x), VectorStream::Scan(ys),
                            {kByValidFromAsc, kByValidToAsc, true, false}),
        "semi");
    benchmark::DoNotOptimize(ValueOrDie(DrainCount(semi.get()), "drain"));
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_ContainSemijoin_TwoBuffer)->Arg(1000)->Arg(16000);

void BM_ContainSemijoin_TwoBufferBatch(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Workload& w = SharedWorkload(n);
  const TemporalRelation ys = w.y.SortedBy(
      ValueOrDie(kByValidToAsc.ToSortSpec(w.y.schema()), "spec"));
  TemporalSemijoinOptions options;
  options.batch_size = 1024;
  for (auto _ : state) {
    std::unique_ptr<TupleStream> semi = ValueOrDie(
        MakeContainSemijoin(VectorStream::Scan(w.x), VectorStream::Scan(ys),
                            options),
        "semi");
    benchmark::DoNotOptimize(
        ValueOrDie(DrainCountBatches(semi.get()), "drain"));
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_ContainSemijoin_TwoBufferBatch)->Arg(1000)->Arg(16000);

void BM_SelfContainedSemijoin_SingleScan(benchmark::State& state) {
  const Workload& w = SharedWorkload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::unique_ptr<TupleStream> semi = ValueOrDie(
        MakeSelfContainedSemijoin(VectorStream::Scan(w.x), {}), "semi");
    benchmark::DoNotOptimize(ValueOrDie(DrainCount(semi.get()), "drain"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SelfContainedSemijoin_SingleScan)->Arg(1000)->Arg(16000);

void BM_SelfContainedSemijoin_SingleScanBatch(benchmark::State& state) {
  const Workload& w = SharedWorkload(static_cast<size_t>(state.range(0)));
  SelfSemijoinOptions options;
  options.batch_size = 1024;
  for (auto _ : state) {
    std::unique_ptr<TupleStream> semi = ValueOrDie(
        MakeSelfContainedSemijoin(VectorStream::Scan(w.x), options), "semi");
    benchmark::DoNotOptimize(
        ValueOrDie(DrainCountBatches(semi.get()), "drain"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SelfContainedSemijoin_SingleScanBatch)->Arg(1000)->Arg(16000);

void BM_OverlapSweepJoin(benchmark::State& state) {
  const Workload& w = SharedWorkload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::unique_ptr<AllenSweepJoin> join = ValueOrDie(
        MakeOverlapJoin(VectorStream::Scan(w.x), VectorStream::Scan(w.y)),
        "join");
    benchmark::DoNotOptimize(ValueOrDie(DrainCount(join.get()), "drain"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_OverlapSweepJoin)->Arg(1000)->Arg(8000);

void BM_OverlapSweepJoinBatch(benchmark::State& state) {
  const Workload& w = SharedWorkload(static_cast<size_t>(state.range(0)));
  AllenSweepJoinOptions options;
  options.batch_size = 1024;
  for (auto _ : state) {
    std::unique_ptr<TupleStream> join = ValueOrDie(
        MakeAllenSweepJoin(VectorStream::Scan(w.x), VectorStream::Scan(w.y),
                           options),
        "join");
    benchmark::DoNotOptimize(
        ValueOrDie(DrainCountBatches(join.get()), "drain"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_OverlapSweepJoinBatch)->Arg(1000)->Arg(8000);

// Expression-kernel axis (docs/BATCH.md): the same compiled endpoint
// predicate evaluated on the vectorized selection-vector path vs. the
// interpreted per-row path, at batch=1024. Rows/s is items_per_second;
// the acceptance target is the vector path >= 1.5x interp on the filter.
CompiledPredicate EndpointPredicate(const TemporalRelation& rel,
                                    bool vectorized) {
  // Median ValidFrom: ~50% selectivity, so both the pass and fail lanes of
  // the mask loop run.
  std::vector<TimePoint> starts;
  starts.reserve(rel.size());
  for (size_t i = 0; i < rel.size(); ++i) {
    starts.push_back(rel.LifespanOf(i).start);
  }
  std::sort(starts.begin(), starts.end());
  const TimePoint median = starts.empty() ? 0 : starts[starts.size() / 2];
  CompiledPredicate pred;
  pred.kernel = PredicateKernel(
      {KernelAtom::TimeConst(2, KernelCmp::kLe, median),
       KernelAtom::TimeCol(2, KernelCmp::kLt, 3)});
  pred.vectorized = vectorized;
  return pred;
}

void RunFilterBench(benchmark::State& state, bool vectorized) {
  const Workload& w = SharedWorkload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    FilterStream filter(VectorStream::Scan(w.x),
                        EndpointPredicate(w.x, vectorized),
                        /*comparison_weight=*/2);
    benchmark::DoNotOptimize(
        ValueOrDie(DrainCountBatches(&filter, 1024), "drain"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Filter_KernelVector(benchmark::State& state) {
  RunFilterBench(state, /*vectorized=*/true);
}
BENCHMARK(BM_Filter_KernelVector)->Arg(16000)->Arg(64000);

void BM_Filter_KernelInterp(benchmark::State& state) {
  RunFilterBench(state, /*vectorized=*/false);
}
BENCHMARK(BM_Filter_KernelInterp)->Arg(16000)->Arg(64000);

void RunProjectBench(benchmark::State& state, bool vectorized) {
  const Workload& w = SharedWorkload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::unique_ptr<ProjectStream> project = ValueOrDie(
        ProjectStream::Create(VectorStream::Scan(w.x), {0, 2, 3}, {},
                              vectorized),
        "project");
    benchmark::DoNotOptimize(
        ValueOrDie(DrainCountBatches(project.get(), 1024), "drain"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_Project_KernelVector(benchmark::State& state) {
  RunProjectBench(state, /*vectorized=*/true);
}
BENCHMARK(BM_Project_KernelVector)->Arg(16000)->Arg(64000);

void BM_Project_KernelInterp(benchmark::State& state) {
  RunProjectBench(state, /*vectorized=*/false);
}
BENCHMARK(BM_Project_KernelInterp)->Arg(16000)->Arg(64000);

void BM_SortEnforcer(benchmark::State& state) {
  const Workload& w = SharedWorkload(static_cast<size_t>(state.range(0)));
  const SortSpec spec =
      ValueOrDie(kByValidToAsc.ToSortSpec(w.x.schema()), "spec");
  for (auto _ : state) {
    SortStream sort(VectorStream::Scan(w.x), spec);
    benchmark::DoNotOptimize(ValueOrDie(DrainCount(&sort), "drain"));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortEnforcer)->Arg(16000);

}  // namespace
}  // namespace bench
}  // namespace tempus
