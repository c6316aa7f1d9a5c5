// tempus_perf: the tempus end-to-end benchmark program.
//
//   tempus_perf --workload analytic|server_mix|paged_io --seed N
//               --seconds S --trace 0|1 [--spans PATH] [--source ID]
//
// Sets the workload up five times (setup_s is the median), computes the
// reference result of every operation once, then either measures the
// end-to-end metrics with tracing off (--trace 0) or runs the traced
// per-layer pass (--trace 1). The last stdout line is the result JSON;
// the lines before it are a host record and a readable summary.
// perfbench/NOTES.md defines every metric.

#include <sys/utsname.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "obs/metrics_json.h"
#include "runner.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 5;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans_path;
  std::string source_id = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args->trace = std::atoi(value);
    } else if (key == "--spans") {
      args->spans_path = value;
    } else if (key == "--source") {
      args->source_id = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         (args->trace == 0 || args->trace == 1);
}

void PrintHost(const Args& args) {
  utsname host{};
  uname(&host);
  std::printf(
      "HOST {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"nproc\":%u,\"kernel\":\"%s %s\",\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"source\":\"%s\"}\n",
      tempus::JsonEscape(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace,
      std::thread::hardware_concurrency(), host.sysname, host.release,
      tempus::JsonEscape("gcc " __VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      tempus::JsonEscape(args.source_id).c_str());
}

void PrintPhase(const char* what, const PhaseResult& phase) {
  const double frac =
      phase.attempted > 0
          ? static_cast<double>(phase.failed) / static_cast<double>(phase.attempted)
          : 0.0;
  std::printf("%s: attempted=%llu failed=%llu failed_frac=%.4f "
              "ops_per_s=%.3f rows_out_per_s=%.1f\n",
              what, static_cast<unsigned long long>(phase.attempted),
              static_cast<unsigned long long>(phase.failed), frac,
              phase.ops_per_s, phase.rows_per_s);
  const LatencyLog& lat = phase.latencies;
  std::printf("  latency_p50_ms=%.3f latency_p90_ms=%.3f (n=%zu)\n",
              Percentile(lat.all_ms, 0.5), Percentile(lat.all_ms, 0.9),
              lat.all_ms.size());
  for (const auto& [cls, samples] : lat.by_class_ms) {
    std::printf("  %s_p50_ms=%.3f (n=%zu)\n", cls.c_str(),
                Percentile(samples, 0.5), samples.size());
  }
  for (const auto& [statement, samples] : lat.by_statement_ms) {
    std::printf("    p50=%.3f ms (n=%zu): %.100s\n", Percentile(samples, 0.5),
                samples.size(), statement.c_str());
  }
  for (const std::string& error : phase.errors) {
    std::printf("  error: %s\n", error.c_str());
  }
}

/// Untraced phase over the workload's own callers and transport.
PhaseResult RunUntraced(const WorkloadSpec& spec, System* system,
                        const std::vector<Digest>& expected, double seconds,
                        bool over_wire, size_t callers) {
  return RunClosedLoop(spec, callers, seconds, [&](size_t) -> OpFn {
    if (!over_wire) {
      return [&](size_t i) {
        return RunInProcess(system, spec.mix[i], expected[i], spec.over_wire);
      };
    }
    auto client = std::make_shared<tempus::Result<tempus::TqlClient>>(
        tempus::TqlClient::Connect("127.0.0.1", system->server->port()));
    return [&, client](size_t i) {
      if (!client->ok()) {
        OpOutcome out;
        out.error = client->status().ToString();
        return out;
      }
      return RunOverWire(&client->value(), spec.mix[i], expected[i]);
    };
  });
}

std::vector<Metric> EndToEnd(double setup_s, const PhaseResult& phase) {
  const LatencyLog& lat = phase.latencies;
  auto cls = lat.by_class_ms.find("self");
  return {
      {"setup_s", setup_s, "s"},
      {"ops_per_s", phase.ops_per_s, "ops/s"},
      {"rows_out_per_s", phase.rows_per_s, "rows/s"},
      {"latency_p50_ms", Percentile(lat.all_ms, 0.5), "ms"},
      {"latency_p90_ms", Percentile(lat.all_ms, 0.9), "ms"},
      {"self_p50_ms",
       cls == lat.by_class_ms.end() ? 0.0 : Percentile(cls->second, 0.5),
       "ms"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Mean over the mix's operations of each class's wire p50 minus its
/// in-process p50.
double WireOverheadMs(const PhaseResult& wire, const PhaseResult& local) {
  double sum = 0.0;
  size_t n = 0;
  for (const auto& [cls, samples] : wire.latencies.by_class_ms) {
    auto it = local.latencies.by_class_ms.find(cls);
    if (it == local.latencies.by_class_ms.end()) continue;
    sum += static_cast<double>(samples.size()) *
           (Percentile(samples, 0.5) - Percentile(it->second, 0.5));
    n += samples.size();
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

struct TracedRun {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// The traced pass: an untraced in-process phase, the traced phase and,
/// over the wire, a single-client phase, each for a share of `seconds`.
tempus::Result<TracedRun> RunTraced(const WorkloadSpec& spec, System* system,
                                    const std::vector<Digest>& expected,
                                    const Args& args) {
  const double share = args.seconds / (spec.over_wire ? 3.0 : 2.0);
  const PhaseResult untraced =
      RunUntraced(spec, system, expected, share, /*over_wire=*/false, 1);
  PrintPhase("untraced", untraced);

  Tracer tracer(system, spec, expected);
  const tempus::BufferPoolStats pool_before =
      system->pool ? system->pool->Stats() : tempus::BufferPoolStats{};
  const ProcSample proc_before = SampleProc();
  const PhaseResult traced = RunClosedLoop(
      spec, 1, share, [&](size_t) -> OpFn {
        return [&](size_t i) { return tracer.Run(i); };
      });
  const ProcSample proc_after = SampleProc();
  const tempus::BufferPoolStats pool_after =
      system->pool ? system->pool->Stats() : tempus::BufferPoolStats{};
  PrintPhase("traced", traced);

  PhaseResult wire;
  uint64_t bytes_out = 0, rejected = 0, server_failed = 0;
  if (spec.over_wire) {
    const tempus::ServerCounters& c = system->server->counters();
    const uint64_t bytes0 = c.bytes_out.load();
    const uint64_t rejected0 = c.queries_rejected.load();
    const uint64_t failed0 =
        c.queries_failed.load() + c.queries_cancelled.load();
    wire = RunUntraced(spec, system, expected, share, /*over_wire=*/true, 1);
    bytes_out = c.bytes_out.load() - bytes0;
    rejected = c.queries_rejected.load() - rejected0;
    server_failed =
        c.queries_failed.load() + c.queries_cancelled.load() - failed0;
    PrintPhase("wire", wire);
  }
  if (!args.spans_path.empty()) {
    TEMPUS_RETURN_IF_ERROR(tracer.WriteSpans(args.spans_path));
  }

  const LayerTotals& t = tracer.totals();
  const double ops = static_cast<double>(std::max<uint64_t>(t.ops, 1));
  auto per_op = [ops](double v) { return v / ops; };
  auto self = [&t, &per_op](const char* bucket) {
    auto it = t.self_ms.find(bucket);
    return per_op(it == t.self_ms.end() ? 0.0 : it->second);
  };
  const double hits = static_cast<double>(pool_after.hits - pool_before.hits);
  const double misses =
      static_cast<double>(pool_after.misses - pool_before.misses);
  const double op_time = t.parse_ms + t.plan_ms + t.execute_ms;

  TracedRun run;
  run.attempted = untraced.attempted + traced.attempted + wire.attempted;
  run.failed = untraced.failed + traced.failed + wire.failed;
  run.metrics = {
      {"tql.parse_us", per_op(t.parse_ms) * 1000.0, "us"},
      {"plan.plan_ms", per_op(t.plan_ms), "ms"},
      {"plan.share", Ratio(t.plan_ms, op_time), "ratio"},
      {"relation.compute_stats_ms", per_op(t.compute_stats_ms), "ms"},
      {"semantic.injected_constraints",
       static_cast<double>(t.injected_constraints), "count"},
      {"semantic.eliminated_predicates",
       static_cast<double>(t.eliminated_predicates), "count"},
      {"semantic.coalesce_self_ms", self("semantic.coalesce_self_ms"), "ms"},
      {"opt.parallel_plans", static_cast<double>(t.parallel_plans), "count"},
      {"parallel.workers", static_cast<double>(t.parallel_workers), "count"},
      {"parallel.self_ms", self("parallel.self_ms"), "ms"},
      {"parallel.merge_comparisons",
       per_op(static_cast<double>(t.merge_comparisons)), "1/op"},
      {"exec.execute_ms", per_op(t.execute_ms), "ms"},
      {"exec.materialize_ms", per_op(t.materialize_ms), "ms"},
      {"stream.sort_self_ms", self("stream.sort_self_ms"), "ms"},
      {"stream.dedup_self_ms", self("stream.dedup_self_ms"), "ms"},
      {"stream.project_self_ms", self("stream.project_self_ms"), "ms"},
      {"stream.scan_self_ms", self("stream.scan_self_ms"), "ms"},
      {"stream.filter_self_ms", self("stream.filter_self_ms"), "ms"},
      {"stream.other_self_ms", self("stream.other_self_ms"), "ms"},
      {"stream.kernel_selectivity",
       Ratio(static_cast<double>(t.kernel_out),
             static_cast<double>(t.kernel_in)),
       "ratio"},
      {"stream.rows_per_batch",
       Ratio(static_cast<double>(t.batch_rows),
             static_cast<double>(t.batches)),
       "rows"},
      {"join.sweep_self_ms", self("join.sweep_self_ms"), "ms"},
      {"join.equi_self_ms", self("join.equi_self_ms"), "ms"},
      {"join.outer_self_ms", self("join.outer_self_ms"), "ms"},
      {"join.comparisons", per_op(static_cast<double>(t.join_comparisons)),
       "1/op"},
      {"join.peak_workspace_tuples",
       static_cast<double>(t.join_peak_workspace), "tuples"},
      {"join.gc_ratio",
       Ratio(static_cast<double>(t.join_discarded),
             static_cast<double>(t.join_inserted)),
       "ratio"},
      {"join.out_per_comparison",
       Ratio(static_cast<double>(t.join_emitted),
             static_cast<double>(t.join_comparisons)),
       "ratio"},
      {"relation.write_csv_ms", per_op(t.write_csv_ms), "ms"},
      {"relation.csv_bytes_per_row",
       Ratio(static_cast<double>(t.csv_bytes), static_cast<double>(t.csv_rows)),
       "bytes"},
      {"server.wire_overhead_ms",
       spec.over_wire ? WireOverheadMs(wire, untraced) : 0.0, "ms"},
      {"server.bytes_out_per_op",
       Ratio(static_cast<double>(bytes_out),
             static_cast<double>(wire.attempted)),
       "bytes/op"},
      {"server.rejected", static_cast<double>(rejected), "count"},
      {"server.failed", static_cast<double>(server_failed), "count"},
      {"stats.analyze_ms",
       Ratio(t.analyze_ms, static_cast<double>(t.analyzes)), "ms"},
      {"buffer.hits", per_op(hits), "1/op"},
      {"buffer.misses", per_op(misses), "1/op"},
      {"buffer.hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"buffer.evictions",
       per_op(static_cast<double>(pool_after.evictions - pool_before.evictions)),
       "1/op"},
      {"buffer.bytes_read",
       per_op(static_cast<double>(pool_after.bytes_read -
                                  pool_before.bytes_read)),
       "bytes/op"},
      {"buffer.bytes_written",
       per_op(static_cast<double>(pool_after.bytes_written -
                                  pool_before.bytes_written)),
       "bytes/op"},
      {"buffer.compression_ratio",
       system->pool ? pool_after.compression_ratio() : 0.0, "ratio"},
      {"storage.paged_scan_self_ms", self("storage.paged_scan_self_ms"), "ms"},
      {"storage.spill_ms", Ratio(t.spill_ms, static_cast<double>(t.spills)),
       "ms"},
      {"proc.cpu_s", per_op(proc_after.cpu_s - proc_before.cpu_s), "s"},
      {"proc.ctx_switches_vol", per_op(proc_after.ctx_vol - proc_before.ctx_vol),
       "1/op"},
      {"proc.ctx_switches_invol",
       per_op(proc_after.ctx_invol - proc_before.ctx_invol), "1/op"},
      {"proc.minor_faults",
       per_op(proc_after.minor_faults - proc_before.minor_faults), "1/op"},
      {"trace.untraced_ops_per_s", untraced.ops_per_s, "ops/s"},
      {"trace.traced_ops_per_s", traced.ops_per_s, "ops/s"},
      {"trace.overhead_ratio", Ratio(untraced.ops_per_s, traced.ops_per_s),
       "ratio"},
  };
  return run;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: tempus_perf --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH] [--source ID]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  PrintHost(args);

  std::vector<double> setup_s;
  std::unique_ptr<System> system;
  const int repeats = args.trace == 1 ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    system.reset();  // Tear the previous set-up down outside the timing.
    const Clock::time_point t0 = Clock::now();
    tempus::Result<std::unique_ptr<System>> built =
        SetupSystem(*spec, args.seed);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    if (!built.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    system = std::move(built).value();
  }
  std::printf("setup_s samples:");
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf(" (peak_rss_mb so far %.1f)\n", PeakRssMb());

  tempus::Result<std::vector<Digest>> expected =
      ReferenceDigests(*spec, args.seed, system.get());
  if (!expected.ok()) {
    std::fprintf(stderr, "reference failed: %s\n",
                 expected.status().ToString().c_str());
    return 1;
  }
  std::printf("reference done (peak_rss_mb so far %.1f)\n", PeakRssMb());

  if (args.trace == 0) {
    const PhaseResult phase =
        RunUntraced(*spec, system.get(), *expected, args.seconds,
                    spec->over_wire, spec->callers);
    PrintPhase("measured", phase);
    const std::vector<Metric> metrics =
        EndToEnd(Percentile(setup_s, 0.5), phase);
    system.reset();
    std::printf("%s\n", ResultLine(phase.failed == 0, phase.attempted,
                                   phase.failed, metrics)
                            .c_str());
    return 0;
  }
  tempus::Result<TracedRun> traced =
      RunTraced(*spec, system.get(), *expected, args);
  if (!traced.ok()) {
    std::fprintf(stderr, "traced run failed: %s\n",
                 traced.status().ToString().c_str());
    return 1;
  }
  system.reset();
  std::printf("%s\n", ResultLine(traced->failed == 0, traced->attempted,
                                 traced->failed, traced->metrics)
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
