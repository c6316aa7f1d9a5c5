// The traced run: executes each operation through the engine's public
// layers one call at a time (ParseTql, Planner::Plan with analyze spans,
// PlannedQuery::Execute, WriteCsv, or AnalyzeRelation / SpillRelation),
// records a span around each call, and attributes plan-node self time to
// the src/ module that implements the node.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "runner.h"
#include "stream/stream.h"
#include "workloads.h"

namespace perfbench {

/// One benchmark-side span: a call into one layer for one operation.
struct Span {
  int id = 0;
  int parent = -1;  ///< -1 for an operation's root span.
  uint64_t op_id = 0;
  std::string cls;
  std::string name;
  double start_ms = 0.0;  ///< Since the tracer was created.
  double end_ms = 0.0;
};

/// Sums over the traced operations, turned into per-layer metrics by
/// Tracer::Metrics.
struct LayerTotals {
  uint64_t ops = 0;
  double parse_ms = 0.0;
  double plan_ms = 0.0;
  double execute_ms = 0.0;
  double materialize_ms = 0.0;
  double compute_stats_ms = 0.0;
  double write_csv_ms = 0.0;
  uint64_t csv_bytes = 0;
  uint64_t csv_rows = 0;
  double analyze_ms = 0.0;
  uint64_t analyzes = 0;
  double spill_ms = 0.0;
  uint64_t spills = 0;
  std::map<std::string, double> self_ms;  ///< By per-layer metric name.
  uint64_t kernel_in = 0;
  uint64_t kernel_out = 0;
  uint64_t batches = 0;
  uint64_t batch_rows = 0;
  uint64_t join_comparisons = 0;
  uint64_t join_emitted = 0;
  uint64_t join_inserted = 0;
  uint64_t join_discarded = 0;
  uint64_t join_peak_workspace = 0;
  uint64_t merge_comparisons = 0;
  // Over the distinct statements of the mix (first execution of each).
  uint64_t injected_constraints = 0;
  uint64_t eliminated_predicates = 0;
  uint64_t parallel_plans = 0;
  uint64_t parallel_workers = 0;
};

class Tracer {
 public:
  Tracer(System* system, const WorkloadSpec& spec,
         const std::vector<Digest>& expected);

  /// Traced execution of spec.mix[op_index]. OpOutcome::ms covers the
  /// same work as the untraced path (parse, plan, execute; or the write),
  /// not the CSV encoding that follows it.
  OpOutcome Run(size_t op_index);

  const LayerTotals& totals() const { return totals_; }

  /// Writes every span as one JSON object per line.
  tempus::Status WriteSpans(const std::string& path) const;

 private:
  int OpenSpan(uint64_t op_id, const std::string& cls, const std::string& name,
               int parent);
  double CloseSpan(int id);  ///< Returns the span's duration in ms.
  /// ComputeStats() time of one in-memory relation (0 for disk-backed),
  /// measured once per relation outside any operation's time.
  double ComputeStatsMs(const std::string& relation);
  void Attribute(const tempus::TupleStream& node,
                 const tempus::TraceCollector& trace);
  OpOutcome RunQuery(size_t op_index, uint64_t op_id, int root);

  System* system_;
  const WorkloadSpec& spec_;
  const std::vector<Digest>& expected_;
  const Clock::time_point origin_;
  std::vector<Span> spans_;
  uint64_t next_op_id_ = 0;
  std::map<std::string, double> compute_stats_ms_;
  std::set<std::string> seen_statements_;  ///< TQL of traced statements.
  LayerTotals totals_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
