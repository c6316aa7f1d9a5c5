#include "trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/string_util.h"
#include "obs/metrics_json.h"
#include "obs/trace.h"
#include "plan/planner.h"
#include "relation/csv.h"
#include "tql/parser.h"

namespace perfbench {
namespace {

bool Contains(const std::string& s, const char* part) {
  return s.find(part) != std::string::npos;
}

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// The per-layer self-time metric a plan node's time belongs to, decided
/// by the node's EXPLAIN label (src/plan/planner.cc names every node).
std::string Bucket(const std::string& label) {
  if (Contains(label, "[parallel x")) return "parallel.self_ms";
  if (StartsWith(label, "DiskScan")) return "storage.paged_scan_self_ms";
  if (StartsWith(label, "Scan")) return "stream.scan_self_ms";
  if (StartsWith(label, "Select")) return "stream.filter_self_ms";
  if (StartsWith(label, "Project")) return "stream.project_self_ms";
  if (StartsWith(label, "Sort")) return "stream.sort_self_ms";
  if (StartsWith(label, "Dedup")) return "stream.dedup_self_ms";
  if (StartsWith(label, "Coalesce")) return "semantic.coalesce_self_ms";
  if (Contains(label, "OuterJoin") || StartsWith(label, "AntiJoin") ||
      StartsWith(label, "Subtract")) {
    return "join.outer_self_ms";
  }
  if (Contains(label, "equi-join")) return "join.equi_self_ms";
  if (Contains(label, "join") || Contains(label, "Join")) {
    return "join.sweep_self_ms";
  }
  return "stream.other_self_ms";
}

bool IsJoin(const std::string& bucket) {
  return StartsWith(bucket, "join.") || bucket == "parallel.self_ms";
}

}  // namespace

Tracer::Tracer(System* system, const WorkloadSpec& spec,
               const std::vector<Digest>& expected)
    : system_(system),
      spec_(spec),
      expected_(expected),
      origin_(Clock::now()) {}

int Tracer::OpenSpan(uint64_t op_id, const std::string& cls,
                     const std::string& name, int parent) {
  Span span;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.op_id = op_id;
  span.cls = cls;
  span.name = name;
  span.start_ms = MsBetween(origin_, Clock::now());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

double Tracer::CloseSpan(int id) {
  Span& span = spans_[id];
  span.end_ms = MsBetween(origin_, Clock::now());
  return span.end_ms - span.start_ms;
}

double Tracer::ComputeStatsMs(const std::string& relation) {
  auto it = compute_stats_ms_.find(relation);
  if (it != compute_stats_ms_.end()) return it->second;
  double ms = 0.0;
  tempus::Result<const tempus::TemporalRelation*> mem =
      system_->engine->catalog().Lookup(relation);
  if (mem.ok()) {
    std::vector<double> samples;
    for (int i = 0; i < 3; ++i) {
      const Clock::time_point t0 = Clock::now();
      tempus::Result<tempus::RelationStats> stats = (*mem)->ComputeStats();
      samples.push_back(MsBetween(t0, Clock::now()));
      if (!stats.ok()) break;
    }
    ms = Percentile(samples, 0.5);
  }
  compute_stats_ms_[relation] = ms;
  return ms;
}

void Tracer::Attribute(const tempus::TupleStream& node,
                       const tempus::TraceCollector& trace) {
  auto span_ns = [&trace](const tempus::TupleStream& s) -> uint64_t {
    const int id = s.trace_span_id();
    return id >= 0 && static_cast<size_t>(id) < trace.size()
               ? trace.span(id).total_ns()
               : 0;
  };
  uint64_t child_ns = 0;
  for (const tempus::TupleStream* child : node.children()) {
    child_ns += span_ns(*child);
  }
  const uint64_t total_ns = span_ns(node);
  const std::string bucket = Bucket(node.label());
  totals_.self_ms[bucket] +=
      static_cast<double>(total_ns > child_ns ? total_ns - child_ns : 0) / 1e6;

  const tempus::OperatorMetrics& m = node.metrics();
  totals_.kernel_in += m.kernel_rows_in;
  totals_.kernel_out += m.kernel_rows_out;
  totals_.batches += m.batches;
  totals_.batch_rows += m.batch_rows;
  totals_.merge_comparisons += m.merge_comparisons;
  if (IsJoin(bucket)) {
    totals_.join_comparisons += m.comparisons;
    totals_.join_emitted += m.tuples_emitted;
    totals_.join_inserted += m.workspace_inserted;
    totals_.join_discarded += m.gc_discarded;
    totals_.join_peak_workspace =
        std::max<uint64_t>(totals_.join_peak_workspace,
                           m.peak_workspace_tuples);
  }
  for (const tempus::TupleStream* child : node.children()) {
    Attribute(*child, trace);
  }
}

OpOutcome Tracer::Run(size_t op_index) {
  const Op& op = spec_.mix[op_index];
  const uint64_t op_id = next_op_id_++;
  const int root = OpenSpan(op_id, op.cls, "op", -1);
  OpOutcome out;
  if (op.kind == OpKind::kSpillDelta) {
    const int span = OpenSpan(op_id, op.cls, "storage.spill", root);
    const tempus::Status status = SpillDelta(system_);
    out.ms = CloseSpan(span);
    totals_.spill_ms += out.ms;
    ++totals_.spills;
    tempus::Result<Digest> got = status.ok()
                                     ? SpilledDeltaDigest(*system_->engine)
                                     : tempus::Result<Digest>(status);
    if (!got.ok()) {
      out.error = got.status().ToString();
    } else if (*got != expected_[op_index]) {
      out.error = "wrong result for spill Delta";
    } else {
      out.ok = true;
      out.rows = got->rows;
    }
  } else {
    out = RunQuery(op_index, op_id, root);
  }
  CloseSpan(root);
  ++totals_.ops;
  return out;
}

OpOutcome Tracer::RunQuery(size_t op_index, uint64_t op_id, int root) {
  const Op& op = spec_.mix[op_index];
  tempus::Engine* engine = system_->engine.get();
  OpOutcome out;

  int span = OpenSpan(op_id, op.cls, "tql.parse", root);
  tempus::Result<tempus::ConjunctiveQuery> query = tempus::ParseTql(op.tql);
  const double parse_ms = CloseSpan(span);
  totals_.parse_ms += parse_ms;
  out.ms = parse_ms;
  if (!query.ok()) {
    out.error = query.status().ToString();
    return out;
  }

  if (!query->analyze_target.empty()) {
    span = OpenSpan(op_id, op.cls, "stats.analyze", root);
    auto stats = engine->AnalyzeRelation(query->analyze_target);
    const double ms = CloseSpan(span);
    totals_.analyze_ms += ms;
    ++totals_.analyzes;
    out.ms += ms;
    auto relation = engine->catalog().Lookup(query->analyze_target);
    if (!stats.ok()) {
      out.error = stats.status().ToString();
    } else if (!relation.ok() || (*stats)->tuple_count != (*relation)->size()) {
      out.error = "analyze counted the wrong number of tuples";
    } else {
      out.ok = true;
      out.rows = 1;
    }
    return out;
  }

  for (const tempus::RangeVarDecl& var : query->range_vars) {
    totals_.compute_stats_ms += ComputeStatsMs(var.relation);
  }
  for (const std::string* operand :
       {&query->sequenced_left, &query->sequenced_right}) {
    if (!operand->empty()) totals_.compute_stats_ms += ComputeStatsMs(*operand);
  }

  tempus::PlannerOptions options;
  options.analyze = true;
  span = OpenSpan(op_id, op.cls, "plan.plan", root);
  // The plan borrows the snapshot's relations; it must outlive `planned`.
  const tempus::Catalog snapshot = engine->catalog().Snapshot();
  tempus::Planner planner(&snapshot, &engine->integrity(), &engine->stats());
  tempus::Result<tempus::PlannedQuery> planned =
      planner.Plan(*query, options);
  const double plan_ms = CloseSpan(span);
  totals_.plan_ms += plan_ms;
  out.ms += plan_ms;
  if (!planned.ok()) {
    out.error = planned.status().ToString();
    return out;
  }

  span = OpenSpan(op_id, op.cls, "exec.execute", root);
  tempus::Result<tempus::TemporalRelation> result = planned->Execute();
  const double execute_ms = CloseSpan(span);
  totals_.execute_ms += execute_ms;
  out.ms += execute_ms;
  if (!result.ok()) {
    out.error = result.status().ToString();
    return out;
  }

  span = OpenSpan(op_id, op.cls, "relation.write_csv", root);
  std::ostringstream csv;
  const tempus::Status written = tempus::WriteCsv(*result, &csv);
  totals_.write_csv_ms += CloseSpan(span);
  if (!written.ok()) {
    out.error = written.ToString();
    return out;
  }
  const std::string text = csv.str();
  totals_.csv_bytes += text.size();
  totals_.csv_rows += result->size();

  if (planned->root != nullptr && planned->trace != nullptr) {
    const int root_span = planned->root->trace_span_id();
    const double root_ms =
        root_span >= 0 && static_cast<size_t>(root_span) < planned->trace->size()
            ? static_cast<double>(planned->trace->span(root_span).total_ns()) /
                  1e6
            : 0.0;
    totals_.materialize_ms += std::max(0.0, execute_ms - root_ms);
    Attribute(*planned->root, *planned->trace);
    if (seen_statements_.insert(op.tql).second) {
      totals_.injected_constraints += planned->analysis.injected.size();
      totals_.eliminated_predicates += planned->analysis.redundant.size();
      if (Contains(planned->explain, "[parallel x")) ++totals_.parallel_plans;
      totals_.parallel_workers +=
          tempus::CollectPlanMetrics(*planned->root).workers;
    }
  }

  const Digest got = spec_.over_wire ? DigestCsv(text) : DigestRelation(*result);
  if (got != expected_[op_index]) {
    out.error = tempus::StrFormat("wrong result for [%s]: %llu rows, "
                                  "expected %llu",
                                  op.tql.c_str(),
                                  static_cast<unsigned long long>(got.rows),
                                  static_cast<unsigned long long>(
                                      expected_[op_index].rows));
    return out;
  }
  out.ok = true;
  out.rows = got.rows;
  return out;
}

tempus::Status Tracer::WriteSpans(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) {
    return tempus::Status::InvalidArgument("cannot write spans to " + path);
  }
  for (const Span& s : spans_) {
    out << tempus::StrFormat(
        "{\"id\":%d,\"parent\":%d,\"op\":%llu,\"class\":\"%s\","
        "\"name\":\"%s\",\"start_ms\":%.4f,\"end_ms\":%.4f}\n",
        s.id, s.parent, static_cast<unsigned long long>(s.op_id),
        tempus::JsonEscape(s.cls).c_str(), tempus::JsonEscape(s.name).c_str(),
        s.start_ms, s.end_ms);
  }
  return out.good() ? tempus::Status::Ok()
                    : tempus::Status::Internal("short write to " + path);
}

}  // namespace perfbench
