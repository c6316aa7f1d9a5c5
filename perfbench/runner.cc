#include "runner.h"

#include <sstream>
#include <thread>

#include "common/string_util.h"
#include "relation/csv.h"

namespace perfbench {
namespace {

constexpr size_t kMaxErrors = 5;

OpOutcome Fail(double ms, std::string error) {
  OpOutcome out;
  out.ms = ms;
  out.error = std::move(error);
  return out;
}

OpOutcome Check(double ms, const Digest& got, const Digest& expected,
                const Op& op) {
  if (got != expected) {
    return Fail(ms, tempus::StrFormat(
                        "wrong result for [%s]: %llu rows, expected %llu",
                        op.tql.empty() ? "spill Delta" : op.tql.c_str(),
                        static_cast<unsigned long long>(got.rows),
                        static_cast<unsigned long long>(expected.rows)));
  }
  OpOutcome out;
  out.ok = true;
  out.ms = ms;
  out.rows = got.rows;
  return out;
}

}  // namespace

PhaseResult RunClosedLoop(const WorkloadSpec& spec, size_t callers,
                          double seconds,
                          const std::function<OpFn(size_t)>& make_caller) {
  const size_t n = spec.mix.size();
  const Clock::time_point start = Clock::now();
  std::vector<PhaseResult> per_caller(callers);
  auto caller_loop = [&](size_t c) {
    PhaseResult& mine = per_caller[c];
    OpFn op = make_caller(c);
    const size_t offset = c * n / callers;
    double busy_ms = 0.0;
    for (size_t i = 1;; ++i) {
      const size_t index = (offset + i - 1) % n;
      OpOutcome out = op(index);
      busy_ms += out.ms;
      ++mine.attempted;
      if (out.ok) {
        const Op& op = spec.mix[index];
        mine.latencies.Add(op.cls, op.tql.empty() ? "spill Delta" : op.tql,
                           out.ms);
        mine.rows += out.rows;
      } else {
        ++mine.failed;
        if (mine.errors.size() < kMaxErrors) mine.errors.push_back(out.error);
      }
      const bool round_done = !spec.whole_rounds || i % n == 0;
      if (round_done && MsBetween(start, Clock::now()) >= seconds * 1000.0) {
        break;
      }
    }
    const uint64_t completed = mine.attempted - mine.failed;
    if (busy_ms > 0.0) {
      mine.ops_per_s = static_cast<double>(completed) * 1000.0 / busy_ms;
      mine.rows_per_s = static_cast<double>(mine.rows) * 1000.0 / busy_ms;
    }
  };
  if (callers == 1) {
    caller_loop(0);
  } else {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < callers; ++c) threads.emplace_back(caller_loop, c);
    for (std::thread& t : threads) t.join();
  }
  PhaseResult total;
  for (const PhaseResult& r : per_caller) {
    total.latencies.Merge(r.latencies);
    total.attempted += r.attempted;
    total.failed += r.failed;
    total.rows += r.rows;
    total.ops_per_s += r.ops_per_s;
    total.rows_per_s += r.rows_per_s;
    for (const std::string& e : r.errors) {
      if (total.errors.size() < kMaxErrors) total.errors.push_back(e);
    }
  }
  return total;
}

OpOutcome RunInProcess(System* system, const Op& op, const Digest& expected,
                       bool csv_digest) {
  const Clock::time_point t0 = Clock::now();
  if (op.kind == OpKind::kSpillDelta) {
    const tempus::Status status = SpillDelta(system);
    const double ms = MsBetween(t0, Clock::now());
    if (!status.ok()) return Fail(ms, status.ToString());
    tempus::Result<Digest> got = SpilledDeltaDigest(*system->engine);
    if (!got.ok()) return Fail(ms, got.status().ToString());
    return Check(ms, *got, expected, op);
  }
  tempus::Result<tempus::QueryRun> run = system->engine->RunQuery(op.tql);
  const double ms = MsBetween(t0, Clock::now());
  if (!run.ok()) return Fail(ms, run.status().ToString());
  if (!run->status.ok()) return Fail(ms, run->status.ToString());
  if (!csv_digest) return Check(ms, DigestRelation(run->result), expected, op);
  std::ostringstream csv;
  const tempus::Status written = tempus::WriteCsv(run->result, &csv);
  if (!written.ok()) return Fail(ms, written.ToString());
  return Check(ms, DigestCsv(csv.str()), expected, op);
}

OpOutcome RunOverWire(tempus::TqlClient* client, const Op& op,
                      const Digest& expected) {
  const Clock::time_point t0 = Clock::now();
  tempus::Result<tempus::QueryResponse> response = client->Query(op.tql);
  const double ms = MsBetween(t0, Clock::now());
  if (!response.ok()) return Fail(ms, response.status().ToString());
  return Check(ms, DigestCsv(response->csv), expected, op);
}

}  // namespace perfbench
