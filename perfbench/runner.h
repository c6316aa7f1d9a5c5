// Closed-loop execution of a workload's mix, and the untraced ways of
// running one operation: in-process through Engine::RunQuery, or over the
// wire through TqlClient::Query.

#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.h"
#include "server/client.h"
#include "workloads.h"

namespace perfbench {

/// One executed operation. `ms` runs from the moment the operation was
/// sent until its last result row arrived; result checks come after it.
/// `ok` is false for errors, rejections, cancellations and wrong results.
struct OpOutcome {
  bool ok = false;
  double ms = 0.0;
  uint64_t rows = 0;
  std::string error;
};

using OpFn = std::function<OpOutcome(size_t op_index)>;

struct PhaseResult {
  LatencyLog latencies;  ///< Successful operations only.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rows = 0;
  /// Sums over callers of each caller's completed operations (rows) per
  /// second of its own operation time, so result checks between
  /// operations do not count as load.
  double ops_per_s = 0.0;
  double rows_per_s = 0.0;
  std::vector<std::string> errors;  ///< The first few failure messages.
};

/// Runs `callers` closed-loop callers, one thread each (inline for one).
/// Caller c starts at mix offset c * |mix| / callers and sends its next
/// operation only after the previous one completed. Each caller stops
/// once `seconds` of wall time have passed, and, when spec.whole_rounds,
/// only at the end of a full pass over the mix. `make_caller(c)` builds
/// caller c's operation function on its own thread.
PhaseResult RunClosedLoop(const WorkloadSpec& spec, size_t callers,
                          double seconds,
                          const std::function<OpFn(size_t)>& make_caller);

/// Untraced in-process execution: Engine::RunQuery, or the Delta spill.
OpOutcome RunInProcess(System* system, const Op& op, const Digest& expected,
                       bool csv_digest);

/// Untraced wire execution: one TqlClient::Query round trip.
OpOutcome RunOverWire(tempus::TqlClient* client, const Op& op,
                      const Digest& expected);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
