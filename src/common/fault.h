#ifndef TEMPUS_COMMON_FAULT_H_
#define TEMPUS_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace tempus {

class CancellationToken;
class Rng;

/// What an armed fault point does when it fires (docs/TESTING.md).
enum class FaultAction {
  kError,   ///< Return a Status with the configured code/message.
  kDelay,   ///< Sleep for delay_ms, then continue OK (latency injection).
  kCancel,  ///< Trip the attached CancellationToken (if any) and return
            ///< Status::Cancelled, as a deadline/disconnect would.
};

/// Configuration of one armed fault point. Deterministic by construction:
/// a fault fires at the `trigger_at`-th hit since Arm() (1-based), or — in
/// probabilistic mode — by a coin drawn from a per-point PRNG seeded with
/// `seed`, so a failing chaos seed replays identically.
struct FaultSpec {
  FaultAction action = FaultAction::kError;
  /// kError: the status code injected. kInternal by default so injected
  /// failures are distinguishable from organic InvalidArgument paths.
  StatusCode code = StatusCode::kInternal;
  std::string message = "injected fault";
  /// Hit ordinal (1-based, counted since Arm) at which the fault fires.
  uint64_t trigger_at = 1;
  /// Fire at every hit >= trigger_at instead of only the Nth.
  bool repeat = false;
  /// kDelay: how long to stall the hitting thread.
  uint32_t delay_ms = 1;
  /// kCancel: token to trip when firing; may be null (the fault then only
  /// returns Status::Cancelled). Not owned; must outlive the armed spec.
  CancellationToken* token = nullptr;
  /// When < 1.0, each hit at/after trigger_at fires with this probability,
  /// drawn from a deterministic per-point stream seeded with `seed`.
  double probability = 1.0;
  uint64_t seed = 0;
};

/// Registry of names every TEMPUS_FAULT_POINT call site in the library
/// uses, so chaos suites can iterate the full surface (docs/TESTING.md
/// documents the location of each).
inline constexpr const char* kKnownFaultPoints[] = {
    "stream.open",        // TupleStream::Open wrapper (every operator)
    "stream.next",        // TupleStream::Next wrapper (every operator)
    "storage.page_read",  // PagedScanStream page fetch
    "storage.sort_spill", // ExternalSortStream run-generation spill
    "storage.sort_merge", // ExternalSortStream merge level
    "catalog.register",   // Catalog::Register swap
    "catalog.drop",       // Catalog::Drop swap
    "server.frame_read",  // wire::ReadFrame
    "server.frame_write", // wire::WriteFrame
    "buffer.page_read",   // PageFile::ReadPage (disk page fetch)
    "buffer.page_write",  // PageFile::AppendPage (encode + spill)
    "buffer.evict",       // BufferManager eviction under frame pressure
    "batch.alloc",        // TupleBatch::Reserve (batch column allocation)
    "stats.build",        // BuildIntervalStats (analyze statistics scan)
    "relation.compute_stats",  // TemporalRelation::ComputeStats (scalars)
    "coalesce.merge",     // CoalesceStream accumulator merge step
    "kernel.eval",        // PredicateKernel::EvalBatch (vectorized filter)
};

/// Process-wide deterministic fault injector. Off by default: every
/// TEMPUS_FAULT_POINT compiles to one relaxed atomic load and a
/// never-taken branch until some point is armed (bench/chaos_overhead.cc
/// measures the disabled cost on the Table 1 hot path). While any point
/// is armed, all hits — armed or not — are counted, so a chaos driver can
/// ask which points a workload actually reached (SeenPoints()).
///
/// Threading: Arm/Disarm/Reset and Hit may be called from any thread; the
/// armed path serializes on one mutex (fault points are cold by
/// definition — the hot path is the disarmed branch).
class FaultInjector {
 public:
  static FaultInjector& Global();

  /// True iff at least one point is armed; the macro's only hot-path cost.
  static bool armed() {
    return armed_points_.load(std::memory_order_relaxed) > 0;
  }

  /// Arms `point` with `spec`, resetting its hit/fire counters.
  void Arm(const std::string& point, FaultSpec spec);

  /// Disarms `point`; its counters remain readable until Reset().
  void Disarm(const std::string& point);

  /// Disarms everything and forgets all counters.
  void Reset();

  /// Hits observed at `point` since it was last armed (or, for points
  /// never armed, since Reset) — counted only while armed() is true.
  uint64_t HitCount(const std::string& point) const;

  /// Times `point` actually fired its fault.
  uint64_t FireCount(const std::string& point) const;

  /// Every point name hit at least once while the injector was armed.
  std::vector<std::string> SeenPoints() const;

  /// Macro backend: counts the hit and fires the armed spec if due.
  Status Hit(const char* point);

 private:
  struct PointState {
    FaultSpec spec;
    bool is_armed = false;
    uint64_t hits = 0;
    uint64_t fires = 0;
    std::unique_ptr<Rng> rng;
  };

  FaultInjector() = default;

  static std::atomic<int> armed_points_;

  mutable std::mutex mu_;
  std::map<std::string, PointState, std::less<>> points_;
};

}  // namespace tempus

/// Declares a named fault point. Usable in any function returning Status
/// or Result<T>; disarmed cost is a single predictable branch.
#define TEMPUS_FAULT_POINT(name)                                       \
  do {                                                                 \
    if (::tempus::FaultInjector::armed()) {                            \
      TEMPUS_RETURN_IF_ERROR(                                          \
          ::tempus::FaultInjector::Global().Hit(name));                \
    }                                                                  \
  } while (false)

#endif  // TEMPUS_COMMON_FAULT_H_
