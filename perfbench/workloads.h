// The benchmark's three workloads: their generated inputs, their operation
// mixes, the timed set-up that loads an engine with them, and the
// reference results every operation is checked against.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_manager.h"
#include "exec/engine.h"
#include "harness.h"
#include "server/server.h"

namespace perfbench {

enum class OpKind {
  kQuery,       ///< A TQL statement (retrieve, sequenced statement, analyze).
  kSpillDelta,  ///< Re-register Delta in memory and spill it to the pool.
};

struct Op {
  std::string cls;
  std::string tql;  ///< Empty for kSpillDelta.
  OpKind kind = OpKind::kQuery;
};

struct WorkloadSpec {
  std::string name;
  std::vector<Op> mix;
  /// Closed-loop callers: client threads, each on its own connection when
  /// over_wire, else in-process callers of Engine::RunQuery.
  size_t callers = 1;
  bool over_wire = false;
  /// Stop the timed phase only after a whole pass over the mix, so that a
  /// run of seconds-long operations always weighs every class equally.
  bool whole_rounds = false;
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// One loaded system. The member order is load-bearing, because members
/// are destroyed in reverse: the server (which borrows the engine) goes
/// first, then the engine, then the pool. A spilled PagedRelation keeps a
/// raw pointer to the pool it was spilled into and its page file calls
/// DropFile() on that pool when destroyed, so a pool destroyed before the
/// engine would be used after it is freed. See NOTES.md.
struct System {
  std::unique_ptr<tempus::BufferManager> pool;  ///< paged_io only.
  std::unique_ptr<tempus::Engine> engine;
  std::unique_ptr<tempus::TqlServer> server;  ///< server_mix only.
  /// paged_io's write input, generated once and copied in by each write.
  tempus::TemporalRelation delta;
};

/// The timed set-up (setup_s): generates the inputs from `seed`, registers
/// them, analyzes or spills them, and starts the server.
tempus::Result<std::unique_ptr<System>> SetupSystem(const WorkloadSpec& spec,
                                                    uint64_t seed);

/// The expected result of each operation of spec.mix, computed by another
/// path than the measured one: analytic plans on one thread with the
/// heuristic optimizer; server_mix runs in-process instead of over the
/// wire; paged_io queries a separate in-memory copy of its inputs.
/// Outside setup_s. Query digests are of relations, except over the wire,
/// where they are of CSV lines.
tempus::Result<std::vector<Digest>> ReferenceDigests(const WorkloadSpec& spec,
                                                     uint64_t seed,
                                                     System* system);

/// Digest of the Delta relation as spilled: tuple and page counts plus its
/// spill-time statistics, read back from the catalog.
tempus::Result<Digest> SpilledDeltaDigest(const tempus::Engine& engine);

/// Re-registers Delta in memory and spills it through system->pool.
tempus::Status SpillDelta(System* system);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
