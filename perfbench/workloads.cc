#include "workloads.h"

#include <map>
#include <sstream>

#include "datagen/faculty_gen.h"
#include "datagen/interval_gen.h"
#include "relation/csv.h"
#include "storage/paged_relation.h"

namespace perfbench {
namespace {

using tempus::Engine;
using tempus::Result;
using tempus::Status;
using tempus::TemporalRelation;

// Superstar (Section 5): plan C is the recognized Contained-semijoin over
// the derived associate-period gap; plan D is the transformed single-scan
// self-semijoin that continuous employment allows.
constexpr const char* kSuperstarC =
    "range of f1 is Faculty range of f2 is Faculty range of f3 is Faculty "
    "retrieve unique into Stars (f1.Name, f1.ValidFrom, f2.ValidTo) "
    "where f1.Name = f2.Name and f1.Rank = \"Assistant\" "
    "and f2.Rank = \"Full\" and f3.Rank = \"Associate\" "
    "and (f1 overlap f3) and (f2 overlap f3)";
constexpr const char* kSuperstarD =
    "range of i is Faculty range of j is Faculty "
    "retrieve unique into Stars (i.Name, i.ValidFrom, i.ValidTo) "
    "where i.Rank = \"Associate\" and j.Rank = \"Associate\" and i during j";

constexpr size_t kTuplesPerPage = 1024;

std::vector<WorkloadSpec> BuildSpecs() {
  std::vector<WorkloadSpec> specs;

  // Eleven statements, five of them `self`: with an odd count the median
  // of a run, and of the self class, falls on one statement's samples, and
  // with eleven the 90th percentile does too (for 1 to 9 rounds), instead
  // of interpolating between two unrelated statements.
  WorkloadSpec analytic;
  analytic.name = "analytic";
  analytic.whole_rounds = true;
  analytic.mix = {
      {"contain",
       "range of a is X range of b is Y retrieve (a.S, b.S) where b during a"},
      {"overlap",
       "range of a is X range of b is Y retrieve (a.S, b.S) where a overlap b"},
      {"self",
       "range of a is X range of b is X retrieve unique (a.S, a.V) "
       "where a during b"},
      {"superstar", kSuperstarC},
      {"contain",
       "range of a is X range of b is Y retrieve unique (b.S, b.V) "
       "where b during a"},
      {"self",
       "range of a is Y range of b is Y retrieve unique (a.S, a.V) "
       "where a during b"},
      {"overlap", "left join X Y on overlaps"},
      {"self", kSuperstarD},
      {"overlap",
       "range of a is X range of b is Y retrieve unique (a.S, a.V) "
       "where a overlap b"},
      {"self",
       "range of a is X range of b is X retrieve unique (a.S, a.V) "
       "where a contains b"},
      {"self", "coalesce Y"},
  };
  specs.push_back(analytic);

  // 50 slots: one write, then the eight reads in turn (the first read
  // fills the 49th). Each client starts at its own offset, so exactly one
  // request in 50 is a write. Cheap selects are most of the traffic, which
  // also puts the median inside the selects' latency band rather than in
  // the gap between them and the joins.
  WorkloadSpec server_mix;
  server_mix.name = "server_mix";
  server_mix.callers = 4;
  server_mix.over_wire = true;
  const Op events_filter = {
      "select",
      "range of e is Events retrieve (e.S, e.V, e.ValidFrom, e.ValidTo) "
      "where e.V < 10"};
  const Op faculty_lookup = {
      "select",
      "range of f is Faculty retrieve (f.Name, f.Rank, f.ValidFrom, "
      "f.ValidTo) where f.Name = \"F004242\""};
  const std::vector<Op> reads = {
      events_filter,
      faculty_lookup,
      {"equi",
       "range of e1 is Events range of e2 is Events "
       "retrieve (e1.S, e1.V, e2.V) where e1.S = e2.S "
       "and e1.V < 5 and e2.V < 5"},
      {"select",
       "range of e is Events retrieve unique (e.S) where e.V >= 995"},
      faculty_lookup,
      {"self", kSuperstarD},
      events_filter,
      {"equi",
       "range of f1 is Faculty range of f2 is Faculty "
       "retrieve (f1.Name) where f1.Name = f2.Name "
       "and f1.Rank = \"Assistant\" and f2.Rank = \"Full\" "
       "and f1 before f2"},
  };
  server_mix.mix.push_back({"write", "analyze Events"});
  for (size_t i = 0; i < 49; ++i) {
    server_mix.mix.push_back(reads[i % reads.size()]);
  }
  specs.push_back(server_mix);

  // Cold scans of X and Y (about 98 pages each) flush a 64-frame pool;
  // Hot (about 10 pages) fits, so the self-semijoin that directly follows
  // a Hot filter can hit, while every other Hot read comes after a cold
  // scan or a spill. Seven statements, so the median falls on one
  // statement's samples.
  WorkloadSpec paged;
  paged.name = "paged_io";
  paged.mix = {
      {"select",
       "range of x is X retrieve (x.S, x.V, x.ValidFrom, x.ValidTo) "
       "where x.V < 10"},
      {"select",
       "range of h is Hot retrieve (h.S, h.V, h.ValidFrom, h.ValidTo) "
       "where h.V < 100"},
      {"self",
       "range of a is Hot range of b is Hot retrieve unique (a.S, a.V) "
       "where a during b"},
      {"overlap",
       "range of x is X range of y is Y retrieve (x.S, x.V, y.S, y.V) "
       "where x overlap y and x.V < 20 and y.V < 20"},
      {"select",
       "range of h is Hot retrieve (h.S, h.V, h.ValidFrom, h.ValidTo) "
       "where h.V >= 900"},
      {"select",
       "range of y is Y retrieve (y.S, y.V, y.ValidFrom, y.ValidTo) "
       "where y.V < 10"},
      {"write", "", OpKind::kSpillDelta},
  };
  specs.push_back(paged);
  return specs;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = BuildSpecs();
  return specs;
}

/// Independent generator seeds for each relation of one workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 31;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 29;
  return x;
}

Result<TemporalRelation> Intervals(const std::string& name, size_t count,
                                   double mean_duration, uint64_t seed) {
  tempus::IntervalWorkloadConfig config;
  config.count = count;
  config.seed = seed;
  config.mean_interarrival = 4.0;
  config.mean_duration = mean_duration;
  return tempus::GenerateIntervalRelation(name, config);
}

Result<TemporalRelation> Faculty(uint64_t seed) {
  tempus::FacultyWorkloadConfig config;
  config.faculty_count = 10000;
  config.seed = seed;
  config.continuous = true;
  config.complete_careers = true;
  return tempus::GenerateFaculty("Faculty", config);
}

/// The generated inputs of a workload, in registration order. Faculty,
/// when present, is validated against the Rank chronology on register.
Result<std::vector<TemporalRelation>> GenerateInputs(const std::string& name,
                                                     uint64_t seed) {
  std::vector<TemporalRelation> out;
  if (name == "analytic") {
    // Table 1 shapes: 1/lambda = 4, long X containers, short Y members.
    TEMPUS_ASSIGN_OR_RETURN(TemporalRelation x,
                            Intervals("X", 128 * 1024, 64.0, SubSeed(seed, 1)));
    TEMPUS_ASSIGN_OR_RETURN(TemporalRelation y,
                            Intervals("Y", 128 * 1024, 8.0, SubSeed(seed, 2)));
    TEMPUS_ASSIGN_OR_RETURN(TemporalRelation f, Faculty(SubSeed(seed, 3)));
    out.push_back(std::move(x));
    out.push_back(std::move(y));
    out.push_back(std::move(f));
  } else if (name == "server_mix") {
    TEMPUS_ASSIGN_OR_RETURN(TemporalRelation e,
                            Intervals("Events", 100000, 16.0, SubSeed(seed, 4)));
    TEMPUS_ASSIGN_OR_RETURN(TemporalRelation f, Faculty(SubSeed(seed, 5)));
    out.push_back(std::move(e));
    out.push_back(std::move(f));
  } else if (name == "paged_io") {
    TEMPUS_ASSIGN_OR_RETURN(TemporalRelation x,
                            Intervals("X", 100000, 64.0, SubSeed(seed, 6)));
    TEMPUS_ASSIGN_OR_RETURN(TemporalRelation y,
                            Intervals("Y", 100000, 8.0, SubSeed(seed, 7)));
    TEMPUS_ASSIGN_OR_RETURN(TemporalRelation hot,
                            Intervals("Hot", 10000, 16.0, SubSeed(seed, 8)));
    out.push_back(std::move(x));
    out.push_back(std::move(y));
    out.push_back(std::move(hot));
  } else {
    return Status::InvalidArgument("unknown workload: " + name);
  }
  return out;
}

Result<TemporalRelation> GenerateDelta(uint64_t seed) {
  return Intervals("Delta", 10000, 16.0, SubSeed(seed, 9));
}

Status Register(Engine* engine, TemporalRelation relation) {
  if (relation.name() == "Faculty") {
    TEMPUS_RETURN_IF_ERROR(engine->mutable_integrity()->AddChronologicalDomain(
        "Faculty", tempus::FacultyRankDomain(true)));
  }
  return engine->RegisterValidated(std::move(relation));
}

Digest SpillDigest(uint64_t tuples, uint64_t pages,
                   const tempus::RelationStats& stats) {
  const uint64_t fields[] = {
      pages,
      static_cast<uint64_t>(stats.min_valid_from),
      static_cast<uint64_t>(stats.max_valid_to),
      static_cast<uint64_t>(stats.max_duration),
      static_cast<uint64_t>(stats.max_concurrency),
  };
  Digest digest;
  for (uint64_t field : fields) digest.AddRow(field);
  digest.rows = tuples;
  return digest;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Specs()) names.push_back(spec.name);
  return names;
}

Result<std::unique_ptr<System>> SetupSystem(const WorkloadSpec& spec,
                                            uint64_t seed) {
  auto system = std::make_unique<System>();
  if (spec.name == "paged_io") {
    system->pool = std::make_unique<tempus::BufferManager>(64);
  }
  system->engine = std::make_unique<Engine>();
  TEMPUS_ASSIGN_OR_RETURN(std::vector<TemporalRelation> inputs,
                          GenerateInputs(spec.name, seed));
  std::vector<std::string> names;
  for (TemporalRelation& relation : inputs) {
    names.push_back(relation.name());
    TEMPUS_RETURN_IF_ERROR(Register(system->engine.get(), std::move(relation)));
  }
  for (const std::string& name : names) {
    if (system->pool != nullptr) {
      TEMPUS_RETURN_IF_ERROR(system->engine->SpillRelation(
          name, kTuplesPerPage, system->pool.get()));
    } else {
      TEMPUS_RETURN_IF_ERROR(system->engine->AnalyzeRelation(name).status());
    }
  }
  if (system->pool != nullptr) {
    TEMPUS_ASSIGN_OR_RETURN(system->delta, GenerateDelta(seed));
  }
  if (spec.over_wire) {
    tempus::ServerOptions options;
    options.max_concurrent_queries = spec.callers;
    system->server =
        std::make_unique<tempus::TqlServer>(system->engine.get(), options);
    TEMPUS_RETURN_IF_ERROR(system->server->Start());
  }
  return system;
}

Status SpillDelta(System* system) {
  system->engine->mutable_catalog()->RegisterOrReplace(system->delta);
  return system->engine->SpillRelation("Delta", kTuplesPerPage,
                                       system->pool.get());
}

Result<Digest> SpilledDeltaDigest(const Engine& engine) {
  TEMPUS_ASSIGN_OR_RETURN(std::shared_ptr<const tempus::PagedRelation> paged,
                          engine.catalog().LookupPaged("Delta"));
  if (!paged->stats().has_value()) {
    return Status::Internal("spilled Delta carries no statistics");
  }
  return SpillDigest(paged->tuple_count(), paged->page_count(),
                     *paged->stats());
}

Result<std::vector<Digest>> ReferenceDigests(const WorkloadSpec& spec,
                                             uint64_t seed, System* system) {
  tempus::PlannerOptions options;
  const Engine* engine = system->engine.get();
  Engine in_memory;
  if (spec.name == "analytic") {
    options.threads = 1;
    options.optimizer = tempus::OptimizerMode::kHeuristic;
  } else if (spec.name == "paged_io") {
    TEMPUS_ASSIGN_OR_RETURN(std::vector<TemporalRelation> inputs,
                            GenerateInputs(spec.name, seed));
    for (TemporalRelation& relation : inputs) {
      TEMPUS_RETURN_IF_ERROR(Register(&in_memory, std::move(relation)));
    }
    engine = &in_memory;
  }
  std::vector<Digest> digests;
  std::map<std::string, Digest> by_statement;  // Mixes repeat statements.
  for (const Op& op : spec.mix) {
    if (op.kind == OpKind::kSpillDelta) {
      TEMPUS_ASSIGN_OR_RETURN(tempus::RelationStats stats,
                              system->delta.ComputeStats());
      const uint64_t n = system->delta.size();
      digests.push_back(
          SpillDigest(n, (n + kTuplesPerPage - 1) / kTuplesPerPage, stats));
      continue;
    }
    auto known = by_statement.find(op.tql);
    if (known != by_statement.end()) {
      digests.push_back(known->second);
      continue;
    }
    TEMPUS_ASSIGN_OR_RETURN(tempus::QueryRun run,
                            engine->RunQuery(op.tql, options));
    TEMPUS_RETURN_IF_ERROR(run.status);
    Digest digest;
    if (spec.over_wire) {
      std::ostringstream csv;
      TEMPUS_RETURN_IF_ERROR(tempus::WriteCsv(run.result, &csv));
      digest = DigestCsv(csv.str());
    } else {
      digest = DigestRelation(run.result);
    }
    by_statement[op.tql] = digest;
    digests.push_back(digest);
  }
  return digests;
}

}  // namespace perfbench
