// Shared pieces of the tempus benchmark program: result digests, latency
// statistics, process counters and the result-line JSON.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "relation/temporal_relation.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Order-insensitive fingerprint of a result: the row count plus two
/// commutative sums of per-row hashes, so equal bags of rows compare equal
/// whatever order a plan emitted them in.
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  uint64_t mixed = 0;

  void AddRow(uint64_t row_hash);
  bool operator==(const Digest& o) const {
    return rows == o.rows && sum == o.sum && mixed == o.mixed;
  }
  bool operator!=(const Digest& o) const { return !(*this == o); }
};

/// Digest of a relation's tuples, hashed value by value.
Digest DigestRelation(const tempus::TemporalRelation& relation);

/// Digest of CSV text (relation/csv.h format): one row per line after the
/// header line, each line hashed as bytes.
Digest DigestCsv(std::string_view csv);

/// Linear-interpolation percentile (p in [0, 1]) of unsorted samples;
/// 0 when there are none.
double Percentile(std::vector<double> samples, double p);

/// Latency samples of successful operations: overall, per class and per
/// statement (keyed by its TQL text).
struct LatencyLog {
  std::vector<double> all_ms;
  std::map<std::string, std::vector<double>> by_class_ms;
  std::map<std::string, std::vector<double>> by_statement_ms;

  void Add(const std::string& cls, const std::string& statement, double ms);
  void Merge(const LatencyLog& other);
};

/// getrusage(RUSAGE_SELF) counters.
struct ProcSample {
  double cpu_s = 0.0;
  double ctx_vol = 0.0;
  double ctx_invol = 0.0;
  double minor_faults = 0.0;
};
ProcSample SampleProc();

/// VmHWM of this process in MiB (0 if /proc is unreadable).
double PeakRssMb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last stdout line: {"correct":..,"attempted":..,
/// "failed":..,"metrics":{name:{"value":..,"unit":..},...}}.
std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
