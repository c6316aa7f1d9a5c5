#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/string_util.h"
#include "obs/metrics_json.h"

namespace perfbench {
namespace {

uint64_t Mix64(uint64_t x) {
  // splitmix64 finalizer.
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t HashBytes(std::string_view bytes) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

void Digest::AddRow(uint64_t row_hash) {
  ++rows;
  sum += row_hash;
  mixed += Mix64(row_hash ^ 0x9e3779b97f4a7c15ULL);
}

Digest DigestRelation(const tempus::TemporalRelation& relation) {
  Digest digest;
  for (const tempus::Tuple& tuple : relation.tuples()) {
    uint64_t h = 0x2545f4914f6cdd1dULL;
    for (const tempus::Value& value : tuple.values()) {
      h = Mix64(h ^ value.Hash());
    }
    digest.AddRow(h);
  }
  return digest;
}

Digest DigestCsv(std::string_view csv) {
  Digest digest;
  size_t pos = csv.find('\n');  // Skip the header row.
  if (pos == std::string_view::npos) return digest;
  ++pos;
  while (pos < csv.size()) {
    size_t end = csv.find('\n', pos);
    if (end == std::string_view::npos) end = csv.size();
    if (end > pos) digest.AddRow(HashBytes(csv.substr(pos, end - pos)));
    pos = end + 1;
  }
  return digest;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

void LatencyLog::Add(const std::string& cls, const std::string& statement,
                     double ms) {
  all_ms.push_back(ms);
  by_class_ms[cls].push_back(ms);
  by_statement_ms[statement].push_back(ms);
}

void LatencyLog::Merge(const LatencyLog& other) {
  all_ms.insert(all_ms.end(), other.all_ms.begin(), other.all_ms.end());
  using Samples = std::map<std::string, std::vector<double>>;
  auto merge = [](const Samples& from, Samples* into) {
    for (const auto& [key, samples] : from) {
      std::vector<double>& mine = (*into)[key];
      mine.insert(mine.end(), samples.begin(), samples.end());
    }
  };
  merge(other.by_class_ms, &by_class_ms);
  merge(other.by_statement_ms, &by_statement_ms);
}

ProcSample SampleProc() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  ProcSample s;
  s.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
            static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
                1e-6;
  s.ctx_vol = static_cast<double>(usage.ru_nvcsw);
  s.ctx_invol = static_cast<double>(usage.ru_nivcsw);
  s.minor_faults = static_cast<double>(usage.ru_minflt);
  return s;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = tempus::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out += tempus::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                             i == 0 ? "" : ", ",
                             tempus::JsonEscape(metrics[i].name).c_str(), v,
                             tempus::JsonEscape(metrics[i].unit).c_str());
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
