#include "relation/temporal_relation.h"

#include <algorithm>
#include <unordered_map>

#include "common/fault.h"
#include "common/string_util.h"

namespace tempus {

Status TemporalRelation::Append(Tuple tuple) {
  if (tuple.size() != schema_.attribute_count()) {
    return Status::InvalidArgument(
        StrFormat("tuple arity %zu does not match schema arity %zu",
                  tuple.size(), schema_.attribute_count()));
  }
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (!tuple[i].MatchesType(schema_.attribute(i).type)) {
      return Status::InvalidArgument(
          "type mismatch for attribute " + schema_.attribute(i).name +
          ": got " + tuple[i].ToString());
    }
  }
  if (schema_.has_lifespan()) {
    const Value& from = tuple[schema_.valid_from_index()];
    const Value& to = tuple[schema_.valid_to_index()];
    if (from.is_null() || to.is_null()) {
      return Status::InvalidArgument("lifespan attributes must be non-null");
    }
    const Interval lifespan(from.time_value(), to.time_value());
    if (!lifespan.IsValid()) {
      return Status::InvalidArgument(
          "intra-tuple integrity violation (ValidFrom < ValidTo required): " +
          lifespan.ToString());
    }
  }
  tuples_.push_back(std::move(tuple));
  known_order_.reset();
  return Status::Ok();
}

Status TemporalRelation::AppendRow(Value surrogate, Value value,
                                   TimePoint valid_from, TimePoint valid_to) {
  if (schema_.attribute_count() != 4 || schema_.valid_from_index() != 2 ||
      schema_.valid_to_index() != 3) {
    return Status::FailedPrecondition(
        "AppendRow requires the canonical <S, V, ValidFrom, ValidTo> schema");
  }
  return Append(MakeTemporalTuple(std::move(surrogate), std::move(value),
                                  valid_from, valid_to));
}

void TemporalRelation::SortBy(const SortSpec& spec) {
  SortTuples(&tuples_, spec);
  known_order_ = spec;
}

TemporalRelation TemporalRelation::SortedBy(const SortSpec& spec) const {
  TemporalRelation copy = *this;
  copy.SortBy(spec);
  return copy;
}

Status TemporalRelation::DeclareOrder(const SortSpec& spec) {
  if (!IsSorted(tuples_, spec)) {
    return Status::FailedPrecondition(
        "relation " + name_ + " is not sorted by " + spec.ToString(schema_));
  }
  known_order_ = spec;
  return Status::Ok();
}

Interval TemporalRelation::LifespanOf(size_t i) const {
  const Tuple& t = tuples_[i];
  return Interval(t[schema_.valid_from_index()].time_value(),
                  t[schema_.valid_to_index()].time_value());
}

Result<RelationStats> TemporalRelation::ComputeStats() const {
  TEMPUS_FAULT_POINT("relation.compute_stats");
  if (!schema_.has_lifespan()) {
    return Status::FailedPrecondition(
        "stats require a temporal schema: " + schema_.ToString());
  }
  RelationStats stats;
  stats.tuple_count = tuples_.size();
  if (tuples_.empty()) return stats;

  double duration_sum = 0.0;
  std::vector<TimePoint> starts;
  starts.reserve(tuples_.size());
  // Event sweep for max concurrency: +1 at start, -1 at end.
  std::vector<std::pair<TimePoint, int>> events;
  events.reserve(tuples_.size() * 2);
  for (size_t i = 0; i < tuples_.size(); ++i) {
    const Interval span = LifespanOf(i);
    stats.min_valid_from = std::min(stats.min_valid_from, span.start);
    stats.max_valid_to = std::max(stats.max_valid_to, span.end);
    duration_sum += static_cast<double>(span.Duration());
    stats.max_duration = std::max(stats.max_duration, span.Duration());
    starts.push_back(span.start);
    events.emplace_back(span.start, +1);
    events.emplace_back(span.end, -1);
  }
  stats.mean_duration = duration_sum / static_cast<double>(tuples_.size());

  std::sort(starts.begin(), starts.end());
  if (starts.size() > 1) {
    stats.mean_interarrival =
        static_cast<double>(starts.back() - starts.front()) /
        static_cast<double>(starts.size() - 1);
  }

  // Ends sort before starts at the same time point: [a,t) and [t,b) do not
  // overlap under half-open semantics.
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second < b.second;
            });
  size_t current = 0;
  for (const auto& [time, delta] : events) {
    (void)time;
    if (delta > 0) {
      ++current;
      stats.max_concurrency = std::max(stats.max_concurrency, current);
    } else {
      --current;
    }
  }
  return stats;
}

bool TemporalRelation::EqualsIgnoringOrder(
    const TemporalRelation& other) const {
  if (tuples_.size() != other.tuples_.size()) return false;
  if (!schema_.Equals(other.schema_)) return false;
  // Multiset comparison via hash buckets with exact verification.
  std::unordered_map<uint64_t, std::vector<const Tuple*>> buckets;
  for (const Tuple& t : tuples_) {
    buckets[t.Hash()].push_back(&t);
  }
  for (const Tuple& t : other.tuples_) {
    auto it = buckets.find(t.Hash());
    if (it == buckets.end()) return false;
    std::vector<const Tuple*>& bucket = it->second;
    bool matched = false;
    for (size_t i = 0; i < bucket.size(); ++i) {
      if (bucket[i]->Equals(t)) {
        bucket[i] = bucket.back();
        bucket.pop_back();
        matched = true;
        break;
      }
    }
    if (!matched) return false;
    if (bucket.empty()) buckets.erase(it);
  }
  return buckets.empty();
}

std::string TemporalRelation::ToString(size_t limit) const {
  std::string out = name_ + " " + schema_.ToString() +
                    StrFormat(" [%zu tuples]\n", tuples_.size());
  const size_t n = std::min(limit, tuples_.size());
  for (size_t i = 0; i < n; ++i) {
    out += "  " + tuples_[i].ToString() + "\n";
  }
  if (n < tuples_.size()) {
    out += StrFormat("  ... (%zu more)\n", tuples_.size() - n);
  }
  return out;
}

}  // namespace tempus
