#include "opt/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace tempus {
namespace {

bool Empty(const RelationStats& s) { return s.tuple_count == 0; }
bool Empty(const IntervalStats& s) { return s.tuple_count == 0; }

WorkspaceEstimate ZeroEstimate() {
  return {0.0, "empty input: zero workspace"};
}

double Cross(const IntervalStats& x, const IntervalStats& y) {
  return static_cast<double>(x.tuple_count) *
         static_cast<double>(y.tuple_count);
}

/// Y arrivals expected during one mean X lifespan.
double ArrivalsDuring(double x_duration, const IntervalStats& y) {
  if (y.tuple_count == 0) return 0.0;
  if (y.mean_interarrival <= 0.0) {
    // All Y share one start: an X either sees all of them or none.
    return static_cast<double>(y.tuple_count);
  }
  return x_duration / y.mean_interarrival;
}

}  // namespace

double ExpectedConcurrency(const RelationStats& stats) {
  if (stats.tuple_count == 0) return 0.0;
  if (stats.mean_interarrival <= 0.0) {
    // All tuples share one start: the whole relation can be alive at once.
    return static_cast<double>(stats.tuple_count);
  }
  const double c = stats.mean_duration / stats.mean_interarrival;
  return std::min(c, static_cast<double>(stats.tuple_count));
}

double ExpectedConcurrency(const IntervalStats& stats) {
  if (stats.tuple_count == 0) return 0.0;
  if (stats.detailed && !stats.profile.empty()) {
    // The measured time-weighted mean of the live-tuple profile replaces
    // the Little's-law stationarity assumption.
    return stats.profile.mean_live;
  }
  return ExpectedConcurrency(stats.Scalars());
}

WorkspaceEstimate EstimateContainJoinFromFrom(const RelationStats& x,
                                              const RelationStats& y) {
  if (Empty(x) || Empty(y)) return ZeroEstimate();
  const double cx = ExpectedConcurrency(x);
  return {cx + 1.0,
          StrFormat("X spanning y.TS: dur(X)/gap(X) = %.1f (+1 transient Y)",
                    cx)};
}

WorkspaceEstimate EstimateContainJoinFromFrom(const IntervalStats& x,
                                              const IntervalStats& y) {
  if (Empty(x) || Empty(y)) return ZeroEstimate();
  const double cx = ExpectedConcurrency(x);
  return {cx + 1.0,
          StrFormat("X spanning y.TS = %.1f (+1 transient Y)%s", cx,
                    x.detailed ? " [profile]" : "")};
}

WorkspaceEstimate EstimateContainJoinFromTo(const RelationStats& x,
                                            const RelationStats& y) {
  if (Empty(x) || Empty(y)) return ZeroEstimate();
  const double cx = ExpectedConcurrency(x);
  // Y tuples whose lifespan falls inside the current X lifespan: Y
  // arrivals over an X duration, thinned by the chance a Y fits inside.
  const double arrivals =
      y.mean_interarrival <= 0.0
          ? static_cast<double>(y.tuple_count)
          : x.mean_duration / y.mean_interarrival;
  const double fit = x.mean_duration <= 0.0
                         ? 0.0
                         : std::max(0.0, 1.0 - y.mean_duration /
                                              x.mean_duration);
  const double contained = arrivals * fit;
  return {cx + contained,
          StrFormat("X spanning y.TE = %.1f + Y inside current X = %.1f",
                    cx, contained)};
}

WorkspaceEstimate EstimateContainJoinFromTo(const IntervalStats& x,
                                            const IntervalStats& y) {
  if (Empty(x) || Empty(y)) return ZeroEstimate();
  const double cx = ExpectedConcurrency(x);
  const double arrivals = ArrivalsDuring(x.mean_duration, y);
  // With a duration histogram the fit factor is the measured fraction of Y
  // durations shorter than the mean X duration, not the linear fallback.
  double fit;
  if (y.detailed && !y.durations.empty()) {
    fit = y.durations.FractionBelow(
        static_cast<TimePoint>(std::llround(x.mean_duration)));
  } else {
    fit = x.mean_duration <= 0.0
              ? 0.0
              : std::max(0.0, 1.0 - y.mean_duration / x.mean_duration);
  }
  const double contained =
      std::min(arrivals * fit, static_cast<double>(y.tuple_count));
  return {cx + contained,
          StrFormat("X spanning y.TE = %.1f + Y inside current X = %.1f%s",
                    cx, contained, y.detailed ? " [histogram]" : "")};
}

WorkspaceEstimate EstimateSweepJoin(const RelationStats& x,
                                    const RelationStats& y) {
  if (Empty(x) || Empty(y)) return ZeroEstimate();
  const double cx = ExpectedConcurrency(x);
  const double cy = ExpectedConcurrency(y);
  return {cx + cy, StrFormat("active X = %.1f + active Y = %.1f", cx, cy)};
}

WorkspaceEstimate EstimateSweepJoin(const IntervalStats& x,
                                    const IntervalStats& y) {
  if (Empty(x) || Empty(y)) return ZeroEstimate();
  const double cx = ExpectedConcurrency(x);
  const double cy = ExpectedConcurrency(y);
  return {cx + cy, StrFormat("active X = %.1f + active Y = %.1f", cx, cy)};
}

WorkspaceEstimate EstimateSweepSemijoin(const RelationStats& containers) {
  if (Empty(containers)) return ZeroEstimate();
  const double c = ExpectedConcurrency(containers);
  return {c, StrFormat("containers spanning sweep point = %.1f", c)};
}

WorkspaceEstimate EstimateSweepSemijoin(const IntervalStats& containers) {
  if (Empty(containers)) return ZeroEstimate();
  const double c = ExpectedConcurrency(containers);
  return {c, StrFormat("containers spanning sweep point = %.1f", c)};
}

WorkspaceEstimate EstimateSort(const RelationStats& input) {
  if (Empty(input)) return ZeroEstimate();
  return {static_cast<double>(input.tuple_count),
          StrFormat("buffered input = %zu", input.tuple_count)};
}

double EstimateIntersectingPairs(const IntervalStats& x,
                                 const IntervalStats& y) {
  if (Empty(x) || Empty(y)) return 0.0;
  // Each X intersects the Y alive at its start plus the Y arriving during
  // its lifespan.
  const double per_x =
      ExpectedConcurrency(y) + ArrivalsDuring(x.mean_duration, y);
  return std::min(static_cast<double>(x.tuple_count) * per_x, Cross(x, y));
}

double EstimateBeforePairs(const IntervalStats& x, const IntervalStats& y) {
  if (Empty(x) || Empty(y)) return 0.0;
  double p = 0.5;
  if (x.detailed && y.detailed && !x.ends.empty() && !y.starts.empty()) {
    // P(x.TE < y.TS): average the ends-histogram CDF over the starts
    // histogram's buckets.
    p = 0.0;
    const Histogram& starts = y.starts;
    for (size_t i = 0; i < starts.counts.size(); ++i) {
      const TimePoint mid =
          starts.bounds[i] / 2 + starts.bounds[i + 1] / 2;
      p += (static_cast<double>(starts.counts[i]) /
            static_cast<double>(starts.total)) *
           x.ends.FractionBelow(mid);
    }
  }
  return Cross(x, y) * std::min(1.0, std::max(0.0, p));
}

double EstimateContainPairs(const IntervalStats& x, const IntervalStats& y) {
  if (Empty(x) || Empty(y)) return 0.0;
  // Y strictly inside one X: Y arrivals during an X lifespan, thinned by
  // the chance the Y duration fits.
  const double arrivals = ArrivalsDuring(x.mean_duration, y);
  double fit;
  if (y.detailed && !y.durations.empty()) {
    fit = y.durations.FractionBelow(
        static_cast<TimePoint>(std::llround(x.mean_duration)));
  } else {
    // Memoryless fit: P(Y < X) for exponential durations with these means.
    // It nears 1 - y.mean/x.mean when y.mean << x.mean, but stays positive
    // for a self-join, where that linear term is 0.
    const double sum = x.mean_duration + y.mean_duration;
    fit = sum <= 0.0 ? 0.0 : x.mean_duration / sum;
  }
  return std::min(static_cast<double>(x.tuple_count) * arrivals * fit,
                  Cross(x, y));
}

double EstimateMaskJoinRows(const IntervalStats& x, const IntervalStats& y,
                            const AllenMask& mask) {
  if (Empty(x) || Empty(y) || mask.IsEmpty()) return 0.0;
  if (mask == AllenMask::All()) return Cross(x, y);
  if (mask == AllenMask::Intersecting()) {
    return EstimateIntersectingPairs(x, y);
  }
  if (mask == AllenMask::Single(AllenRelation::kContains)) {
    return EstimateContainPairs(x, y);
  }
  if (mask == AllenMask::Single(AllenRelation::kDuring)) {
    return EstimateContainPairs(y, x);
  }
  if (mask == AllenMask::Single(AllenRelation::kBefore)) {
    return EstimateBeforePairs(x, y);
  }
  if (mask == AllenMask::Single(AllenRelation::kAfter)) {
    return EstimateBeforePairs(y, x);
  }
  const bool coexists = !mask.Contains(AllenRelation::kBefore) &&
                        !mask.Contains(AllenRelation::kAfter);
  const double base = coexists ? EstimateIntersectingPairs(x, y)
                               : Cross(x, y) * kDefaultPairSelectivity;
  // Several specific relations within the coexistence space: scale by the
  // share of named relations, floored so estimates never hit zero for a
  // satisfiable mask.
  const double share =
      std::max(0.1, static_cast<double>(mask.Count()) / 13.0);
  return std::min(base * share, Cross(x, y));
}

double EstimateSemijoinFraction(const IntervalStats& x,
                                const IntervalStats& y,
                                const AllenMask& mask) {
  if (Empty(x) || Empty(y) || mask.IsEmpty()) return 0.0;
  const double pairs = EstimateMaskJoinRows(x, y, mask);
  // P(some y matches a given x) ~ 1 - exp(-expected matches per x).
  const double per_x = pairs / static_cast<double>(x.tuple_count);
  return std::min(1.0, std::max(0.0, 1.0 - std::exp(-per_x)));
}

double EstimateEndpointSelectivity(const IntervalStats& stats, bool is_start,
                                   SelOp op, TimePoint literal) {
  if (stats.tuple_count == 0) return 0.0;
  const Histogram& h = is_start ? stats.starts : stats.ends;
  if (!stats.detailed || h.empty()) {
    switch (op) {
      case SelOp::kEq:
        return kDefaultEqSelectivity;
      case SelOp::kNe:
        return 1.0 - kDefaultEqSelectivity;
      default:
        return kDefaultRangeSelectivity;
    }
  }
  const double below = h.FractionBelow(literal);
  const double at = h.FractionBetween(literal, literal + 1);
  switch (op) {
    case SelOp::kEq:
      return at;
    case SelOp::kNe:
      return 1.0 - at;
    case SelOp::kLt:
      return below;
    case SelOp::kLe:
      return below + at;
    case SelOp::kGt:
      return 1.0 - below - at;
    case SelOp::kGe:
      return 1.0 - below;
  }
  return kDefaultRangeSelectivity;
}

double EstimateScanPageReads(size_t page_count) {
  return static_cast<double>(page_count);
}

double EstimateSortCost(double n) {
  if (n <= 1.0) return 0.0;
  return n * std::log2(n);
}

}  // namespace tempus
