#ifndef TEMPUS_OPT_COST_MODEL_H_
#define TEMPUS_OPT_COST_MODEL_H_

#include <string>

#include "allen/interval_algebra.h"
#include "relation/temporal_relation.h"
#include "stats/interval_stats.h"

namespace tempus {

/// Analytic cost model for the stream operators, computed from instance
/// statistics — the paper's "future work" item made concrete: "in addition
/// to conventional statistical information ... estimating the amount of
/// local workspace becomes necessary" (Section 6). docs/OPTIMIZER.md maps
/// each estimator to its Table 1–3 state characterization.
///
/// Two tiers of statistics feed the model: coarse scalars
/// (`RelationStats`, computed once per catalog entry or at spill time;
/// docs/OPTIMIZER.md "Where statistics come from") assume stationary
/// arrivals with rate lambda = 1/mean_interarrival and independent
/// durations, so the expected number of lifespans covering a time point
/// (Little's law) is
///     concurrency(R) = mean_duration(R) / mean_interarrival(R);
/// detailed statistics (`IntervalStats`, built by `analyze <relation>`)
/// replace that stationarity assumption with the measured live-tuple
/// profile and endpoint histograms.
struct WorkspaceEstimate {
  double tuples = 0;
  /// Human-readable derivation, for EXPLAIN and benchmarks.
  std::string basis;
};

/// A full per-node estimate: output cardinality plus peak workspace. The
/// planner stamps one onto every plan node ("est=(rows=N ws=M)" in
/// EXPLAIN) and EXPLAIN ANALYZE prints it beside the measured counters.
struct NodeEstimate {
  bool valid = false;
  double rows = 0.0;
  double workspace = 0.0;
};

// --- scalar-statistics estimators (Table 1–3 workspace bounds) -----------

/// Expected number of lifespans of R alive at a random time point. Empty
/// relations and zero mean interarrival are guarded: 0 for empty, the full
/// tuple count when every tuple shares one start.
double ExpectedConcurrency(const RelationStats& stats);

/// ExpectedConcurrency over detailed statistics: the measured time-weighted
/// mean of the live-tuple profile when available, else the scalar formula.
double ExpectedConcurrency(const IntervalStats& stats);

/// Contain-join(X,Y), both inputs ValidFrom ascending (Table 1 (a)):
/// state = X tuples spanning the current Y ValidFrom (+ transient Y).
WorkspaceEstimate EstimateContainJoinFromFrom(const RelationStats& x,
                                              const RelationStats& y);
WorkspaceEstimate EstimateContainJoinFromFrom(const IntervalStats& x,
                                              const IntervalStats& y);

/// Contain-join(X,Y), X ValidFrom / Y ValidTo ascending (Table 1 (b)):
/// state = X tuples spanning the current Y ValidTo + Y tuples contained
/// in the current X lifespan (expected: Y arrivals during an X lifespan).
WorkspaceEstimate EstimateContainJoinFromTo(const RelationStats& x,
                                            const RelationStats& y);
WorkspaceEstimate EstimateContainJoinFromTo(const IntervalStats& x,
                                            const IntervalStats& y);

/// Sweep join over coexisting relations (Table 2 (a)): both active sets.
WorkspaceEstimate EstimateSweepJoin(const RelationStats& x,
                                    const RelationStats& y);
WorkspaceEstimate EstimateSweepJoin(const IntervalStats& x,
                                    const IntervalStats& y);

/// Sweep containment semijoin (Table 1 (c)): containers spanning the
/// sweep point.
WorkspaceEstimate EstimateSweepSemijoin(const RelationStats& containers);
WorkspaceEstimate EstimateSweepSemijoin(const IntervalStats& containers);

/// Buffering sort enforcer: the whole input.
WorkspaceEstimate EstimateSort(const RelationStats& input);

// --- cardinality estimators ----------------------------------------------

/// Default selectivities when no histogram applies (endpoint selections
/// over analyzed relations use the equi-depth histograms instead).
inline constexpr double kDefaultEqSelectivity = 0.1;
inline constexpr double kDefaultRangeSelectivity = 0.3;
inline constexpr double kDefaultPairSelectivity = 0.5;

/// Expected number of (x, y) pairs whose lifespans intersect: each X sees
/// the Y alive at its start plus the Y arriving during its lifespan.
double EstimateIntersectingPairs(const IntervalStats& x,
                                 const IntervalStats& y);

/// Expected pairs with x before y (x.TE < y.TS). Uses the ends/starts
/// histograms when both sides are detailed, else assumes half the cross
/// product.
double EstimateBeforePairs(const IntervalStats& x, const IntervalStats& y);

/// Expected pairs with y strictly inside x (the Contain-join output).
double EstimateContainPairs(const IntervalStats& x, const IntervalStats& y);

/// Output cardinality of a join whose pair condition is `mask`, as a
/// fraction of the relevant pair population (intersecting pairs for
/// coexistence masks, before pairs for kBefore, cross product otherwise).
double EstimateMaskJoinRows(const IntervalStats& x, const IntervalStats& y,
                            const AllenMask& mask);

/// Fraction of x tuples estimated to survive a semijoin against y under
/// `mask` (capped to [0, 1]).
double EstimateSemijoinFraction(const IntervalStats& x,
                                const IntervalStats& y,
                                const AllenMask& mask);

/// Comparison shape for selectivity estimation (mirrors plan CmpOp without
/// depending on the plan layer — tempus_plan links tempus_opt, not the
/// reverse).
enum class SelOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Estimated fraction of tuples passing an endpoint selection
/// `endpoint op literal`; uses the relevant histogram when `stats` is
/// detailed, else the default selectivities. `is_start` selects the
/// ValidFrom vs ValidTo histogram.
double EstimateEndpointSelectivity(const IntervalStats& stats, bool is_start,
                                   SelOp op, TimePoint literal);

// --- I/O costs ------------------------------------------------------------

/// Cost (in page reads) of scanning a disk-backed relation of
/// `page_count` pages; in-memory relations cost 0 pages.
double EstimateScanPageReads(size_t page_count);

/// Cost (in tuple moves) of an enforcer sort of n tuples: n log2 n, the
/// quantity the sort-vs-reuse decision charges against workspace savings.
double EstimateSortCost(double n);

}  // namespace tempus

#endif  // TEMPUS_OPT_COST_MODEL_H_
