// sensitivity_search.hpp — the one search core behind every sensitivity
// analysis in the library (PR 6 API unification).
//
// Historically core/sensitivity.hpp (task sets) and profibus/sensitivity.hpp
// (networks) each carried their own binary-search loops and their own result
// convention (std::optional<Ticks> / std::optional<double>), duplicating the
// bracket handling and losing information the callers want: whether the
// search capped out, and how many probes it spent. This header unifies both
// layers on a single exact-search pair — max_satisfying / min_satisfying over
// a monotone predicate on integer Ticks — returning one SensitivityResult
// type, plus the fixed-point scaling constants everything shares. The
// optimizer (src/opt/) drives its breakdown-utilization, T_TR and D/T-ratio
// bisections through exactly these two functions.
#pragma once

#include <functional>

#include "core/time_types.hpp"

namespace profisched::sensitivity {

/// Fixed-point one: scaling factors are expressed in q/1024 units throughout
/// the sensitivity layer (q = 1024 means "unchanged").
inline constexpr Ticks kScaleOne = 1024;

/// Default upper bracket for growth searches: 64x.
inline constexpr Ticks kDefaultMaxScaleQ = 64 * kScaleOne;

/// Deadline searches cap at D = multiple · T (the historical 64·T cap).
inline constexpr Ticks kDefaultDeadlineCapMultiple = 64;

/// Outcome of one exact search over a monotone predicate.
struct SensitivityResult {
  /// False when the predicate fails on the entire bracket (the search has no
  /// satisfying value); `value` is meaningless then.
  bool feasible = false;
  /// True when the boundary was clipped by the bracket: the optimum of a
  /// max-search is >= `value` (== the bracket's hi), of a min-search <= it.
  bool cap_hit = false;
  /// The exact boundary: largest (max_satisfying) or smallest
  /// (min_satisfying) bracket value with pred(value) true.
  Ticks value = 0;
  /// Predicate evaluations spent (the searches are O(log bracket)).
  std::uint64_t probes = 0;

  explicit operator bool() const noexcept { return feasible; }
};

/// A monotone feasibility predicate over the searched parameter.
using TicksPredicate = std::function<bool(Ticks)>;

/// Largest v in [lo, hi] with pred(v) true, for pred monotone non-increasing
/// (true up to some boundary, false beyond). Infeasible when pred(lo) is
/// false; cap_hit when pred(hi) is true. Exact to one tick; throws
/// std::invalid_argument on an empty bracket (lo > hi).
[[nodiscard]] SensitivityResult max_satisfying(Ticks lo, Ticks hi, const TicksPredicate& pred);

/// Smallest v in [lo, hi] with pred(v) true, for pred monotone non-decreasing
/// (false below some boundary, true from it on). Infeasible when pred(hi) is
/// false; cap_hit when pred(lo) is true. Exact to one tick; throws
/// std::invalid_argument on an empty bracket (lo > hi).
[[nodiscard]] SensitivityResult min_satisfying(Ticks lo, Ticks hi, const TicksPredicate& pred);

}  // namespace profisched::sensitivity
