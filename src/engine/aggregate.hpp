// aggregate.hpp — reduce per-scenario sweep outcomes into schedulability-
// ratio curves and serialize them as CSV / JSON.
#pragma once

#include <string>
#include <vector>

#include "engine/sweep_runner.hpp"

namespace profisched::engine {

/// One grid point of the aggregated curves: how many of the point's
/// scenarios each policy schedules.
struct CurvePoint {
  double total_u = 0.0;
  double beta_lo = 1.0;
  double beta_hi = 1.0;
  /// Ring-size axis value (SweepPoint::n_masters); 0 = no masters axis. When
  /// any point carries a non-zero value the serialized formats add their
  /// `masters` column — otherwise they stay byte-identical to the classic
  /// single-structure layout.
  std::size_t n_masters = 0;
  std::size_t scenarios = 0;
  std::vector<std::size_t> schedulable;  ///< indexed like SweepCurves::policies

  [[nodiscard]] double ratio(std::size_t policy) const {
    return scenarios == 0 ? 0.0
                          : static_cast<double>(schedulable[policy]) /
                                static_cast<double>(scenarios);
  }
};

/// Schedulability-ratio curves: one CurvePoint per sweep point, one series
/// per policy.
struct SweepCurves {
  std::vector<std::string> policies;  ///< series names (to_string(Policy))
  std::vector<CurvePoint> points;

  /// CSV: one row per (point, policy):
  ///   u,beta_lo,beta_hi,scenarios,policy,schedulable,ratio
  /// With a masters axis (any point's n_masters != 0) a `masters` column is
  /// inserted after beta_hi; without one the classic 7-column layout is
  /// emitted unchanged.
  [[nodiscard]] std::string to_csv() const;

  /// JSON object {"policies": [...], "points": [{..., "schedulable": {...}}]}.
  /// Points gain a "masters" key exactly when the CSV gains its column.
  [[nodiscard]] std::string to_json() const;
};

/// Reduce a sweep's outcomes against the spec that produced them.
[[nodiscard]] SweepCurves aggregate(const SweepSpec& spec, const SweepResult& result);

/// Per-point count of scenarios schedulable under `yes` but NOT under `no`
/// (the "X-only" columns of the comparison benches). Policies are looked up
/// by value in spec.policies; throws std::invalid_argument if either was not
/// part of the sweep.
[[nodiscard]] std::vector<std::size_t> count_exclusive(const SweepSpec& spec,
                                                       const SweepResult& result, Policy yes,
                                                       Policy no);

}  // namespace profisched::engine
