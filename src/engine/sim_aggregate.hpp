// sim_aggregate.hpp — reduce simulation-sweep outcomes into observed
// acceptance curves, and join combined (analysis + simulation) outcomes into
// per-scenario consistency rows, each serialized as CSV / JSON.
#pragma once

#include <string>
#include <vector>

#include "engine/sweep_runner.hpp"

namespace profisched::engine {

/// One grid point of the simulated acceptance curves: per policy, how many of
/// the point's scenarios completed every replication without a deadline miss
/// (or an undelivered, dropped cycle), plus the miss/drop mass and the
/// largest observed response.
struct SimCurvePoint {
  double total_u = 0.0;
  double beta_lo = 1.0;
  double beta_hi = 1.0;
  /// Ring-size axis value (SweepPoint::n_masters); 0 = no masters axis. Any
  /// non-zero value switches the serialized formats to their extended
  /// `masters` column, exactly like SweepCurves.
  std::size_t n_masters = 0;
  std::size_t scenarios = 0;
  std::vector<std::size_t> miss_free;        ///< indexed like SimCurves::policies
  std::vector<std::uint64_t> total_misses;
  std::vector<std::uint64_t> total_dropped;
  std::vector<Ticks> max_observed;
  /// Max over the point's scenarios of the per-scenario observed percentile
  /// (SimOptions::quantile, default p99; `profisched simulate --quantile`
  /// selects it) — the tail-latency curve reported alongside the worst case.
  std::vector<Ticks> quantile_observed;

  [[nodiscard]] double ratio(std::size_t policy) const {
    return scenarios == 0 ? 0.0
                          : static_cast<double>(miss_free[policy]) /
                                static_cast<double>(scenarios);
  }
};

/// Observed (simulation) acceptance curves: one point per sweep point, one
/// series per policy.
struct SimCurves {
  std::vector<std::string> policies;
  std::vector<SimCurvePoint> points;

  /// CSV: one row per (point, policy):
  ///   u,beta_lo,beta_hi,scenarios,policy,miss_free,total_misses,total_dropped,
  ///   max_observed,quantile_observed,ratio
  /// With a masters axis a `masters` column is inserted after beta_hi;
  /// without one the classic 11-column layout is emitted unchanged.
  [[nodiscard]] std::string to_csv() const;
  /// JSON {"policies": [...], "points": [{...}]} mirroring the CSV columns
  /// (a "masters" key appears exactly when the CSV gains its column).
  [[nodiscard]] std::string to_json() const;
};

/// Reduce a simulation sweep against the spec that produced it.
[[nodiscard]] SimCurves aggregate_sim(const SimSweepSpec& spec, const SimSweepResult& result);

/// One joined analysis-vs-simulation row (combined mode): a single
/// (scenario, policy) pair with the analytic verdict/bound next to the
/// observed simulation behaviour.
struct ConsistencyRow {
  std::uint64_t id = 0;
  std::uint64_t seed = 0;
  double total_u = 0.0;
  /// Grid-point provenance beyond u. Always filled by consistency_table();
  /// serialized only when the table's sweep was multi-axis (see
  /// ConsistencyTable::multi_axis).
  double beta_lo = 1.0;
  double beta_hi = 1.0;
  std::size_t n_masters = 0;  ///< 0 = no masters axis
  std::string policy;
  bool analytic_schedulable = false;
  Ticks analytic_wcrt = 0;  ///< kNoBound when some stream's iteration diverged
  /// Degraded-mode verdict/bound (fault axis only): the guarantee the faulted
  /// simulation is actually held to. Meaningful — and serialized — exactly
  /// when the table's ConsistencyTable::fault_axis is set; otherwise they keep
  /// their zero defaults.
  bool degraded_schedulable = false;
  Ticks degraded_wcrt = 0;
  Ticks observed_max = 0;
  Ticks observed_p99 = 0;
  std::uint64_t misses = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;           ///< cycles abandoned after exhausting retries
  std::uint64_t bound_violations = 0;  ///< streams with observed > bound (must be 0)
  /// The accepting analysis (degraded under faults, clean otherwise) claimed
  /// schedulability yet the simulation missed a deadline — the must-never-fire
  /// consistency flag of the suite, fault axis included.
  bool accept_but_miss = false;

  /// Bound/observed pessimism ratio; 0 when undefined (unbounded analytic
  /// WCRT or nothing observed). >= 1 whenever the analysis is sound.
  [[nodiscard]] double pessimism() const {
    if (analytic_wcrt == kNoBound || observed_max <= 0) return 0.0;
    return static_cast<double>(analytic_wcrt) / static_cast<double>(observed_max);
  }
};

/// The full joined table plus its serializations.
struct ConsistencyTable {
  std::vector<ConsistencyRow> rows;
  /// True when the producing sweep spanned more than the classic u-grid
  /// (beta axis or masters axis — engine::has_multi_axis). Switches the
  /// serialized formats to the extended beta_lo/beta_hi/masters columns;
  /// false keeps the historical layouts byte-identical.
  bool multi_axis = false;
  /// True when the producing sweep ran with an active FaultModel. Adds the
  /// degraded_schedulable/degraded_wcrt columns to both formats; false keeps
  /// every zero-fault serialization byte-identical to the pre-fault layouts.
  bool fault_axis = false;

  /// CSV: one row per (scenario, policy):
  ///   id,seed,u,policy,analytic_schedulable,analytic_wcrt,observed_max,
  ///   observed_p99,misses,completed,dropped,bound_violations,accept_but_miss,
  ///   pessimism
  /// Multi-axis tables insert beta_lo,beta_hi,masters after u; fault-axis
  /// tables insert degraded_schedulable,degraded_wcrt after analytic_wcrt.
  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] std::string to_json() const;

  /// Rows where the analysis accepted but the simulation observed a miss.
  /// A sound analysis keeps this 0 — the acceptance criterion of the suite.
  [[nodiscard]] std::size_t accept_but_miss_count() const noexcept;
  /// Total per-stream bound violations across the table (must be 0).
  [[nodiscard]] std::uint64_t total_bound_violations() const noexcept;
};

/// Join a combined run against the spec that produced it.
[[nodiscard]] ConsistencyTable consistency_table(const SimSweepSpec& spec,
                                                 const CombinedResult& result);

}  // namespace profisched::engine
