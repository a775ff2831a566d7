// opt_aggregate.hpp — fold per-scenario optimize outcomes into per-(point,
// policy) breakdown distributions, and serialize them as the `optimize`
// output kind (CSV / JSON through detail/serialize.hpp, golden-locked).
//
// Quantiles are nearest-rank over the sorted feasible values (min / p50 /
// p90 / max for breakdown utilization, p50 / max for T_TR, p50 / min for the
// D/T ratio), so every emitted number is one of the exact per-scenario
// values — no interpolation, and the tables stay byte-identical for any
// thread or shard count. Points with no feasible scenario emit zeros.
#pragma once

#include <string>
#include <vector>

#include "opt/optimizer.hpp"

namespace profisched::opt {

/// Distribution summary of one (point, policy) cell. The *_feasible counters
/// say how many scenarios each quantile set is over; when one is 0 its
/// quantiles are all 0.
struct OptimumStats {
  std::size_t schedulable = 0;  ///< scenarios accepting at the base config
  std::size_t breakdown_feasible = 0;
  double breakdown_u_min = 0.0;
  double breakdown_u_p50 = 0.0;
  double breakdown_u_p90 = 0.0;
  double breakdown_u_max = 0.0;
  std::size_t ttr_feasible = 0;
  Ticks max_ttr_p50 = 0;
  Ticks max_ttr_max = 0;
  std::size_t dratio_feasible = 0;
  double min_dratio_p50 = 0.0;  ///< ratios as plain D/T (q / 1024)
  double min_dratio_min = 0.0;
};

/// One grid point of the optimize table.
struct OptimizePoint {
  double total_u = 0.0;
  double beta_lo = 1.0;
  double beta_hi = 1.0;
  std::size_t n_masters = 0;  ///< 0 = no masters axis
  std::size_t scenarios = 0;
  std::vector<OptimumStats> stats;  ///< indexed like OptimizeTable::policies
};

/// The optimize output kind. Serialized layouts mirror SweepCurves: the
/// masters column appears exactly when some point carries an explicit ring
/// size, so single-axis runs keep the classic column set.
struct OptimizeTable {
  std::vector<std::string> policies;
  std::vector<OptimizePoint> points;

  [[nodiscard]] std::string to_csv() const;
  [[nodiscard]] std::string to_json() const;
};

/// Nearest-rank quantile index into a sorted vector of n values: the
/// smallest index covering at least p% of them (p in (0, 100]).
[[nodiscard]] std::size_t quantile_index(std::size_t n, std::size_t p);

/// Fold a ranged or whole-run result into the per-point table. Outcomes may
/// cover any subset of the sweep's scenarios (a shard); `scenarios` counts
/// what the outcomes actually hold.
[[nodiscard]] OptimizeTable aggregate_optimize(const OptimizeSpec& spec,
                                               const OptimizeResult& result);

}  // namespace profisched::opt
