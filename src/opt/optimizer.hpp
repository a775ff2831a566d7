// optimizer.hpp — `profisched optimize`: per-scenario parameter synthesis.
//
// The paper (conf_ipps_TovarV99) is ultimately about *setting* PROFIBUS
// parameters — choosing T_TR and deadline assignments so the token ring
// stays schedulable — not just checking one fixed configuration. This module
// answers the synthesis questions per generated scenario and policy, each by
// exact bisection through core/sensitivity_search.hpp:
//
//   breakdown utilization — largest uniform frame-scaling factor q/1024 (and
//     the message utilization it lands at) the analysis still accepts;
//   max T_TR — largest target token rotation time that keeps the verdict;
//   min D/T ratio — smallest uniform deadline-to-period ratio sustainable.
//
// Determinism contract matches the sweep runner: scenarios are regenerated
// from (seed, id) alone, outcomes land in slot id - range.begin, and every
// probe runs through AnalysisEngine's dispatch (same method / formulation /
// fuel), so the base verdict here equals the sweep's verdict for the same
// scenario. Results are byte-identical for any thread count and any shard
// split (src/dist/ carries an Optimize mode), and cache through
// ScenarioCache with a versioned params digest (record kind 4).
#pragma once

#include <string>

#include "engine/sweep_runner.hpp"
#include "profibus/sensitivity.hpp"

namespace profisched::engine::detail {
class RecordReader;
}

namespace profisched::opt {

/// Search brackets for the three per-policy bisections. All fixed-point
/// factors are q/1024 (sensitivity::kScaleOne) like the sensitivity layer.
struct OptimizeOptions {
  /// Frame-scaling bracket for the breakdown search. The floor sits below
  /// 1024 so networks unschedulable at the base configuration still report
  /// the (sub-1.0) scaling they would break down at.
  Ticks scale_lo_q = 64;         ///< 1/16 of the generated frame sizes
  Ticks scale_hi_q = 16 * 1024;  ///< 16x
  /// Upper bracket for the max-T_TR search (floor is ring latency + 1).
  Ticks ttr_cap = 1 << 24;
  /// D/T-ratio bracket for the min-deadline-ratio search.
  Ticks dratio_lo_q = 64;         ///< D = T/16
  Ticks dratio_hi_q = 64 * 1024;  ///< D = 64·T
};

/// The three synthesis answers for one (scenario, policy). A value of 0 in
/// breakdown_q / max_ttr / min_dratio_q means that search found no feasible
/// value inside its bracket (every real boundary is >= 1).
struct PolicyOptimum {
  bool schedulable = false;   ///< verdict at the base configuration
  Ticks breakdown_q = 0;      ///< largest accepting frame scale (q/1024)
  bool breakdown_cap = false; ///< bracket ceiling still accepted
  double breakdown_u = 0.0;   ///< message utilization at breakdown_q
  Ticks max_ttr = 0;          ///< largest accepting T_TR
  bool ttr_cap_hit = false;   ///< ttr_cap still accepted
  Ticks min_dratio_q = 0;     ///< smallest accepting D/T ratio (q/1024)
  bool dratio_floor = false;  ///< bracket floor already accepted
};

/// Per-scenario result: one PolicyOptimum per requested policy (indexed like
/// the sweep's policies).
struct OptimizeOutcome {
  std::uint64_t id = 0;
  std::uint64_t seed = 0;
  std::size_t point = 0;  ///< index into the sweep's points
  std::vector<PolicyOptimum> per_policy;
};

/// The optimizer's cell codec (engine/detail/record.hpp): one PolicyOptimum,
/// shared by its result-cache record and its shard-artifact row cells.
/// breakdown_u travels in shortest round-trip form, so a cache hit or a merged
/// shard restores the exact double without regenerating the scenario.
struct OptimizeCells {
  using Cell = PolicyOptimum;
  static constexpr const char* tag = "z2";

  static void put(std::string& out, const Cell& c);
  static bool get(engine::detail::RecordReader& r, Cell& c);
  static Cell cell(const OptimizeOutcome& o, std::size_t p) { return o.per_policy[p]; }
  static bool push(OptimizeOutcome& o, const Cell& c) {
    o.per_policy.push_back(c);
    return true;
  }
};

/// Whole-run result; outcomes indexed by global scenario id minus the
/// range's begin, exactly like the other sweep modes.
struct OptimizeResult : engine::RunStats {
  std::vector<OptimizeOutcome> outcomes;
};

/// Everything that defines an optimize run: the scenario grid (points ×
/// scenarios_per_point × policies, identical to a sweep) plus the brackets.
struct OptimizeSpec {
  engine::SweepSpec sweep;
  OptimizeOptions options;
};

/// Policies the optimizer can synthesize parameters for (the four
/// AP-queue analyses; TokenRing/Holistic have no per-policy verdict to
/// bisect against).
[[nodiscard]] bool optimizable(engine::Policy policy);

/// The feasibility predicate the optimizer probes with: AnalysisEngine's own
/// dispatch (engine::analyze_network, same method / formulation / fuel) for
/// `policy`, as a profibus::NetworkTest over arbitrary (mutated) networks.
/// Safe to call from several threads at once. Throws std::invalid_argument
/// for non-optimizable policies.
[[nodiscard]] profibus::NetworkTest optimize_network_test(engine::Policy policy,
                                                          const engine::EngineOptions& engine);

/// Message utilization of `net` with frames scaled to q/1024 — the
/// "breakdown utilization" once q is a breakdown boundary. 0.0 for q == 0
/// (the infeasible sentinel).
[[nodiscard]] double breakdown_utilization_at(const profibus::Network& net, Ticks q1024);

/// Run the three searches for one network under one predicate.
[[nodiscard]] PolicyOptimum optimize_policy(const profibus::Network& net,
                                            const profibus::NetworkTest& test,
                                            const OptimizeOptions& options);

/// Optimize the scenarios with ids in `range`, fanned across `runner`'s pool
/// through the same ranged core as every sweep mode. With a cache, each
/// (scenario, policy) optimum is looked up by content address first and only
/// misses are bisected (and stored); outcomes are bit-identical either way.
[[nodiscard]] OptimizeResult run_optimize(engine::SweepRunner& runner, const OptimizeSpec& spec,
                                          engine::IdRange range,
                                          engine::ScenarioCache* cache = nullptr);

/// Whole-run wrapper: optimize over [0, total_scenarios()).
[[nodiscard]] OptimizeResult run_optimize(engine::SweepRunner& runner, const OptimizeSpec& spec,
                                          engine::ScenarioCache* cache = nullptr);

}  // namespace profisched::opt
