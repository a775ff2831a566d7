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
// One search driver runs the three bisections and assembles the
// PolicyOptimum, over either of two probe paths:
//  * optimize_policy(net, NetworkTest, options), the reference for arbitrary
//    predicates: every probe builds its network (with_scaled_frames, with_ttr,
//    with_deadline_ratio) and asks the predicate. optimize_network_test is
//    the engine's verdict dispatch, engine::network_schedulable, as such a
//    predicate.
//  * run_optimize (`optimize`, `shard --mode optimize`, served optimize
//    jobs) decides each (scenario, policy)'s probes one master at a time with
//    the engine's per-master verdict, engine::master_schedulable (same
//    method / formulation / fuel), so its verdicts equal the reference's and
//    the base verdict equals the sweep's. On the base, breakdown and T_TR
//    probes a master's verdict depends only on its T_cycle^k, which comes
//    from the base network's cycle maxima (profibus::t_cycle_per_master, the
//    formula compute_timing runs), so those probes build no network. Each
//    master keeps the largest T_cycle^k an analysis accepted and the
//    smallest one an analysis rejected, and is analysed only when a probe's
//    T_cycle^k lies strictly between the two: every paper test is monotone
//    in C = T_cycle (FCFS: nh·T_cycle <= D_i; DM: eq. 16 with the order set
//    by D alone; EDF: U, busy period, eq. 18 and its one-step acceptance;
//    OPA: Audsley's search over level tests monotone in C). That holds while
//    no fixed point runs out of engine::kFuel, the same assumption the
//    bisections themselves make; once a run-out budget is a verdict of its
//    own ("unknown"), the bracket must record only exact verdicts. The D/T
//    probes move the deadlines, so they analyse the with_deadline_ratio
//    network at the base T_cycle and keep no bracket (DM's order can flip at
//    ceiling ties). Every probe visits the masters from the one that rejected
//    last.
// A probe keeps one bit, and both paths compute only the bit: no per-stream
// WCRTs, no NetworkAnalysis, each fixed point bounded by its deadline.
//
// Determinism contract matches the sweep runner: scenarios are regenerated
// from (seed, id) alone and outcomes land in slot id - range.begin. Results
// are byte-identical for any thread count and any shard split (src/dist/
// carries an Optimize mode), and cache through ScenarioCache with a
// versioned params digest (record kind 4). run_optimize is one more mode on
// the sweep runner's driver (engine::detail::run_cells), which times each
// scenario's generation and bisections under runner.generate and
// runner.analyze as it times every mode; with --metrics the opt.* counters
// also count bisections, probes per axis and how each master verdict was
// reached.
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
using OptimizeOutcome = engine::Outcome<PolicyOptimum>;

/// The optimizer's cell codec (engine/detail/record.hpp): one PolicyOptimum,
/// shared by its result-cache record and its shard-artifact row cells.
/// breakdown_u travels in shortest round-trip form, so a cache hit or a merged
/// shard restores the exact double without regenerating the scenario.
struct OptimizeCells {
  using Cell = PolicyOptimum;
  static constexpr const char* tag = "z2";

  static void put(std::string& out, const Cell& c);
  static bool get(engine::detail::RecordReader& r, Cell& c);
  /// A cell carries no per-scenario fact to check.
  static bool fits(const engine::Scenario&, const Cell&) { return true; }
  static bool agree(const Cell&, const Cell&) { return true; }
};

/// Whole-run result; outcomes indexed by global scenario id minus the
/// range's begin, exactly like the other sweep modes.
using OptimizeResult = engine::Result<PolicyOptimum>;

/// Everything that defines an optimize run: the scenario grid (points ×
/// scenarios_per_point × policies, identical to a sweep) plus the brackets.
struct OptimizeSpec {
  engine::SweepSpec sweep;
  OptimizeOptions options;
};

/// Policies the optimizer can synthesize parameters for: those with a
/// per-master verdict (engine::has_master_verdict), the four AP-queue
/// analyses. TokenRing and Holistic have none.
[[nodiscard]] bool optimizable(engine::Policy policy);

/// The reference path's feasibility predicate: the engine's verdict dispatch
/// (engine::network_schedulable, same method / formulation / fuel) for
/// `policy`, as a profibus::NetworkTest over arbitrary (mutated) networks.
/// It answers engine::analyze_network(...).schedulable for the same network,
/// from the verdict-only analyses. Safe to call from several threads at
/// once. Throws std::invalid_argument for non-optimizable policies.
[[nodiscard]] profibus::NetworkTest optimize_network_test(engine::Policy policy,
                                                          const engine::EngineOptions& engine);

/// Message utilization of `net` with frames scaled to q/1024 — the
/// "breakdown utilization" once q is a breakdown boundary. 0.0 for q == 0
/// (the infeasible sentinel).
[[nodiscard]] double breakdown_utilization_at(const profibus::Network& net, Ticks q1024);

/// Run the three searches for one network under one predicate: the
/// reference path, which builds every probe's network.
[[nodiscard]] PolicyOptimum optimize_policy(const profibus::Network& net,
                                            const profibus::NetworkTest& test,
                                            const OptimizeOptions& options);

/// Optimize the scenarios with ids in `range`, fanned across `runner`'s pool
/// through the same driver as every sweep mode, deciding the probes
/// master by master (see the header comment); each optimum equals
/// optimize_policy under optimize_network_test. With a cache, each
/// (scenario, policy) optimum is looked up by content address first and only
/// misses are bisected (and stored); outcomes are bit-identical either way.
[[nodiscard]] OptimizeResult run_optimize(engine::SweepRunner& runner, const OptimizeSpec& spec,
                                          engine::IdRange range,
                                          engine::ScenarioCache* cache = nullptr);

/// Whole-run wrapper: optimize over [0, total_scenarios()).
[[nodiscard]] OptimizeResult run_optimize(engine::SweepRunner& runner, const OptimizeSpec& spec,
                                          engine::ScenarioCache* cache = nullptr);

}  // namespace profisched::opt
