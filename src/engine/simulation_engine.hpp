// simulation_engine.hpp — the engine's simulation backend: the discrete-event
// simulator (src/sim/) behind the same Scenario/Policy surface the
// AnalysisEngine exposes, so sweeps can run either backend — or both — over
// identical generated scenarios.
//
// Seeding discipline: every simulation run is keyed by (scenario seed,
// replication index) through rep_seed(), never by wall clock or worker
// identity, so a sweep's simulation outcomes are bit-identical for any thread
// count. Replication 0 releases every stream synchronously at phase 0 (the
// adversarial pattern the analyses reason about); replications >= 1 draw
// per-stream random phases in [0, T_i) from the replication's own RNG stream.
//
// The engine itself is stateless apart from its options: one instance can be
// shared by any number of workers, and every simulate() call builds a fresh
// sim::SimConfig / NetworkSim instance (the simulator keeps no global state —
// see src/sim/rng.hpp and src/sim/network_sim.cpp).
#pragma once

#include <cstdint>

#include "engine/scenario.hpp"
#include "profibus/fault_model.hpp"
#include "sim/network_sim.hpp"

namespace profisched::engine {

/// Upper clamp, in ticks, of a horizon derived from horizon_cycles.
inline constexpr Ticks kHorizonCap = 20'000'000;

/// Tuning knobs of the simulation backend. Every run collects per-stream
/// latency histograms (the observed-p99 column).
struct SimOptions {
  /// How actual message-cycle durations are drawn (default: worst case, the
  /// regime where observed maxima can approach the analytic bounds).
  sim::CycleModel cycle_model;

  /// Explicit horizon in ticks; 0 derives one per scenario as
  /// ceil(horizon_cycles · T_cycle(net)) clamped to kHorizonCap.
  Ticks horizon = 0;
  double horizon_cycles = 50.0;

  /// Give every master one background low-priority generator (cycle length
  /// Cl^k, one release per T_TR). Off by default: the validation regime runs
  /// the HP streams the analyses bound.
  bool lp_traffic = false;

  /// Injected faults (token loss / corruption / churn / release bursts); all
  /// off by default. Threaded into every sim::SimConfig; burst_correlation
  /// additionally blends the random replication phases toward one
  /// network-wide draw in make_config. A default FaultModel leaves every
  /// output byte-identical to a fault-free build.
  profibus::FaultModel faults;

  /// Which percentile of the merged response distribution the observed_p99
  /// column reports (`profisched simulate --quantile`). Default 0.99 keeps
  /// the historical column meaning; the column name stays `observed_p99` in
  /// the serialized formats regardless of the quantile chosen.
  double quantile = 0.99;
};

/// Scalar summary of one simulation run (the columns the sweep aggregates).
struct SimSummary {
  Ticks observed_max = 0;  ///< max response across every stream
  Ticks observed_p99 = 0;  ///< p99 of the merged response distribution
  std::uint64_t released = 0;
  std::uint64_t completed = 0;
  std::uint64_t misses = 0;
  std::uint64_t dropped = 0;
};

class SimulationEngine {
 public:
  SimulationEngine() = default;
  explicit SimulationEngine(SimOptions opt) : opt_(opt) {}

  /// Only the AP-queue policies have a run-time procedure to simulate.
  [[nodiscard]] static bool simulable(Policy p) noexcept {
    return p == Policy::Fcfs || p == Policy::Dm || p == Policy::Edf;
  }

  /// Map an engine policy onto the simulator's dispatching policy; throws
  /// std::invalid_argument for the analysis-only policies.
  [[nodiscard]] static profibus::ApPolicy to_ap_policy(Policy p);

  /// Deterministic RNG seed of replication `rep` of a scenario: depends only
  /// on the scenario's own seed and the replication index.
  [[nodiscard]] static std::uint64_t rep_seed(std::uint64_t scenario_seed, std::uint64_t rep);

  /// The horizon a scenario is simulated for under these options.
  [[nodiscard]] Ticks horizon_for(const Scenario& sc) const;

  /// Build the full simulator configuration for one run (exposed so tests and
  /// benches can inspect or tweak what simulate() executes).
  [[nodiscard]] sim::SimConfig make_config(const Scenario& sc, Policy policy,
                                           std::uint64_t rep = 0) const;

  /// Run one simulation of `sc` under `policy`, replication `rep`.
  [[nodiscard]] sim::SimReport simulate(const Scenario& sc, Policy policy,
                                        std::uint64_t rep = 0) const;

  /// Reduce a report to the scalar sweep columns. The observed_p99 column
  /// reports the `quantile` percentile of the merged response distribution
  /// (SimOptions::quantile for engine-driven sweeps), falling back to
  /// observed_max when the report carries no histograms.
  [[nodiscard]] static SimSummary summarize(const sim::SimReport& r, double quantile = 0.99);

  [[nodiscard]] const SimOptions& options() const noexcept { return opt_; }

 private:
  SimOptions opt_;
};

}  // namespace profisched::engine
