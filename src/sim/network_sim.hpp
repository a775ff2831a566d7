// network_sim.hpp — the discrete-event PROFIBUS network simulator (substrate
// S6 of DESIGN.md).
//
// The master run-time procedure is a direct transcription of the paper's
// §3.1 pseudocode:
//
//   At the token arrival at station k:
//     T_TH ← T_TR − T_RR ;  restart T_RR
//     IF waiting high-priority messages: execute ONE high-priority cycle
//       (even if the token is late);
//     WHILE T_TH > 0 AND pending high-priority cycles: execute them;
//     WHILE T_TH > 0 AND pending low-priority cycles:  execute them;
//     pass the token to station k+1 (mod n).
//
// T_TH is tested only at message-cycle *starts*; a cycle in flight always
// completes (the T_TH overrun the analysis's T_del accounts for). One
// deliberate reading choice, documented here because the printed pseudocode
// and prose differ: the prose says low-priority cycles run only "if there are
// no high priority messages pending", so if a high-priority request arrives
// while the master is in its low-priority phase (and T_TH remains), we serve
// it before more low-priority traffic. With the paper's worst-case phasings
// this choice is unobservable; under random traffic it only reduces HP
// response times, keeping the analytic bounds valid.
//
// Message-cycle durations come from a CycleModel:
//   * WorstCase    — always the stream's Ch (deterministic; used by the
//                    validation benches so observed maxima can approach the
//                    analytic bounds);
//   * UniformFraction — uniform in [fraction·Ch, Ch];
//   * FrameLevel   — request + sampled slave turnaround + response + idle,
//                    with per-attempt slave failures triggering retries up to
//                    bus.max_retry (never exceeding the worst-case Ch by
//                    construction). Requires per-stream frame specs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "profibus/dispatching.hpp"
#include "profibus/fault_model.hpp"
#include "sim/dispatcher.hpp"
#include "sim/histogram.hpp"
#include "sim/kernel.hpp"
#include "sim/listener.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "sim/traffic.hpp"

namespace profisched::sim {

/// How the simulator draws actual message-cycle durations.
struct CycleModel {
  enum class Kind { WorstCase, UniformFraction, FrameLevel } kind = Kind::WorstCase;
  double min_fraction = 0.5;  ///< UniformFraction lower bound as share of Ch
  double slave_fail_prob = 0.0;  ///< FrameLevel: per-attempt response loss
};

/// Background low-priority traffic of one master (no deadlines — only load).
struct LpTraffic {
  Ticks period = 0;
  Ticks cycle_len = 0;  ///< its message-cycle duration (contributes to Cl^k)
  Ticks phase = 0;
};

/// Complete simulation configuration.
struct SimConfig {
  profibus::Network net;
  /// The policy simulate(cfg) runs; a group run names its own policies.
  profibus::ApPolicy policy = profibus::ApPolicy::Fcfs;

  /// hp_traffic[k][i] — release process of stream i of master k. When empty,
  /// every stream is periodic with phase 0 and no jitter (the synchronous
  /// pattern).
  std::vector<std::vector<TrafficConfig>> hp_traffic;

  /// lp_traffic[k] — background generators of master k. When empty, no LP
  /// traffic (analysis then relies on Cl^k = 0 too).
  std::vector<std::vector<LpTraffic>> lp_traffic;

  /// frame_specs[k][i] — required iff cycle_model.kind == FrameLevel.
  std::vector<std::vector<profibus::MessageCycleSpec>> frame_specs;

  CycleModel cycle_model;

  /// Injected faults (token loss, corruption, churn); default: all off. The
  /// fault draws come from a dedicated RNG stream derived from `seed`, gated
  /// behind per-knob `> 0` checks, so a default FaultModel leaves the run —
  /// events, main-RNG draws, traces, stats — byte-identical to pre-fault
  /// builds (regression: the PR-4 trace golden).
  profibus::FaultModel faults;

  std::uint64_t seed = 1;
  Ticks horizon = 0;  ///< simulate [0, horizon]

  /// Optional protocol-event trace sink (not owned; must outlive the run).
  Trace* trace = nullptr;

  /// Optional fault observer (adevs EventListener style): notified
  /// synchronously per injected fault. Not owned; must outlive the run.
  SimListener* listener = nullptr;

  /// When true, SimReport::response_hist carries a per-stream latency
  /// histogram in addition to the scalar StreamStats.
  bool collect_histograms = false;
};

/// The reports of one group run, plus what the sharing saved.
struct GroupReport {
  std::vector<SimReport> reports;     ///< one per policy, in the order asked for
  std::uint64_t events_executed = 0;  ///< events the kernels ran; a shared prefix counts once
  std::uint64_t splits = 0;           ///< copies made where the policies' dispatch differed
};

/// Run `cfg` under each of `policies` as one simulation that forks only where
/// their dispatch differs; `cfg.policy` is not read. Every master keeps one
/// Dispatcher per policy, and all of them get the same releases. The only step
/// that depends on the policy is the stack-slot refill in
/// Dispatcher::complete_head, so before each HpCycleEnd runs the simulation
/// compares the request every policy would put at the head next. Where they
/// differ it copies the whole simulation once per further choice, and each
/// copy goes on with the policies that made that choice. Up to then the
/// kernel queue, both RNG streams, the stats, the histograms and the fault
/// state are the same for every policy, so each report equals the one-policy
/// run's bit for bit, `events` and `pool_recycles` included (regression:
/// tests/sim/test_policy_groups.cpp).
///
/// Throws std::invalid_argument on an empty group, a repeated policy, or a
/// group of two or more with a trace sink or a listener: drain callbacks
/// would come in per-policy order.
///
/// Re-entrant: each call builds private Simulations (kernel, dispatchers, RNG,
/// stats) that read `cfg` in place and are gone when the call returns. The
/// run never writes to `cfg` and nothing in src/sim/ touches global mutable
/// state, so concurrent calls — the engine's parallel simulation sweeps — are
/// safe, even on one shared `cfg`, and bit-identical to serial runs with the
/// same seed (regression: tests/sim/test_concurrent_sim.cpp), as long as no
/// other thread modifies `cfg` during a call. The optional `cfg.trace` sink is
/// the one shared-state hatch: give each concurrent run its own.
[[nodiscard]] GroupReport simulate(const SimConfig& cfg,
                                   std::span<const profibus::ApPolicy> policies);

/// Run one simulation under `cfg.policy`: the one-policy group run.
[[nodiscard]] SimReport simulate(const SimConfig& cfg);

}  // namespace profisched::sim
