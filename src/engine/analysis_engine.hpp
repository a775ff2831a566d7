// analysis_engine.hpp — the unified front end over the library's analyses:
// analyze(Scenario, Policy) -> Report, with per-scenario memoization of the
// timing facts every policy shares (T_del / T_cycle).
//
// Running one scenario under FCFS + DM + EDF + OPA through the plain
// analyze_* entry points derives the timed-token timing four times; through
// the engine it is derived once. Every policy runs through one of two
// dispatches:
//  * analyze_network, the full Report with per-stream WCRTs: analyze() and
//    analyze_all() (`analyze`, `simulate --combined`), and the combined
//    sweep's degraded bounds, which call it directly;
//  * network_schedulable, the verdict alone: verdict() and verdict_all()
//    (`sweep`, sweep shards and served sweep jobs) and the optimizer's
//    bisection probes. It returns analyze_network's `schedulable`, but EDF
//    stops at the first stream that provably misses (edf_schedulable).
// The engine is deliberately NOT thread-safe: the sweep runner gives each
// worker its own instance (scenario memo state is cheap).
#pragma once

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/formulation.hpp"
#include "engine/scenario.hpp"
#include "profibus/dispatching.hpp"
#include "profibus/holistic.hpp"
#include "profibus/priority_assignment.hpp"

namespace profisched::engine {

/// Outcome of one (scenario, policy) analysis.
struct Report {
  Policy policy = Policy::Fcfs;
  bool schedulable = false;
  Ticks tcycle = 0;                ///< uniform eq.-14 bound used
  Ticks tdel = 0;                  ///< worst-case token lateness (eq. 13)
  std::size_t n_streams = 0;       ///< HP streams across the ring
  std::size_t streams_meeting = 0; ///< streams whose R <= D
  /// min over streams of D − R; kNoBound when there are no streams, and
  /// negative (or very negative) when some stream misses / diverges.
  Ticks worst_slack = kNoBound;
  profibus::NetworkAnalysis detail;  ///< per-master, per-stream bounds
};

/// Tuning knobs shared by every analysis the engine dispatches.
struct EngineOptions {
  profibus::TcycleMethod method = profibus::TcycleMethod::PaperEq13;
  Formulation formulation = Formulation::PaperLiteral;
  int fuel = 1 << 16;
};

/// The one policy dispatch: `policy`'s analysis of `net` under the timing
/// memo `tm`, with `opt`'s formulation and fuel, on `scratch`. `transactions`
/// feed Policy::Holistic (one per stream when empty). AnalysisEngine::analyze
/// runs it with the scenario memo; degraded bounds (a fault-inflated memo)
/// call it with their own, and optimizer probes (mutated networks) reach it
/// through network_schedulable.
[[nodiscard]] Report analyze_network(const profibus::Network& net,
                                     const profibus::TimingMemo& tm, Policy policy,
                                     const EngineOptions& opt, RtaScratch& scratch,
                                     const std::vector<profibus::Transaction>& transactions = {});

/// The verdict dispatch: analyze_network(...).schedulable for the same
/// arguments. EDF runs profibus::edf_schedulable, which stops at the first
/// stream that provably misses; every other policy is cheap and runs
/// analyze_network.
[[nodiscard]] bool network_schedulable(const profibus::Network& net,
                                       const profibus::TimingMemo& tm, Policy policy,
                                       const EngineOptions& opt, RtaScratch& scratch,
                                       const std::vector<profibus::Transaction>& transactions = {});

/// What a verdict-only caller keeps of a Report.
struct VerdictReport {
  Ticks tcycle = 0;  ///< uniform eq.-14 bound used
  bool schedulable = false;
};

class AnalysisEngine {
 public:
  AnalysisEngine() = default;
  explicit AnalysisEngine(EngineOptions opt) : opt_(opt) {}

  /// Analyze one scenario under one policy. Timing facts are memoized per
  /// Scenario::id, so analysing the same scenario under several policies
  /// shares them.
  [[nodiscard]] Report analyze(const Scenario& sc, Policy policy);

  /// Cross-policy batch: analyze one scenario under every listed policy,
  /// validating the network, fingerprinting it and binding the scenario memo
  /// exactly once instead of once per policy. Reports are identical to
  /// calling analyze() per policy in the same order — this is the combined
  /// sweep's per-scenario entry point (the analysis sweep takes verdict_all).
  [[nodiscard]] std::vector<Report> analyze_all(const Scenario& sc,
                                                std::span<const Policy> policies);

  /// analyze() and analyze_all() for callers that keep only T_cycle and the
  /// verdict: the same memo accounting and the same verdicts, through
  /// network_schedulable.
  [[nodiscard]] VerdictReport verdict(const Scenario& sc, Policy policy);
  [[nodiscard]] std::vector<VerdictReport> verdict_all(const Scenario& sc,
                                                       std::span<const Policy> policies);

  /// The memoized timing facts for a scenario (computing them on first use).
  [[nodiscard]] const profibus::TimingMemo& timing(const Scenario& sc);

  /// Drop one scenario's memo (the sweep runner calls this when a scenario's
  /// last policy has run, keeping the map O(1) per worker).
  void forget(std::uint64_t scenario_id) { memo_.erase(scenario_id); }
  void clear() { memo_.clear(); }

  [[nodiscard]] std::size_t memo_size() const noexcept { return memo_.size(); }
  [[nodiscard]] std::size_t memo_hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t memo_misses() const noexcept { return misses_; }
  [[nodiscard]] const EngineOptions& options() const noexcept { return opt_; }

  /// This engine's scratch, for analyze_network calls made next to it.
  [[nodiscard]] RtaScratch& scratch() noexcept { return scratch_; }

 private:
  struct Memo {
    profibus::TimingMemo timing;
    // Guard against id collisions between structurally different scenarios.
    std::size_t n_streams = 0;
    Ticks ttr = 0;
    Ticks fingerprint = 0;  ///< Σ(Ch + T + D) over streams
  };

  Memo& memo_for(const Scenario& sc);
  /// The shared bind of analyze_all() and verdict_all(): validate and
  /// memo-bind once, counting the memo hits the per-policy sequence it
  /// replaces would have counted.
  Memo& memo_for_all(const Scenario& sc, std::size_t n_policies);
  Report analyze_with(const Scenario& sc, Policy policy, Memo& m);
  VerdictReport verdict_with(const Scenario& sc, Policy policy, Memo& m);

  EngineOptions opt_;
  std::unordered_map<std::uint64_t, Memo> memo_;
  /// Reused by every analysis this engine dispatches; engines are per-worker
  /// (deliberately not thread-safe), so one scratch serves the whole sweep
  /// without steady-state allocations in the DM/OPA/EDF kernels.
  RtaScratch scratch_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace profisched::engine
