// analysis_engine.hpp — the unified front end over the library's analyses:
// analyze(Scenario, Policy) -> Report, with the timing facts every policy
// shares (T_del / T_cycle) memoized for the scenario being analysed.
//
// Running one scenario under FCFS + DM + EDF + OPA through the plain
// analyze_* entry points derives the timed-token timing four times; through
// the engine it is derived once. Every policy runs through one of two
// dispatches, both with the paper's formulation (kFormulation) and one
// iteration budget (kFuel):
//  * analyze_network, the full Report with per-stream WCRTs: analyze()
//    (`simulate --combined`), and the combined sweep's degraded bounds, which
//    call it directly;
//  * network_schedulable, the verdict alone: verdict() (`sweep`, sweep shards
//    and served sweep jobs) and the optimizer's reference predicate. It
//    returns analyze_network's `schedulable` without building a
//    NetworkAnalysis or any WCRT it does not need. The paper's policies
//    analyse every master on its own (§4.3: C_i = T_cycle^k), so for FCFS,
//    DM, EDF and OPA it validates the network once and ANDs one per-master
//    verdict, master_schedulable, over the masters: FCFS compares nh·T_cycle
//    with each D_i; DM bounds each fixed point by D_i and stops at the first
//    miss; OPA is Audsley's success; EDF accepts offsets in one step where it
//    can and stops at the first stream that provably misses. The optimizer's
//    own probes call master_schedulable directly, one master at a time.
// The engine is deliberately NOT thread-safe: the sweep runner gives each
// worker its own instance (scenario memo state is cheap).
#pragma once

#include <cstddef>
#include <optional>
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

/// The one tuning knob of the engine: how T_cycle is derived.
struct EngineOptions {
  profibus::TcycleMethod method = profibus::TcycleMethod::PaperEq13;
};

/// The formulation every engine dispatch runs the recurrences in: the
/// equations as the paper prints them.
inline constexpr Formulation kFormulation = Formulation::PaperLiteral;
/// The iteration budget of every fixed point an engine dispatch runs.
inline constexpr int kFuel = 1 << 16;

/// The one policy dispatch: `policy`'s analysis of `net` under the timing
/// memo `tm`, on `scratch`. `transactions` feed Policy::Holistic (one per
/// stream when empty). AnalysisEngine::analyze runs it with the scenario
/// memo; degraded bounds (a fault-inflated memo) call it with their own, and
/// optimizer probes (mutated networks) reach it through network_schedulable.
[[nodiscard]] Report analyze_network(const profibus::Network& net,
                                     const profibus::TimingMemo& tm, Policy policy,
                                     RtaScratch& scratch,
                                     const std::vector<profibus::Transaction>& transactions = {});

/// Whether `policy` has a per-master verdict: the paper's FCFS, DM and EDF
/// queues and OPA. TokenRing and Holistic do not.
[[nodiscard]] bool has_master_verdict(Policy policy);

/// The per-master verdict of a paper policy: whether `master`, its streams
/// each served as C_i = `tcycle` (§4.3), meets every deadline under
/// `policy`. It is master k's verdict in analyze_network(...) with
/// T_cycle^k = `tcycle`, from the verdict-only analyses:
/// profibus::fcfs_master_schedulable, dm_master_schedulable, the success of
/// audsley_master_order (OPA) and edf_master_schedulable. It reads the
/// network only through this master and `tcycle`, and does not validate.
/// Throws std::invalid_argument unless has_master_verdict(policy).
[[nodiscard]] bool master_schedulable(const profibus::Master& master, Ticks tcycle,
                                      Policy policy, RtaScratch& scratch);

/// The verdict dispatch: analyze_network(...).schedulable for the same
/// arguments. For a policy with a per-master verdict it validates `net` once
/// and ANDs master_schedulable over the masters in ring order
/// (profibus::all_masters_schedulable), stopping at the first reject.
/// TokenRing and Holistic, which no hot path asks for, run analyze_network.
[[nodiscard]] bool network_schedulable(const profibus::Network& net,
                                       const profibus::TimingMemo& tm, Policy policy,
                                       RtaScratch& scratch,
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

  /// Analyze one scenario under one policy. The timing facts of the scenario
  /// last analysed are kept, so analysing it under several policies in a row
  /// derives them once.
  [[nodiscard]] Report analyze(const Scenario& sc, Policy policy);

  /// analyze() for callers that keep only T_cycle and the verdict: the same
  /// memo accounting and the same verdict, through network_schedulable.
  [[nodiscard]] VerdictReport verdict(const Scenario& sc, Policy policy);

  /// Drop the kept timing facts if they are scenario `scenario_id`'s.
  void forget(std::uint64_t scenario_id) {
    if (memo_ && memo_->id == scenario_id) memo_.reset();
  }

  [[nodiscard]] std::size_t memo_hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t memo_misses() const noexcept { return misses_; }

  /// This engine's scratch, for analyze_network calls made next to it.
  [[nodiscard]] RtaScratch& scratch() noexcept { return scratch_; }

 private:
  struct Memo {
    std::uint64_t id = 0;
    // Guard against id collisions between structurally different scenarios.
    std::size_t n_streams = 0;
    Ticks ttr = 0;
    Ticks fingerprint = 0;  ///< Σ(Ch + T + D) over streams
    profibus::TimingMemo timing;
  };

  /// Validate the scenario's network and return its timing facts, from the
  /// memo when it holds this scenario.
  const profibus::TimingMemo& timing_for(const Scenario& sc);

  EngineOptions opt_;
  std::optional<Memo> memo_;
  /// Reused by every analysis this engine dispatches; engines are per-worker
  /// (deliberately not thread-safe), so one scratch serves the whole sweep
  /// without steady-state allocations in the DM/OPA/EDF kernels.
  RtaScratch scratch_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace profisched::engine
