// scenario.hpp — the unit of work the batch-analysis engine operates on: one
// generated (or hand-built) PROFIBUS network plus the generation provenance
// needed to reproduce it and to aggregate results into curves.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "profibus/frame_timing.hpp"
#include "profibus/holistic.hpp"
#include "profibus/network.hpp"

namespace profisched::engine {

/// Which analysis the engine runs over a scenario. Extends the AP-queue
/// policies (profibus::ApPolicy) with the remaining analyses of the library.
enum class Policy {
  Fcfs,      ///< stock FCFS queue, eqs. 11–12
  Dm,        ///< DM-ordered AP queue, eq. 16
  Edf,       ///< EDF-ordered AP queue, eqs. 17–18
  Opa,       ///< Audsley-optimal fixed-priority AP queue
  TokenRing, ///< timed-token timing only: D_i >= T_cycle necessary condition
  Holistic,  ///< end-to-end transactions over the ring (DM messages)
};

[[nodiscard]] constexpr std::string_view to_string(Policy p) {
  switch (p) {
    case Policy::Fcfs: return "FCFS";
    case Policy::Dm: return "DM";
    case Policy::Edf: return "EDF";
    case Policy::Opa: return "OPA";
    case Policy::TokenRing: return "TOKEN";
    case Policy::Holistic: return "HOLISTIC";
  }
  return "?";
}

/// Every policy, in declaration order: the one list policy names are looked
/// up in.
inline constexpr Policy kAllPolicies[] = {Policy::Fcfs,  Policy::Dm,        Policy::Edf,
                                          Policy::Opa,   Policy::TokenRing, Policy::Holistic};

/// The policy called `name`: its to_string() name (spec blocks), or with
/// `lowercase` that name in lower case (`--policies`). nullopt when none is.
[[nodiscard]] std::optional<Policy> find_policy(std::string_view name, bool lowercase = false);

/// One scenario. `id` keys the engine's memo, so it must be unique within an
/// engine's lifetime (the sweep runner uses the global scenario index).
struct Scenario {
  std::uint64_t id = 0;
  std::uint64_t seed = 0;    ///< RNG seed the network was generated from
  double total_u = 0.0;      ///< UUniFast target utilization (0 = period-driven)
  double beta_lo = 1.0;      ///< deadline-spread knobs used at generation
  double beta_hi = 1.0;
  profibus::Network net;
  /// Optional end-to-end transactions for Policy::Holistic. When empty, the
  /// engine derives one single-stage transaction per stream.
  std::vector<profibus::Transaction> transactions;
  /// frame_specs[k][i] — the message-cycle frame specs behind stream i of
  /// master k (the generator's provenance for Ch). Required only by the
  /// simulation backend's FrameLevel cycle model; empty otherwise.
  std::vector<std::vector<profibus::MessageCycleSpec>> frame_specs;
};

/// Content digest of everything the analyses consume from a scenario — the
/// network structure (bus parameters, T_TR, per-master streams and
/// low-priority cycles), the holistic transactions, and the frame specs —
/// but NOT its provenance (id, seed, grid coordinates) and not the display
/// names. Two scenarios with equal canonical hashes produce identical
/// ANALYSIS results under equal engine options (analysis is a pure function
/// of the content), which is what lets the persistent result cache
/// (src/dist/result_cache.hpp) address analysis entries by content: a
/// re-sweep that regenerates the same networks hits regardless of how the
/// scenario ids shifted. Simulation outcomes additionally depend on the
/// scenario's RNG seed (the replication streams derive from it), so the
/// cache folds Scenario::seed into its simulation-record keys on top of
/// this digest. FNV-1a 64 over a length-prefixed canonical field walk,
/// stable across hosts and builds.
///
/// Multi-axis sweeps (beta / ring-size axes, asymmetric per-master splits —
/// PR 5) need no digest-version bump: every one of those knobs acts through
/// the generated CONTENT (master count, stream periods/deadlines), which the
/// field walk above already covers, and the analysis stays a pure function of
/// that content. This is load-bearing for incremental re-sweeps: extending a
/// grid with new beta values re-serves every previously computed scenario
/// from the cache (tests/engine/test_multi_axis_sweep.cpp and the CI
/// warm-cache step assert it). The committed golden-hash matrix
/// (tests/engine/test_scenario_golden_hash.cpp) fails loudly if a generator
/// or hash change ever perturbs these digests.
[[nodiscard]] std::uint64_t canonical_hash(const Scenario& sc);

}  // namespace profisched::engine
