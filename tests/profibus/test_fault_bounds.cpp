// Unit tests for the degraded-mode bounds (profibus/fault_bounds.hpp): the
// dead-time arithmetic, retransmission frame scaling, the degenerate
// zero-fault case collapsing to the clean analysis, monotonicity of the
// degraded bounds against the clean ones, and saturation safety.
#include <gtest/gtest.h>

#include <utility>

#include "engine/analysis_engine.hpp"
#include "profibus/dispatching.hpp"
#include "profibus/fault_bounds.hpp"
#include "profibus/frame_timing.hpp"
#include "profibus/token_ring_analysis.hpp"

namespace profisched::profibus {
namespace {

MessageStream stream(Ticks ch, Ticks d, Ticks t) {
  return MessageStream{.Ch = ch, .D = d, .T = t, .J = 0, .name = ""};
}

/// The degraded analysis as the combined sweep runs it: the engine's one
/// policy dispatch over degraded_network and degraded_timing.
NetworkAnalysis analyze_degraded(const Network& net, const FaultModel& faults,
                                 engine::Policy policy) {
  const Network dnet = degraded_network(net, faults);
  RtaScratch scratch;
  return engine::analyze_network(dnet, degraded_timing(dnet, faults), policy, scratch).detail;
}

constexpr std::pair<ApPolicy, engine::Policy> kPolicies[] = {
    {ApPolicy::Fcfs, engine::Policy::Fcfs},
    {ApPolicy::Dm, engine::Policy::Dm},
    {ApPolicy::Edf, engine::Policy::Edf}};

Network ring(std::size_t n_masters, Ticks ttr) {
  Network net;
  net.ttr = ttr;
  for (std::size_t k = 0; k < n_masters; ++k) {
    Master m;
    m.high_streams = {stream(500, 60'000, 15'000), stream(300, 90'000, 30'000)};
    net.masters.push_back(m);
  }
  return net;
}

TEST(FaultBounds, DeadTimeIsZeroWithoutLossOrChurn) {
  const Network net = ring(3, 6'000);
  FaultModel f;
  EXPECT_EQ(degraded_dead_time(net, f), 0);
  // Corruption and bursts alone add no rotation dead time (they act through
  // frame scaling / release phasing instead).
  f.corruption_prob = 0.5;
  f.max_retransmissions = 4;
  f.burst_correlation = 1.0;
  EXPECT_EQ(degraded_dead_time(net, f), 0);
}

TEST(FaultBounds, DeadTimeMatchesTheDerivation) {
  const Network net = ring(4, 6'000);
  FaultModel f;
  f.token_loss_prob = 0.01;
  f.token_recovery = 2'000;
  // n losses per rotation.
  EXPECT_EQ(degraded_dead_time(net, f), 4 * 2'000);
  // Plus (n-1) churn skips at t_sl + token_pass_time each.
  f.churn_prob = 0.01;
  const Ticks per_skip = net.bus.t_sl + token_pass_time(net.bus);
  EXPECT_EQ(degraded_dead_time(net, f), 4 * 2'000 + 3 * per_skip);
  // A single-master ring has nothing to skip.
  const Network solo = ring(1, 6'000);
  EXPECT_EQ(degraded_dead_time(solo, f), 2'000);
}

TEST(FaultBounds, DegradedNetworkScalesFramesByRetransmissionCap) {
  const Network net = ring(2, 6'000);
  FaultModel f;
  f.corruption_prob = 0.2;
  f.max_retransmissions = 2;
  const Network dnet = degraded_network(net, f);
  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    for (std::size_t i = 0; i < net.masters[k].high_streams.size(); ++i) {
      EXPECT_EQ(dnet.masters[k].high_streams[i].Ch,
                3 * net.masters[k].high_streams[i].Ch);
    }
  }
  // No corruption (or a zero retransmission cap) leaves the network as-is.
  FaultModel off;
  off.max_retransmissions = 5;
  EXPECT_EQ(degraded_network(net, off).masters[0].high_streams[0].Ch,
            net.masters[0].high_streams[0].Ch);
  FaultModel no_cap;
  no_cap.corruption_prob = 0.9;
  no_cap.max_retransmissions = 0;
  EXPECT_EQ(degraded_network(net, no_cap).masters[0].high_streams[0].Ch,
            net.masters[0].high_streams[0].Ch);
}

TEST(FaultBounds, DegradedTimingAddsDeadTimeEverywhere) {
  const Network net = ring(3, 6'000);
  FaultModel f;
  f.token_loss_prob = 0.1;
  f.token_recovery = 1'500;
  const TimingMemo clean = compute_timing(net);
  const TimingMemo degraded = degraded_timing(net, f);
  const Ticks dead = degraded_dead_time(net, f);
  ASSERT_GT(dead, 0);
  EXPECT_EQ(degraded.tdel, clean.tdel + dead);
  EXPECT_EQ(degraded.tcycle, clean.tcycle + dead);
  ASSERT_EQ(degraded.per_master.size(), clean.per_master.size());
  for (std::size_t k = 0; k < clean.per_master.size(); ++k) {
    EXPECT_EQ(degraded.per_master[k], clean.per_master[k] + dead);
  }
}

TEST(FaultBounds, ZeroFaultAnalysisCollapsesToClean) {
  const Network net = ring(2, 6'000);
  const FaultModel none;
  for (const auto& [policy, engine_policy] : kPolicies) {
    const NetworkAnalysis clean = analyze_network(net, policy);
    const NetworkAnalysis degraded = analyze_degraded(net, none, engine_policy);
    EXPECT_EQ(degraded.schedulable, clean.schedulable);
    ASSERT_EQ(degraded.masters.size(), clean.masters.size());
    for (std::size_t k = 0; k < clean.masters.size(); ++k) {
      ASSERT_EQ(degraded.masters[k].streams.size(), clean.masters[k].streams.size());
      for (std::size_t i = 0; i < clean.masters[k].streams.size(); ++i) {
        EXPECT_EQ(degraded.masters[k].streams[i].response, clean.masters[k].streams[i].response);
      }
    }
  }
}

// Faults only ever weaken the guarantee: every degraded per-stream bound
// dominates its clean counterpart, and a degraded accept implies more than
// the clean accept — never less.
TEST(FaultBounds, DegradedBoundsDominateCleanBounds) {
  const Network net = ring(3, 8'000);
  FaultModel f;
  f.token_loss_prob = 0.05;
  f.token_recovery = 2'000;
  f.corruption_prob = 0.1;
  f.max_retransmissions = 1;
  f.churn_prob = 0.02;
  for (const auto& [policy, engine_policy] : kPolicies) {
    const NetworkAnalysis clean = analyze_network(net, policy);
    const NetworkAnalysis degraded = analyze_degraded(net, f, engine_policy);
    EXPECT_LE(degraded.schedulable, clean.schedulable);
    for (std::size_t k = 0; k < clean.masters.size(); ++k) {
      for (std::size_t i = 0; i < clean.masters[k].streams.size(); ++i) {
        const Ticks cb = clean.masters[k].streams[i].response;
        const Ticks db = degraded.masters[k].streams[i].response;
        if (cb == kNoBound) continue;
        EXPECT_TRUE(db == kNoBound || db >= cb)
            << "policy " << static_cast<int>(policy) << " stream " << k << '/' << i;
      }
    }
  }
}

TEST(FaultBounds, DeadTimeSaturatesInsteadOfWrapping) {
  const Network net = ring(4, 6'000);
  FaultModel f;
  f.token_loss_prob = 0.5;
  f.token_recovery = kNoBound / 2;
  const Ticks dead = degraded_dead_time(net, f);
  EXPECT_EQ(dead, kNoBound);  // 4 · (kNoBound/2) saturates
  const TimingMemo memo = degraded_timing(net, f);
  EXPECT_EQ(memo.tcycle, kNoBound);
  EXPECT_GE(memo.tdel, 0);
  for (const Ticks t : memo.per_master) EXPECT_EQ(t, kNoBound);
}

}  // namespace
}  // namespace profisched::profibus
