// Unit tests for network-level sensitivity analysis: the optimizer's
// whole-network searches (opt::optimize_policy under the engine's verdict
// predicate) on the shipped configs, and the per-stream deadline margin.
#include "profibus/sensitivity.hpp"

#include <gtest/gtest.h>

#include "opt/optimizer.hpp"
#include "profibus/ttr_setting.hpp"
#include "workload/scenarios.hpp"

namespace profisched::profibus {
namespace {

using engine::Policy;

Network demo() { return workload::scenarios::factory_cell(); }

NetworkTest test_for(Policy policy) { return opt::optimize_network_test(policy, {}); }

opt::PolicyOptimum optimum(const Network& net, Policy policy) {
  return opt::optimize_policy(net, test_for(policy), {});
}

TEST(NetSensitivity, UnschedulableHasNoHeadroom) {
  const Network net = workload::scenarios::tight_deadline_mix();
  // FCFS fails already, so it breaks down below the generated frame sizes;
  // DM holds, and at least at them.
  const opt::PolicyOptimum fcfs = optimum(net, Policy::Fcfs);
  EXPECT_FALSE(fcfs.schedulable);
  EXPECT_LT(fcfs.breakdown_q, sensitivity::kScaleOne);
  const opt::PolicyOptimum dm = optimum(net, Policy::Dm);
  EXPECT_TRUE(dm.schedulable);
  EXPECT_GE(dm.breakdown_q, sensitivity::kScaleOne);
}

TEST(NetSensitivity, FrameGrowthBoundaryExact) {
  const Network net = demo();
  for (const Policy policy : {Policy::Fcfs, Policy::Dm, Policy::Edf}) {
    const NetworkTest test = test_for(policy);
    const opt::PolicyOptimum o = optimum(net, policy);
    EXPECT_GE(o.breakdown_q, sensitivity::kScaleOne) << engine::to_string(policy);
    // Exactness: schedulable at q, not at q+1 (unless capped).
    EXPECT_TRUE(test(with_scaled_frames(net, o.breakdown_q))) << engine::to_string(policy);
    if (!o.breakdown_cap) {
      EXPECT_FALSE(test(with_scaled_frames(net, o.breakdown_q + 1))) << engine::to_string(policy);
    }
  }
}

TEST(NetSensitivity, PriorityQueuesHaveMoreFrameHeadroomThanFcfs) {
  // factory_cell's T_TR sits at the eq.-15 maximum: FCFS has zero slack, so
  // DM/EDF must tolerate at least as much frame growth.
  const Network net = demo();
  EXPECT_GE(optimum(net, Policy::Dm).breakdown_q, optimum(net, Policy::Fcfs).breakdown_q);
}

TEST(NetSensitivity, DeadlineMarginMatchesResponseBoundForFcfs) {
  // Under FCFS the response is nh·T_cycle regardless of D, so the minimal
  // sustainable deadline IS the bound.
  const Network net = demo();
  const NetworkAnalysis a = analyze_network(net, ApPolicy::Fcfs);
  const auto d = stream_deadline_margin(net, test_for(Policy::Fcfs), 1, 0);
  ASSERT_TRUE(d.feasible);
  EXPECT_EQ(d.value, a.masters[1].streams[0].response);
}

TEST(NetSensitivity, DmDeadlineMarginBelowFcfs) {
  // The tightest robot stream can sustain a smaller deadline under DM than
  // under FCFS — the paper's claim as a margin statement.
  const Network net = demo();
  const auto fcfs = stream_deadline_margin(net, test_for(Policy::Fcfs), 1, 0);
  const auto dm = stream_deadline_margin(net, test_for(Policy::Dm), 1, 0);
  ASSERT_TRUE(fcfs.feasible && dm.feasible);
  EXPECT_LT(dm.value, fcfs.value);
}

TEST(NetSensitivity, MaxTtrForFcfsMatchesEq15) {
  // The generic search must reproduce the closed-form eq.-15 maximum.
  const Network net = demo();
  const opt::PolicyOptimum searched = optimum(net, Policy::Fcfs);
  const auto closed_form = max_schedulable_ttr(net);
  ASSERT_TRUE(searched.max_ttr > 0 && closed_form.has_value());
  EXPECT_EQ(searched.max_ttr, *closed_form);
}

TEST(NetSensitivity, MaxTtrOrderedByPolicyStrength) {
  const Network net = demo();
  const Ticks f = optimum(net, Policy::Fcfs).max_ttr;
  const Ticks d = optimum(net, Policy::Dm).max_ttr;
  ASSERT_TRUE(f > 0 && d > 0);
  EXPECT_GT(d, f);  // E9's observation, now as an exact margin
}

TEST(NetSensitivity, DeadlineMarginUnattainableWhenMasterOverloaded) {
  Network net;
  net.ttr = 2'000;
  Master m;
  m.high_streams = {
      MessageStream{.Ch = 300, .D = 2'000, .T = 2'000, .J = 0, .name = ""},
      MessageStream{.Ch = 300, .D = 3'000, .T = 2'100, .J = 0, .name = ""},
  };
  net.masters = {m};
  EXPECT_FALSE(stream_deadline_margin(net, test_for(Policy::Dm), 0, 1).feasible);
}

TEST(NetSensitivity, MinDeadlineRatioBoundaryExact) {
  const Network net = demo();
  for (const Policy policy : {Policy::Dm, Policy::Edf}) {
    const NetworkTest test = test_for(policy);
    const opt::PolicyOptimum o = optimum(net, policy);
    ASSERT_GT(o.min_dratio_q, 0) << engine::to_string(policy);
    EXPECT_TRUE(test(with_deadline_ratio(net, o.min_dratio_q))) << engine::to_string(policy);
    if (!o.dratio_floor) {
      EXPECT_FALSE(test(with_deadline_ratio(net, o.min_dratio_q - 1))) << engine::to_string(policy);
    }
  }
}

TEST(NetSensitivity, MessageUtilizationSumsStreams) {
  Network net;
  net.ttr = 2'000;
  Master m;
  m.high_streams = {
      MessageStream{.Ch = 100, .D = 1'000, .T = 1'000, .J = 0, .name = ""},
      MessageStream{.Ch = 300, .D = 2'000, .T = 2'000, .J = 0, .name = ""},
  };
  net.masters = {m, m};
  EXPECT_DOUBLE_EQ(message_utilization(net), 2 * (0.1 + 0.15));
}

}  // namespace
}  // namespace profisched::profibus
