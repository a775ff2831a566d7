// Unit tests for T_del / T_cycle (paper eqs. 13–14) and the per-master
// refinement.
#include "profibus/token_ring_analysis.hpp"

#include <gtest/gtest.h>

namespace profisched::profibus {
namespace {

Network three_master_net() {
  Network net;
  net.ttr = 10'000;
  for (int k = 0; k < 3; ++k) {
    Master m;
    m.name = "m" + std::to_string(k);
    // Longest cycles 400 / 700 / 300 — C_M mixes HP and LP maxima.
    m.high_streams = {
        MessageStream{.Ch = 200 + 100 * k, .D = 50'000, .T = 50'000, .J = 0, .name = "s0"},
        MessageStream{.Ch = 400 - 100 * k, .D = 60'000, .T = 60'000, .J = 0, .name = "s1"},
    };
    m.longest_low_cycle = (k == 1) ? 700 : 100;
    net.masters.push_back(std::move(m));
  }
  return net;
}

TEST(TDel, SumsLongestCyclePerMaster) {
  const Network net = three_master_net();
  // C_M: m0 = max{200,400,100} = 400; m1 = max{300,300,700} = 700;
  // m2 = max{400,200,100} = 400.
  EXPECT_EQ(t_del(net), 400 + 700 + 400);
}

TEST(TCycle, TtrPlusTdel) {
  const Network net = three_master_net();
  EXPECT_EQ(t_cycle(net), 10'000 + 1500);
}

TEST(TCyclePerMaster, PaperMethodIsUniform) {
  const Network net = three_master_net();
  const std::vector<Ticks> tc = compute_timing(net, TcycleMethod::PaperEq13).per_master;
  ASSERT_EQ(tc.size(), 3u);
  for (const Ticks v : tc) EXPECT_EQ(v, t_cycle(net));
}

TEST(TCyclePerMaster, RefinedNeverExceedsPaperBound) {
  const Network net = three_master_net();
  const std::vector<Ticks> refined =
      compute_timing(net, TcycleMethod::PerMasterRefined).per_master;
  const Ticks uniform = t_cycle(net);
  for (const Ticks v : refined) {
    EXPECT_LE(v, uniform);
    EXPECT_GT(v, net.ttr);  // some lateness is always possible with traffic
  }
}

TEST(TCyclePerMaster, RefinedHandComputedAsymmetricRing) {
  // Ring m0 → m1 → m2. C_M = {400, 700, 400}; Ch-max = {400, 300, 400}.
  // Lateness at m0 = max over overrunner j:
  //   j=0: 400 + Ch(m1) + Ch(m2) = 400+300+400 = 1100
  //   j=1: 700 + Ch(m2) = 1100
  //   j=2: 400
  // → 1100. (The uniform eq.-13 bound charges 1500.)
  const Network net = three_master_net();
  const std::vector<Ticks> refined =
      compute_timing(net, TcycleMethod::PerMasterRefined).per_master;
  EXPECT_EQ(refined[0], 10'000 + 1100);
  // m1: j=0 → 400 + nothing between 0 and 1 = 400; j=1 (self, full loop):
  // 700 + Ch(m2) + Ch(m0) = 1500; j=2 → 400 + Ch(m0) = 800. → 1500.
  EXPECT_EQ(refined[1], 10'000 + 1500);
  // m2: j=0 → 400+300=700; j=1 → 700; j=2 self → 400 + 300 + 400 = 1100.
  EXPECT_EQ(refined[2], 10'000 + 1100);
}

TEST(TDel, SingleMasterIsItsLongestCycle) {
  Network net;
  net.ttr = 5'000;
  Master m;
  m.high_streams = {MessageStream{.Ch = 333, .D = 9'999, .T = 9'999, .J = 0, .name = ""}};
  net.masters = {m};
  EXPECT_EQ(t_del(net), 333);
  EXPECT_EQ(t_cycle(net), 5'333);
}

TEST(TDel, GrowsLinearlyWithRingSize) {
  Network net;
  net.ttr = 1'000;
  Ticks prev = 0;
  for (int k = 0; k < 8; ++k) {
    Master m;
    m.high_streams = {MessageStream{.Ch = 250, .D = 99'999, .T = 99'999, .J = 0, .name = ""}};
    net.masters.push_back(m);
    const Ticks cur = t_del(net);
    EXPECT_EQ(cur, prev + 250);
    prev = cur;
  }
}

}  // namespace
}  // namespace profisched::profibus
