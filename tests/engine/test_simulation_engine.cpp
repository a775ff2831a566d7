// The simulation backend's unit properties: policy mapping, deterministic
// (seed, replication)-keyed RNG streams, horizon derivation, config shaping
// (synchronous rep 0 vs randomly-phased reps, LP traffic, frame specs), and
// report summarization.
#include "engine/simulation_engine.hpp"

#include <gtest/gtest.h>

#include "engine/sweep_runner.hpp"
#include "profibus/token_ring_analysis.hpp"

namespace profisched::engine {
namespace {

SweepSpec one_point_spec() {
  SweepSpec spec;
  spec.base.n_masters = 2;
  spec.base.streams_per_master = 3;
  spec.base.ttr = 3'000;
  spec.points = {SweepPoint{0.5, 0.5, 1.0}};
  spec.scenarios_per_point = 4;
  spec.seed = 7;
  return spec;
}

TEST(SimulationEngine, PolicyMapping) {
  EXPECT_TRUE(SimulationEngine::simulable(Policy::Fcfs));
  EXPECT_TRUE(SimulationEngine::simulable(Policy::Dm));
  EXPECT_TRUE(SimulationEngine::simulable(Policy::Edf));
  EXPECT_FALSE(SimulationEngine::simulable(Policy::Opa));
  EXPECT_FALSE(SimulationEngine::simulable(Policy::TokenRing));
  EXPECT_FALSE(SimulationEngine::simulable(Policy::Holistic));
  EXPECT_EQ(SimulationEngine::to_ap_policy(Policy::Fcfs), profibus::ApPolicy::Fcfs);
  EXPECT_EQ(SimulationEngine::to_ap_policy(Policy::Dm), profibus::ApPolicy::Dm);
  EXPECT_EQ(SimulationEngine::to_ap_policy(Policy::Edf), profibus::ApPolicy::Edf);
  EXPECT_THROW((void)SimulationEngine::to_ap_policy(Policy::Opa), std::invalid_argument);
  EXPECT_THROW((void)SimulationEngine::to_ap_policy(Policy::Holistic), std::invalid_argument);
}

TEST(SimulationEngine, RepSeedDependsOnlyOnScenarioSeedAndRep) {
  EXPECT_EQ(SimulationEngine::rep_seed(42, 0), SimulationEngine::rep_seed(42, 0));
  EXPECT_NE(SimulationEngine::rep_seed(42, 0), SimulationEngine::rep_seed(42, 1));
  EXPECT_NE(SimulationEngine::rep_seed(42, 0), SimulationEngine::rep_seed(43, 0));
}

TEST(SimulationEngine, HorizonDerivesFromTcycleAndClamps) {
  const Scenario sc = SweepRunner::make_scenario(one_point_spec(), 0);
  const Ticks tcycle = profibus::t_cycle(sc.net);

  SimOptions opt;
  opt.horizon_cycles = 10.0;
  EXPECT_EQ(SimulationEngine(opt).horizon_for(sc), 10 * tcycle);

  opt.horizon_cycles = 1e12;  // far past the cap
  EXPECT_EQ(SimulationEngine(opt).horizon_for(sc), kHorizonCap);

  opt.horizon = 12'345;  // explicit horizon wins
  EXPECT_EQ(SimulationEngine(opt).horizon_for(sc), 12'345);
}

TEST(SimulationEngine, RepZeroIsSynchronousLaterRepsArePhased) {
  const Scenario sc = SweepRunner::make_scenario(one_point_spec(), 1);
  const SimulationEngine engine;

  const sim::SimConfig sync = engine.make_config(sc, Policy::Dm, 0);
  EXPECT_TRUE(sync.hp_traffic.empty());  // synchronous pattern

  const sim::SimConfig phased = engine.make_config(sc, Policy::Dm, 1);
  ASSERT_EQ(phased.hp_traffic.size(), sc.net.n_masters());
  bool any_nonzero_phase = false;
  for (std::size_t k = 0; k < sc.net.n_masters(); ++k) {
    ASSERT_EQ(phased.hp_traffic[k].size(), sc.net.masters[k].nh());
    for (std::size_t i = 0; i < sc.net.masters[k].nh(); ++i) {
      EXPECT_GE(phased.hp_traffic[k][i].phase, 0);
      EXPECT_LT(phased.hp_traffic[k][i].phase, sc.net.masters[k].high_streams[i].T);
      any_nonzero_phase |= phased.hp_traffic[k][i].phase != 0;
    }
  }
  EXPECT_TRUE(any_nonzero_phase);

  // Same (scenario, rep) rebuilds the identical phasing.
  const sim::SimConfig again = engine.make_config(sc, Policy::Dm, 1);
  for (std::size_t k = 0; k < sc.net.n_masters(); ++k) {
    for (std::size_t i = 0; i < sc.net.masters[k].nh(); ++i) {
      EXPECT_EQ(phased.hp_traffic[k][i].phase, again.hp_traffic[k][i].phase);
    }
  }
}

TEST(SimulationEngine, LpTrafficAndFrameSpecsShapeTheConfig) {
  const Scenario sc = SweepRunner::make_scenario(one_point_spec(), 2);

  SimOptions opt;
  opt.lp_traffic = true;
  const sim::SimConfig lp = SimulationEngine(opt).make_config(sc, Policy::Fcfs, 0);
  ASSERT_EQ(lp.lp_traffic.size(), sc.net.n_masters());

  SimOptions frame;
  frame.cycle_model.kind = sim::CycleModel::Kind::FrameLevel;
  const sim::SimConfig fl = SimulationEngine(frame).make_config(sc, Policy::Fcfs, 0);
  ASSERT_EQ(fl.frame_specs.size(), sc.net.n_masters());
  for (std::size_t k = 0; k < sc.net.n_masters(); ++k) {
    EXPECT_EQ(fl.frame_specs[k].size(), sc.net.masters[k].nh());
  }

  Scenario no_specs = sc;
  no_specs.frame_specs.clear();
  EXPECT_THROW((void)SimulationEngine(frame).make_config(no_specs, Policy::Fcfs, 0),
               std::invalid_argument);
}

TEST(SimulationEngine, SimulateIsDeterministicPerRep) {
  const Scenario sc = SweepRunner::make_scenario(one_point_spec(), 3);
  SimOptions opt;
  opt.horizon_cycles = 20.0;
  opt.cycle_model.kind = sim::CycleModel::Kind::UniformFraction;  // exercises the RNG
  const SimulationEngine engine(opt);

  const SimSummary a = SimulationEngine::summarize(engine.simulate(sc, Policy::Edf, 1));
  const SimSummary b = SimulationEngine::summarize(engine.simulate(sc, Policy::Edf, 1));
  EXPECT_EQ(a.observed_max, b.observed_max);
  EXPECT_EQ(a.observed_p99, b.observed_p99);
  EXPECT_EQ(a.released, b.released);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_GT(a.completed, 0u);
}

TEST(SimulationEngine, SummarizeReducesStreamsAndHistograms) {
  sim::SimReport r;
  r.hp.resize(2);
  sim::StreamStats s1;
  s1.released = 10;
  s1.completed = 9;
  s1.deadline_misses = 2;
  s1.max_response = 500;
  sim::StreamStats s2;
  s2.released = 4;
  s2.completed = 4;
  s2.max_response = 900;
  r.hp[0].push_back(s1);
  r.hp[1].push_back(s2);

  const SimSummary sum = SimulationEngine::summarize(r);
  EXPECT_EQ(sum.observed_max, 900);
  EXPECT_EQ(sum.released, 14u);
  EXPECT_EQ(sum.completed, 13u);
  EXPECT_EQ(sum.misses, 2u);
  // No histograms collected: p99 falls back to the max.
  EXPECT_EQ(sum.observed_p99, 900);
}

}  // namespace
}  // namespace profisched::engine
