// The sweep runner's acceptance properties: results are bit-identical for
// every thread count, scenario generation is reproducible from (seed, id)
// alone, and the UUniFast mode hits its utilization target.
#include "engine/sweep_runner.hpp"

#include <gtest/gtest.h>

#include "engine/aggregate.hpp"
#include "profibus/token_ring_analysis.hpp"

namespace profisched::engine {
namespace {

SweepSpec small_spec() {
  SweepSpec spec;
  spec.base.n_masters = 1;
  spec.base.streams_per_master = 5;
  spec.base.ttr = 3'000;
  spec.points = {SweepPoint{0.3, 0.5, 1.0}, SweepPoint{0.6, 0.5, 1.0},
                 SweepPoint{0.9, 0.5, 1.0}};
  spec.scenarios_per_point = 40;
  spec.policies = {Policy::Fcfs, Policy::Dm, Policy::Edf};
  spec.seed = 2026;
  return spec;
}

void expect_same_outcomes(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].id, b.outcomes[i].id);
    EXPECT_EQ(a.outcomes[i].seed, b.outcomes[i].seed);
    EXPECT_EQ(a.outcomes[i].point, b.outcomes[i].point);
    EXPECT_EQ(a.outcomes[i].tcycle, b.outcomes[i].tcycle);
    EXPECT_EQ(a.outcomes[i].schedulable, b.outcomes[i].schedulable);
  }
}

TEST(SweepRunner, ResultsAreInvariantUnderThreadCount) {
  const SweepSpec spec = small_spec();
  SweepRunner one(1);
  SweepRunner four(4);
  SweepRunner seven(7);
  const SweepResult r1 = one.run(spec);
  const SweepResult r4 = four.run(spec);
  const SweepResult r7 = seven.run(spec);
  expect_same_outcomes(r1, r4);
  expect_same_outcomes(r1, r7);
  // And the serialized aggregates are byte-identical.
  const std::string csv = aggregate(spec, r1).to_csv();
  EXPECT_EQ(csv, aggregate(spec, r4).to_csv());
  EXPECT_EQ(csv, aggregate(spec, r7).to_csv());
  EXPECT_EQ(aggregate(spec, r1).to_json(), aggregate(spec, r4).to_json());
}

TEST(SweepRunner, RepeatedRunsAreIdentical) {
  const SweepSpec spec = small_spec();
  SweepRunner runner(2);
  expect_same_outcomes(runner.run(spec), runner.run(spec));
}

TEST(SweepRunner, ScenarioSeedDependsOnlyOnSweepSeedAndId) {
  EXPECT_EQ(SweepRunner::scenario_seed(1, 5), SweepRunner::scenario_seed(1, 5));
  EXPECT_NE(SweepRunner::scenario_seed(1, 5), SweepRunner::scenario_seed(1, 6));
  EXPECT_NE(SweepRunner::scenario_seed(1, 5), SweepRunner::scenario_seed(2, 5));
}

TEST(SweepRunner, MakeScenarioIsReproducibleAndMapsPoints) {
  const SweepSpec spec = small_spec();
  const Scenario a = SweepRunner::make_scenario(spec, 85);
  const Scenario b = SweepRunner::make_scenario(spec, 85);
  EXPECT_EQ(a.seed, b.seed);
  ASSERT_EQ(a.net.n_masters(), b.net.n_masters());
  for (std::size_t i = 0; i < a.net.masters[0].nh(); ++i) {
    EXPECT_EQ(a.net.masters[0].high_streams[i].Ch, b.net.masters[0].high_streams[i].Ch);
    EXPECT_EQ(a.net.masters[0].high_streams[i].T, b.net.masters[0].high_streams[i].T);
    EXPECT_EQ(a.net.masters[0].high_streams[i].D, b.net.masters[0].high_streams[i].D);
  }
  // id 85 with 40 scenarios/point lies in point 2 (u = 0.9).
  EXPECT_EQ(a.total_u, 0.9);
  EXPECT_EQ(a.beta_lo, 0.5);
  EXPECT_THROW((void)SweepRunner::make_scenario(spec, spec.total_scenarios()),
               std::out_of_range);
}

TEST(SweepRunner, UunifastScenariosHitTheUtilizationTarget) {
  const SweepSpec spec = small_spec();
  for (const std::uint64_t id : {0ULL, 45ULL, 110ULL}) {
    const Scenario sc = SweepRunner::make_scenario(spec, id);
    const Ticks tcycle = profibus::t_cycle(sc.net);
    double u = 0.0;
    for (const auto& s : sc.net.masters[0].high_streams) {
      u += static_cast<double>(tcycle) / static_cast<double>(s.T);
    }
    // Integer period rounding wiggles the sum a little; ±5 % is plenty.
    EXPECT_NEAR(u, sc.total_u, 0.05 * sc.total_u + 0.01) << "scenario " << id;
  }
}

TEST(SweepRunner, MemoizationIsUsedOncePerScenario) {
  const SweepSpec spec = small_spec();
  SweepRunner runner(1);
  const SweepResult r = runner.run(spec);
  EXPECT_EQ(r.memo_misses, spec.total_scenarios());
  // Every policy after the first per scenario hits the memo.
  EXPECT_EQ(r.memo_hits, spec.total_scenarios() * (spec.policies.size() - 1));
}

TEST(SweepRunner, WorkerExceptionsSurfaceOnTheCallingThread) {
  // UUniFast mode without an explicit T_TR is rejected by the generator —
  // inside a worker thread. The error must reach run()'s caller, not
  // std::terminate the process.
  SweepSpec spec = small_spec();
  spec.base.ttr = 0;
  SweepRunner runner(3);
  EXPECT_THROW((void)runner.run(spec), std::invalid_argument);
}

TEST(SweepRunner, RejectsEmptySpecs) {
  SweepRunner runner(1);
  SweepSpec spec = small_spec();
  spec.policies.clear();
  EXPECT_THROW((void)runner.run(spec), std::invalid_argument);
  SweepSpec no_points = small_spec();
  no_points.points.clear();
  EXPECT_THROW((void)SweepRunner::make_scenario(no_points, 0), std::invalid_argument);
  EXPECT_THROW((void)runner.run(no_points), std::invalid_argument);
  SweepSpec no_reps = small_spec();
  no_reps.scenarios_per_point = 0;
  EXPECT_THROW((void)runner.run(no_reps), std::invalid_argument);
}

}  // namespace
}  // namespace profisched::engine
