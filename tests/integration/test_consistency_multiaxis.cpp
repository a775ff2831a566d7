// Analysis-vs-simulation consistency over the PR-5 scenario-diversity axes:
// asymmetric per-master splits (explicit weights and geometric skew) and
// multi-ring-size grids. Same contract as the PR-2 suite — on >= 100
// scenarios per policy per mode, every bounded analytic WCRT dominates the
// observed max response and no accepted scenario ever misses a deadline in
// simulation. A violation falsifies the corresponding analysis (or the
// simulator's protocol conformance) for the newly opened workload family.
#include <gtest/gtest.h>

#include "engine/sim_aggregate.hpp"
#include "engine/sweep_runner.hpp"

namespace profisched::engine {
namespace {

/// Run the combined (analysis + simulation) backend and assert the
/// domination contract on every joined row, non-vacuously.
void expect_analysis_dominates(const SimSweepSpec& spec, const char* mode) {
  SweepRunner runner;
  const CombinedResult result = runner.run_combined(spec);
  ASSERT_EQ(result.outcomes.size(), spec.sweep.total_scenarios()) << mode;

  const ConsistencyTable table = consistency_table(spec, result);
  EXPECT_EQ(table.total_bound_violations(), 0u) << mode;
  EXPECT_EQ(table.accept_but_miss_count(), 0u) << mode;
  std::size_t observed_something = 0;
  for (const ConsistencyRow& r : table.rows) {
    EXPECT_FALSE(r.accept_but_miss) << mode << " scenario " << r.id << " policy " << r.policy;
    EXPECT_EQ(r.bound_violations, 0u)
        << mode << " scenario " << r.id << " policy " << r.policy;
    if (r.analytic_wcrt != kNoBound) {
      EXPECT_GE(r.analytic_wcrt, r.observed_max)
          << mode << " scenario " << r.id << " policy " << r.policy;
      if (r.observed_max > 0) ++observed_something;
    }
  }
  // >= 100 scenarios per policy, and the property must not pass vacuously.
  EXPECT_GE(spec.sweep.total_scenarios(), 100u) << mode;
  EXPECT_GT(observed_something, 100u) << mode;
}

SimSweepSpec base_spec() {
  SimSweepSpec spec;
  spec.sweep.base.streams_per_master = 3;
  spec.sweep.base.ttr = 4'000;
  spec.sweep.scenarios_per_point = 26;  // x4 points = 104 scenarios per policy
  spec.sweep.policies = {Policy::Fcfs, Policy::Dm, Policy::Edf};
  spec.sweep.seed = 2027;
  spec.replications = 2;  // synchronous + randomly phased
  spec.sim.horizon_cycles = 30.0;
  return spec;
}

TEST(ConsistencyMultiAxis, WeightedSplitScenarios) {
  SimSweepSpec spec = base_spec();
  spec.sweep.base.n_masters = 3;
  spec.sweep.base.master_split = {0.5, 0.3, 0.2};
  spec.sweep.points = {SweepPoint{0.3, 0.5, 1.0}, SweepPoint{0.6, 0.5, 1.0},
                       SweepPoint{0.9, 0.5, 1.0}, SweepPoint{1.2, 0.4, 1.0}};
  expect_analysis_dominates(spec, "weighted split");
}

TEST(ConsistencyMultiAxis, SkewedSplitScenarios) {
  SimSweepSpec spec = base_spec();
  spec.sweep.base.n_masters = 4;
  spec.sweep.base.master_skew = 1.0;  // 2x load step between neighbours
  spec.sweep.points = {SweepPoint{0.4, 0.5, 1.0}, SweepPoint{0.8, 0.5, 1.0},
                       SweepPoint{1.2, 0.5, 1.0}, SweepPoint{1.6, 0.4, 1.0}};
  expect_analysis_dominates(spec, "skewed split");
}

TEST(ConsistencyMultiAxis, MultiRingSizeScenarios) {
  SimSweepSpec spec = base_spec();
  spec.sweep.base.n_masters = 1;
  // Ring-size axis x u axis: 2 x 2 points, 26 scenarios each.
  spec.sweep.points = {SweepPoint{0.4, 0.5, 1.0, 1}, SweepPoint{0.9, 0.5, 1.0, 1},
                       SweepPoint{0.4, 0.5, 1.0, 4}, SweepPoint{0.9, 0.5, 1.0, 4}};
  expect_analysis_dominates(spec, "multi ring size");
}

/// The acceptance cliff must respond to the split: concentrating the whole
/// budget on one master of three saturates that master's queue well before a
/// symmetric division would — visible as a lower analytic acceptance count on
/// the same grid. Guards against a split that silently degrades to symmetric.
TEST(ConsistencyMultiAxis, SkewShiftsTheAcceptanceCliff) {
  SweepSpec sym;
  sym.base.n_masters = 3;
  sym.base.streams_per_master = 3;
  sym.base.ttr = 4'000;
  sym.points = {SweepPoint{2.1, 0.5, 1.0}};
  sym.scenarios_per_point = 60;
  sym.policies = {Policy::Dm};
  sym.seed = 31;

  // Same total budget, but one master carries ~0.98 of it (u ~ 2.05 alone).
  SweepSpec hot = sym;
  hot.base.master_split = {0.98, 0.01, 0.01};

  // Symmetric semantics load each master to 2.1 (overload everywhere); the
  // network-wide split leaves masters 1/2 nearly idle but drowns master 0.
  // Compare against an even network-wide split (0.7 per master, feasible).
  SweepSpec even = sym;
  even.base.master_split = {1.0, 1.0, 1.0};

  SweepRunner runner;
  const auto accepted = [&](const SweepSpec& s) {
    std::size_t n = 0;
    for (const ScenarioOutcome& o : runner.run(s).outcomes) {
      if (o.cells[0].schedulable) ++n;
    }
    return n;
  };
  const std::size_t even_ok = accepted(even);
  const std::size_t hot_ok = accepted(hot);
  EXPECT_GT(even_ok, hot_ok) << "a 98%-hot split must schedule fewer sets than an even split";
}

}  // namespace
}  // namespace profisched::engine
