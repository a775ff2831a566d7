// Acceptance properties of the fault-injection axis at sweep scale:
//  * a faulted combined run over 100+ UUniFast scenarios per policy keeps
//    every must-never-fire consistency flag at zero — the degraded analysis
//    (frame scaling + rotation dead time) dominates everything the faulted
//    simulation observes, and no degraded-accepted scenario ever misses;
//  * with token loss > 0 the observed miss-free curves are strictly worse
//    than the fault-free ones somewhere (injection is not a no-op);
//  * faulted results are bit-identical for every thread count;
//  * the fault knobs are folded into the cache digest: warm faulted reruns
//    replay exactly, and a zero-fault run never collides with a faulted one.
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "dist/result_cache.hpp"
#include "engine/sim_aggregate.hpp"
#include "engine/sweep_runner.hpp"

namespace profisched::engine {
namespace {

namespace fs = std::filesystem;

/// Fresh cache directory per test, removed on destruction.
class CacheDir {
 public:
  explicit CacheDir(const char* name)
      : path_((fs::temp_directory_path() / "profisched_fault_sweep_test" / name).string()) {
    fs::remove_all(path_);
  }
  ~CacheDir() { fs::remove_all(fs::path(path_).parent_path()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

profibus::FaultModel harsh_faults() {
  profibus::FaultModel f;
  f.token_loss_prob = 0.05;
  f.token_recovery = 1'000;
  f.corruption_prob = 0.05;
  f.max_retransmissions = 2;
  f.churn_prob = 0.02;
  f.churn_offline = 10'000;
  f.burst_correlation = 0.5;
  return f;
}

SimSweepSpec faulted_spec() {
  SimSweepSpec spec;
  spec.sweep.base.n_masters = 2;
  spec.sweep.base.streams_per_master = 4;
  spec.sweep.base.ttr = 4'000;
  spec.sweep.points = {SweepPoint{0.2, 0.5, 1.0}, SweepPoint{0.4, 0.5, 1.0},
                       SweepPoint{0.6, 0.5, 1.0}, SweepPoint{0.8, 0.4, 1.0}};
  spec.sweep.scenarios_per_point = 30;  // 120 scenarios per policy
  spec.sweep.policies = {Policy::Fcfs, Policy::Dm, Policy::Edf};
  spec.sweep.seed = 1999;
  spec.replications = 2;
  spec.sim.horizon_cycles = 30.0;
  spec.sim.faults = harsh_faults();
  return spec;
}

void expect_same_combined(const CombinedResult& a, const CombinedResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].id, b.outcomes[i].id);
    ASSERT_EQ(a.outcomes[i].cells.size(), b.outcomes[i].cells.size());
    for (std::size_t p = 0; p < a.outcomes[i].cells.size(); ++p) {
      const CombinedCell& x = a.outcomes[i].cells[p];
      const CombinedCell& y = b.outcomes[i].cells[p];
      EXPECT_EQ(x.analytic_schedulable, y.analytic_schedulable);
      EXPECT_EQ(x.analytic_wcrt, y.analytic_wcrt);
      EXPECT_EQ(x.degraded_schedulable, y.degraded_schedulable);
      EXPECT_EQ(x.degraded_wcrt, y.degraded_wcrt);
      EXPECT_EQ(x.bound_violations, y.bound_violations);
      EXPECT_EQ(x.sim.observed_max, y.sim.observed_max);
      EXPECT_EQ(x.sim.misses, y.sim.misses);
      EXPECT_EQ(x.sim.dropped, y.sim.dropped);
    }
  }
}

TEST(FaultSweep, DegradedBoundsHoldOn100PlusFaultedScenariosPerPolicy) {
  const SimSweepSpec spec = faulted_spec();
  SweepRunner runner;
  const CombinedResult result = runner.run_combined(spec);
  ASSERT_EQ(result.outcomes.size(), 120u);

  // The must-never-fire flags, fault axis on.
  const ConsistencyTable table = consistency_table(spec, result);
  ASSERT_TRUE(table.fault_axis);
  ASSERT_EQ(table.rows.size(), 360u);
  EXPECT_EQ(table.accept_but_miss_count(), 0u);
  EXPECT_EQ(table.total_bound_violations(), 0u);
  std::size_t observed_something = 0;
  for (const ConsistencyRow& r : table.rows) {
    EXPECT_FALSE(r.accept_but_miss) << "scenario " << r.id << " policy " << r.policy;
    EXPECT_EQ(r.bound_violations, 0u) << "scenario " << r.id << " policy " << r.policy;
    // Degraded bounds weaken monotonically: accept implies clean accept,
    // and a bounded degraded WCRT dominates the clean one.
    EXPECT_LE(r.degraded_schedulable, r.analytic_schedulable);
    if (r.analytic_wcrt != kNoBound) {
      EXPECT_TRUE(r.degraded_wcrt == kNoBound || r.degraded_wcrt >= r.analytic_wcrt);
    }
    // The degraded bound dominates everything the faulted simulation saw.
    if (r.degraded_wcrt != kNoBound && r.observed_max > 0) {
      EXPECT_GE(r.degraded_wcrt, r.observed_max)
          << "scenario " << r.id << " policy " << r.policy;
      ++observed_something;
    }
  }
  EXPECT_GT(observed_something, 100u);  // not vacuous
}

TEST(FaultSweep, TokenLossMakesMissFreeCurvesStrictlyWorse) {
  SimSweepSpec faulted = faulted_spec();
  SimSweepSpec clean = faulted_spec();
  clean.sim.faults = profibus::FaultModel{};
  SweepRunner runner;
  const SimCurves cf = aggregate_sim(faulted, runner.run_sim(faulted));
  const SimCurves cc = aggregate_sim(clean, runner.run_sim(clean));
  ASSERT_EQ(cf.points.size(), cc.points.size());
  // Pointwise no-better, and strictly worse somewhere: churn drops and
  // loss-delayed rotations must cost clean deliveries.
  bool strictly_worse = false;
  for (std::size_t i = 0; i < cf.points.size(); ++i) {
    for (std::size_t p = 0; p < cf.policies.size(); ++p) {
      EXPECT_LE(cf.points[i].miss_free[p], cc.points[i].miss_free[p])
          << "point " << i << " policy " << cf.policies[p];
      if (cf.points[i].miss_free[p] < cc.points[i].miss_free[p]) strictly_worse = true;
    }
  }
  EXPECT_TRUE(strictly_worse);
}

TEST(FaultSweep, FaultedResultsAreInvariantUnderThreadCount) {
  const SimSweepSpec spec = faulted_spec();
  SweepRunner one(1);
  SweepRunner four(4);
  const CombinedResult r1 = one.run_combined(spec);
  const CombinedResult r4 = four.run_combined(spec);
  expect_same_combined(r1, r4);
  EXPECT_EQ(consistency_table(spec, r1).to_csv(), consistency_table(spec, r4).to_csv());
  EXPECT_EQ(consistency_table(spec, r1).to_json(), consistency_table(spec, r4).to_json());
}

TEST(FaultSweep, WarmCacheReplaysFaultedRunsExactly) {
  SimSweepSpec spec = faulted_spec();
  spec.sweep.points = {SweepPoint{0.4, 0.5, 1.0}};
  spec.sweep.scenarios_per_point = 8;
  CacheDir dir("warm");
  dist::ResultCache cache(dir.path());
  SweepRunner runner(2);
  const CombinedResult cold = runner.run_combined(spec, &cache);
  EXPECT_EQ(cold.cache_hits, 0u);
  const CombinedResult warm = runner.run_combined(spec, &cache);
  EXPECT_EQ(warm.cache_misses, 0u);
  EXPECT_EQ(warm.cache_hits, spec.sweep.policies.size() * 8);
  expect_same_combined(cold, warm);
}

TEST(FaultSweep, FaultKnobsAreFoldedIntoTheCacheDigest) {
  SimSweepSpec faulted = faulted_spec();
  faulted.sweep.points = {SweepPoint{0.4, 0.5, 1.0}};
  faulted.sweep.scenarios_per_point = 6;
  SimSweepSpec clean = faulted;
  clean.sim.faults = profibus::FaultModel{};
  CacheDir dir("digest");
  dist::ResultCache cache(dir.path());
  SweepRunner runner(2);
  // Faulted run populates the cache; the zero-fault rerun must not hit any
  // of its records (different params digest), and vice versa.
  const CombinedResult f1 = runner.run_combined(faulted, &cache);
  const CombinedResult c1 = runner.run_combined(clean, &cache);
  EXPECT_EQ(c1.cache_hits, 0u);
  const CombinedResult f2 = runner.run_combined(faulted, &cache);
  const CombinedResult c2 = runner.run_combined(clean, &cache);
  EXPECT_EQ(f2.cache_misses, 0u);
  EXPECT_EQ(c2.cache_misses, 0u);
  expect_same_combined(f1, f2);
  expect_same_combined(c1, c2);
  // The clean rerun through the cache carries no degraded columns; the
  // faulted one does (a degraded bound is >= 1 tick or kNoBound).
  for (const CombinedCell& c : c2.outcomes[0].cells) {
    EXPECT_FALSE(c.degraded_schedulable);
    EXPECT_EQ(c.degraded_wcrt, 0);
  }
  ASSERT_FALSE(f2.outcomes[0].cells.empty());
  for (const CombinedCell& c : f2.outcomes[0].cells) EXPECT_GT(c.degraded_wcrt, 0);
}

}  // namespace
}  // namespace profisched::engine
