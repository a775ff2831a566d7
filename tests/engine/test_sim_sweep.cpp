// Acceptance properties of the parallel simulation sweeps:
//  * sim and combined results are bit-identical for every thread count
//    (aggregate CSV/JSON bytes included);
//  * the analysis-vs-simulation consistency property on 100+ UUniFast
//    scenarios per policy — every analytic WCRT dominates the observed max
//    response (zero per-stream bound violations) and no scenario the
//    analysis accepts ever misses a deadline in simulation;
//  * a cache warm for some policies gives the uncached outcomes, and a
//    cached record of another horizon is a miss;
//  * malformed specs are rejected on the calling thread.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <string>

#include "engine/detail/record.hpp"
#include "engine/sim_aggregate.hpp"
#include "engine/sweep_runner.hpp"

namespace profisched::engine {
namespace {

SimSweepSpec small_spec() {
  SimSweepSpec spec;
  spec.sweep.base.n_masters = 1;
  spec.sweep.base.streams_per_master = 4;
  spec.sweep.base.ttr = 3'000;
  spec.sweep.points = {SweepPoint{0.3, 0.5, 1.0}, SweepPoint{0.7, 0.5, 1.0}};
  spec.sweep.scenarios_per_point = 12;
  spec.sweep.policies = {Policy::Fcfs, Policy::Dm, Policy::Edf};
  spec.sweep.seed = 2027;
  spec.replications = 2;
  spec.sim.horizon_cycles = 25.0;
  return spec;
}

void expect_same_sim_outcomes(const SimSweepResult& a, const SimSweepResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].id, b.outcomes[i].id);
    EXPECT_EQ(a.outcomes[i].seed, b.outcomes[i].seed);
    EXPECT_EQ(a.outcomes[i].point, b.outcomes[i].point);
    ASSERT_EQ(a.outcomes[i].cells.size(), b.outcomes[i].cells.size());
    for (std::size_t p = 0; p < a.outcomes[i].cells.size(); ++p) {
      const SimCell& x = a.outcomes[i].cells[p];
      const SimCell& y = b.outcomes[i].cells[p];
      EXPECT_EQ(x.horizon, y.horizon);
      EXPECT_EQ(x.observed_max, y.observed_max);
      EXPECT_EQ(x.observed_p99, y.observed_p99);
      EXPECT_EQ(x.released, y.released);
      EXPECT_EQ(x.completed, y.completed);
      EXPECT_EQ(x.misses, y.misses);
      EXPECT_EQ(x.dropped, y.dropped);
    }
  }
}

void expect_same_combined_outcomes(const CombinedResult& a, const CombinedResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    ASSERT_EQ(a.outcomes[i].cells.size(), b.outcomes[i].cells.size());
    for (std::size_t p = 0; p < a.outcomes[i].cells.size(); ++p) {
      const CombinedCell& x = a.outcomes[i].cells[p];
      const CombinedCell& y = b.outcomes[i].cells[p];
      EXPECT_EQ(x.analytic_schedulable, y.analytic_schedulable);
      EXPECT_EQ(x.analytic_wcrt, y.analytic_wcrt);
      EXPECT_EQ(x.bound_violations, y.bound_violations);
      EXPECT_EQ(x.degraded_schedulable, y.degraded_schedulable);
      EXPECT_EQ(x.degraded_wcrt, y.degraded_wcrt);
      EXPECT_EQ(x.sim.observed_max, y.sim.observed_max);
      EXPECT_EQ(x.sim.observed_p99, y.sim.observed_p99);
      EXPECT_EQ(x.sim.released, y.sim.released);
      EXPECT_EQ(x.sim.completed, y.sim.completed);
      EXPECT_EQ(x.sim.misses, y.sim.misses);
      EXPECT_EQ(x.sim.dropped, y.sim.dropped);
    }
  }
}

/// In-memory ScenarioCache: the runner's cached branch without the disk.
class MemoryCache final : public ScenarioCache {
 public:
  bool load(const CacheKey& key, std::string& payload) override {
    const std::lock_guard lock(mu_);
    const auto it = entries_.find({key.scenario, key.params});
    if (it == entries_.end()) return false;
    payload = it->second;
    return true;
  }
  void store(const CacheKey& key, const std::string& payload) override {
    const std::lock_guard lock(mu_);
    entries_[{key.scenario, key.params}] = payload;
  }

 private:
  std::mutex mu_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::string> entries_;
};

TEST(SimSweep, ResultsAreInvariantUnderThreadCount) {
  const SimSweepSpec spec = small_spec();
  SweepRunner one(1);
  SweepRunner four(4);
  SweepRunner seven(7);
  const SimSweepResult r1 = one.run_sim(spec);
  const SimSweepResult r4 = four.run_sim(spec);
  const SimSweepResult r7 = seven.run_sim(spec);
  expect_same_sim_outcomes(r1, r4);
  expect_same_sim_outcomes(r1, r7);
  // And the serialized aggregates are byte-identical.
  const std::string csv = aggregate_sim(spec, r1).to_csv();
  EXPECT_EQ(csv, aggregate_sim(spec, r4).to_csv());
  EXPECT_EQ(csv, aggregate_sim(spec, r7).to_csv());
  EXPECT_EQ(aggregate_sim(spec, r1).to_json(), aggregate_sim(spec, r4).to_json());
}

TEST(SimSweep, CombinedResultsAreInvariantUnderThreadCount) {
  const SimSweepSpec spec = small_spec();
  SweepRunner one(1);
  SweepRunner five(5);
  const CombinedResult r1 = one.run_combined(spec);
  const CombinedResult r5 = five.run_combined(spec);
  ASSERT_EQ(r1.outcomes.size(), r5.outcomes.size());
  for (std::size_t i = 0; i < r1.outcomes.size(); ++i) {
    ASSERT_EQ(r1.outcomes[i].cells.size(), r5.outcomes[i].cells.size());
    for (std::size_t p = 0; p < r1.outcomes[i].cells.size(); ++p) {
      const CombinedCell& x = r1.outcomes[i].cells[p];
      const CombinedCell& y = r5.outcomes[i].cells[p];
      EXPECT_EQ(x.analytic_schedulable, y.analytic_schedulable);
      EXPECT_EQ(x.analytic_wcrt, y.analytic_wcrt);
      EXPECT_EQ(x.bound_violations, y.bound_violations);
      EXPECT_EQ(x.sim.observed_max, y.sim.observed_max);
      EXPECT_EQ(x.sim.misses, y.sim.misses);
    }
  }
  EXPECT_EQ(consistency_table(spec, r1).to_csv(), consistency_table(spec, r5).to_csv());
  EXPECT_EQ(consistency_table(spec, r1).to_json(), consistency_table(spec, r5).to_json());
}

TEST(SimSweep, RepeatedRunsAreIdentical) {
  const SimSweepSpec spec = small_spec();
  SweepRunner runner(2);
  expect_same_sim_outcomes(runner.run_sim(spec), runner.run_sim(spec));
}

TEST(SimSweep, ReplicationsAddObservationsNotNoise) {
  SimSweepSpec one_rep = small_spec();
  one_rep.replications = 1;
  SimSweepSpec two_reps = small_spec();
  two_reps.replications = 2;
  SweepRunner runner(2);
  const SimSweepResult r1 = runner.run_sim(one_rep);
  const SimSweepResult r2 = runner.run_sim(two_reps);
  ASSERT_EQ(r1.outcomes.size(), r2.outcomes.size());
  for (std::size_t i = 0; i < r1.outcomes.size(); ++i) {
    for (std::size_t p = 0; p < r1.outcomes[i].cells.size(); ++p) {
      // Rep 0 is shared, so two reps can only widen the observed envelope
      // and add released/completed counts.
      EXPECT_GE(r2.outcomes[i].cells[p].observed_max, r1.outcomes[i].cells[p].observed_max);
      EXPECT_GE(r2.outcomes[i].cells[p].released, r1.outcomes[i].cells[p].released);
    }
  }
}

// The headline consistency suite: >= 100 UUniFast scenarios per policy, every
// analytic bound must dominate the observed behaviour. Any violation here
// falsifies the corresponding analysis (or the simulator's conformance).
TEST(SimSweep, AnalysisDominatesSimulationOn100PlusScenariosPerPolicy) {
  SimSweepSpec spec;
  spec.sweep.base.n_masters = 1;
  spec.sweep.base.streams_per_master = 5;
  spec.sweep.base.ttr = 3'000;
  spec.sweep.points = {SweepPoint{0.2, 0.5, 1.0}, SweepPoint{0.5, 0.5, 1.0},
                       SweepPoint{0.8, 0.5, 1.0}, SweepPoint{1.1, 0.4, 1.0}};
  spec.sweep.scenarios_per_point = 30;  // 120 scenarios per policy
  spec.sweep.policies = {Policy::Fcfs, Policy::Dm, Policy::Edf};
  spec.sweep.seed = 99;
  spec.replications = 2;  // synchronous + randomly phased
  spec.sim.horizon_cycles = 40.0;

  SweepRunner runner;
  const CombinedResult result = runner.run_combined(spec);
  ASSERT_EQ(result.outcomes.size(), 120u);

  const ConsistencyTable table = consistency_table(spec, result);
  ASSERT_EQ(table.rows.size(), 360u);
  EXPECT_EQ(table.accept_but_miss_count(), 0u);
  EXPECT_EQ(table.total_bound_violations(), 0u);
  std::size_t observed_something = 0;
  for (const ConsistencyRow& r : table.rows) {
    EXPECT_FALSE(r.accept_but_miss) << "scenario " << r.id << " policy " << r.policy;
    EXPECT_EQ(r.bound_violations, 0u) << "scenario " << r.id << " policy " << r.policy;
    if (r.analytic_wcrt != kNoBound) {
      EXPECT_GE(r.analytic_wcrt, r.observed_max)
          << "scenario " << r.id << " policy " << r.policy;
      if (r.observed_max > 0) {
        EXPECT_GE(r.pessimism(), 1.0);
        ++observed_something;
      }
    }
    EXPECT_LE(r.observed_p99, r.observed_max);
  }
  // The property must not pass vacuously.
  EXPECT_GT(observed_something, 100u);
}

TEST(SimSweep, FrameLevelDropsSurfaceInOutcomesAndCurves) {
  // Regression: dropped (never-completed) cycles must not read as miss-free.
  // FrameLevel with a high per-attempt slave failure probability guarantees
  // some cycles exhaust their retries.
  SimSweepSpec spec = small_spec();
  spec.sweep.policies = {Policy::Fcfs};
  spec.replications = 1;
  spec.sim.cycle_model.kind = sim::CycleModel::Kind::FrameLevel;
  spec.sim.cycle_model.slave_fail_prob = 0.6;
  SweepRunner runner(2);
  const SimSweepResult result = runner.run_sim(spec);

  std::uint64_t total_dropped = 0;
  for (const SimScenarioOutcome& o : result.outcomes) {
    ASSERT_EQ(o.cells.size(), 1u);
    total_dropped += o.cells[0].dropped;
  }
  EXPECT_GT(total_dropped, 0u);

  const SimCurves curves = aggregate_sim(spec, result);
  std::uint64_t curve_dropped = 0;
  std::size_t miss_free = 0, scenarios = 0;
  for (const SimCurvePoint& pt : curves.points) {
    curve_dropped += pt.total_dropped[0];
    miss_free += pt.miss_free[0];
    scenarios += pt.scenarios;
  }
  EXPECT_EQ(curve_dropped, total_dropped);
  // With 60% per-attempt failure nearly every scenario drops something, so
  // the miss-free count must fall below the scenario count.
  EXPECT_LT(miss_free, scenarios);
}

TEST(SimSweep, UniformCycleModelKeepsBoundsDominant) {
  // Shorter-than-worst-case cycle durations: still bounded by the analysis.
  SimSweepSpec spec = small_spec();
  spec.sim.cycle_model.kind = sim::CycleModel::Kind::UniformFraction;
  spec.sim.cycle_model.min_fraction = 0.4;
  SweepRunner runner(3);
  const ConsistencyTable table = consistency_table(spec, runner.run_combined(spec));
  EXPECT_EQ(table.total_bound_violations(), 0u);
  EXPECT_EQ(table.accept_but_miss_count(), 0u);
}

// One grouped simulation per replication computes a scenario's missing
// policies. With the cache warm for one policy, the others still come out as
// they do uncached, and the cache counts one hit per scenario for the warm
// policy and one miss for each of the others.
TEST(SimSweep, PartlyWarmCachesMatchUncachedRuns) {
  SimSweepSpec spec = small_spec();
  spec.sim.faults.token_loss_prob = 0.02;
  spec.sim.faults.token_recovery = 800;
  spec.sim.faults.churn_prob = 0.01;
  spec.sim.faults.churn_offline = 5'000;
  const std::size_t n = spec.sweep.total_scenarios();
  SweepRunner runner(3);
  const SimSweepResult sim_cold = runner.run_sim(spec);
  const CombinedResult combined_cold = runner.run_combined(spec);
  for (const Policy warm : spec.sweep.policies) {
    SimSweepSpec one = spec;
    one.sweep.policies = {warm};
    MemoryCache cache;
    const SimSweepResult prefill = runner.run_sim(one, &cache);
    EXPECT_EQ(prefill.cache_hits, 0u);
    EXPECT_EQ(prefill.cache_misses, n);
    const SimSweepResult partly = runner.run_sim(spec, &cache);
    EXPECT_EQ(partly.cache_hits, n) << to_string(warm);
    EXPECT_EQ(partly.cache_misses, 2 * n) << to_string(warm);
    expect_same_sim_outcomes(partly, sim_cold);
    const SimSweepResult full = runner.run_sim(spec, &cache);
    EXPECT_EQ(full.cache_hits, 3 * n);
    EXPECT_EQ(full.cache_misses, 0u);
    expect_same_sim_outcomes(full, sim_cold);

    MemoryCache combined_cache;
    (void)runner.run_combined(one, &combined_cache);
    const CombinedResult combined = runner.run_combined(spec, &combined_cache);
    EXPECT_EQ(combined.cache_hits, n) << to_string(warm);
    EXPECT_EQ(combined.cache_misses, 2 * n) << to_string(warm);
    expect_same_combined_outcomes(combined, combined_cold);
    EXPECT_EQ(consistency_table(spec, combined).to_csv(),
              consistency_table(spec, combined_cold).to_csv());
  }
}

/// Serves every record of `inner` with its horizon (the field after the tag)
/// one tick off: still a decodable s1 or c3 record, but not the scenario's.
class OffHorizonCache final : public ScenarioCache {
 public:
  explicit OffHorizonCache(MemoryCache& inner) : inner_(inner) {}

  bool load(const CacheKey& key, std::string& payload) override {
    if (!inner_.load(key, payload)) return false;
    const std::size_t begin = payload.find(' ') + 1;
    const std::size_t end = payload.find(' ', begin);
    const Ticks horizon = std::stoll(payload.substr(begin, end - begin));
    payload.replace(begin, end - begin, std::to_string(horizon + 1));
    detail::SimCells::Cell sim;
    detail::CombinedCells::Cell combined;
    if (detail::decode_record(detail::SimCells{}, payload, sim) ||
        detail::decode_record(detail::CombinedCells{}, payload, combined)) {
      decodable.fetch_add(1);
    }
    return true;
  }
  void store(const CacheKey& key, const std::string& payload) override {
    stores.fetch_add(1);
    inner_.store(key, payload);
  }

  std::atomic<std::size_t> decodable{0};
  std::atomic<std::size_t> stores{0};

 private:
  MemoryCache& inner_;
};

// The horizon is a pure function of (scenario, options), so a decodable
// record of another horizon is a corrupted or colliding entry: the lookup
// counts as a miss, and the cell is recomputed and stored again.
TEST(SimSweep, CachedRecordsOfAnotherHorizonAreMisses) {
  const SimSweepSpec spec = small_spec();
  const std::size_t cells = spec.sweep.total_scenarios() * spec.sweep.policies.size();
  SweepRunner runner(3);
  const SimSweepResult sim_plain = runner.run_sim(spec);
  const CombinedResult combined_plain = runner.run_combined(spec);
  MemoryCache good;
  (void)runner.run_sim(spec, &good);
  (void)runner.run_combined(spec, &good);

  OffHorizonCache off(good);
  const SimSweepResult sim = runner.run_sim(spec, &off);
  EXPECT_EQ(sim.cache_hits, 0u);
  EXPECT_EQ(sim.cache_misses, cells);
  expect_same_sim_outcomes(sim, sim_plain);
  const CombinedResult combined = runner.run_combined(spec, &off);
  EXPECT_EQ(combined.cache_hits, 0u);
  EXPECT_EQ(combined.cache_misses, cells);
  expect_same_combined_outcomes(combined, combined_plain);
  EXPECT_EQ(off.decodable.load(), 2 * cells);
  EXPECT_EQ(off.stores.load(), 2 * cells);

  // The stores put the scenario's own records back.
  const SimSweepResult sim_warm = runner.run_sim(spec, &good);
  EXPECT_EQ(sim_warm.cache_hits, cells);
  expect_same_sim_outcomes(sim_warm, sim_plain);
  const CombinedResult combined_warm = runner.run_combined(spec, &good);
  EXPECT_EQ(combined_warm.cache_hits, cells);
  expect_same_combined_outcomes(combined_warm, combined_plain);
}

TEST(SimSweep, RejectsBadSpecs) {
  SweepRunner runner(1);
  SimSweepSpec no_policies = small_spec();
  no_policies.sweep.policies.clear();
  EXPECT_THROW((void)runner.run_sim(no_policies), std::invalid_argument);
  EXPECT_THROW((void)runner.run_combined(no_policies), std::invalid_argument);

  SimSweepSpec no_reps = small_spec();
  no_reps.replications = 0;
  EXPECT_THROW((void)runner.run_sim(no_reps), std::invalid_argument);

  SimSweepSpec no_points = small_spec();
  no_points.sweep.points.clear();
  EXPECT_THROW((void)runner.run_sim(no_points), std::invalid_argument);

  SimSweepSpec twice = small_spec();
  twice.sweep.policies = {Policy::Dm, Policy::Edf, Policy::Dm};
  EXPECT_THROW((void)runner.run_sim(twice), std::invalid_argument);
  EXPECT_THROW((void)runner.run_combined(twice), std::invalid_argument);

  SimSweepSpec analysis_only = small_spec();
  analysis_only.sweep.policies = {Policy::Fcfs, Policy::TokenRing};
  EXPECT_THROW((void)runner.run_sim(analysis_only), std::invalid_argument);
  EXPECT_THROW((void)runner.run_combined(analysis_only), std::invalid_argument);
}

TEST(SimSweep, RejectsRangesOutsideTheSweep) {
  // The range is checked before any outcome is allocated: 2^40 outcome
  // slots would not fit in memory.
  SweepRunner runner(1);
  const SimSweepSpec spec = small_spec();
  for (const IdRange r :
       {IdRange{5, 4}, IdRange{0, spec.sweep.total_scenarios() + 1}, IdRange{0, 1ULL << 40}}) {
    EXPECT_THROW((void)runner.run_sim(spec, r), std::out_of_range) << r.begin << ' ' << r.end;
    EXPECT_THROW((void)runner.run_combined(spec, r), std::out_of_range) << r.begin << ' ' << r.end;
  }
}

TEST(SimSweep, WorkerExceptionsSurfaceOnTheCallingThread) {
  // UUniFast mode without an explicit T_TR is rejected inside a worker; the
  // error must reach the caller, not std::terminate the process.
  SimSweepSpec spec = small_spec();
  spec.sweep.base.ttr = 0;
  SweepRunner runner(3);
  EXPECT_THROW((void)runner.run_sim(spec), std::invalid_argument);
  EXPECT_THROW((void)runner.run_combined(spec), std::invalid_argument);
}

}  // namespace
}  // namespace profisched::engine
