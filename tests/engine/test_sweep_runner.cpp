// The sweep runner's acceptance properties: results are bit-identical for
// every thread count, scenario generation is reproducible from (seed, id)
// alone, and the UUniFast mode hits its utilization target.
#include "engine/sweep_runner.hpp"

#include <gtest/gtest.h>

#include <map>
#include <mutex>

#include "engine/aggregate.hpp"
#include "profibus/token_ring_analysis.hpp"

namespace profisched::engine {
namespace {

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
    ASSERT_EQ(a.outcomes[i].cells.size(), b.outcomes[i].cells.size());
    for (std::size_t p = 0; p < a.outcomes[i].cells.size(); ++p) {
      EXPECT_EQ(a.outcomes[i].cells[p].tcycle, b.outcomes[i].cells[p].tcycle);
      EXPECT_EQ(a.outcomes[i].cells[p].schedulable, b.outcomes[i].cells[p].schedulable);
    }
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

TEST(SweepRunner, CliffVerdictsAreTheEngineVerdicts) {
  // A sweep cell keeps only the verdict, so the runner takes the engine's
  // verdict dispatch, where EDF stops at the first proven miss. On a cliff
  // grid (u 0.95 and 1.0, 1 and 3 masters) every cell must still equal
  // AnalysisEngine::analyze, without a cache, on a cold cache, and read back
  // from the warm one. Three streams per master keep analyze's exact scans at
  // u = 1.0 short; D = T leaves EDF some accepted cells there.
  SweepSpec spec = small_spec();
  spec.base.streams_per_master = 3;
  spec.points.clear();
  for (const double u : {0.95, 1.0}) {
    for (const std::size_t masters : {1, 3}) {
      spec.points.push_back({.total_u = u, .n_masters = masters});
    }
  }
  spec.scenarios_per_point = 10;
  spec.policies = {Policy::Fcfs, Policy::Dm, Policy::Edf, Policy::Opa};
  SweepRunner runner(2);
  MemoryCache cache;
  const SweepResult uncached = runner.run(spec);
  const SweepResult cold = runner.run(spec, &cache);
  const SweepResult warm = runner.run(spec, &cache);
  const std::uint64_t cells = spec.total_scenarios() * spec.policies.size();
  EXPECT_EQ(cold.cache_misses, cells);
  EXPECT_EQ(warm.cache_hits, cells);

  AnalysisEngine engine(spec.engine);
  std::size_t edf_accepted = 0, edf_rejected = 0;
  for (std::uint64_t id = 0; id < spec.total_scenarios(); ++id) {
    const Scenario sc = SweepRunner::make_scenario(spec, id);
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      const Report want = engine.analyze(sc, spec.policies[p]);
      for (const SweepResult* r : {&uncached, &cold, &warm}) {
        const ScenarioOutcome& o = r->outcomes[id];
        EXPECT_EQ(o.cells[p].tcycle, want.tcycle) << "id " << id;
        EXPECT_EQ(o.cells[p].schedulable, want.schedulable)
            << to_string(spec.policies[p]) << " id " << id;
      }
      if (spec.policies[p] == Policy::Edf) (want.schedulable ? edf_accepted : edf_rejected) += 1;
    }
  }
  EXPECT_GT(edf_accepted, 0u);
  EXPECT_GT(edf_rejected, 0u);
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

TEST(SweepRunner, RefusesATcycleItsCellCannotHold) {
  // An AnalysisCell keeps T_cycle in 63 bits. The job validation keeps T_TR
  // far below 2^62, but the engine takes any T_TR: a T_cycle just below 2^62
  // is kept whole, one at or above it is refused, never truncated.
  SweepSpec spec = small_spec();
  spec.points = {SweepPoint{}};  // period-driven generation takes any T_TR
  spec.scenarios_per_point = 2;
  spec.base.ttr = (Ticks{1} << 62) - (Ticks{1} << 40);
  SweepRunner runner(1);
  const SweepResult r = runner.run(spec);
  for (const ScenarioOutcome& o : r.outcomes) {
    const Ticks want = profibus::t_cycle(SweepRunner::make_scenario(spec, o.id).net);
    for (const AnalysisCell& c : o.cells) EXPECT_EQ(c.tcycle, want);
  }
  spec.base.ttr = Ticks{1} << 62;
  EXPECT_THROW((void)runner.run(spec), std::overflow_error);
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

TEST(SweepRunner, RejectsRangesOutsideTheSweep) {
  // The range is checked before any outcome is allocated: 2^40 outcome
  // slots would not fit in memory.
  SweepRunner runner(1);
  const SweepSpec spec = small_spec();
  for (const IdRange r :
       {IdRange{5, 4}, IdRange{0, spec.total_scenarios() + 1}, IdRange{0, 1ULL << 40}}) {
    EXPECT_THROW((void)runner.run(spec, r), std::out_of_range) << r.begin << ' ' << r.end;
  }
}

}  // namespace
}  // namespace profisched::engine
