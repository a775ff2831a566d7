// Optimizer contract (PR 6): thread-count invariance, base-verdict agreement
// with the sweep runner, exact boundary semantics of every bisected optimum,
// result-cache hit/miss accounting with bit-identical hit-path outcomes, and
// loud rejection of malformed specs/ranges.
#include "opt/optimizer.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>

#include "dist/result_cache.hpp"

namespace profisched::opt {
namespace {

namespace fs = std::filesystem;

class CacheDir {
 public:
  explicit CacheDir(const char* name)
      : path_((fs::temp_directory_path() / "profisched_opt_test" / name).string()) {
    fs::remove_all(path_);
  }
  ~CacheDir() { fs::remove_all(fs::path(path_).parent_path()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

OptimizeSpec small_spec() {
  OptimizeSpec spec;
  spec.sweep.base.n_masters = 2;
  spec.sweep.base.streams_per_master = 3;
  spec.sweep.base.ttr = 3'000;
  spec.sweep.points = {engine::SweepPoint{0.3, 0.5, 1.0}, engine::SweepPoint{0.7, 0.5, 1.0}};
  spec.sweep.scenarios_per_point = 6;
  spec.sweep.policies = {engine::Policy::Fcfs, engine::Policy::Dm, engine::Policy::Edf};
  spec.sweep.seed = 99;
  return spec;
}

void expect_same(const OptimizeResult& a, const OptimizeResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].id, b.outcomes[i].id);
    EXPECT_EQ(a.outcomes[i].seed, b.outcomes[i].seed);
    EXPECT_EQ(a.outcomes[i].point, b.outcomes[i].point);
    ASSERT_EQ(a.outcomes[i].per_policy.size(), b.outcomes[i].per_policy.size());
    for (std::size_t p = 0; p < a.outcomes[i].per_policy.size(); ++p) {
      const PolicyOptimum& x = a.outcomes[i].per_policy[p];
      const PolicyOptimum& y = b.outcomes[i].per_policy[p];
      EXPECT_EQ(x.schedulable, y.schedulable) << i << "/" << p;
      EXPECT_EQ(x.breakdown_q, y.breakdown_q) << i << "/" << p;
      EXPECT_EQ(x.breakdown_cap, y.breakdown_cap) << i << "/" << p;
      EXPECT_EQ(x.breakdown_u, y.breakdown_u) << i << "/" << p;  // exact doubles
      EXPECT_EQ(x.max_ttr, y.max_ttr) << i << "/" << p;
      EXPECT_EQ(x.ttr_cap_hit, y.ttr_cap_hit) << i << "/" << p;
      EXPECT_EQ(x.min_dratio_q, y.min_dratio_q) << i << "/" << p;
      EXPECT_EQ(x.dratio_floor, y.dratio_floor) << i << "/" << p;
    }
  }
}

TEST(Optimizer, ThreadCountInvariant) {
  const OptimizeSpec spec = small_spec();
  engine::SweepRunner serial(1);
  engine::SweepRunner parallel(4);
  expect_same(run_optimize(serial, spec), run_optimize(parallel, spec));
}

TEST(Optimizer, BaseVerdictMatchesTheSweepRunner) {
  const OptimizeSpec spec = small_spec();
  engine::SweepRunner runner(2);
  const engine::SweepResult sweep = runner.run(spec.sweep);
  const OptimizeResult opt = run_optimize(runner, spec);
  ASSERT_EQ(opt.outcomes.size(), sweep.outcomes.size());
  for (std::size_t i = 0; i < opt.outcomes.size(); ++i) {
    for (std::size_t p = 0; p < spec.sweep.policies.size(); ++p) {
      EXPECT_EQ(opt.outcomes[i].per_policy[p].schedulable, sweep.outcomes[i].schedulable[p])
          << "scenario " << i << " policy " << p;
    }
  }
}

TEST(Optimizer, ProbeVerdictIsTheEngineVerdict) {
  // The probe predicate runs the engine's own dispatch: on every generated
  // scenario, under every optimizable policy and both T_cycle methods, it
  // answers exactly what AnalysisEngine::analyze answers.
  engine::SweepSpec sweep;
  sweep.base.n_masters = 3;
  sweep.base.streams_per_master = 5;
  sweep.base.ttr = 3'000;
  for (const double u : {0.3, 0.5, 0.7, 0.85, 0.95, 1.05}) sweep.points.push_back({.total_u = u});
  sweep.scenarios_per_point = 40;
  sweep.seed = 14;
  const engine::Policy policies[] = {engine::Policy::Fcfs, engine::Policy::Dm,
                                     engine::Policy::Edf, engine::Policy::Opa};
  std::size_t accepted = 0, checked = 0;
  for (const profibus::TcycleMethod method :
       {profibus::TcycleMethod::PaperEq13, profibus::TcycleMethod::PerMasterRefined}) {
    engine::EngineOptions options;
    options.method = method;
    engine::AnalysisEngine engine(options);
    for (const engine::Policy p : policies) {
      const profibus::NetworkTest probe = optimize_network_test(p, options);
      for (std::uint64_t id = 0; id < sweep.total_scenarios(); ++id) {
        const engine::Scenario sc = engine::SweepRunner::make_scenario(sweep, id);
        const bool want = engine.analyze(sc, p).schedulable;
        EXPECT_EQ(probe(sc.net), want) << engine::to_string(p) << " id " << id;
        accepted += want;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 2u * 4u * 240u);
  EXPECT_GT(accepted, 0u);
}

TEST(Optimizer, EveryBoundaryIsExact) {
  const OptimizeSpec spec = small_spec();
  engine::SweepRunner runner(2);
  const OptimizeResult result = run_optimize(runner, spec);

  for (const OptimizeOutcome& o : result.outcomes) {
    const engine::Scenario sc = engine::SweepRunner::make_scenario(spec.sweep, o.id);
    for (std::size_t p = 0; p < spec.sweep.policies.size(); ++p) {
      const PolicyOptimum& po = o.per_policy[p];
      const profibus::NetworkTest test =
          optimize_network_test(spec.sweep.policies[p], spec.sweep.engine);

      if (po.breakdown_q > 0) {
        EXPECT_TRUE(test(profibus::with_scaled_frames(sc.net, po.breakdown_q)));
        if (!po.breakdown_cap) {
          EXPECT_FALSE(test(profibus::with_scaled_frames(sc.net, po.breakdown_q + 1)));
        }
        EXPECT_EQ(po.breakdown_u, breakdown_utilization_at(sc.net, po.breakdown_q));
      } else {
        // Infeasible: even the bracket floor is rejected.
        EXPECT_FALSE(test(profibus::with_scaled_frames(sc.net, spec.options.scale_lo_q)));
      }

      if (po.max_ttr > 0) {
        EXPECT_TRUE(test(profibus::with_ttr(sc.net, po.max_ttr)));
        if (!po.ttr_cap_hit) {
          EXPECT_FALSE(test(profibus::with_ttr(sc.net, po.max_ttr + 1)));
        }
      }

      if (po.min_dratio_q > 0) {
        EXPECT_TRUE(test(profibus::with_deadline_ratio(sc.net, po.min_dratio_q)));
        if (!po.dratio_floor) {
          EXPECT_FALSE(test(profibus::with_deadline_ratio(sc.net, po.min_dratio_q - 1)));
        }
      }
    }
  }
}

TEST(Optimizer, RangedRunMatchesTheWholeRunSlice) {
  const OptimizeSpec spec = small_spec();
  engine::SweepRunner runner(2);
  const OptimizeResult whole = run_optimize(runner, spec);
  const engine::IdRange range{3, 9};
  const OptimizeResult part = run_optimize(runner, spec, range);
  ASSERT_EQ(part.outcomes.size(), 6u);
  for (std::size_t i = 0; i < part.outcomes.size(); ++i) {
    EXPECT_EQ(part.outcomes[i].id, whole.outcomes[i + 3].id);
    EXPECT_EQ(part.outcomes[i].per_policy[0].breakdown_q,
              whole.outcomes[i + 3].per_policy[0].breakdown_q);
  }
}

TEST(Optimizer, CacheColdThenWarmIsExactAndBitIdentical) {
  const CacheDir dir("optimize");
  const OptimizeSpec spec = small_spec();
  engine::SweepRunner runner(2);
  const OptimizeResult plain = run_optimize(runner, spec);

  dist::ResultCache cache(dir.path());
  const OptimizeResult cold = run_optimize(runner, spec, &cache);
  const std::size_t cells = spec.sweep.total_scenarios() * spec.sweep.policies.size();
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, cells);
  expect_same(cold, plain);

  const OptimizeResult warm = run_optimize(runner, spec, &cache);
  EXPECT_EQ(warm.cache_hits, cells);
  EXPECT_EQ(warm.cache_misses, 0u);
  expect_same(warm, plain);
}

TEST(Optimizer, OptionChangesInvalidateTheCache) {
  const CacheDir dir("options");
  OptimizeSpec spec = small_spec();
  engine::SweepRunner runner(2);
  dist::ResultCache cache(dir.path());
  (void)run_optimize(runner, spec, &cache);
  spec.options.ttr_cap *= 2;  // different params digest → clean misses
  const OptimizeResult rerun = run_optimize(runner, spec, &cache);
  EXPECT_EQ(rerun.cache_hits, 0u);
}

TEST(Optimizer, RejectsBadSpecsAndRanges) {
  engine::SweepRunner runner(1);
  OptimizeSpec spec = small_spec();

  OptimizeSpec no_policies = spec;
  no_policies.sweep.policies.clear();
  EXPECT_THROW((void)run_optimize(runner, no_policies), std::invalid_argument);

  OptimizeSpec token = spec;
  token.sweep.policies = {engine::Policy::TokenRing};
  EXPECT_THROW((void)run_optimize(runner, token), std::invalid_argument);

  OptimizeSpec bad_bracket = spec;
  bad_bracket.options.scale_lo_q = 2'048;
  bad_bracket.options.scale_hi_q = 1'024;
  EXPECT_THROW((void)run_optimize(runner, bad_bracket), std::invalid_argument);

  EXPECT_THROW((void)run_optimize(runner, spec, engine::IdRange{0, 1'000}), std::out_of_range);
  EXPECT_FALSE(optimizable(engine::Policy::Holistic));
  EXPECT_THROW((void)optimize_network_test(engine::Policy::TokenRing, spec.sweep.engine),
               std::invalid_argument);
}

}  // namespace
}  // namespace profisched::opt
