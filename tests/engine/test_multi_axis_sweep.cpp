// Tentpole lock-down for the multi-axis sweep subsystem (PR 5): a
// u × beta × masters cross-product grid flows through scenario generation,
// both engines, and aggregation with every determinism guarantee intact —
// thread-count invariance, extended-format round-trips, per-point masters
// override, and warm-cache reuse when a grid is extended along the beta axis.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "dist/result_cache.hpp"
#include "engine/aggregate.hpp"
#include "engine/sim_aggregate.hpp"
#include "engine/sweep_runner.hpp"

namespace profisched::engine {
namespace {

namespace fs = std::filesystem;

/// Fresh cache directory per test, removed on destruction.
class TempCacheDir {
 public:
  explicit TempCacheDir(const std::string& name)
      : path_((fs::temp_directory_path() / "profisched_multiaxis_test" / name).string()) {
    fs::remove_all(path_);
  }
  ~TempCacheDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// 2 masters-values x 2 beta-values x 2 u-values, small enough to run under
/// sanitizers, large enough that every axis matters.
SweepSpec multi_axis_spec() {
  SweepSpec spec;
  spec.base.n_masters = 1;
  spec.base.streams_per_master = 3;
  spec.base.ttr = 3'000;
  for (const std::size_t m : {std::size_t{1}, std::size_t{2}}) {
    for (const double b : {0.7, 1.0}) {
      for (const double u : {0.4, 0.8}) {
        spec.points.push_back(SweepPoint{u, b, b, m});
      }
    }
  }
  spec.scenarios_per_point = 10;
  spec.policies = {Policy::Fcfs, Policy::Dm, Policy::Edf};
  spec.seed = 2026;
  return spec;
}

TEST(MultiAxisSweep, MakeScenarioHonoursEveryAxis) {
  const SweepSpec spec = multi_axis_spec();
  for (std::size_t pt = 0; pt < spec.points.size(); ++pt) {
    const Scenario sc = SweepRunner::make_scenario(spec, pt * spec.scenarios_per_point);
    EXPECT_EQ(sc.net.n_masters(), spec.points[pt].n_masters);
    EXPECT_EQ(sc.total_u, spec.points[pt].total_u);
    EXPECT_EQ(sc.beta_lo, spec.points[pt].beta_lo);
    // beta pins the deadline ratio: D = clamp(round(b*T), Ch..) per stream.
    for (const profibus::Master& m : sc.net.masters) {
      for (const profibus::MessageStream& s : m.high_streams) {
        const double b = spec.points[pt].beta_lo;
        const Ticks expect_d =
            std::max<Ticks>(static_cast<Ticks>(std::llround(b * static_cast<double>(s.T))),
                            s.Ch);
        EXPECT_EQ(s.D, expect_d);
      }
    }
  }
}

TEST(MultiAxisSweep, ResultsAreInvariantUnderThreadCount) {
  const SweepSpec spec = multi_axis_spec();
  SweepRunner one(1);
  SweepRunner five(5);
  const SweepResult r1 = one.run(spec);
  const SweepResult r5 = five.run(spec);
  const std::string csv = aggregate(spec, r1).to_csv();
  EXPECT_EQ(csv, aggregate(spec, r5).to_csv());
  EXPECT_EQ(aggregate(spec, r1).to_json(), aggregate(spec, r5).to_json());
}

TEST(MultiAxisSweep, ExtendedCsvAndJsonRoundTrip) {
  const SweepSpec spec = multi_axis_spec();
  SweepRunner runner(2);
  const SweepCurves curves = aggregate(spec, runner.run(spec));

  const std::string csv = curves.to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "u,beta_lo,beta_hi,masters,scenarios,policy,schedulable,ratio");
  const SweepCurves from_csv = SweepCurves::from_csv(csv);
  EXPECT_EQ(from_csv.to_csv(), csv);
  ASSERT_EQ(from_csv.points.size(), curves.points.size());
  for (std::size_t i = 0; i < curves.points.size(); ++i) {
    EXPECT_EQ(from_csv.points[i].n_masters, curves.points[i].n_masters);
  }

  const std::string json = curves.to_json();
  EXPECT_NE(json.find("\"masters\""), std::string::npos);
  EXPECT_EQ(SweepCurves::from_json(json).to_json(), json);
  // Cross-format agreement on the extended layout.
  EXPECT_EQ(SweepCurves::from_csv(csv).to_json(), json);
}

TEST(MultiAxisSweep, SimCurvesCarryTheMastersColumn) {
  SimSweepSpec spec;
  spec.sweep = multi_axis_spec();
  spec.sweep.scenarios_per_point = 4;
  spec.replications = 1;
  SweepRunner runner(2);
  const SimCurves curves = aggregate_sim(spec, runner.run_sim(spec));
  const std::string csv = curves.to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "u,beta_lo,beta_hi,masters,scenarios,policy,miss_free,total_misses,total_dropped,"
            "max_observed,quantile_observed,ratio");
  EXPECT_EQ(SimCurves::from_csv(csv).to_csv(), csv);
  const std::string json = curves.to_json();
  EXPECT_EQ(SimCurves::from_json(json).to_json(), json);
  EXPECT_EQ(SimCurves::from_csv(csv).to_json(), json);
}

TEST(MultiAxisSweep, ConsistencyTableCarriesAxisColumns) {
  SimSweepSpec spec;
  spec.sweep = multi_axis_spec();
  spec.sweep.scenarios_per_point = 3;
  spec.replications = 1;
  SweepRunner runner(2);
  const ConsistencyTable table = consistency_table(spec, runner.run_combined(spec));
  EXPECT_TRUE(table.multi_axis);
  const std::string csv = table.to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "id,seed,u,beta_lo,beta_hi,masters,policy,analytic_schedulable,analytic_wcrt,"
            "observed_max,observed_p99,misses,completed,dropped,bound_violations,"
            "accept_but_miss,pessimism");
  const ConsistencyTable back = ConsistencyTable::from_csv(csv);
  EXPECT_TRUE(back.multi_axis);
  EXPECT_EQ(back.to_csv(), csv);
  ASSERT_EQ(back.rows.size(), table.rows.size());
  EXPECT_EQ(back.rows[0].n_masters, table.rows[0].n_masters);
  EXPECT_EQ(back.rows[0].beta_lo, table.rows[0].beta_lo);
  const std::string json = table.to_json();
  const ConsistencyTable jback = ConsistencyTable::from_json(json);
  EXPECT_TRUE(jback.multi_axis);
  EXPECT_EQ(jback.to_json(), json);
  EXPECT_EQ(jback.to_csv(), csv);
}

TEST(MultiAxisSweep, BetaOnlyConsistencyRowsCarryTheEffectiveRingSize) {
  // A beta axis alone switches the table to the extended columns; the masters
  // column must then report the base ring size, not the 0 axis sentinel.
  SimSweepSpec spec;
  spec.sweep.base.n_masters = 3;
  spec.sweep.base.streams_per_master = 3;
  spec.sweep.base.ttr = 3'000;
  spec.sweep.points = {SweepPoint{0.4, 0.7, 0.7}, SweepPoint{0.4, 1.0, 1.0}};
  spec.sweep.scenarios_per_point = 2;
  spec.sweep.policies = {Policy::Dm};
  spec.sweep.seed = 3;
  spec.replications = 1;
  SweepRunner runner(1);
  const ConsistencyTable table = consistency_table(spec, runner.run_combined(spec));
  ASSERT_TRUE(table.multi_axis);
  for (const ConsistencyRow& r : table.rows) EXPECT_EQ(r.n_masters, 3u);
}

TEST(MultiAxisSweep, EmptyMultiAxisConsistencyTableKeepsItsFlag) {
  // With zero rows the per-row axis keys cannot carry the layout; both
  // serializations must still round-trip the flag (CSV via the header, JSON
  // via the explicit marker) or a re-serialize would flip formats.
  ConsistencyTable empty;
  empty.multi_axis = true;
  const ConsistencyTable from_csv = ConsistencyTable::from_csv(empty.to_csv());
  EXPECT_TRUE(from_csv.multi_axis);
  EXPECT_EQ(from_csv.to_csv(), empty.to_csv());
  const ConsistencyTable from_json = ConsistencyTable::from_json(empty.to_json());
  EXPECT_TRUE(from_json.multi_axis);
  EXPECT_EQ(from_json.to_json(), empty.to_json());
  // And the classic empty table keeps the historical grammar.
  ConsistencyTable classic;
  EXPECT_EQ(classic.to_json().find("multi_axis"), std::string::npos);
  EXPECT_FALSE(ConsistencyTable::from_json(classic.to_json()).multi_axis);
}

TEST(MultiAxisSweep, ClassicGridsKeepTheLegacyFormats) {
  SweepSpec spec = multi_axis_spec();
  // Collapse to a pure u-grid: constant beta, no per-point masters.
  spec.points = {SweepPoint{0.4, 0.5, 1.0}, SweepPoint{0.8, 0.5, 1.0}};
  SweepRunner runner(2);
  const SweepCurves curves = aggregate(spec, runner.run(spec));
  const std::string csv = curves.to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "u,beta_lo,beta_hi,scenarios,policy,schedulable,ratio");
  EXPECT_EQ(curves.to_json().find("\"masters\""), std::string::npos);
  EXPECT_FALSE(has_multi_axis(spec.points));
}

/// Extending a swept grid along the beta axis re-serves every previously
/// computed (scenario, policy) result from the cache, provided the new beta
/// values are APPENDED: scenario generation is keyed by (sweep seed, global
/// id), so the original points' scenarios keep their ids — and therefore
/// their content — while inserted points would reshuffle ids and regenerate
/// different workloads (by design: the id keying is what makes sharded
/// execution deterministic).
TEST(MultiAxisSweep, BetaExtensionRunsWarmFromTheCache) {
  TempCacheDir dir("beta_extension");
  dist::ResultCache cache(dir.path());

  SweepSpec first;
  first.base.n_masters = 2;
  first.base.streams_per_master = 3;
  first.base.ttr = 3'000;
  for (const double b : {0.7, 1.0}) {
    for (const double u : {0.4, 0.8}) first.points.push_back(SweepPoint{u, b, b});
  }
  first.scenarios_per_point = 8;
  first.policies = {Policy::Fcfs, Policy::Dm};
  first.seed = 11;

  SweepRunner runner(2);
  const SweepResult cold = runner.run(first, &cache);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, first.total_scenarios() * first.policies.size());

  // Same grid plus one appended beta value: old ids (and content) stable.
  SweepSpec extended = first;
  for (const double u : {0.4, 0.8}) extended.points.push_back(SweepPoint{u, 0.85, 0.85});
  const SweepResult warm = runner.run(extended, &cache);
  // Every scenario of the original grid hits; only the new points compute.
  EXPECT_EQ(warm.cache_hits, first.total_scenarios() * first.policies.size());
  EXPECT_EQ(warm.cache_misses, 2 * first.scenarios_per_point * first.policies.size());

  // And the cached rows are bit-identical to an uncached run.
  const SweepResult reference = runner.run(extended);
  ASSERT_EQ(reference.outcomes.size(), warm.outcomes.size());
  for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
    EXPECT_EQ(reference.outcomes[i].schedulable, warm.outcomes[i].schedulable);
    EXPECT_EQ(reference.outcomes[i].tcycle, warm.outcomes[i].tcycle);
  }
}

/// Asymmetric splits flow through the whole engine path: a skewed and a
/// symmetric sweep over the same grid differ in generated content (and so in
/// outcomes' seeds-to-content mapping), while staying deterministic.
TEST(MultiAxisSweep, AsymmetricSplitsAreDeterministicAndDistinct) {
  SweepSpec sym;
  sym.base.n_masters = 3;
  sym.base.streams_per_master = 3;
  sym.base.ttr = 4'000;
  sym.points = {SweepPoint{0.9, 0.5, 1.0}};
  sym.scenarios_per_point = 12;
  sym.policies = {Policy::Dm};
  sym.seed = 5;

  SweepSpec skew = sym;
  skew.base.master_skew = 1.0;

  SweepRunner runner(3);
  const SweepResult a1 = runner.run(skew);
  const SweepResult a2 = runner.run(skew);
  for (std::size_t i = 0; i < a1.outcomes.size(); ++i) {
    EXPECT_EQ(a1.outcomes[i].tcycle, a2.outcomes[i].tcycle);
    EXPECT_EQ(a1.outcomes[i].schedulable, a2.outcomes[i].schedulable);
  }
  // Content differs from the symmetric sweep (hash check is the strongest).
  EXPECT_NE(canonical_hash(SweepRunner::make_scenario(sym, 0)),
            canonical_hash(SweepRunner::make_scenario(skew, 0)));
}

}  // namespace
}  // namespace profisched::engine
