// Tentpole lock-down for the multi-axis sweep subsystem (PR 5): a
// u × beta × masters cross-product grid flows through scenario generation,
// both engines, and aggregation with every determinism guarantee intact —
// thread-count invariance, extended output columns, per-point masters
// override, and warm-cache reuse when a grid is extended along the beta axis.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "dist/result_cache.hpp"
#include "engine/aggregate.hpp"
#include "engine/detail/serialize.hpp"
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

/// The lines of `text`, without their newlines.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t nl = text.find('\n', at);
    out.push_back(text.substr(at, nl - at));
    at = nl + 1;
  }
  return out;
}

bool contains(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

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

TEST(MultiAxisSweep, ExtendedCsvAndJsonCarryTheMastersAxis) {
  const SweepSpec spec = multi_axis_spec();
  SweepRunner runner(2);
  const SweepCurves curves = aggregate(spec, runner.run(spec));

  const std::vector<std::string> rows = lines_of(curves.to_csv());
  const std::vector<std::string> json = lines_of(curves.to_json());
  const std::size_t n_pol = curves.policies.size();
  ASSERT_EQ(rows.size(), 1 + curves.points.size() * n_pol);
  ASSERT_EQ(json.size(), 3 + curves.points.size() + 2);  // head, one line per point, tail
  EXPECT_EQ(rows[0], "u,beta_lo,beta_hi,masters,scenarios,policy,schedulable,ratio");
  // Both formats carry each point's masters value and the same counts.
  for (std::size_t i = 0; i < curves.points.size(); ++i) {
    const CurvePoint& pt = curves.points[i];
    const std::string masters = std::to_string(pt.n_masters);
    const std::string scenarios = std::to_string(pt.scenarios);
    const std::string json_axis = "\"masters\": " + masters + ", \"scenarios\": " + scenarios;
    EXPECT_PRED2(contains, json[3 + i], json_axis);
    for (std::size_t p = 0; p < n_pol; ++p) {
      const std::string& policy = curves.policies[p];
      const std::string count = std::to_string(pt.schedulable[p]);
      const std::string csv_cells = masters + ',' + scenarios + ',' + policy + ',' + count + ',';
      EXPECT_PRED2(contains, rows[1 + i * n_pol + p], ',' + csv_cells);
      EXPECT_PRED2(contains, json[3 + i], '"' + policy + "\": " + count);
    }
  }
}

TEST(MultiAxisSweep, SimCurvesCarryTheMastersColumn) {
  SimSweepSpec spec;
  spec.sweep = multi_axis_spec();
  spec.sweep.scenarios_per_point = 4;
  spec.replications = 1;
  SweepRunner runner(2);
  const SimCurves curves = aggregate_sim(spec, runner.run_sim(spec));
  const std::vector<std::string> rows = lines_of(curves.to_csv());
  const std::vector<std::string> json = lines_of(curves.to_json());
  const std::size_t n_pol = curves.policies.size();
  ASSERT_EQ(rows.size(), 1 + curves.points.size() * n_pol);
  ASSERT_EQ(json.size(), 3 + curves.points.size() + 2);
  EXPECT_EQ(rows[0],
            "u,beta_lo,beta_hi,masters,scenarios,policy,miss_free,total_misses,total_dropped,"
            "max_observed,quantile_observed,ratio");
  for (std::size_t i = 0; i < curves.points.size(); ++i) {
    const SimCurvePoint& pt = curves.points[i];
    const std::string masters = std::to_string(pt.n_masters);
    const std::string scenarios = std::to_string(pt.scenarios);
    EXPECT_PRED2(contains, json[3 + i], "\"masters\": " + masters + ", ");
    for (std::size_t p = 0; p < n_pol; ++p) {
      const std::vector<std::string> values = {
          std::to_string(pt.miss_free[p]), std::to_string(pt.total_misses[p]),
          std::to_string(pt.total_dropped[p]), std::to_string(pt.max_observed[p]),
          std::to_string(pt.quantile_observed[p])};
      const std::string& policy = curves.policies[p];
      std::string csv_cells = ',' + masters + ',' + scenarios + ',' + policy;
      std::string json_series = '"' + policy + "\": [";
      for (std::size_t v = 0; v < values.size(); ++v) {
        csv_cells += ',' + values[v];
        json_series += (v == 0 ? "" : ", ") + values[v];
      }
      EXPECT_PRED2(contains, rows[1 + i * n_pol + p], csv_cells + ',');
      EXPECT_PRED2(contains, json[3 + i], json_series + ']');
    }
  }
}

TEST(MultiAxisSweep, ConsistencyTableCarriesAxisColumns) {
  SimSweepSpec spec;
  spec.sweep = multi_axis_spec();
  spec.sweep.scenarios_per_point = 3;
  spec.replications = 1;
  SweepRunner runner(2);
  const ConsistencyTable table = consistency_table(spec, runner.run_combined(spec));
  EXPECT_TRUE(table.multi_axis);
  const std::vector<std::string> rows = lines_of(table.to_csv());
  const std::vector<std::string> json = lines_of(table.to_json());
  ASSERT_EQ(rows.size(), 1 + table.rows.size());
  ASSERT_EQ(json.size(), 3 + table.rows.size() + 2);  // '{', marker, "rows", rows, tail
  EXPECT_EQ(rows[0],
            "id,seed,u,beta_lo,beta_hi,masters,policy,analytic_schedulable,analytic_wcrt,"
            "observed_max,observed_p99,misses,completed,dropped,bound_violations,"
            "accept_but_miss,pessimism");
  EXPECT_EQ(json[1], "  \"multi_axis\": true,");
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const ConsistencyRow& r = table.rows[i];
    const std::string beta_lo = detail::fmt_double(r.beta_lo);
    const std::string beta_hi = detail::fmt_double(r.beta_hi);
    const std::string masters = std::to_string(r.n_masters);
    const std::string key = std::to_string(r.id) + ',' + std::to_string(r.seed) + ',';
    const std::string axis = beta_lo + ',' + beta_hi + ',' + masters + ',' + r.policy + ',';
    EXPECT_PRED2(contains, rows[1 + i], key + detail::fmt_double(r.total_u) + ',' + axis);
    const std::string json_beta = "\"beta_lo\": " + beta_lo + ", \"beta_hi\": " + beta_hi;
    EXPECT_PRED2(contains, json[3 + i], json_beta + ", \"masters\": " + masters + ", \"policy\"");
  }
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

TEST(MultiAxisSweep, EmptyMultiAxisConsistencyTableStatesItsLayout) {
  // With zero rows the per-row axis keys cannot carry the layout; the CSV
  // header and the JSON marker still state it.
  ConsistencyTable empty;
  empty.multi_axis = true;
  EXPECT_EQ(empty.to_csv(),
            "id,seed,u,beta_lo,beta_hi,masters,policy,analytic_schedulable,analytic_wcrt,"
            "observed_max,observed_p99,misses,completed,dropped,bound_violations,"
            "accept_but_miss,pessimism\n");
  EXPECT_EQ(empty.to_json(), "{\n  \"multi_axis\": true,\n  \"rows\": [\n  ]\n}\n");
  // And the classic empty table keeps the historical grammar.
  EXPECT_EQ(ConsistencyTable{}.to_json(), "{\n  \"rows\": [\n  ]\n}\n");
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
    ASSERT_EQ(reference.outcomes[i].cells.size(), warm.outcomes[i].cells.size());
    for (std::size_t p = 0; p < reference.outcomes[i].cells.size(); ++p) {
      EXPECT_EQ(reference.outcomes[i].cells[p].schedulable, warm.outcomes[i].cells[p].schedulable);
      EXPECT_EQ(reference.outcomes[i].cells[p].tcycle, warm.outcomes[i].cells[p].tcycle);
    }
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
    ASSERT_EQ(a1.outcomes[i].cells.size(), a2.outcomes[i].cells.size());
    for (std::size_t p = 0; p < a1.outcomes[i].cells.size(); ++p) {
      EXPECT_EQ(a1.outcomes[i].cells[p].tcycle, a2.outcomes[i].cells[p].tcycle);
      EXPECT_EQ(a1.outcomes[i].cells[p].schedulable, a2.outcomes[i].cells[p].schedulable);
    }
  }
  // Content differs from the symmetric sweep (hash check is the strongest).
  EXPECT_NE(canonical_hash(SweepRunner::make_scenario(sym, 0)),
            canonical_hash(SweepRunner::make_scenario(skew, 0)));
}

}  // namespace
}  // namespace profisched::engine
