// The simulation-sweep serializations: SimCurves and ConsistencyTable emit
// the same values in CSV and JSON (kNoBound analytic bounds and full-range
// 64-bit seeds included), gain their axis columns exactly when the table
// has the axis, and the aggregations reduce outcomes deterministically.
#include "engine/sim_aggregate.hpp"

#include <gtest/gtest.h>

namespace profisched::engine {
namespace {

SimCurves sample_curves() {
  SimCurves c;
  c.policies = {"FCFS", "DM"};
  c.points.push_back(
      SimCurvePoint{0.3, 0.5, 1.0, 0, 40, {40, 38}, {0, 7}, {0, 0}, {1200, 4096}, {900, 3000}});
  c.points.push_back(SimCurvePoint{
      0.9, 0.5, 1.0, 0, 40, {12, 30}, {220, 11}, {3, 0}, {99999, 1 << 20}, {80000, 1 << 19}});
  return c;
}

TEST(SimAggregate, CurvesCsvAndJsonCarryTheSameValues) {
  const SimCurves c = sample_curves();
  EXPECT_EQ(c.to_csv(),
            "u,beta_lo,beta_hi,scenarios,policy,miss_free,total_misses,total_dropped,"
            "max_observed,quantile_observed,ratio\n"
            "0.300000,0.500000,1.000000,40,FCFS,40,0,0,1200,900,1.000000\n"
            "0.300000,0.500000,1.000000,40,DM,38,7,0,4096,3000,0.950000\n"
            "0.900000,0.500000,1.000000,40,FCFS,12,220,3,99999,80000,0.300000\n"
            "0.900000,0.500000,1.000000,40,DM,30,11,0,1048576,524288,0.750000\n");
  EXPECT_EQ(c.to_json(),
            "{\n"
            "  \"policies\": [\"FCFS\", \"DM\"],\n"
            "  \"points\": [\n"
            "    {\"u\": 0.300000, \"beta_lo\": 0.500000, \"beta_hi\": 1.000000, "
            "\"scenarios\": 40, \"series\": {\"FCFS\": [40, 0, 0, 1200, 900], "
            "\"DM\": [38, 7, 0, 4096, 3000]}},\n"
            "    {\"u\": 0.900000, \"beta_lo\": 0.500000, \"beta_hi\": 1.000000, "
            "\"scenarios\": 40, \"series\": {\"FCFS\": [12, 220, 3, 99999, 80000], "
            "\"DM\": [30, 11, 0, 1048576, 524288]}}\n"
            "  ]\n"
            "}\n");
}

TEST(SimAggregate, EmptyCurvesSerialize) {
  const SimCurves empty;
  EXPECT_EQ(empty.to_csv(),
            "u,beta_lo,beta_hi,scenarios,policy,miss_free,total_misses,total_dropped,"
            "max_observed,quantile_observed,ratio\n");
  EXPECT_EQ(empty.to_json(), "{\n  \"policies\": [],\n  \"points\": [\n  ]\n}\n");
}

ConsistencyTable sample_table() {
  ConsistencyTable t;
  ConsistencyRow a;
  a.id = 17;
  a.seed = 18446744073709551615ULL;  // the full uint64 range is written exactly
  a.total_u = 0.75;
  a.policy = "EDF";
  a.analytic_schedulable = true;
  a.analytic_wcrt = 52'000;
  a.observed_max = 13'000;
  a.observed_p99 = 9'500;
  a.misses = 0;
  a.completed = 812;
  a.dropped = 0;
  a.bound_violations = 0;
  a.accept_but_miss = false;
  ConsistencyRow b;
  b.id = 18;
  b.seed = 3;
  b.total_u = 1.25;
  b.policy = "FCFS";
  b.analytic_schedulable = false;
  b.analytic_wcrt = kNoBound;  // diverged iteration serializes exactly
  b.observed_max = 880'000;
  b.observed_p99 = 880'000;
  b.misses = 41;
  b.completed = 96;
  b.dropped = 5;
  b.bound_violations = 0;
  b.accept_but_miss = false;
  t.rows = {a, b};
  return t;
}

constexpr const char* kClassicHeader =
    "id,seed,u,policy,analytic_schedulable,analytic_wcrt,observed_max,observed_p99,misses,"
    "completed,dropped,bound_violations,accept_but_miss,pessimism\n";

TEST(SimAggregate, ConsistencyCsvAndJsonCarryTheSameValues) {
  const ConsistencyTable t = sample_table();
  const std::string rows =
      "17,18446744073709551615,0.750000,EDF,1,52000,13000,9500,0,812,0,0,0,4.000000\n"
      "18,3,1.250000,FCFS,0,9223372036854775807,880000,880000,41,96,5,0,0,0.000000\n";
  EXPECT_EQ(t.to_csv(), kClassicHeader + rows);
  EXPECT_EQ(t.to_json(),
            "{\n"
            "  \"rows\": [\n"
            "    {\"id\": 17, \"seed\": 18446744073709551615, \"u\": 0.750000, "
            "\"policy\": \"EDF\", \"analytic_schedulable\": true, \"analytic_wcrt\": 52000, "
            "\"observed_max\": 13000, \"observed_p99\": 9500, \"misses\": 0, "
            "\"completed\": 812, \"dropped\": 0, \"bound_violations\": 0, "
            "\"accept_but_miss\": false},\n"
            "    {\"id\": 18, \"seed\": 3, \"u\": 1.250000, \"policy\": \"FCFS\", "
            "\"analytic_schedulable\": false, \"analytic_wcrt\": 9223372036854775807, "
            "\"observed_max\": 880000, \"observed_p99\": 880000, \"misses\": 41, "
            "\"completed\": 96, \"dropped\": 5, \"bound_violations\": 0, "
            "\"accept_but_miss\": false}\n"
            "  ]\n"
            "}\n");
}

// The fault axis adds degraded_schedulable/degraded_wcrt to both formats,
// after analytic_wcrt, while a zero-fault table's serialization stays free
// of any degraded column.
TEST(SimAggregate, FaultAxisAddsTheDegradedColumns) {
  ConsistencyTable t = sample_table();
  t.fault_axis = true;
  t.rows[0].degraded_schedulable = true;
  t.rows[0].degraded_wcrt = 61'000;
  t.rows[1].degraded_schedulable = false;
  t.rows[1].degraded_wcrt = kNoBound;

  EXPECT_EQ(t.to_csv(),
            "id,seed,u,policy,analytic_schedulable,analytic_wcrt,degraded_schedulable,"
            "degraded_wcrt,observed_max,observed_p99,misses,completed,dropped,bound_violations,"
            "accept_but_miss,pessimism\n"
            "17,18446744073709551615,0.750000,EDF,1,52000,1,61000,13000,9500,0,812,0,0,0,"
            "4.000000\n"
            "18,3,1.250000,FCFS,0,9223372036854775807,0,9223372036854775807,880000,880000,41,"
            "96,5,0,0,0.000000\n");
  const std::string json = t.to_json();
  EXPECT_EQ(json.rfind("{\n  \"fault_axis\": true,\n  \"rows\": [\n", 0), 0u);
  EXPECT_NE(json.find("\"analytic_wcrt\": 52000, \"degraded_schedulable\": true, "
                      "\"degraded_wcrt\": 61000, \"observed_max\": 13000"),
            std::string::npos);
  EXPECT_NE(json.find("\"degraded_schedulable\": false, "
                      "\"degraded_wcrt\": 9223372036854775807, \"observed_max\": 880000"),
            std::string::npos);

  // Fault axis composes with the multi-axis columns (19-column layout).
  t.multi_axis = true;
  t.rows[0].beta_lo = 0.4;
  t.rows[0].beta_hi = 0.9;
  t.rows[0].n_masters = 3;
  const std::string both = t.to_csv();
  EXPECT_EQ(both.substr(0, both.find('\n')),
            "id,seed,u,beta_lo,beta_hi,masters,policy,analytic_schedulable,analytic_wcrt,"
            "degraded_schedulable,degraded_wcrt,observed_max,observed_p99,misses,completed,"
            "dropped,bound_violations,accept_but_miss,pessimism");
  EXPECT_NE(both.find("\n17,18446744073709551615,0.750000,0.400000,0.900000,3,EDF,1,52000,1,"
                      "61000,"),
            std::string::npos);
  const std::string both_json = t.to_json();
  EXPECT_EQ(both_json.rfind("{\n  \"multi_axis\": true,\n  \"fault_axis\": true,\n", 0), 0u);
  EXPECT_NE(both_json.find("\"u\": 0.750000, \"beta_lo\": 0.400000, \"beta_hi\": 0.900000, "
                           "\"masters\": 3, \"policy\": \"EDF\""),
            std::string::npos);

  // Zero-fault serializations never mention the degraded columns.
  const ConsistencyTable clean = sample_table();
  EXPECT_EQ(clean.to_csv().find("degraded"), std::string::npos);
  EXPECT_EQ(clean.to_json().find("degraded"), std::string::npos);
  EXPECT_EQ(clean.to_json().find("fault_axis"), std::string::npos);
}

TEST(SimAggregate, ConsistencyHelpersCountViolations) {
  ConsistencyTable t = sample_table();
  EXPECT_EQ(t.accept_but_miss_count(), 0u);
  EXPECT_EQ(t.total_bound_violations(), 0u);
  t.rows[0].accept_but_miss = true;
  t.rows[1].bound_violations = 3;
  EXPECT_EQ(t.accept_but_miss_count(), 1u);
  EXPECT_EQ(t.total_bound_violations(), 3u);
}

TEST(SimAggregate, PessimismRatio) {
  ConsistencyRow r;
  r.analytic_wcrt = 200;
  r.observed_max = 100;
  EXPECT_DOUBLE_EQ(r.pessimism(), 2.0);
  r.analytic_wcrt = kNoBound;
  EXPECT_DOUBLE_EQ(r.pessimism(), 0.0);  // undefined for a diverged bound
  r.analytic_wcrt = 200;
  r.observed_max = 0;
  EXPECT_DOUBLE_EQ(r.pessimism(), 0.0);  // nothing observed
}

TEST(SimAggregate, EmptyConsistencyTablesSerialize) {
  const ConsistencyTable empty;
  EXPECT_EQ(empty.to_csv(), kClassicHeader);
  EXPECT_EQ(empty.to_json(), "{\n  \"rows\": [\n  ]\n}\n");
}

TEST(SimAggregate, AggregateSimReducesOutcomesPerPoint) {
  SimSweepSpec spec;
  spec.sweep.points = {SweepPoint{0.4, 0.5, 1.0}, SweepPoint{0.8, 0.5, 1.0}};
  spec.sweep.scenarios_per_point = 2;
  spec.sweep.policies = {Policy::Fcfs, Policy::Dm};

  SimSweepResult result;
  result.outcomes.resize(4);
  for (std::size_t i = 0; i < 4; ++i) {
    SimScenarioOutcome& o = result.outcomes[i];
    o.id = i;
    o.point = i / 2;
    // {observed_max, observed_p99, released, completed, misses, dropped}
    const Ticks fcfs_max = 100 + 10 * static_cast<Ticks>(i);
    o.cells = {SimCell{{fcfs_max, 90, 10, 10, i == 3 ? 5ULL : 0ULL, 0ULL}},
               SimCell{{50, 40, 10, 10, 0ULL, i == 0 ? 2ULL : 0ULL}}};
  }
  const SimCurves c = aggregate_sim(spec, result);
  ASSERT_EQ(c.points.size(), 2u);
  EXPECT_EQ(c.points[0].scenarios, 2u);
  EXPECT_EQ(c.points[0].miss_free[0], 2u);      // FCFS: both miss-free at point 0
  EXPECT_EQ(c.points[1].miss_free[0], 1u);      // scenario 3 missed
  EXPECT_EQ(c.points[1].total_misses[0], 5u);
  EXPECT_EQ(c.points[1].max_observed[0], 130);
  EXPECT_EQ(c.points[1].quantile_observed[0], 90);  // max of the per-scenario p99s
  EXPECT_EQ(c.points[1].miss_free[1], 2u);      // DM never missed at point 1...
  EXPECT_EQ(c.points[0].miss_free[1], 1u);      // ...but dropped cycles disqualify
  EXPECT_EQ(c.points[0].total_dropped[1], 2u);  //    scenario 0 at point 0
}

}  // namespace
}  // namespace profisched::engine
