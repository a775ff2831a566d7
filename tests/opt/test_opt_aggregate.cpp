// OptimizeTable aggregation + serialization (PR 6): nearest-rank quantiles
// on hand-built outcome sets, zero-filled infeasible cells, multi-axis
// masters column gating, and the CSV and JSON text carrying the same values
// (the golden-file and shard-merge identities both ride on these).
#include "opt/opt_aggregate.hpp"

#include <gtest/gtest.h>

namespace profisched::opt {
namespace {

OptimizeSpec two_point_spec() {
  OptimizeSpec spec;
  spec.sweep.points = {engine::SweepPoint{0.3, 0.5, 1.0}, engine::SweepPoint{0.7, 0.5, 1.0}};
  spec.sweep.scenarios_per_point = 4;
  spec.sweep.policies = {engine::Policy::Fcfs, engine::Policy::Dm};
  return spec;
}

PolicyOptimum optimum(bool sched, Ticks bq, double bu, Ticks ttr, Ticks dq) {
  PolicyOptimum po;
  po.schedulable = sched;
  po.breakdown_q = bq;
  po.breakdown_u = bu;
  po.max_ttr = ttr;
  po.min_dratio_q = dq;
  return po;
}

TEST(OptAggregate, QuantileIndexIsNearestRank) {
  EXPECT_EQ(quantile_index(1, 50), 0u);
  EXPECT_EQ(quantile_index(1, 90), 0u);
  EXPECT_EQ(quantile_index(2, 50), 0u);   // ceil(0.5·2) = 1 → index 0
  EXPECT_EQ(quantile_index(2, 90), 1u);   // ceil(0.9·2) = 2 → index 1
  EXPECT_EQ(quantile_index(4, 50), 1u);
  EXPECT_EQ(quantile_index(10, 50), 4u);
  EXPECT_EQ(quantile_index(10, 90), 8u);
  EXPECT_EQ(quantile_index(10, 100), 9u);
  EXPECT_EQ(quantile_index(0, 50), 0u);  // degenerate, never dereferenced
}

TEST(OptAggregate, FoldsOutcomesIntoPerPointDistributions) {
  const OptimizeSpec spec = two_point_spec();
  OptimizeResult result;
  // Point 0: FCFS feasible on 3 of 4 scenarios, DM on none.
  for (std::size_t i = 0; i < 4; ++i) {
    OptimizeOutcome o;
    o.id = i;
    o.point = 0;
    const bool feasible = i < 3;
    o.cells.push_back(optimum(feasible, feasible ? Ticks(1'000 + 100 * i) : 0,
                                   feasible ? 0.5 + 0.1 * static_cast<double>(i) : 0.0,
                                   feasible ? Ticks(10'000 + 1'000 * i) : 0,
                                   feasible ? Ticks(512 + 64 * i) : 0));
    o.cells.push_back(optimum(false, 0, 0.0, 0, 0));
    result.outcomes.push_back(o);
  }
  const OptimizeTable table = aggregate_optimize(spec, result);

  ASSERT_EQ(table.policies.size(), 2u);
  EXPECT_EQ(table.policies[0], "FCFS");
  ASSERT_EQ(table.points.size(), 2u);
  const OptimumStats& fcfs = table.points[0].stats[0];
  EXPECT_EQ(table.points[0].scenarios, 4u);
  EXPECT_EQ(fcfs.schedulable, 3u);
  EXPECT_EQ(fcfs.breakdown_feasible, 3u);
  EXPECT_DOUBLE_EQ(fcfs.breakdown_u_min, 0.5);
  EXPECT_DOUBLE_EQ(fcfs.breakdown_u_p50, 0.6);  // nearest rank of {0.5, 0.6, 0.7}
  EXPECT_DOUBLE_EQ(fcfs.breakdown_u_p90, 0.7);
  EXPECT_DOUBLE_EQ(fcfs.breakdown_u_max, 0.7);
  EXPECT_EQ(fcfs.ttr_feasible, 3u);
  EXPECT_EQ(fcfs.max_ttr_p50, 11'000);
  EXPECT_EQ(fcfs.max_ttr_max, 12'000);
  EXPECT_EQ(fcfs.dratio_feasible, 3u);
  EXPECT_DOUBLE_EQ(fcfs.min_dratio_min, 512.0 / 1024.0);
  EXPECT_DOUBLE_EQ(fcfs.min_dratio_p50, 576.0 / 1024.0);

  // The all-infeasible DM cell zero-fills its quantiles.
  const OptimumStats& dm = table.points[0].stats[1];
  EXPECT_EQ(dm.schedulable, 0u);
  EXPECT_EQ(dm.breakdown_feasible, 0u);
  EXPECT_DOUBLE_EQ(dm.breakdown_u_p50, 0.0);
  EXPECT_EQ(dm.max_ttr_max, 0);

  // Point 1 received no outcomes (a shard-slice fold): zero scenarios.
  EXPECT_EQ(table.points[1].scenarios, 0u);
}

TEST(OptAggregate, CsvHeaderIsTheClassicLayout) {
  const std::string csv = aggregate_optimize(two_point_spec(), OptimizeResult{}).to_csv();
  // Classic (no masters axis) layout: 17 columns.
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "u,beta_lo,beta_hi,scenarios,policy,schedulable,breakdown_feasible,"
            "breakdown_u_min,breakdown_u_p50,breakdown_u_p90,breakdown_u_max,ttr_feasible,"
            "max_ttr_p50,max_ttr_max,dratio_feasible,min_dratio_p50,min_dratio_min");
}

TEST(OptAggregate, CsvAndJsonCarryTheSameValues) {
  const OptimizeSpec spec = two_point_spec();
  OptimizeResult result;
  OptimizeOutcome o;
  o.point = 1;
  o.cells.push_back(optimum(true, 2'048, 0.625, 40'000, 256));
  o.cells.push_back(optimum(true, 1'024, 0.5, 20'000, 1'024));
  result.outcomes.push_back(o);
  const OptimizeTable table = aggregate_optimize(spec, result);
  const std::string csv = table.to_csv();
  EXPECT_EQ(csv.substr(csv.find('\n') + 1),
            "0.300000,0.500000,1.000000,0,FCFS,0,0,0.000000,0.000000,0.000000,0.000000,0,0,0,0,"
            "0.000000,0.000000\n"
            "0.300000,0.500000,1.000000,0,DM,0,0,0.000000,0.000000,0.000000,0.000000,0,0,0,0,"
            "0.000000,0.000000\n"
            "0.700000,0.500000,1.000000,1,FCFS,1,1,0.625000,0.625000,0.625000,0.625000,1,40000,"
            "40000,1,0.250000,0.250000\n"
            "0.700000,0.500000,1.000000,1,DM,1,1,0.500000,0.500000,0.500000,0.500000,1,20000,"
            "20000,1,1.000000,1.000000\n");
  const std::string zeros =
      "{\"schedulable\": 0, \"breakdown_feasible\": 0, \"breakdown_u\": [0.000000, 0.000000, "
      "0.000000, 0.000000], \"ttr_feasible\": 0, \"max_ttr\": [0, 0], \"dratio_feasible\": 0, "
      "\"min_dratio\": [0.000000, 0.000000]}";
  std::string want = "{\n  \"policies\": [\"FCFS\", \"DM\"],\n  \"points\": [\n";
  want += "    {\"u\": 0.300000, \"beta_lo\": 0.500000, \"beta_hi\": 1.000000, \"scenarios\": 0, ";
  want += "\"optima\": {\"FCFS\": " + zeros + ", \"DM\": " + zeros + "}},\n";
  want +=
      "    {\"u\": 0.700000, \"beta_lo\": 0.500000, \"beta_hi\": 1.000000, \"scenarios\": 1, "
      "\"optima\": {\"FCFS\": {\"schedulable\": 1, \"breakdown_feasible\": 1, "
      "\"breakdown_u\": [0.625000, 0.625000, 0.625000, 0.625000], \"ttr_feasible\": 1, "
      "\"max_ttr\": [40000, 40000], \"dratio_feasible\": 1, "
      "\"min_dratio\": [0.250000, 0.250000]}, \"DM\": {\"schedulable\": 1, "
      "\"breakdown_feasible\": 1, \"breakdown_u\": [0.500000, 0.500000, 0.500000, 0.500000], "
      "\"ttr_feasible\": 1, \"max_ttr\": [20000, 20000], \"dratio_feasible\": 1, "
      "\"min_dratio\": [1.000000, 1.000000]}}}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(table.to_json(), want);
}

TEST(OptAggregate, MastersAxisGatesTheExtraColumn) {
  OptimizeSpec spec = two_point_spec();
  spec.sweep.points[0].n_masters = 1;
  spec.sweep.points[1].n_masters = 8;
  OptimizeResult result;
  OptimizeOutcome o;
  o.point = 0;
  o.cells.push_back(optimum(true, 1'100, 0.4, 9'000, 700));
  o.cells.push_back(optimum(false, 0, 0.0, 0, 0));
  result.outcomes.push_back(o);
  const OptimizeTable table = aggregate_optimize(spec, result);

  const std::string csv = table.to_csv();
  EXPECT_EQ(csv.rfind("u,beta_lo,beta_hi,masters,scenarios,policy,", 0), 0u);
  EXPECT_NE(csv.find("\n0.300000,0.500000,1.000000,1,1,FCFS,1,"), std::string::npos);
  EXPECT_NE(csv.find("\n0.700000,0.500000,1.000000,8,0,DM,0,"), std::string::npos);

  const std::string json = table.to_json();
  EXPECT_NE(json.find("\"beta_hi\": 1.000000, \"masters\": 1, \"scenarios\": 1,"),
            std::string::npos);
  EXPECT_NE(json.find("\"beta_hi\": 1.000000, \"masters\": 8, \"scenarios\": 0,"),
            std::string::npos);

  // Without the axis neither format mentions masters.
  const OptimizeTable classic = aggregate_optimize(two_point_spec(), result);
  EXPECT_EQ(classic.to_csv().find("masters"), std::string::npos);
  EXPECT_EQ(classic.to_json().find("masters"), std::string::npos);
}

TEST(OptAggregate, EmptyTablesSerialize) {
  const OptimizeTable empty;
  EXPECT_EQ(empty.to_json(), "{\n  \"policies\": [],\n  \"points\": [\n  ]\n}\n");
  const std::string csv = empty.to_csv();
  EXPECT_EQ(csv.find('\n'), csv.size() - 1);  // the header alone
}

}  // namespace
}  // namespace profisched::opt
