// Aggregation-layer tests: curve math and the CSV/JSON text the writers emit.
#include "engine/aggregate.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace profisched::engine {
namespace {

SweepCurves sample_curves() {
  SweepCurves c;
  c.policies = {"FCFS", "DM", "EDF"};
  c.points = {
      CurvePoint{0.3, 0.5, 1.0, 0, 400, {123, 400, 400}},
      CurvePoint{0.6, 0.5, 1.0, 0, 400, {0, 287, 301}},
      CurvePoint{0.9, 0.25, 0.75, 0, 400, {0, 4, 36}},
  };
  return c;
}

TEST(Aggregate, RatioMath) {
  const SweepCurves c = sample_curves();
  EXPECT_DOUBLE_EQ(c.points[0].ratio(0), 123.0 / 400.0);
  EXPECT_DOUBLE_EQ(c.points[0].ratio(1), 1.0);
  EXPECT_DOUBLE_EQ(CurvePoint{}.ratio(0), 0.0);  // no scenarios -> 0, not NaN
}

TEST(Aggregate, CsvHeaderAndShape) {
  const std::string csv = sample_curves().to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "u,beta_lo,beta_hi,scenarios,policy,schedulable,ratio");
  // one header + 3 points x 3 policies rows
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 1 + 9);
}

TEST(Aggregate, CsvAndJsonCarryTheSameCounts) {
  SweepCurves c;
  c.policies = {"FCFS", "DM"};
  c.points = {CurvePoint{0.3, 0.5, 1.0, 0, 400, {123, 400}},
              CurvePoint{0.9, 0.25, 0.75, 0, 40, {0, 36}}};
  EXPECT_EQ(c.to_csv(),
            "u,beta_lo,beta_hi,scenarios,policy,schedulable,ratio\n"
            "0.300000,0.500000,1.000000,400,FCFS,123,0.307500\n"
            "0.300000,0.500000,1.000000,400,DM,400,1.000000\n"
            "0.900000,0.250000,0.750000,40,FCFS,0,0.000000\n"
            "0.900000,0.250000,0.750000,40,DM,36,0.900000\n");
  EXPECT_EQ(c.to_json(),
            "{\n"
            "  \"policies\": [\"FCFS\", \"DM\"],\n"
            "  \"points\": [\n"
            "    {\"u\": 0.300000, \"beta_lo\": 0.500000, \"beta_hi\": 1.000000, "
            "\"scenarios\": 400, \"schedulable\": {\"FCFS\": 123, \"DM\": 400}},\n"
            "    {\"u\": 0.900000, \"beta_lo\": 0.250000, \"beta_hi\": 0.750000, "
            "\"scenarios\": 40, \"schedulable\": {\"FCFS\": 0, \"DM\": 36}}\n"
            "  ]\n"
            "}\n");
}

TEST(Aggregate, DuplicateGridPointsStaySeparateRows) {
  // Two distinct grid points may share (u, beta) values; each keeps its own
  // rows, in grid order.
  SweepCurves c;
  c.policies = {"FCFS", "DM"};
  c.points = {
      CurvePoint{0.5, 0.5, 1.0, 0, 10, {3, 9}},
      CurvePoint{0.5, 0.5, 1.0, 0, 10, {4, 10}},
  };
  EXPECT_EQ(c.to_csv(),
            "u,beta_lo,beta_hi,scenarios,policy,schedulable,ratio\n"
            "0.500000,0.500000,1.000000,10,FCFS,3,0.300000\n"
            "0.500000,0.500000,1.000000,10,DM,9,0.900000\n"
            "0.500000,0.500000,1.000000,10,FCFS,4,0.400000\n"
            "0.500000,0.500000,1.000000,10,DM,10,1.000000\n");
  const std::string json = c.to_json();
  EXPECT_NE(json.find("\"schedulable\": {\"FCFS\": 3, \"DM\": 9}},\n"), std::string::npos);
  EXPECT_NE(json.find("\"schedulable\": {\"FCFS\": 4, \"DM\": 10}}\n"), std::string::npos);
}

TEST(Aggregate, EmptyCurvesSerialize) {
  const SweepCurves empty;
  EXPECT_EQ(empty.to_csv(), "u,beta_lo,beta_hi,scenarios,policy,schedulable,ratio\n");
  EXPECT_EQ(empty.to_json(), "{\n  \"policies\": [],\n  \"points\": [\n  ]\n}\n");
}

TEST(Aggregate, ReducesOutcomesByPoint) {
  SweepSpec spec;
  spec.points = {SweepPoint{0.2, 1.0, 1.0}, SweepPoint{0.8, 1.0, 1.0}};
  spec.scenarios_per_point = 2;
  spec.policies = {Policy::Fcfs, Policy::Dm};

  SweepResult result;
  result.outcomes.resize(4);
  for (std::size_t i = 0; i < 4; ++i) {
    result.outcomes[i].point = i / 2;
    // FCFS only on #0, DM always.
    result.outcomes[i].cells = {AnalysisCell{0, i == 0}, AnalysisCell{0, true}};
  }
  const SweepCurves c = aggregate(spec, result);
  ASSERT_EQ(c.policies, (std::vector<std::string>{"FCFS", "DM"}));
  ASSERT_EQ(c.points.size(), 2u);
  EXPECT_EQ(c.points[0].scenarios, 2u);
  EXPECT_EQ(c.points[0].schedulable, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(c.points[1].schedulable, (std::vector<std::size_t>{0, 2}));
}

}  // namespace
}  // namespace profisched::engine
