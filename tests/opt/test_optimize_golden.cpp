// Golden lock: the optimize tables for two small fixed specs are frozen
// byte-for-byte on disk. Any change to the bisection order, quantile math,
// serialization, scenario generation or a probe's verdict shows up as a diff
// here (regenerate deliberately with PROFISCHED_REGEN_GOLDEN=1).
//  * optimize_pr6: 2 masters x 3 streams under FCFS, DM and EDF;
//  * optimize_lanes: 2 masters x 8 streams under all four policies, OPA
//    included, on masters large enough for the lane kernels;
//  * optimize_refined: 3 masters x 5 streams under all four policies with
//    the PerMasterRefined T_cycle method, which gives each master its own
//    T_cycle on every probe.
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/job.hpp"
#include "opt/opt_aggregate.hpp"
#include "opt/optimizer.hpp"

namespace profisched::opt {
namespace {

constexpr const char* kCsvGolden = "tests/golden/optimize_pr6.csv";
constexpr const char* kJsonGolden = "tests/golden/optimize_pr6.json";
constexpr const char* kLanesCsvGolden = "tests/golden/optimize_lanes.csv";
constexpr const char* kLanesJsonGolden = "tests/golden/optimize_lanes.json";
constexpr const char* kRefinedCsvGolden = "tests/golden/optimize_refined.csv";
constexpr const char* kRefinedJsonGolden = "tests/golden/optimize_refined.json";

OptimizeSpec golden_spec() {
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

/// The spec of `optimize FLAGS`, through the job flags.
OptimizeSpec spec_of(const std::vector<std::string>& flags) {
  dist::JobArgs a;
  std::string error;
  EXPECT_TRUE(dist::parse_job_args(dist::Surface::Optimize, flags, a, error)) << error;
  return OptimizeSpec{a.job.spec.spec.sweep, a.job.spec.optimize};
}

OptimizeSpec lanes_spec() {
  return spec_of({"--masters", "2", "--streams", "8", "--scenarios", "8", "--u", "0.5:0.95:4",
                  "--policies", "fcfs,dm,edf,opa", "--seed", "19"});
}

OptimizeSpec refined_spec() {
  return spec_of({"--masters", "3", "--streams", "5", "--scenarios", "8", "--u", "0.35:0.95:3",
                  "--policies", "fcfs,dm,edf,opa", "--seed", "41", "--method", "refined"});
}

void check_golden(const char* path, const std::string& got) {
  if (std::getenv("PROFISCHED_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing " << path
                         << " (run with PROFISCHED_REGEN_GOLDEN=1 to create)";
  std::ostringstream want;
  want << in.rdbuf();
  // Byte-identical: the optimize output is part of the artifact contract —
  // shard merges and cache hits are compared against these exact bytes.
  ASSERT_EQ(got, want.str());
}

TEST(OptimizeGolden, CsvMatches) {
  const OptimizeSpec spec = golden_spec();
  engine::SweepRunner runner(2);
  check_golden(kCsvGolden, aggregate_optimize(spec, run_optimize(runner, spec)).to_csv());
}

TEST(OptimizeGolden, JsonMatches) {
  const OptimizeSpec spec = golden_spec();
  engine::SweepRunner runner(2);
  check_golden(kJsonGolden, aggregate_optimize(spec, run_optimize(runner, spec)).to_json());
}

TEST(OptimizeGolden, LanesCsvMatches) {
  const OptimizeSpec spec = lanes_spec();
  engine::SweepRunner runner(2);
  check_golden(kLanesCsvGolden, aggregate_optimize(spec, run_optimize(runner, spec)).to_csv());
}

TEST(OptimizeGolden, LanesJsonMatches) {
  const OptimizeSpec spec = lanes_spec();
  engine::SweepRunner runner(2);
  check_golden(kLanesJsonGolden, aggregate_optimize(spec, run_optimize(runner, spec)).to_json());
}

TEST(OptimizeGolden, RefinedCsvMatches) {
  const OptimizeSpec spec = refined_spec();
  engine::SweepRunner runner(2);
  check_golden(kRefinedCsvGolden, aggregate_optimize(spec, run_optimize(runner, spec)).to_csv());
}

TEST(OptimizeGolden, RefinedJsonMatches) {
  const OptimizeSpec spec = refined_spec();
  engine::SweepRunner runner(2);
  check_golden(kRefinedJsonGolden,
               aggregate_optimize(spec, run_optimize(runner, spec)).to_json());
}

}  // namespace
}  // namespace profisched::opt
