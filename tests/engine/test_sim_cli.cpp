// Argument validation of the `profisched simulate` job — exactly what the CLI
// feeds to dist::parse_job_args on the Simulate surface, exercised as a
// library call.
#include <gtest/gtest.h>

#include "dist/job.hpp"

namespace profisched::engine {
namespace {

/// The parsed flags in the shape the assertions below read.
struct SimSweepCli {
  SimSweepSpec spec;
  unsigned threads = 0;
  bool combined = false;
  std::string csv_path;
  std::string json_path;
  std::string cache_dir;
};

bool parse(const std::vector<std::string>& args, SimSweepCli& cli, std::string& error,
           dist::Surface surface = dist::Surface::Simulate) {
  dist::JobArgs a;
  if (!dist::parse_job_args(surface, args, a, error)) return false;
  cli = SimSweepCli{a.job.spec.spec, a.threads, a.job.spec.mode == dist::SweepMode::Combined,
                    a.job.csv_path, a.job.json_path, a.cache_dir};
  return true;
}

SimSweepCli parse_ok(const std::vector<std::string>& args) {
  SimSweepCli cli;
  std::string error;
  EXPECT_TRUE(parse(args, cli, error)) << error;
  EXPECT_TRUE(error.empty());
  return cli;
}

std::string parse_fail(const std::vector<std::string>& args) {
  SimSweepCli cli;
  std::string error;
  EXPECT_FALSE(parse(args, cli, error));
  EXPECT_FALSE(error.empty());
  return error;
}

TEST(SimCli, DefaultsMatchTheSweepSubcommand) {
  const SimSweepCli cli = parse_ok({});
  EXPECT_EQ(cli.spec.sweep.base.n_masters, 1u);
  EXPECT_EQ(cli.spec.sweep.base.streams_per_master, 5u);
  EXPECT_EQ(cli.spec.sweep.base.ttr, 3'000);
  EXPECT_EQ(cli.spec.sweep.scenarios_per_point, 100u);
  EXPECT_EQ(cli.spec.sweep.points.size(), 9u);  // 0.1:0.9:9 default grid
  EXPECT_EQ(cli.spec.sweep.policies.size(), 3u);
  EXPECT_EQ(cli.spec.replications, 1u);
  EXPECT_EQ(cli.threads, 0u);
  EXPECT_FALSE(cli.combined);
  EXPECT_FALSE(cli.spec.sim.lp_traffic);
  EXPECT_EQ(cli.spec.sim.cycle_model.kind, sim::CycleModel::Kind::WorstCase);
}

TEST(SimCli, ParsesTheFullFlagSurface) {
  const SimSweepCli cli = parse_ok({"--scenarios", "25", "--reps", "3", "--masters", "2",
                                    "--streams", "4", "--u", "0.2:0.8:4", "--beta-lo", "0.4",
                                    "--beta-hi", "0.9", "--policies", "dm,edf", "--threads",
                                    "8", "--seed", "77", "--ttr", "5000", "--horizon",
                                    "100000", "--model", "uniform", "--lp", "--combined",
                                    "--csv", "out.csv", "--json", "out.json"});
  EXPECT_EQ(cli.spec.sweep.scenarios_per_point, 25u);
  EXPECT_EQ(cli.spec.replications, 3u);
  EXPECT_EQ(cli.spec.sweep.base.n_masters, 2u);
  EXPECT_EQ(cli.spec.sweep.base.streams_per_master, 4u);
  ASSERT_EQ(cli.spec.sweep.points.size(), 4u);
  EXPECT_DOUBLE_EQ(cli.spec.sweep.points.front().total_u, 0.2);
  EXPECT_DOUBLE_EQ(cli.spec.sweep.points.back().total_u, 0.8);
  EXPECT_DOUBLE_EQ(cli.spec.sweep.points[0].beta_lo, 0.4);
  EXPECT_DOUBLE_EQ(cli.spec.sweep.points[0].beta_hi, 0.9);
  ASSERT_EQ(cli.spec.sweep.policies.size(), 2u);
  EXPECT_EQ(cli.spec.sweep.policies[0], Policy::Dm);
  EXPECT_EQ(cli.spec.sweep.policies[1], Policy::Edf);
  EXPECT_EQ(cli.threads, 8u);
  EXPECT_EQ(cli.spec.sweep.seed, 77u);
  EXPECT_EQ(cli.spec.sweep.base.ttr, 5'000);
  EXPECT_EQ(cli.spec.sim.horizon, 100'000);
  EXPECT_EQ(cli.spec.sim.cycle_model.kind, sim::CycleModel::Kind::UniformFraction);
  EXPECT_TRUE(cli.spec.sim.lp_traffic);
  EXPECT_TRUE(cli.combined);
  EXPECT_EQ(cli.csv_path, "out.csv");
  EXPECT_EQ(cli.json_path, "out.json");
}

TEST(SimCli, SingleStepGridUsesLo) {
  const SimSweepCli cli = parse_ok({"--u", "0.5:0.9:1"});
  ASSERT_EQ(cli.spec.sweep.points.size(), 1u);
  EXPECT_DOUBLE_EQ(cli.spec.sweep.points[0].total_u, 0.5);
}

TEST(SimCli, RejectsMalformedNumbers) {
  (void)parse_fail({"--scenarios", "0"});
  (void)parse_fail({"--scenarios", "-5"});
  (void)parse_fail({"--scenarios", "12abc"});
  (void)parse_fail({"--scenarios"});  // missing value
  (void)parse_fail({"--reps", "0"});
  (void)parse_fail({"--masters", "99999999"});  // above the 4096 cap
  (void)parse_fail({"--threads", "4096"});      // above the 1024 cap
  (void)parse_fail({"--horizon", "0"});
  (void)parse_fail({"--cycles", "0"});
  (void)parse_fail({"--cycles", "-1"});
}

TEST(SimCli, RejectsBadGridsAndPolicies) {
  (void)parse_fail({"--u", "0.9:0.1:5"});    // HI < LO
  (void)parse_fail({"--u", "0:0.9:5"});      // LO must be > 0 (UUniFast mode)
  (void)parse_fail({"--u", "0.1:0.9"});      // missing STEPS
  (void)parse_fail({"--u", "0.1:0.9:0"});
  (void)parse_fail({"--policies", "fcfs,opa"});   // analysis-only policy
  (void)parse_fail({"--policies", "fcfs,fcfs"});  // duplicate column
  (void)parse_fail({"--policies", "banana"});
  (void)parse_fail({"--model", "exact"});
  (void)parse_fail({"--frobnicate"});  // unknown flag
}

TEST(SimCli, RejectsOversizedSweeps) {
  const std::string err =
      parse_fail({"--scenarios", "100000000", "--u", "0.1:0.9:1000"});
  EXPECT_NE(err.find("too large"), std::string::npos);
}

TEST(SimCli, ErrorsNameTheOffendingFlag) {
  EXPECT_NE(parse_fail({"--reps", "x"}).find("--reps"), std::string::npos);
  EXPECT_NE(parse_fail({"--u", "bad"}).find("--u"), std::string::npos);
  EXPECT_NE(parse_fail({"--unknown-flag"}).find("--unknown-flag"), std::string::npos);
}

TEST(SimCli, QuantileSelectsTheReportedPercentile) {
  EXPECT_DOUBLE_EQ(parse_ok({}).spec.sim.quantile, 0.99);  // default keeps p99
  EXPECT_DOUBLE_EQ(parse_ok({"--quantile", "0.5"}).spec.sim.quantile, 0.5);
  EXPECT_DOUBLE_EQ(parse_ok({"--quantile", "1"}).spec.sim.quantile, 1.0);
  (void)parse_fail({"--quantile", "0"});    // degenerate percentile
  (void)parse_fail({"--quantile", "1.5"});  // above 1
  (void)parse_fail({"--quantile", "-0.9"});
  (void)parse_fail({"--quantile", "x"});
  (void)parse_fail({"--quantile", "nan"});  // strtod accepts it; the range check must not
  (void)parse_fail({"--beta-lo", "nan"});
  (void)parse_fail({"--quantile"});
}

TEST(SimCli, CacheFlagCarriesTheDirectory) {
  EXPECT_TRUE(parse_ok({}).cache_dir.empty());
  EXPECT_EQ(parse_ok({"--cache", "results/.cache"}).cache_dir, "results/.cache");
  (void)parse_fail({"--cache"});
}

TEST(SimCli, OutputDestinationsAreValidatedUpFront) {
  // A doomed destination must fail at parse time (before the sweep runs),
  // with the offending flag named in the diagnostic.
  EXPECT_NE(parse_fail({"--csv", "/nonexistent_profisched/out.csv"}).find("--csv"),
            std::string::npos);
  EXPECT_NE(parse_fail({"--json", "/nonexistent_profisched/out.json"}).find("--json"),
            std::string::npos);
  EXPECT_NE(parse_fail({"--metrics", "/nonexistent_profisched/m.json"}).find("--metrics"),
            std::string::npos);
  EXPECT_NE(parse_fail({"--cache", "/dev/null/cache"}).find("--cache"), std::string::npos);
  EXPECT_NE(parse_fail({"--csv", "/tmp"}).find("is a directory"), std::string::npos);
}

TEST(SimCli, FaultsFlagFillsEveryKnob) {
  const SimSweepCli cli = parse_ok(
      {"--faults",
       "loss=0.02,recovery=800,corrupt=0.05,retrans=2,churn=0.01,offline=5000,burst=0.7"});
  const profibus::FaultModel& f = cli.spec.sim.faults;
  EXPECT_DOUBLE_EQ(f.token_loss_prob, 0.02);
  EXPECT_EQ(f.token_recovery, 800);
  EXPECT_DOUBLE_EQ(f.corruption_prob, 0.05);
  EXPECT_EQ(f.max_retransmissions, 2u);
  EXPECT_DOUBLE_EQ(f.churn_prob, 0.01);
  EXPECT_EQ(f.churn_offline, 5'000);
  EXPECT_DOUBLE_EQ(f.burst_correlation, 0.7);
  EXPECT_TRUE(f.any());
  // Subsets leave the other knobs at their zero defaults.
  const SimSweepCli loss_only = parse_ok({"--faults", "loss=0.1"});
  EXPECT_DOUBLE_EQ(loss_only.spec.sim.faults.token_loss_prob, 0.1);
  EXPECT_DOUBLE_EQ(loss_only.spec.sim.faults.corruption_prob, 0.0);
  // All-zero knobs parse fine and leave the spec fault-free — the
  // byte-identity escape hatch.
  EXPECT_FALSE(parse_ok({"--faults", "loss=0,corrupt=0"}).spec.sim.faults.any());
  // Default: no faults at all.
  EXPECT_FALSE(parse_ok({}).spec.sim.faults.any());
}

TEST(SimCli, FaultsFlagRejectsBadInput) {
  (void)parse_fail({"--faults"});                       // missing value
  (void)parse_fail({"--faults", ""});                   // empty value
  (void)parse_fail({"--faults", "loss"});               // no '='
  (void)parse_fail({"--faults", "banana=1"});           // unknown key
  (void)parse_fail({"--faults", "loss=abc"});           // not a number
  (void)parse_fail({"--faults", "loss=-0.1"});          // negative probability
  (void)parse_fail({"--faults", "loss=1.5"});           // validate(): prob > 1
  (void)parse_fail({"--faults", "loss=nan"});
  (void)parse_fail({"--faults", "recovery=-5"});
  (void)parse_fail({"--faults", "retrans=5000"});       // above the cap
  (void)parse_fail({"--faults", "loss=0.1,"});          // trailing empty entry
  (void)parse_fail({"--faults", "loss=0.1,loss"});      // malformed second entry
  // validate() failures and parse failures both name the flag.
  EXPECT_NE(parse_fail({"--faults", "burst=2"}).find("--faults"), std::string::npos);
  EXPECT_NE(parse_fail({"--faults", "frob=1"}).find("--faults"), std::string::npos);
}

TEST(SimCli, SweepModeAdmitsTheAnalysisPolicyTable) {
  SimSweepCli cli;
  std::string error;
  ASSERT_TRUE(parse({"--policies", "fcfs,opa,token,holistic"}, cli, error, dist::Surface::Sweep))
      << error;
  ASSERT_EQ(cli.spec.sweep.policies.size(), 4u);
  EXPECT_EQ(cli.spec.sweep.policies[1], Policy::Opa);
  EXPECT_EQ(cli.spec.sweep.policies[2], Policy::TokenRing);
  // Duplicates stay rejected whichever mode is active.
  EXPECT_FALSE(parse({"--policies", "opa,opa"}, cli, error, dist::Surface::Sweep));
  // The simulator runs the AP-queue policies only, and the error says which.
  EXPECT_NE(parse_fail({"--policies", "fcfs,opa"}).find("OPA"), std::string::npos);
}

}  // namespace
}  // namespace profisched::engine
