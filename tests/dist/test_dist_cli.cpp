// Argument validation of `profisched shard` and `profisched merge` — exactly
// what the CLI feeds to parse_job_args on the Shard and Merge surfaces,
// exercised as library calls (the dist mirror of tests/engine/test_sim_cli.cpp).
#include <gtest/gtest.h>

#include "dist/job.hpp"

namespace profisched::dist {
namespace {

/// The parsed flags in the shape the assertions below read.
struct ShardCli {
  ShardSpec shard;
  std::uint64_t index = 0;
  std::uint64_t count = 1;
  std::string out_path;
  std::string cache_dir;
  unsigned threads = 0;
};

bool parse_shard_args(const std::vector<std::string>& args, ShardCli& cli, std::string& error) {
  JobArgs a;
  if (!parse_job_args(Surface::Shard, args, a, error)) return false;
  cli = ShardCli{a.job.spec, a.shard_index, a.shard_count, a.out_path, a.cache_dir, a.threads};
  return true;
}

struct MergeCli {
  std::vector<std::string> inputs;
  std::string csv_path;
  std::string json_path;
};

bool parse_merge_args(const std::vector<std::string>& args, MergeCli& cli, std::string& error) {
  JobArgs a;
  if (!parse_job_args(Surface::Merge, args, a, error)) return false;
  cli = MergeCli{a.inputs, a.job.csv_path, a.job.json_path};
  return true;
}

ShardCli shard_ok(const std::vector<std::string>& args) {
  ShardCli cli;
  std::string error;
  EXPECT_TRUE(parse_shard_args(args, cli, error)) << error;
  EXPECT_TRUE(error.empty());
  return cli;
}

std::string shard_fail(const std::vector<std::string>& args) {
  ShardCli cli;
  std::string error;
  EXPECT_FALSE(parse_shard_args(args, cli, error));
  EXPECT_FALSE(error.empty());
  return error;
}

TEST(ShardCliParse, MinimalInvocationMatchesSweepDefaults) {
  const ShardCli cli = shard_ok({"--shard", "2/4", "--out", "shard.2"});
  EXPECT_EQ(cli.shard.mode, SweepMode::Analysis);
  EXPECT_EQ(cli.index, 1u);  // CLI k is 1-based, the plan is 0-based
  EXPECT_EQ(cli.count, 4u);
  EXPECT_EQ(cli.out_path, "shard.2");
  // The sweep spec must default exactly like `profisched sweep`/`simulate`,
  // or merged output could never be byte-identical to the single-process run.
  EXPECT_EQ(cli.shard.spec.sweep.base.n_masters, 1u);
  EXPECT_EQ(cli.shard.spec.sweep.base.streams_per_master, 5u);
  EXPECT_EQ(cli.shard.spec.sweep.base.ttr, 3'000);
  EXPECT_EQ(cli.shard.spec.sweep.scenarios_per_point, 100u);
  EXPECT_EQ(cli.shard.spec.sweep.points.size(), 9u);
  EXPECT_EQ(cli.shard.spec.sweep.policies.size(), 3u);
  EXPECT_EQ(cli.shard.spec.replications, 1u);
  EXPECT_TRUE(cli.cache_dir.empty());
}

TEST(ShardCliParse, ModeAndSweepFlagsFlowThrough) {
  const ShardCli cli =
      shard_ok({"--mode", "combined", "--shard", "1/2", "--out", "s", "--scenarios", "17",
                "--u", "0.2:0.8:4", "--reps", "3", "--threads", "5", "--cache", "cdir"});
  EXPECT_EQ(cli.shard.mode, SweepMode::Combined);
  EXPECT_EQ(cli.shard.spec.sweep.scenarios_per_point, 17u);
  EXPECT_EQ(cli.shard.spec.sweep.points.size(), 4u);
  EXPECT_EQ(cli.shard.spec.replications, 3u);
  EXPECT_EQ(cli.threads, 5u);
  EXPECT_EQ(cli.cache_dir, "cdir");
  EXPECT_EQ(cli.shard.total_scenarios(), 68u);
}

TEST(ShardCliParse, SweepModeAdmitsAnalysisOnlyPolicies) {
  // --mode after --policies must still relax the policy table (the shard
  // flags are peeled in a first pass, so order cannot matter).
  const ShardCli cli = shard_ok(
      {"--policies", "fcfs,opa,holistic", "--mode", "sweep", "--shard", "1/1", "--out", "s"});
  EXPECT_EQ(cli.shard.spec.sweep.policies.size(), 3u);
  EXPECT_EQ(cli.shard.spec.sweep.policies[1], engine::Policy::Opa);
}

TEST(ShardCliParse, MethodSelectsTcycleComputation) {
  const ShardCli cli = shard_ok({"--shard", "1/1", "--out", "s", "--method", "refined"});
  EXPECT_EQ(cli.shard.spec.sweep.engine.method, profibus::TcycleMethod::PerMasterRefined);
}

TEST(ShardCliParse, RejectsBadInvocations) {
  (void)shard_fail({"--out", "s"});                                   // missing --shard
  (void)shard_fail({"--shard", "1/2"});                               // missing --out
  (void)shard_fail({"--shard", "0/2", "--out", "s"});                 // k is 1-based
  (void)shard_fail({"--shard", "3/2", "--out", "s"});                 // k > K
  (void)shard_fail({"--shard", "12", "--out", "s"});                  // not k/K
  (void)shard_fail({"--shard", "1/2", "--out", "s", "--mode", "x"});  // bad mode
  (void)shard_fail({"--shard", "1/1", "--out", "s", "--nope"});       // unknown flag
  (void)shard_fail({"--shard", "1/1", "--out", "s", "--csv", "f"});   // artifacts only
  (void)shard_fail({"--shard", "1/1", "--out", "s", "--combined"});   // spelled --mode combined
  // Simulable-only policy table outside sweep mode.
  (void)shard_fail({"--mode", "simulate", "--policies", "opa", "--shard", "1/1", "--out", "s"});
}

TEST(ShardCliParse, OutputDestinationsAreValidatedUpFront) {
  EXPECT_NE(shard_fail({"--shard", "1/1", "--out", "/nonexistent_profisched/s.1"}).find("--out"),
            std::string::npos);
  EXPECT_NE(shard_fail({"--shard", "1/1", "--out", "s", "--cache", "/dev/null/c"}).find("--cache"),
            std::string::npos);
  EXPECT_NE(shard_fail({"--shard", "1/1", "--out", "s", "--metrics",
                        "/nonexistent_profisched/m.json"})
                .find("--metrics"),
            std::string::npos);
}

MergeCli merge_ok(const std::vector<std::string>& args) {
  MergeCli cli;
  std::string error;
  EXPECT_TRUE(parse_merge_args(args, cli, error)) << error;
  return cli;
}

TEST(MergeCliParse, CollectsInputsAndOutputs) {
  const MergeCli cli =
      merge_ok({"--csv", "out.csv", "shard.1", "--json", "out.json", "shard.2", "shard.3"});
  EXPECT_EQ(cli.csv_path, "out.csv");
  EXPECT_EQ(cli.json_path, "out.json");
  ASSERT_EQ(cli.inputs.size(), 3u);
  EXPECT_EQ(cli.inputs[0], "shard.1");
  EXPECT_EQ(cli.inputs[2], "shard.3");
}

TEST(MergeCliParse, RejectsBadInvocations) {
  MergeCli cli;
  std::string error;
  EXPECT_FALSE(parse_merge_args({}, cli, error));                    // no inputs
  EXPECT_FALSE(parse_merge_args({"--csv", "x"}, cli, error));        // still no inputs
  EXPECT_FALSE(parse_merge_args({"--csv"}, cli, error));             // dangling value
  EXPECT_FALSE(parse_merge_args({"--wat", "s.1"}, cli, error));      // unknown flag
  // Output destinations fail up front, before any shard artifact is read.
  EXPECT_FALSE(parse_merge_args({"--csv", "/nonexistent_profisched/o.csv", "s.1"}, cli, error));
  EXPECT_NE(error.find("--csv"), std::string::npos) << error;
  EXPECT_FALSE(parse_merge_args({"--json", "/nonexistent_profisched/o.json", "s.1"}, cli, error));
  EXPECT_NE(error.find("--json"), std::string::npos) << error;
}

}  // namespace
}  // namespace profisched::dist
