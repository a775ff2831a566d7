// The distributed subsystem's headline guarantee: for K ∈ {1, 2, 5}, running
// a sweep as K shards (through the full artifact serialization round trip,
// exactly as separate processes would exchange them) and merging produces
// CSV/JSON output byte-identical to the single-process run — for all three
// modes. Plus the loud-failure side: overlapping, missing, or mixed-spec
// shard sets must be rejected, and artifact parsing must reject corruption.
#include "dist/shard.hpp"

#include <gtest/gtest.h>

#include "engine/aggregate.hpp"
#include "engine/sim_aggregate.hpp"

namespace profisched::dist {
namespace {

ShardSpec small_spec(SweepMode mode) {
  ShardSpec sh;
  sh.mode = mode;
  sh.spec.sweep.base.n_masters = 2;
  sh.spec.sweep.base.streams_per_master = 3;
  sh.spec.sweep.base.ttr = 3'000;
  sh.spec.sweep.points = {engine::SweepPoint{0.3, 0.5, 1.0}, engine::SweepPoint{0.7, 0.5, 1.0}};
  sh.spec.sweep.scenarios_per_point = 6;
  sh.spec.sweep.policies = {engine::Policy::Fcfs, engine::Policy::Dm, engine::Policy::Edf};
  sh.spec.sweep.seed = 99;
  sh.spec.replications = 2;
  return sh;
}

/// Run the spec as `count` shards, round-tripping every artifact through its
/// text form, and return the merged sweep.
MergedSweep run_sharded(const ShardSpec& spec, std::uint64_t count) {
  ShardRunner runner(2);
  std::vector<ShardArtifact> artifacts;
  for (std::uint64_t k = 0; k < count; ++k) {
    const ShardArtifact art = runner.run(spec, k, count);
    artifacts.push_back(ShardArtifact::from_text(art.to_text()));  // wire round trip
  }
  return merge_shards(artifacts);
}

TEST(ShardMerge, AnalysisModeMergesByteIdentical) {
  const ShardSpec spec = small_spec(SweepMode::Analysis);
  engine::SweepRunner single(2);
  const engine::SweepCurves reference =
      engine::aggregate(spec.spec.sweep, single.run(spec.spec.sweep));
  for (const std::uint64_t k : {1ULL, 2ULL, 5ULL}) {
    const MergedSweep merged = run_sharded(spec, k);
    const engine::SweepCurves curves = engine::aggregate(spec.spec.sweep, merged.analysis);
    EXPECT_EQ(curves.to_csv(), reference.to_csv()) << k << " shards";
    EXPECT_EQ(curves.to_json(), reference.to_json()) << k << " shards";
  }
}

TEST(ShardMerge, SimModeMergesByteIdentical) {
  const ShardSpec spec = small_spec(SweepMode::Sim);
  engine::SweepRunner single(2);
  const engine::SimCurves reference = engine::aggregate_sim(spec.spec, single.run_sim(spec.spec));
  for (const std::uint64_t k : {1ULL, 2ULL, 5ULL}) {
    const MergedSweep merged = run_sharded(spec, k);
    const engine::SimCurves curves = engine::aggregate_sim(spec.spec, merged.sim);
    EXPECT_EQ(curves.to_csv(), reference.to_csv()) << k << " shards";
    EXPECT_EQ(curves.to_json(), reference.to_json()) << k << " shards";
  }
}

TEST(ShardMerge, CombinedModeMergesByteIdentical) {
  const ShardSpec spec = small_spec(SweepMode::Combined);
  engine::SweepRunner single(2);
  const engine::ConsistencyTable reference =
      engine::consistency_table(spec.spec, single.run_combined(spec.spec));
  for (const std::uint64_t k : {1ULL, 2ULL, 5ULL}) {
    const MergedSweep merged = run_sharded(spec, k);
    const engine::ConsistencyTable table = engine::consistency_table(spec.spec, merged.combined);
    EXPECT_EQ(table.to_csv(), reference.to_csv()) << k << " shards";
    EXPECT_EQ(table.to_json(), reference.to_json()) << k << " shards";
  }
}

TEST(ShardMerge, ArtifactTextRoundTripsEveryField) {
  const ShardSpec spec = small_spec(SweepMode::Combined);
  ShardRunner runner(1);
  const ShardArtifact art = runner.run(spec, 1, 3);
  const ShardArtifact back = ShardArtifact::from_text(art.to_text());
  EXPECT_EQ(back.shard_index, 1u);
  EXPECT_EQ(back.shard_count, 3u);
  EXPECT_EQ(back.range.begin, art.range.begin);
  EXPECT_EQ(back.range.end, art.range.end);
  EXPECT_EQ(serialize_spec(back.spec), serialize_spec(art.spec));
  EXPECT_EQ(back.to_text(), art.to_text());  // emitting again reproduces the bytes
}

// The fault axis travels the wire: a faulted combined run round-trips its
// degraded verdicts through the artifact text, sharded merges stay
// byte-identical to the single-process run, and the `faults` spec line —
// emitted only when a knob is active — makes merge's spec byte-compare
// refuse mixed faulted/zero-fault shard sets automatically.
TEST(ShardMerge, FaultedCombinedShardsRoundTripAndMerge) {
  ShardSpec spec = small_spec(SweepMode::Combined);
  spec.spec.sim.faults.token_loss_prob = 0.03;
  spec.spec.sim.faults.token_recovery = 900;
  spec.spec.sim.faults.corruption_prob = 0.04;
  spec.spec.sim.faults.max_retransmissions = 2;
  spec.spec.sim.faults.churn_prob = 0.01;
  spec.spec.sim.faults.churn_offline = 6'000;
  spec.spec.sim.faults.burst_correlation = 0.25;

  // Spec serialization carries the knobs exactly; the zero-fault form omits
  // the line entirely (zero-fault byte-identity with pre-fault artifacts).
  const std::string with_faults = serialize_spec(spec);
  EXPECT_NE(with_faults.find("\nfaults 0.03 900 0.04 2 0.01 6000 0.25\n"), std::string::npos);
  ShardSpec clean = spec;
  clean.spec.sim.faults = profibus::FaultModel{};
  EXPECT_EQ(serialize_spec(clean).find("faults"), std::string::npos);
  // Artifact round trip preserves the spec knobs and degraded outcome columns.
  ShardRunner runner(2);
  const ShardArtifact art = runner.run(spec, 0, 2);
  ASSERT_FALSE(art.combined.empty());
  ASSERT_FALSE(art.combined[0].cells.empty());
  ASSERT_GT(art.combined[0].cells[0].degraded_wcrt, 0);  // >= 1 tick or kNoBound
  const ShardArtifact back = ShardArtifact::from_text(art.to_text());
  EXPECT_EQ(serialize_spec(back.spec), with_faults);
  EXPECT_DOUBLE_EQ(back.spec.spec.sim.faults.token_loss_prob, 0.03);
  EXPECT_EQ(back.spec.spec.sim.faults.churn_offline, 6'000);
  ASSERT_EQ(back.combined.size(), art.combined.size());
  for (std::size_t i = 0; i < art.combined.size(); ++i) {
    ASSERT_EQ(back.combined[i].cells.size(), art.combined[i].cells.size());
    for (std::size_t p = 0; p < art.combined[i].cells.size(); ++p) {
      EXPECT_EQ(back.combined[i].cells[p].degraded_schedulable,
                art.combined[i].cells[p].degraded_schedulable);
      EXPECT_EQ(back.combined[i].cells[p].degraded_wcrt, art.combined[i].cells[p].degraded_wcrt);
    }
  }
  EXPECT_EQ(back.to_text(), art.to_text());

  // Sharded faulted run merges byte-identical to single-process.
  engine::SweepRunner single(2);
  const engine::ConsistencyTable reference =
      engine::consistency_table(spec.spec, single.run_combined(spec.spec));
  ASSERT_TRUE(reference.fault_axis);
  const MergedSweep merged = run_sharded(spec, 2);
  const engine::ConsistencyTable table = engine::consistency_table(spec.spec, merged.combined);
  EXPECT_EQ(table.to_csv(), reference.to_csv());
  EXPECT_EQ(table.to_json(), reference.to_json());

  // Mixed faulted/zero-fault shard sets are refused by the spec compare.
  ShardRunner one(1);
  std::vector<ShardArtifact> mixed = {one.run(spec, 0, 2), one.run(clean, 1, 2)};
  EXPECT_THROW((void)merge_shards(mixed), std::invalid_argument);
}

TEST(ShardMerge, RejectsMissingShard) {
  const ShardSpec spec = small_spec(SweepMode::Analysis);
  ShardRunner runner(1);
  std::vector<ShardArtifact> arts;
  arts.push_back(runner.run(spec, 0, 3));
  arts.push_back(runner.run(spec, 2, 3));
  EXPECT_THROW((void)merge_shards(arts), std::invalid_argument);  // 2 of 3
  arts.push_back(runner.run(spec, 1, 3));
  EXPECT_NO_THROW((void)merge_shards(arts));  // all 3 in any order is fine
}

TEST(ShardMerge, RejectsDuplicateShard) {
  const ShardSpec spec = small_spec(SweepMode::Analysis);
  ShardRunner runner(1);
  std::vector<ShardArtifact> arts = {runner.run(spec, 0, 2), runner.run(spec, 0, 2)};
  EXPECT_THROW((void)merge_shards(arts), std::invalid_argument);
}

TEST(ShardMerge, RejectsOverlappingRanges) {
  const ShardSpec spec = small_spec(SweepMode::Analysis);
  ShardRunner runner(1);
  std::vector<ShardArtifact> arts = {runner.run(spec, 0, 2), runner.run(spec, 1, 2)};
  // Widen shard 1's claimed range into shard 0's territory: the tiling check
  // must notice even though both artifacts individually look sane.
  arts[1].range.begin -= 1;
  arts[1].analysis.insert(arts[1].analysis.begin(), arts[0].analysis.back());
  EXPECT_THROW((void)merge_shards(arts), std::invalid_argument);
}

TEST(ShardMerge, RejectsMixedSpecs) {
  const ShardSpec spec = small_spec(SweepMode::Analysis);
  ShardSpec other = spec;
  other.spec.sweep.seed = 100;  // different sweep → different artifact spec block
  ShardRunner runner(1);
  std::vector<ShardArtifact> arts = {runner.run(spec, 0, 2), runner.run(other, 1, 2)};
  EXPECT_THROW((void)merge_shards(arts), std::invalid_argument);
}

TEST(ShardMerge, RejectsMixedModes) {
  ShardRunner runner(1);
  std::vector<ShardArtifact> arts = {runner.run(small_spec(SweepMode::Analysis), 0, 2),
                                     runner.run(small_spec(SweepMode::Sim), 1, 2)};
  EXPECT_THROW((void)merge_shards(arts), std::invalid_argument);
}

TEST(ShardMerge, RejectsEmptyAndCorruptArtifacts) {
  EXPECT_THROW((void)merge_shards({}), std::invalid_argument);
  EXPECT_THROW((void)ShardArtifact::from_text(""), std::invalid_argument);
  EXPECT_THROW((void)ShardArtifact::from_text("not a shard artifact\n"), std::invalid_argument);

  const ShardSpec spec = small_spec(SweepMode::Analysis);
  ShardRunner runner(1);
  const std::string text = runner.run(spec, 0, 1).to_text();
  // Truncation anywhere (drop the trailing "end\n" sentinel and the last row)
  // must be caught rather than merged short.
  EXPECT_THROW((void)ShardArtifact::from_text(text.substr(0, text.size() / 2)),
               std::invalid_argument);
  // A tampered outcome row (id not matching the declared range) is rejected
  // at merge time.
  ShardArtifact art = ShardArtifact::from_text(text);
  art.analysis[0].id += 1;
  EXPECT_THROW((void)merge_shards({art}), std::invalid_argument);
}

}  // namespace
}  // namespace profisched::dist
