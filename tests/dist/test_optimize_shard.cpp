// Optimize mode through the distributed subsystem (PR 6): K ∈ {1, 3} shard
// runs — each artifact round-tripped through its text form — must merge into
// tables byte-identical to the single-process run; artifacts must carry the
// search brackets in their spec block (so mixed-bracket shard sets are
// rejected); and the artifact text must round-trip every optimize field.
#include <gtest/gtest.h>

#include "dist/shard.hpp"
#include "opt/opt_aggregate.hpp"

namespace profisched::dist {
namespace {

ShardSpec optimize_spec() {
  ShardSpec sh;
  sh.mode = SweepMode::Optimize;
  sh.spec.sweep.base.n_masters = 2;
  sh.spec.sweep.base.streams_per_master = 3;
  sh.spec.sweep.base.ttr = 3'000;
  sh.spec.sweep.points = {engine::SweepPoint{0.3, 0.5, 1.0}, engine::SweepPoint{0.7, 0.5, 1.0}};
  sh.spec.sweep.scenarios_per_point = 6;
  sh.spec.sweep.policies = {engine::Policy::Fcfs, engine::Policy::Dm, engine::Policy::Edf};
  sh.spec.sweep.seed = 99;
  return sh;
}

opt::OptimizeSpec as_opt_spec(const ShardSpec& sh) {
  return opt::OptimizeSpec{sh.spec.sweep, sh.optimize};
}

MergedSweep run_sharded(const ShardSpec& spec, std::uint64_t count) {
  ShardRunner runner(2);
  std::vector<ShardArtifact> artifacts;
  for (std::uint64_t k = 0; k < count; ++k) {
    const ShardArtifact art = runner.run(spec, k, count);
    artifacts.push_back(ShardArtifact::from_text(art.to_text()));  // wire round trip
  }
  return merge_shards(artifacts);
}

TEST(OptimizeShard, MergesByteIdenticalForOneAndThreeShards) {
  const ShardSpec spec = optimize_spec();
  engine::SweepRunner single(2);
  const opt::OptimizeTable reference =
      opt::aggregate_optimize(as_opt_spec(spec), opt::run_optimize(single, as_opt_spec(spec)));
  for (const std::uint64_t k : {1ULL, 3ULL}) {
    const MergedSweep merged = run_sharded(spec, k);
    const opt::OptimizeTable table =
        opt::aggregate_optimize(as_opt_spec(merged.spec), merged.optimize);
    EXPECT_EQ(table.to_csv(), reference.to_csv()) << k << " shards";
    EXPECT_EQ(table.to_json(), reference.to_json()) << k << " shards";
  }
}

TEST(OptimizeShard, ArtifactTextRoundTripsEveryField) {
  const ShardSpec spec = optimize_spec();
  ShardRunner runner(1);
  const ShardArtifact art = runner.run(spec, 1, 3);
  ASSERT_FALSE(art.optimize.empty());
  const ShardArtifact back = ShardArtifact::from_text(art.to_text());
  EXPECT_EQ(back.spec.mode, SweepMode::Optimize);
  EXPECT_EQ(back.spec.optimize.scale_lo_q, spec.optimize.scale_lo_q);
  EXPECT_EQ(back.spec.optimize.scale_hi_q, spec.optimize.scale_hi_q);
  EXPECT_EQ(back.spec.optimize.ttr_cap, spec.optimize.ttr_cap);
  ASSERT_EQ(back.optimize.size(), art.optimize.size());
  for (std::size_t i = 0; i < art.optimize.size(); ++i) {
    for (std::size_t p = 0; p < art.optimize[i].cells.size(); ++p) {
      const opt::PolicyOptimum& a = art.optimize[i].cells[p];
      const opt::PolicyOptimum& b = back.optimize[i].cells[p];
      EXPECT_EQ(a.schedulable, b.schedulable);
      EXPECT_EQ(a.breakdown_q, b.breakdown_q);
      EXPECT_EQ(a.breakdown_u, b.breakdown_u);  // shortest-round-trip doubles
      EXPECT_EQ(a.max_ttr, b.max_ttr);
      EXPECT_EQ(a.min_dratio_q, b.min_dratio_q);
    }
  }
  EXPECT_EQ(back.to_text(), art.to_text());
}

TEST(OptimizeShard, RejectsMixedSearchBrackets) {
  const ShardSpec spec = optimize_spec();
  ShardRunner runner(1);
  ShardSpec widened = spec;
  widened.optimize.ttr_cap *= 2;
  std::vector<ShardArtifact> arts = {runner.run(spec, 0, 2), runner.run(widened, 1, 2)};
  EXPECT_THROW((void)merge_shards(arts), std::invalid_argument);
}

TEST(OptimizeShard, NonOptimizeSpecBlocksStayBracketFree) {
  // The optimize options line must not leak into the other modes' spec
  // blocks — their artifact format is frozen.
  ShardSpec analysis = optimize_spec();
  analysis.mode = SweepMode::Analysis;
  EXPECT_EQ(serialize_spec(analysis).find("optimize"), std::string::npos);
  EXPECT_NE(serialize_spec(optimize_spec()).find("\noptimize "), std::string::npos);
}

}  // namespace
}  // namespace profisched::dist
