// dist/shard.hpp — distributed sweep execution: split one sweep spec into K
// disjoint scenario-id ranges, run each shard through the engine's
// SweepRunner (in this process, another process, or another machine — a shard
// is just a CLI invocation), and merge the per-shard artifacts back into the
// exact result the single-process run would have produced.
//
// The whole subsystem leans on one engine invariant: scenario generation and
// simulation seeding are keyed ONLY by (sweep seed, global scenario id), so a
// shard that runs ids [b, e) computes byte-for-byte the slots [b, e) of the
// full run. Merging is therefore pure bookkeeping — place each shard's
// outcomes at their global ids — plus loud validation: every artifact must
// carry an identical spec block, and the ranges must tile [0, N) with no gap
// or overlap. The merged result feeds the same aggregate()/aggregate_sim()/
// consistency_table()/aggregate_optimize() reducers, which is what makes
// `profisched merge` output byte-identical to `profisched sweep` /
// `simulate` / `optimize` (CI cmp-checks this).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/sweep_runner.hpp"
#include "opt/optimizer.hpp"

namespace profisched::dist {

/// Which engine backend a sharded sweep drives (the three SweepRunner modes
/// plus the optimizer, which fans through the same ranged core).
enum class SweepMode {
  Analysis,  ///< SweepRunner::run      — `profisched sweep`
  Sim,       ///< SweepRunner::run_sim  — `profisched simulate`
  Combined,  ///< SweepRunner::run_combined — `profisched simulate --combined`
  Optimize,  ///< opt::run_optimize    — `profisched optimize`
};

/// The mode's spec-block word (analysis|sim|combined|optimize); see
/// ModeTrait in dist/job.hpp for both vocabularies.
[[nodiscard]] std::string_view to_string(SweepMode m);

/// Split [0, total) into `count` disjoint contiguous ranges whose sizes
/// differ by at most one (the first total % count shards get the extra
/// scenario). count > total yields trailing empty ranges — legal, they merge
/// like any other shard.
struct ShardPlan {
  std::uint64_t total = 0;
  std::vector<engine::IdRange> ranges;

  /// Throws std::invalid_argument when count == 0.
  [[nodiscard]] static ShardPlan split(std::uint64_t total, std::uint64_t count);
};

/// Everything that defines a sharded sweep: the mode plus the full spec. The
/// sim half (spec.sim / spec.replications) is carried — and spec-compared —
/// in every mode so two shards generated with different flags can never
/// merge silently.
struct ShardSpec {
  SweepMode mode = SweepMode::Analysis;
  engine::SimSweepSpec spec;
  /// Search brackets for Optimize mode. Carried (and spec-compared) only in
  /// that mode: the other modes' spec blocks stay byte-identical to the
  /// pre-optimizer format.
  opt::OptimizeOptions optimize;

  [[nodiscard]] std::uint64_t total_scenarios() const noexcept {
    return spec.sweep.total_scenarios();
  }
};

/// One executed shard: the spec it ran under, its position in the plan, and
/// the outcome rows of its id range (exactly one of the four vectors is
/// populated, per mode). Serializes to a line-oriented text artifact that
/// parses back exactly: each row is `o id seed point` plus one cell per
/// policy in the mode's cell codec (engine/detail/record.hpp), the same
/// codec its result-cache records use.
struct ShardArtifact {
  ShardSpec spec;
  std::uint64_t shard_index = 0;  ///< 0-based position in the plan
  std::uint64_t shard_count = 1;
  engine::IdRange range;

  std::vector<engine::ScenarioOutcome> analysis;
  std::vector<engine::SimScenarioOutcome> sim;
  std::vector<engine::CombinedOutcome> combined;
  std::vector<opt::OptimizeOutcome> optimize;

  /// Wall clock, memo and result-cache statistics of the run that produced
  /// this artifact. Runtime-only: to_text()/from_text() do not carry them.
  engine::RunStats stats;

  [[nodiscard]] std::string to_text() const;
  /// Throws std::invalid_argument on any malformed or truncated artifact, on
  /// an older artifact format (the message names it), on a spec that fails
  /// validate_spec, and on a row count that contradicts the declared range.
  [[nodiscard]] static ShardArtifact from_text(const std::string& text);
};

/// The canonical spec block shared by every artifact of one sweep; merge
/// compares these byte-for-byte to reject mixed-spec shard sets.
[[nodiscard]] std::string serialize_spec(const ShardSpec& spec);

/// Inverse of serialize_spec: parse one standalone spec block (the serve
/// protocol ships specs in exactly this form). Throws std::invalid_argument
/// on any malformed, truncated, or trailing-data input, and on a spec that
/// fails validate_spec (dist/job.hpp).
[[nodiscard]] ShardSpec parse_spec(const std::string& text);

/// Executes single shards through the engine's ranged sweep entry points —
/// the job pipeline's execute step, for a whole run (shard 0 of 1), one
/// `profisched shard`, or one of the daemon's oversplit ranges.
class ShardRunner {
 public:
  /// `threads` = 0 picks ThreadPool::default_threads().
  explicit ShardRunner(unsigned threads = 0) : runner_(threads) {}

  /// Run shard `index` of a `count`-shard plan over the spec. The optional
  /// cache is the same hook the single-process runs take (dist::ResultCache).
  /// Throws std::invalid_argument for index >= count.
  [[nodiscard]] ShardArtifact run(const ShardSpec& spec, std::uint64_t index,
                                  std::uint64_t count,
                                  engine::ScenarioCache* cache = nullptr);

  [[nodiscard]] unsigned threads() const noexcept { return runner_.threads(); }
  [[nodiscard]] engine::SweepRunner& runner() noexcept { return runner_; }

 private:
  engine::SweepRunner runner_;
};

/// A merged sweep: the common spec plus the reassembled whole-sweep result
/// (the vector matching spec.mode is populated, indexed by global id).
struct MergedSweep {
  ShardSpec spec;
  engine::SweepResult analysis;
  engine::SimSweepResult sim;
  engine::CombinedResult combined;
  opt::OptimizeResult optimize;
};

/// Reassemble one sweep from its shard artifacts. Validation is strict and
/// throws std::invalid_argument on: no artifacts, differing spec blocks or
/// shard counts, duplicate shard indices, ranges that overlap or leave a gap
/// in [0, N), and outcome rows that contradict their declared range — all
/// checked before the merged result is allocated. The rvalue overload moves
/// the rows out of the artifacts instead of copying them.
[[nodiscard]] MergedSweep merge_shards(std::vector<ShardArtifact>&& shards);
[[nodiscard]] MergedSweep merge_shards(const std::vector<ShardArtifact>& shards);

}  // namespace profisched::dist
