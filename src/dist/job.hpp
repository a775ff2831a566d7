// dist/job.hpp — the one job pipeline behind `sweep`, `simulate`, `optimize`,
// `shard`, `merge` and the `serve` daemon.
//
// A job is a ShardSpec plus its output set. One flag parser builds it
// (parse_job_args over the job-flag table; README "Job flags"), and three
// steps run it:
//   execute — ShardRunner::run(spec, k, K, cache): one id range → one artifact;
//   reduce  — merge a complete artifact set and reduce it to the mode's Table;
//   emit    — write the table's CSV, then its JSON.
// `sweep`, `simulate` and `optimize` execute [0, N) in process and reduce the
// one in-memory artifact; `shard` and `merge` are the two halves of that
// sequence; the daemon executes K oversplit ranges, then the same reduce and
// emit. Served and merged output therefore equal batch output by
// construction.
//
// Everything mode-specific is one ModeTrait entry (job.cpp): its words, its
// flag groups and policy rule, its compute, its cell codec (shared by result-
// cache records and artifact rows), its reducer, console summary and exit
// rule. A new mode is one more SweepMode value, its trait entry and its tests.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "dist/shard.hpp"
#include "engine/aggregate.hpp"
#include "engine/sim_aggregate.hpp"
#include "obs/manifest.hpp"
#include "opt/opt_aggregate.hpp"

namespace profisched::dist {

/// A job: one sweep spec plus where its results go.
struct Job {
  ShardSpec spec;
  std::string csv_path;
  std::string json_path;
  std::string metrics_path;  ///< metrics + run-manifest JSON sidecar
  bool progress = false;     ///< stderr heartbeat while scenarios run
};

/// The output table of one mode, ready to serialize.
using Table = std::variant<engine::SweepCurves, engine::SimCurves, engine::ConsistencyTable,
                           opt::OptimizeTable>;

/// Which part of a job a flag shapes; a mode takes the groups its trait lists.
enum FlagGroup : unsigned {
  kCommonFlags = 1,    ///< grid, policies, seed, T_TR, outputs, runtime: every mode
  kAnalysisFlags = 2,  ///< --method: modes that analyse
  kSimFlags = 4,       ///< replications and simulator knobs: modes that simulate
  kBracketFlags = 8,   ///< optimizer search brackets (also a spec-block line)
};

/// Everything one mode needs, in one table entry.
struct ModeTrait {
  SweepMode mode;
  const char* word;       ///< command line and wire: sweep|simulate|combined|optimize
  const char* spec_word;  ///< spec blocks and STATUS: analysis|sim|combined|optimize
  unsigned flag_groups;   ///< FlagGroup bits of the flags that apply
  bool (*admits)(engine::Policy policy);  ///< the policies it can run
  const char* policy_names;               ///< those policies, for diagnostics

  /// Compute: run art.range of art.spec into art's outcome rows and stats.
  void (*execute)(engine::SweepRunner& runner, ShardArtifact& art, engine::ScenarioCache* cache);
  /// Codec: the artifact's rows as `o id seed point cell...` text lines.
  std::size_t (*rows)(const ShardArtifact& art);
  void (*encode)(const ShardArtifact& art, std::string& out);
  bool (*decode)(const std::string& line, ShardArtifact& art);  ///< appends one row
  /// Merge: check one shard's row ids against its range and move its rows to
  /// the end of the whole-sweep result (of `total` rows).
  void (*append)(ShardArtifact& shard, MergedSweep& merged, std::uint64_t total);
  /// Reducer, console summary, and exit rule ("" = passed, else the reason).
  Table (*reduce)(const MergedSweep& merged);
  std::string (*summary)(const ShardSpec& spec, const Table& table);
  std::string (*violation)(const Table& table);
};

[[nodiscard]] const ModeTrait& trait(SweepMode mode);

/// The mode a word names in one vocabulary (command-line words by default);
/// nullptr when none does.
[[nodiscard]] const ModeTrait* find_mode(std::string_view word,
                                         const char* ModeTrait::*vocabulary = &ModeTrait::word);

/// Largest sweep any job source may describe.
inline constexpr std::uint64_t kMaxScenarios = 100'000'000;

/// Job validation every source passes through (flags, spec blocks from the
/// wire, artifacts): at least one point, scenario, policy and replication,
/// at most kMaxScenarios scenarios, and only policies the mode admits.
/// Throws std::invalid_argument.
void validate_spec(const ShardSpec& spec);

/// Merge a complete artifact set (moving its rows) and reduce it to the
/// mode's table. Throws what merge_shards throws.
[[nodiscard]] Table reduce(std::vector<ShardArtifact>&& artifacts);

/// Write one output file. Throws std::runtime_error naming the file on
/// failure (the flush surfaces ENOSPC-style errors now, not in a destructor).
void write_file(const std::string& path, const std::string& content);

/// Write the table's CSV, then its JSON, to the job's destinations (each
/// serialized only when asked for, one at a time). Throws std::runtime_error
/// naming the file on a write failure.
void emit(const Job& job, const Table& table);

/// The --metrics manifest of a run over `spec` that executed `scenarios`
/// scenarios: the config digest hashes the canonical spec block, so the same
/// sweep digests identically run whole, sharded, merged or served. The
/// caller fills subcommand, argv, threads and elapsed_s.
[[nodiscard]] obs::Manifest manifest(const ShardSpec& spec, std::uint64_t scenarios);

/// Up-front check of the job's output files (parent directory exists, path
/// is not a directory), so a doomed destination fails before any work.
[[nodiscard]] bool check_destinations(const Job& job, std::string& error);

// ------------------------------------------------------------ flag parsing

/// The subcommands that take job flags.
enum class Surface { Sweep, Simulate, Optimize, Shard, Merge, Submit };

/// Everything one subcommand's flags say: the job plus how to run it.
struct JobArgs {
  Job job;
  unsigned threads = 0;             ///< --threads (0 = auto)
  std::string cache_dir;            ///< --cache DIR
  std::uint64_t shard_index = 0;    ///< --shard k/K, 0-based
  std::uint64_t shard_count = 1;
  std::string out_path;             ///< shard: --out FILE
  std::vector<std::string> inputs;  ///< merge: artifact files
};

/// One row of a flag table: the flag, the surfaces that take it, the flag
/// group (and so the modes) it applies to, the value it wants (nullptr for a
/// switch), and how the value lands. `apply` returns false on a bad value;
/// `error` then holds "<flag> needs <want>" unless apply wrote a sharper one.
struct Flag {
  const char* name;
  unsigned surfaces;  ///< bit per Surface
  unsigned group;     ///< FlagGroup
  const char* want;
  std::function<bool(const std::string& value, std::string& error)> apply;
  const char* hint = nullptr;  ///< the error on a surface that lacks the flag
  bool selects_mode = false;   ///< applied before the others: it picks the mode
};

[[nodiscard]] constexpr unsigned surface_bit(Surface s) { return 1u << static_cast<unsigned>(s); }

/// Parse a subcommand's flags against the job-flag table (plus `extra` rows
/// the subcommand owns), expand the grid, validate the spec and the output
/// destinations. Flags may come in any order. Returns false with a one-line
/// diagnostic naming the flag in `error` (never throws).
[[nodiscard]] bool parse_job_args(Surface surface, const std::vector<std::string>& args,
                                  JobArgs& out, std::string& error,
                                  const std::vector<Flag>& extra = {});

}  // namespace profisched::dist
