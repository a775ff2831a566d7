// detail/cli_parse.hpp — the strict scalar parsers behind the job-flag table
// (dist/job.cpp) and the INI-mode flags. Full-string parses
// that reject trailing garbage, negatives and overflow, and bound each value
// to its sane range: atoll's silent 0 / wraparound turned typos into
// pathological sweeps. Lives in the library so the validation stays
// unit-tested (tests/engine/test_cli_parse.cpp) and no subcommand grows a
// private copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/sweep_runner.hpp"

namespace profisched::engine {

// The ranges of the job flags. The flag table (dist/job.cpp) and the grid
// expansion below parse against them, and dist::validate_spec holds spec
// blocks from the wire and from artifacts to the same ranges.
/// Scenarios in one sweep (--scenarios times the grid's points).
inline constexpr std::uint64_t kMaxScenarios = 100'000'000;
/// Each --masters value.
inline constexpr std::size_t kMaxMasters = 4'096;
/// --streams.
inline constexpr std::size_t kMaxStreams = 4'096;
/// --u HI, far past the saturation cliff at u = 1.
inline constexpr double kMaxUtilization = 1'000.0;
/// --ttr and --ttr-cap.
inline constexpr Ticks kMaxTtr = 1'000'000'000'000'000;
/// --reps.
inline constexpr std::size_t kMaxReplications = 10'000;
/// --horizon and the --faults recovery/offline durations.
inline constexpr Ticks kMaxHorizon = 1'000'000'000'000;
/// --faults retrans.
inline constexpr int kMaxRetransmissions = 1'000;
/// The --scale-* and --dratio-* factors.
inline constexpr double kMaxBracket = 1e12;

// The spec's `base` line also carries generator fields that no flag sets; a
// job keeps their defaults (workload::NetworkParams), and validate_spec holds
// SUBMIT payloads and artifacts to these ranges:
//  * periods 1 <= t_min <= t_max <= kMaxPeriod;
//  * request and response frame sizes 1 <= min <= max <= kMaxFrameChars;
//  * the deadline spread 0 < deadline_lo <= deadline_hi <= kMaxDeadlineRatio;
//  * total_u in [0, kMaxUtilization] (every point sets its own);
//  * the LP flag, 0 or 1, which the spec reader already enforces.
/// The spec's base periods, in bit times.
inline constexpr Ticks kMaxPeriod = 1'000'000'000'000'000;
/// The spec's base frame sizes, in characters: the longest PROFIBUS telegram.
inline constexpr Ticks kMaxFrameChars = 255;
/// Every deadline ratio β, D = β·T: --beta HI, --beta-lo, --beta-hi, a spec
/// point's beta_hi and the base deadline_hi. It keeps D inside Ticks for every
/// period up to kMaxPeriod; a longer utilization-driven period whose deadline
/// does not fit makes the generator throw.
inline constexpr double kMaxDeadlineRatio = 1'000.0;
static_assert(kMaxDeadlineRatio * static_cast<double>(kMaxPeriod) < 0x1p63,
              "D = beta * T must fit in Ticks");

[[nodiscard]] bool parse_cli_count(const std::string& s, std::size_t& out,
                                   std::size_t max = std::size_t(-1));

[[nodiscard]] bool parse_cli_nonneg_double(const std::string& s, double& out);

/// Comma-separated lowercase policy names (fcfs,dm,edf,opa,token,holistic;
/// find_policy). Duplicates, and which policies a mode can run, are
/// dist::validate_spec's rules.
[[nodiscard]] bool parse_cli_policies(const std::string& list, std::vector<Policy>& out);

/// "LO:HI:STEPS" utilization-grid argument (numeric LO/HI, integer STEPS).
[[nodiscard]] bool parse_cli_u_grid(const std::string& s, double& u_lo, double& u_hi,
                                    std::size_t& u_steps);

/// Up-front check that an output FILE destination (--out/--csv/--json/
/// --metrics) is writable-in-principle: its parent directory must already
/// exist and the path must not name a directory. Checked at parse time so a
/// doomed destination fails before the sweep runs, not after; `error` gets a
/// one-line diagnostic naming `flag`. Deliberately does not create or
/// truncate anything — the subcommand still opens the file itself at emit
/// time.
[[nodiscard]] bool validate_cli_output_file(const std::string& path, const char* flag,
                                            std::string& error);

/// Same idea for an output DIRECTORY destination (--cache): the path, or the
/// nearest existing ancestor that create_directories would build from, must
/// be a directory — a file sitting where a path component should go is the
/// up-front error.
[[nodiscard]] bool validate_cli_output_dir(const std::string& path, const char* flag,
                                           std::string& error);

/// The multi-axis grid flags of a sweep-style subcommand (sweep, simulate,
/// shard), collected raw — an empty string means "flag absent". One struct so
/// every subcommand validates and expands the u × beta × masters cross
/// product identically (the shard/merge byte-identity depends on it).
struct GridCliArgs {
  std::string u;        ///< --u LO:HI:STEPS (default 0.1:0.9:9)
  std::string beta;     ///< --beta LO:HI:STEPS — deadline-ratio axis, D = b·T
  std::string beta_lo;  ///< --beta-lo X — constant spread (conflicts w/ --beta)
  std::string beta_hi;  ///< --beta-hi X
  std::string masters;  ///< --masters N[,N,...] — multi-valued = ring-size axis
  std::string split;    ///< --split w1,...,wK — explicit per-master weights
  std::string skew;     ///< --skew S — geometric per-master imbalance, S >= 0
};

/// Validate + expand the grid flags into sweep points (cross product, masters
/// outermost, beta next, u innermost — so a u-only grid enumerates scenario
/// ids exactly as the pre-multi-axis sweeps did) and apply the structural
/// knobs (single --masters value, --split, --skew) to `base`. Returns false
/// with a one-line diagnostic in `error` on any degenerate or inconsistent
/// spec: inverted ranges (LO > HI), zero-length axes (STEPS == 0),
/// non-positive u / beta lows (u = 0 would silently flip a grid point to the
/// legacy period-driven generator — a different workload distribution),
/// --split weight counts that do not match the master count, --split against
/// a multi-valued --masters axis, and --split combined with --skew.
[[nodiscard]] bool expand_cli_grid(const GridCliArgs& args, workload::NetworkParams& base,
                                   std::vector<SweepPoint>& points, std::string& error);

}  // namespace profisched::engine
