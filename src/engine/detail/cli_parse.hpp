// detail/cli_parse.hpp — the strict scalar parsers behind the job-flag table
// (dist/job.cpp) and the INI-mode flags. Full-string parses
// that reject trailing garbage, negatives and overflow, and bound each value
// to its sane range: atoll's silent 0 / wraparound turned typos into
// pathological sweeps. Lives in the library so the validation stays
// unit-tested (tests/engine/test_cli_parse.cpp) and no subcommand grows a
// private copy.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "engine/sweep_runner.hpp"

namespace profisched::engine {

[[nodiscard]] bool parse_cli_count(const std::string& s, std::size_t& out,
                                   std::size_t max = std::size_t(-1));

[[nodiscard]] bool parse_cli_nonneg_double(const std::string& s, double& out);

/// Comma-separated policy names from fcfs,dm,edf,opa,token,holistic
/// (duplicates rejected — the serialized column formats key on unique policy
/// names). Which of them a mode can run is its trait's rule (dist/job.hpp).
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
