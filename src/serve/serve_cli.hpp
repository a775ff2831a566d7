// serve/serve_cli.hpp — argument parsing for the `profisched serve` and
// `profisched submit` subcommands, kept in the library so the validation is
// unit-testable (tests/serve/test_serve_cli.cpp) exactly like the shard
// parser in dist/dist_cli.hpp.
//
// `submit` parses its job through the one job-flag table (dist/job.hpp),
// adding its own rows (--socket, --priority, --oversplit, --wait). That is
// what guarantees a submitted job describes its sweep byte-identically to the
// batch subcommand it will be cmp-compared against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace profisched::serve {

/// Everything `profisched serve` needs to come up.
struct ServeCli {
  std::string socket_path;   ///< --socket PATH (required)
  unsigned threads = 0;      ///< --threads N: per-job runner threads (0 = auto)
  std::string cache_dir;     ///< --cache DIR: shared result cache
  std::string metrics_path;  ///< --metrics FILE: final STATS manifest on exit
};

/// Parse the flags after `profisched serve`. Returns true on success; false
/// with a one-line diagnostic in `error` (never throws).
[[nodiscard]] bool parse_serve_args(const std::vector<std::string>& args, ServeCli& out,
                                    std::string& error);

/// Everything `profisched submit` needs: where the daemon lives plus either
/// one control action or one job to enqueue.
struct SubmitCli {
  enum class Action { Submit, Status, Cancel, Stats, Shutdown };

  std::string socket_path;  ///< --socket PATH (required)
  Action action = Action::Submit;
  std::uint64_t cancel_id = 0;  ///< --cancel ID
  bool wait = false;            ///< --wait: poll STATUS until the job settles
  Request job;                  ///< Action::Submit: the fully-built request
};

/// Parse the flags after `profisched submit`. Accepts --socket PATH
/// (required), one of the control actions --status | --cancel ID | --stats |
/// --shutdown (mutually exclusive, no sweep flags allowed alongside), or a
/// job: --priority N, --oversplit K, --wait, plus the job flags of the
/// Submit surface (--mode, and every flag of the mode; --csv/--json/--metrics
/// name server-side destinations). --threads and --cache are serve-side
/// flags and are rejected here with a pointer to `serve`.
[[nodiscard]] bool parse_submit_args(const std::vector<std::string>& args, SubmitCli& out,
                                     std::string& error);

}  // namespace profisched::serve
