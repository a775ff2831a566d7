#include "serve/serve_cli.hpp"

#include <algorithm>
#include <utility>

#include "engine/detail/cli_parse.hpp"

namespace profisched::serve {

bool parse_serve_args(const std::vector<std::string>& args, ServeCli& out, std::string& error) {
  ServeCli cli;
  const auto fail = [&](const std::string& msg) {
    error = msg;
    return false;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto next = [&](std::string& v) {
      if (i + 1 >= args.size()) return false;
      v = args[++i];
      return true;
    };
    std::string v;
    if (arg == "--socket") {
      if (!next(v) || v.empty()) return fail("--socket needs a path");
      cli.socket_path = v;
    } else if (arg == "--threads") {
      std::size_t n = 0;
      if (!next(v) || !engine::parse_cli_count(v, n, 4096) || n == 0) {
        return fail("--threads needs an integer in [1, 4096]");
      }
      cli.threads = static_cast<unsigned>(n);
    } else if (arg == "--cache") {
      if (!next(v) || v.empty()) return fail("--cache needs a directory path");
      cli.cache_dir = v;
    } else if (arg == "--metrics") {
      if (!next(v) || v.empty()) return fail("--metrics needs a file path");
      cli.metrics_path = v;
    } else {
      return fail("unknown serve flag '" + arg + "'");
    }
  }
  if (cli.socket_path.empty()) return fail("--socket PATH is required");
  if (!engine::validate_cli_output_file(cli.socket_path, "--socket", error)) return false;
  if (!cli.cache_dir.empty() &&
      !engine::validate_cli_output_dir(cli.cache_dir, "--cache", error)) {
    return false;
  }
  if (!cli.metrics_path.empty() &&
      !engine::validate_cli_output_file(cli.metrics_path, "--metrics", error)) {
    return false;
  }
  out = std::move(cli);
  error.clear();
  return true;
}

namespace {

/// `submit --status | --cancel ID | --stats | --shutdown`: a control call
/// takes --socket and exactly one action, nothing else.
bool parse_control_args(const std::vector<std::string>& args, SubmitCli& out,
                        std::string& error) {
  SubmitCli cli;
  int actions = 0;
  const auto fail = [&](const std::string& msg) {
    error = msg;
    return false;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool has_value = i + 1 < args.size();
    if (arg == "--socket") {
      if (!has_value || args[i + 1].empty()) return fail("--socket needs a path");
      cli.socket_path = args[++i];
    } else if (arg == "--status" || arg == "--stats" || arg == "--shutdown") {
      cli.action = arg == "--status"  ? SubmitCli::Action::Status
                   : arg == "--stats" ? SubmitCli::Action::Stats
                                      : SubmitCli::Action::Shutdown;
      ++actions;
    } else if (arg == "--cancel") {
      std::size_t n = 0;
      if (!has_value || !engine::parse_cli_count(args[++i], n, 1'000'000'000) || n == 0) {
        return fail("--cancel needs a job id");
      }
      cli.action = SubmitCli::Action::Cancel;
      cli.cancel_id = n;
      ++actions;
    } else if (arg == "--wait") {
      return fail("--wait only applies when submitting a job");
    } else {
      return fail("control action takes no sweep flags (got '" + arg + "')");
    }
  }
  if (actions > 1) {
    return fail("--status, --cancel, --stats, and --shutdown are mutually exclusive");
  }
  if (cli.socket_path.empty()) return fail("--socket PATH is required");
  out = std::move(cli);
  error.clear();
  return true;
}

}  // namespace

bool parse_submit_args(const std::vector<std::string>& args, SubmitCli& out, std::string& error) {
  const auto is_action = [](const std::string& a) {
    return a == "--status" || a == "--cancel" || a == "--stats" || a == "--shutdown";
  };
  if (std::any_of(args.begin(), args.end(), is_action)) {
    return parse_control_args(args, out, error);
  }

  // A job: the job-flag table plus submit's own rows, in one parse — so a
  // submitted job describes its sweep exactly as the batch subcommand it is
  // byte-compared against.
  SubmitCli cli;
  cli.job.kind = Request::Kind::Submit;
  const unsigned here = dist::surface_bit(dist::Surface::Submit);
  const auto count = [](std::uint64_t& dst, std::size_t lo) {
    return [&dst, lo](const std::string& v, std::string&) {
      std::size_t n = 0;
      if (!engine::parse_cli_count(v, n, 1'000'000) || n < lo) return false;
      dst = n;
      return true;
    };
  };
  const std::vector<dist::Flag> submit_flags = {
      {"--socket", here, dist::kCommonFlags, "a path",
       [&cli](const std::string& v, std::string&) {
         cli.socket_path = v;
         return true;
       }},
      {"--priority", here, dist::kCommonFlags, "an integer in [0, 1000000]",
       count(cli.job.priority, 0)},
      {"--oversplit", here, dist::kCommonFlags, "an integer in [1, 1000000]",
       count(cli.job.oversplit, 1)},
      {"--wait", here, dist::kCommonFlags, nullptr,
       [&cli](const std::string&, std::string&) { return cli.wait = true; }},
  };
  dist::JobArgs job;
  if (!dist::parse_job_args(dist::Surface::Submit, args, job, error, submit_flags)) return false;
  if (cli.socket_path.empty()) {
    error = "--socket PATH is required";
    return false;
  }
  static_cast<dist::Job&>(cli.job) = std::move(job.job);
  out = std::move(cli);
  return true;
}

}  // namespace profisched::serve
