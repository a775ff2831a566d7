// profisched — command-line front end. `profisched` with no arguments lists
// the subcommands (usage() below). analyze, simulate and ttr with an INI file
// work on one network (format in src/config/network_loader.hpp, examples
// under configs/). Every other subcommand runs generated-scenario jobs through
// the one job pipeline in src/dist/job.hpp; README.md documents them, and its
// "Job flags" table lists every job flag with the modes it applies to and its
// default.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "config/network_loader.hpp"
#include "dist/job.hpp"
#include "dist/result_cache.hpp"
#include "engine/detail/cli_parse.hpp"
#include "engine/detail/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "profibus/dispatching.hpp"
#include "profibus/priority_assignment.hpp"
#include "profibus/ttr_setting.hpp"
#include "serve/client.hpp"
#include "serve/serve_cli.hpp"
#include "serve/server.hpp"
#include "sim/network_sim.hpp"

namespace {

using namespace profisched;
using namespace profisched::profibus;
using config::LoadedNetwork;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  profisched analyze  <file.ini> [--policy fcfs|dm|edf|opa|all]\n"
               "  profisched simulate <file.ini> [--policy fcfs|dm|edf] [--ms N] [--seed N]\n"
               "                      [--histograms] [--trace N]\n"
               "  profisched ttr      <file.ini>\n"
               "  profisched sweep    [job flags]\n"
               "  profisched simulate [--combined] [job flags]\n"
               "  profisched optimize [job flags]\n"
               "  profisched shard    --shard k/K --out FILE [--mode MODE] [job flags]\n"
               "  profisched merge    [--csv FILE] [--json FILE] [--metrics FILE] SHARD_FILE...\n"
               "  profisched serve    --socket PATH [--threads N] [--cache DIR] [--metrics FILE]\n"
               "  profisched submit   --socket PATH [--priority N] [--oversplit K] [--wait]\n"
               "                      [--mode MODE] [job flags]\n"
               "  profisched submit   --socket PATH --status | --cancel ID | --stats | --shutdown\n"
               "MODE is sweep|simulate|combined|optimize. The job flags, the modes each\n"
               "applies to and their defaults are one table: README.md, \"Job flags\".\n");
  return 2;
}

// ------------------------------------------------------------ INI networks

double to_ms(Ticks v, Ticks ticks_per_ms) {
  return static_cast<double>(v) / static_cast<double>(ticks_per_ms);
}

void print_analysis(const LoadedNetwork& ln, const NetworkAnalysis& a, const char* label) {
  std::printf("\n%s: %s (T_cycle = %.3f ms)\n", label, a.schedulable ? "SCHEDULABLE" : "NOT schedulable",
              to_ms(a.tcycle, ln.ticks_per_ms));
  for (std::size_t k = 0; k < ln.net.n_masters(); ++k) {
    std::printf("  [%s]\n", ln.net.masters[k].name.c_str());
    for (std::size_t i = 0; i < ln.net.masters[k].nh(); ++i) {
      const auto& s = ln.net.masters[k].high_streams[i];
      const auto& r = a.masters[k].streams[i];
      if (r.response == kNoBound) {
        std::printf("    %-24s D=%8.2f ms  R=unbounded  MISS\n", s.name.c_str(),
                    to_ms(s.D, ln.ticks_per_ms));
      } else {
        std::printf("    %-24s D=%8.2f ms  R=%8.2f ms  %s\n", s.name.c_str(),
                    to_ms(s.D, ln.ticks_per_ms), to_ms(r.response, ln.ticks_per_ms),
                    r.meets_deadline ? "ok" : "MISS");
      }
    }
  }
}

int cmd_analyze(const LoadedNetwork& ln, const std::string& policy) {
  bool any = false;
  int rc = 0;
  const auto run = [&](ApPolicy p) {
    const NetworkAnalysis a = analyze_network(ln.net, p);
    print_analysis(ln, a, std::string(to_string(p)).c_str());
    if (!a.schedulable) rc = 1;
    any = true;
  };
  if (policy == "fcfs" || policy == "all") run(ApPolicy::Fcfs);
  if (policy == "dm" || policy == "all") run(ApPolicy::Dm);
  if (policy == "edf" || policy == "all") run(ApPolicy::Edf);
  if (policy == "opa" || policy == "all") {
    const auto orders = audsley_stream_orders(ln.net);
    if (orders.has_value()) {
      print_analysis(ln, analyze_fixed_priority(ln.net, *orders), "OPA");
      std::printf("  OPA priority order (highest first):\n");
      for (std::size_t k = 0; k < ln.net.n_masters(); ++k) {
        std::printf("    [%s]:", ln.net.masters[k].name.c_str());
        for (const std::size_t i : (*orders)[k]) {
          std::printf(" %s", ln.net.masters[k].high_streams[i].name.c_str());
        }
        std::printf("\n");
      }
    } else {
      std::printf("\nOPA: no fixed priority order schedules this set\n");
      rc = 1;
    }
    any = true;
  }
  if (!any) return usage();
  return rc;
}

int cmd_simulate(const LoadedNetwork& ln, const std::string& policy, Ticks milliseconds,
                 std::uint64_t seed, bool histograms, std::size_t trace_events) {
  sim::SimConfig cfg;
  cfg.net = ln.net;
  try {
    cfg.horizon = config::horizon_ticks(milliseconds, ln.ticks_per_ms);
  } catch (const std::out_of_range& e) {
    std::fprintf(stderr, "error: --ms: %s\n", e.what());
    return 2;
  }
  cfg.seed = seed;
  cfg.collect_histograms = histograms;
  if (policy == "dm") cfg.policy = ApPolicy::Dm;
  else if (policy == "edf") cfg.policy = ApPolicy::Edf;
  else if (policy == "fcfs") cfg.policy = ApPolicy::Fcfs;
  else return usage();

  sim::Trace trace(trace_events == 0 ? 1 : trace_events);
  if (trace_events > 0) cfg.trace = &trace;

  const sim::SimReport r = sim::simulate(cfg);
  std::printf("simulated %lld ms under %s (seed %llu): %llu events, %llu LP cycles\n",
              static_cast<long long>(milliseconds), policy.c_str(),
              static_cast<unsigned long long>(seed), static_cast<unsigned long long>(r.events),
              static_cast<unsigned long long>(r.lp_cycles_completed));
  for (std::size_t k = 0; k < ln.net.n_masters(); ++k) {
    std::printf("[%s] token visits=%llu max TRR=%.3f ms overruns=%llu late=%llu\n",
                ln.net.masters[k].name.c_str(),
                static_cast<unsigned long long>(r.token[k].visits),
                to_ms(r.token[k].max_trr, ln.ticks_per_ms),
                static_cast<unsigned long long>(r.token[k].tth_overruns),
                static_cast<unsigned long long>(r.token[k].late_tokens));
    for (std::size_t i = 0; i < ln.net.masters[k].nh(); ++i) {
      const auto& s = r.hp[k][i];
      std::printf("  %-24s n=%llu max=%.3f ms mean=%.3f ms misses=%llu dropped=%llu\n",
                  ln.net.masters[k].high_streams[i].name.c_str(),
                  static_cast<unsigned long long>(s.completed),
                  to_ms(s.max_response, ln.ticks_per_ms),
                  s.mean_response() / static_cast<double>(ln.ticks_per_ms),
                  static_cast<unsigned long long>(s.deadline_misses),
                  static_cast<unsigned long long>(s.dropped));
      if (histograms) {
        std::printf("    hist: %s\n", r.response_hist[k][i].summary().c_str());
      }
    }
  }
  if (trace_events > 0) {
    std::printf("\n--- first %zu trace events ---\n%s", trace.events().size(),
                trace.render().c_str());
  }
  return 0;
}

int cmd_ttr(const LoadedNetwork& ln) {
  const TtrRange range = ttr_range_fcfs(ln.net);
  std::printf("T_del = %.3f ms; current T_TR = %.3f ms%s\n",
              to_ms(t_del(ln.net), ln.ticks_per_ms), to_ms(ln.net.ttr, ln.ticks_per_ms),
              ln.ttr_auto ? " (auto, eq. 15)" : "");
  if (range.feasible()) {
    std::printf("eq. 15 feasible T_TR range: [%.3f, %.3f] ms ([%lld, %lld] ticks)\n",
                to_ms(range.min, ln.ticks_per_ms), to_ms(range.max, ln.ticks_per_ms),
                static_cast<long long>(range.min), static_cast<long long>(range.max));
    return 0;
  }
  std::printf("no T_TR makes the FCFS analysis schedulable (try --policy dm/edf)\n");
  return 1;
}

/// `analyze|simulate|ttr <file.ini> [flags]`. Numeric flags go through the
/// same strict parser as the job flags, and errors name the flag.
int cmd_ini(int argc, char** argv) {
  const std::string command = argv[1];
  const std::string path = argv[2];
  std::string policy = command == "simulate" ? "fcfs" : "all";
  std::size_t milliseconds = 1'000, seed = 1, trace_events = 0;
  bool histograms = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto count = [&](std::size_t& dst, std::size_t lo, std::size_t hi, const char* want) {
      if (v == nullptr || !engine::parse_cli_count(v, dst, hi) || dst < lo) {
        std::fprintf(stderr, "error: %s needs %s\n", arg.c_str(), want);
        return false;
      }
      ++i;
      return true;
    };
    if (arg == "--policy" && v != nullptr) {
      policy = argv[++i];
    } else if (arg == "--ms") {
      if (!count(milliseconds, 1, 1'000'000'000, "a duration in [1, 1e9] ms")) return 2;
    } else if (arg == "--seed") {
      if (!count(seed, 0, std::numeric_limits<std::size_t>::max(), "a non-negative integer")) {
        return 2;
      }
    } else if (arg == "--trace") {
      if (!count(trace_events, 0, 100'000'000, "an event count in [0, 1e8]")) return 2;
    } else if (arg == "--histograms") {
      histograms = true;
    } else {
      return usage();
    }
  }

  const LoadedNetwork ln = config::load_network_file(path);
  std::printf("loaded %s: %zu masters, %zu streams, T_TR = %lld ticks\n", path.c_str(),
              ln.net.n_masters(), ln.net.total_high_streams(), static_cast<long long>(ln.net.ttr));
  if (command == "analyze") return cmd_analyze(ln, policy);
  if (command == "simulate") {
    return cmd_simulate(ln, policy, static_cast<Ticks>(milliseconds), seed, histograms,
                        trace_events);
  }
  if (command == "ttr") return cmd_ttr(ln);
  return usage();
}

// ------------------------------------------------------------ job pipeline

/// The one cache summary the CLI prints, fed from the registry's record-
/// level counters — the same `cache.*` series the --metrics sidecar carries.
void print_cache_line(const dist::ResultCache& cache) {
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  std::printf("result cache: %llu hits / %llu misses (%s)\n",
              static_cast<unsigned long long>(snap.counter("cache.hits")),
              static_cast<unsigned long long>(snap.counter("cache.misses")),
              cache.dir().c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << is.rdbuf();
  return text.str();
}

/// sweep, simulate, optimize, shard and merge: parse → execute → reduce →
/// emit. `shard` stops after execute and writes its artifact; `merge` starts
/// from artifacts on disk.
int cmd_job(dist::Surface surface, const char* name, int argc, char** argv) {
  dist::JobArgs a;
  std::string error;
  if (!dist::parse_job_args(surface, std::vector<std::string>(argv, argv + argc), a, error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage();
  }
  dist::Job& job = a.job;
  // --metrics arms the timed instrumentation, --progress the heartbeat; both
  // stay out of band (outputs are byte-identical either way).
  obs::set_enabled(!job.metrics_path.empty());
  obs::set_progress_enabled(job.progress);
  const std::int64_t t0_ns = obs::now_ns();
  obs::Span run_span(obs::Registry::global().timer("phase.run"));

  std::vector<dist::ShardArtifact> artifacts;
  std::unique_ptr<dist::ResultCache> cache;
  unsigned threads = 1;
  if (surface == dist::Surface::Merge) {
    for (const std::string& path : a.inputs) {
      artifacts.push_back(dist::ShardArtifact::from_text(read_file(path)));
    }
    job.spec = artifacts.front().spec;
    std::printf("merged %zu shard%s: %llu scenarios (%s mode)\n", artifacts.size(),
                artifacts.size() == 1 ? "" : "s",
                static_cast<unsigned long long>(job.spec.total_scenarios()),
                dist::trait(job.spec.mode).word);
  } else {
    dist::ShardRunner runner(a.threads);
    threads = runner.threads();
    if (!a.cache_dir.empty()) cache = std::make_unique<dist::ResultCache>(a.cache_dir);
    const engine::SweepSpec& sw = job.spec.spec.sweep;
    const std::string label = surface == dist::Surface::Shard
                                  ? "shard " + std::to_string(a.shard_index + 1) + "/" +
                                        std::to_string(a.shard_count)
                                  : name;
    std::printf("%s (%s mode): %zu scenarios (%zu points x %zu), %u thread%s, seed %llu\n",
                label.c_str(), dist::trait(job.spec.mode).word, sw.total_scenarios(),
                sw.points.size(), sw.scenarios_per_point, threads, threads == 1 ? "" : "s",
                static_cast<unsigned long long>(sw.seed));
    artifacts.push_back(runner.run(job.spec, a.shard_index, a.shard_count, cache.get()));
  }
  run_span.stop();
  const dist::ShardArtifact& first = artifacts.front();
  const std::uint64_t scenarios =
      surface == dist::Surface::Shard ? first.range.size() : job.spec.total_scenarios();
  const engine::RunStats stats = first.stats;
  const auto write_manifest = [&] {
    if (job.metrics_path.empty()) return true;
    obs::Manifest m = dist::manifest(job.spec, scenarios);
    m.run.subcommand = name;
    m.run.argv.assign(argv, argv + argc);
    m.run.threads = threads;
    m.run.elapsed_s = static_cast<double>(obs::now_ns() - t0_ns) / 1e9;
    if (obs::write_manifest_file(job.metrics_path, m)) return true;
    std::fprintf(stderr, "error: cannot write %s\n", job.metrics_path.c_str());
    return false;
  };

  if (surface == dist::Surface::Shard) {
    obs::Span write_span(obs::Registry::global().timer("phase.write"));
    dist::write_file(a.out_path, first.to_text());
    write_span.stop();
    if (cache) print_cache_line(*cache);
    // The range comes from the artifact itself: exactly what a merge will
    // validate, not a second ShardPlan computation.
    std::printf("wrote %s (scenarios [%llu, %llu))\n", a.out_path.c_str(),
                static_cast<unsigned long long>(first.range.begin),
                static_cast<unsigned long long>(first.range.end));
    return write_manifest() ? 0 : 1;
  }

  const dist::ModeTrait& mode = dist::trait(job.spec.mode);
  const dist::Table table = dist::reduce(std::move(artifacts));
  std::printf("%s", mode.summary(job.spec, table).c_str());
  if (surface != dist::Surface::Merge) {
    std::printf("\n%zu scenarios x %zu policies in %.3f s; timing memo: %zu hits / %zu misses\n",
                job.spec.spec.sweep.total_scenarios(), job.spec.spec.sweep.policies.size(),
                stats.elapsed_s, stats.memo_hits, stats.memo_misses);
  }
  if (cache) print_cache_line(*cache);
  dist::emit(job, table);
  for (const std::string* path : {&job.csv_path, &job.json_path}) {
    if (!path->empty()) std::printf("wrote %s\n", path->c_str());
  }
  const std::string violation = mode.violation(table);
  if (!write_manifest()) return 1;
  if (!violation.empty()) {
    std::printf("%s\n", violation.c_str());
    return 1;
  }
  return 0;
}

// ------------------------------------------------------------ serve / submit

int cmd_serve(int argc, char** argv) {
  serve::ServeCli cli;
  std::string error;
  if (!serve::parse_serve_args(std::vector<std::string>(argv, argv + argc), cli, error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage();
  }
  serve::ServeOptions opts;
  opts.socket_path = cli.socket_path;
  opts.threads = cli.threads;
  opts.cache_dir = cli.cache_dir;
  opts.argv.assign(argv, argv + argc);
  serve::Server server(std::move(opts));
  std::printf("serve: listening on %s\n", cli.socket_path.c_str());
  std::fflush(stdout);  // the CI smoke job greps this line for readiness
  const std::uint64_t done = server.run();
  std::printf("serve: shutdown after %llu completed job%s\n",
              static_cast<unsigned long long>(done), done == 1 ? "" : "s");
  if (!cli.metrics_path.empty()) {
    if (!obs::write_manifest_file(cli.metrics_path, server.stats_manifest())) {
      std::fprintf(stderr, "error: cannot write %s\n", cli.metrics_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", cli.metrics_path.c_str());
  }
  return 0;
}

/// Find our job's line in an `ok jobs N` STATUS payload; empty when missing.
std::string status_line_for(const std::string& payload, std::uint64_t id) {
  const std::size_t at = payload.find("\njob " + std::to_string(id) + ' ');
  if (at == std::string::npos) return {};
  const std::size_t end = payload.find('\n', at + 1);
  return payload.substr(at + 1, end == std::string::npos ? end : end - at - 1);
}

int cmd_submit(int argc, char** argv) {
  serve::SubmitCli cli;
  std::string error;
  if (!serve::parse_submit_args(std::vector<std::string>(argv, argv + argc), cli, error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return usage();
  }
  const serve::Client client(cli.socket_path);
  // The daemon may still be binding when CI fires the first submit; retry
  // the connect briefly instead of making every caller script a sleep.
  constexpr int kConnectRetryMs = 5'000;
  const auto call_ok = [&](const std::string& payload, std::string& response) {
    response = client.call(payload, kConnectRetryMs);
    if (response.rfind("err ", 0) == 0 || response == "err") {
      std::fprintf(stderr, "error: server: %s\n",
                   response.size() > 4 ? response.c_str() + 4 : "(no detail)");
      return false;
    }
    return true;
  };

  using Action = serve::SubmitCli::Action;
  std::string response;
  if (cli.action != Action::Submit) {
    const std::string request = cli.action == Action::Status   ? serve::format_status()
                                : cli.action == Action::Cancel ? serve::format_cancel(cli.cancel_id)
                                : cli.action == Action::Stats  ? serve::format_stats()
                                                               : serve::format_shutdown();
    if (!call_ok(request, response)) return 1;
    // STATS answers `ok stats\n<json>`: print only the JSON, so the output
    // pipes straight into tools/metrics_check.py.
    const std::size_t nl = response.find('\n');
    std::printf("%s\n", cli.action != Action::Stats        ? response.c_str()
                        : nl == std::string::npos ? ""
                                                  : response.c_str() + nl + 1);
    return 0;
  }

  if (!call_ok(serve::format_submit(cli.job), response)) return 1;
  std::size_t id = 0;
  if (response.rfind("ok id ", 0) != 0 ||
      !engine::parse_cli_count(response.substr(6), id, std::numeric_limits<std::size_t>::max() / 2)) {
    std::fprintf(stderr, "error: unexpected submit response '%s'\n", response.c_str());
    return 1;
  }
  std::printf("submitted job %llu\n", static_cast<unsigned long long>(id));
  if (!cli.wait) return 0;

  for (;;) {
    if (!call_ok(serve::format_status(), response)) return 1;
    const std::string line = status_line_for(response, id);
    if (line.empty()) {
      std::fprintf(stderr, "error: job %llu vanished from STATUS\n",
                   static_cast<unsigned long long>(id));
      return 1;
    }
    const std::vector<std::string> fields = engine::detail::split(line, ' ');
    const std::string& state = fields.size() > 2 ? fields[2] : line;
    if (state == "queued" || state == "running") {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      continue;
    }
    std::printf("%s\n", line.c_str());
    if (state == "done") return 0;
    if (state == "cancelled") return 3;
    return 1;  // failed (or an unknown state, which is its own failure)
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const struct {
    const char* name;
    dist::Surface surface;
  } jobs[] = {{"sweep", dist::Surface::Sweep},       {"optimize", dist::Surface::Optimize},
              {"shard", dist::Surface::Shard},       {"merge", dist::Surface::Merge},
              {"simulate", dist::Surface::Simulate}};
  try {
    // `simulate` without an INI file (nothing or a --flag next) is the
    // generated-scenario job; with a file it simulates that network.
    const bool ini = argc > 2 && std::strncmp(argv[2], "--", 2) != 0;
    for (const auto& j : jobs) {
      if (command == j.name && !(j.surface == dist::Surface::Simulate && ini)) {
        return cmd_job(j.surface, j.name, argc - 2, argv + 2);
      }
    }
    if (command == "serve") return cmd_serve(argc - 2, argv + 2);
    if (command == "submit") return cmd_submit(argc - 2, argv + 2);
    if (argc < 3) return usage();
    return cmd_ini(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
