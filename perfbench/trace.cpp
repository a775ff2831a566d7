// perfbench_trace — the layer driver of the benchmark's traced run.
//
// Regenerates one workload's scenarios and calls each layer's public entry
// points from here, wrapping every call in a span (name, start, end, parent).
// Spans of one scenario share its global scenario id as their trace id. The
// library itself carries no tracing: every span brackets a call made from
// this file, recorded in per-worker memory and written out once at the end.
//
// usage:
//   perfbench_trace --spans FILE --spec FILE [--threads N]
//                   [--cache-dir DIR --cold-policies K] [--shards FILE...]
//                   -- SUBMIT_FLAGS...
//
// SUBMIT_FLAGS are `profisched submit` job flags (--mode plus every sweep,
// simulate or optimize flag); serve::parse_submit_args turns them into the
// dist::ShardSpec the real run executes. Its canonical spec block goes to
// --spec, so the caller can match it against the real run's sidecar digest.
//
// Layers timed per scenario: workload generation, the analysis of every
// policy, and by mode the simulator (each replication, plus the same config
// run to a 1-tick horizon as its set-up cost) or the optimizer (one span per
// policy; its value is the number of feasibility probes). --cache-dir replays
// the served workload's cold / extend / warm cache passes against a fresh
// dist::ResultCache, the cold pass with the first K policies. --shards times
// the shard text codec and merge on artifacts a real run wrote.
//
// Spans file: a header line, then `id parent trace name start_ns end_ns value`
// per span. stdout: one JSON summary line.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/result_cache.hpp"
#include "dist/shard.hpp"
#include "engine/analysis_engine.hpp"
#include "engine/simulation_engine.hpp"
#include "engine/sweep_runner.hpp"
#include "opt/optimizer.hpp"
#include "serve/serve_cli.hpp"

namespace {

using namespace profisched;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t trace = 0;
  const std::string* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t value = 0;  ///< span-specific count (events, probes, bytes, rows, hit)
};

/// Spans live in one vector per worker slot, so recording takes no lock; only
/// the id counter is shared. begin() returns an index, not a reference, so a
/// child's push_back may reallocate while its parent is still open.
class Recorder {
 public:
  explicit Recorder(unsigned slots) : spans_(slots) {}

  std::size_t begin(unsigned slot, const std::string& name, std::uint64_t trace,
                    std::uint64_t parent) {
    std::vector<Span>& v = spans_[slot];
    v.push_back(Span{next_id_.fetch_add(1, std::memory_order_relaxed), parent, trace, &name,
                     now_ns(), 0, 0});
    return v.size() - 1;
  }
  void end(unsigned slot, std::size_t at, std::uint64_t value = 0) {
    Span& s = spans_[slot][at];
    s.end_ns = now_ns();
    s.value = value;
  }
  [[nodiscard]] std::uint64_t id(unsigned slot, std::size_t at) const {
    return spans_[slot][at].id;
  }

  /// Returns the number of spans written, or -1 on an I/O error.
  long long write(const std::string& path) const {
    std::ofstream os(path, std::ios::binary);
    os << "# perfbench spans v1: id parent trace name start_ns end_ns value\n";
    long long n = 0;
    for (const std::vector<Span>& v : spans_) {
      for (const Span& s : v) {
        os << s.id << ' ' << s.parent << ' ' << s.trace << ' ' << *s.name << ' ' << s.start_ns
           << ' ' << s.end_ns << ' ' << s.value << '\n';
        ++n;
      }
    }
    os.flush();
    return os.good() ? n : -1;
  }

 private:
  std::vector<std::vector<Span>> spans_;
  std::atomic<std::uint64_t> next_id_{1};
};

/// fn(i, worker) for every i in [0, n) over `threads` workers with a shared
/// cursor; the first exception stops the fan-out and is rethrown here.
void parallel(unsigned threads, std::uint64_t n,
              const std::function<void(std::uint64_t, unsigned)>& fn) {
  std::atomic<std::uint64_t> cursor{0};
  std::mutex error_mu;
  std::exception_ptr error;  // guarded by error_mu
  {
    std::vector<std::jthread> pool;
    for (unsigned w = 0; w < threads; ++w) {
      pool.emplace_back([&, w] {
        for (std::uint64_t i = cursor.fetch_add(1); i < n; i = cursor.fetch_add(1)) {
          try {
            fn(i, w);
          } catch (...) {
            const std::lock_guard lock(error_mu);
            if (!error) error = std::current_exception();
            cursor.store(n);
            return;
          }
        }
      });
    }
  }
  if (error) std::rethrow_exception(error);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << is.rdbuf();
  return text.str();
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

struct Options {
  std::string spans_path;
  std::string spec_path;
  unsigned threads = 4;
  std::string cache_dir;
  std::size_t cold_policies = 0;
  std::vector<std::string> shards;
  std::vector<std::string> submit_flags;
};

bool parse_options(int argc, char** argv, Options& o) {
  bool in_shards = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--") {
      o.submit_flags.assign(argv + i + 1, argv + argc);
      break;
    }
    if (in_shards && arg.rfind("--", 0) != 0) {
      o.shards.push_back(arg);
      continue;
    }
    in_shards = false;
    if (arg == "--spans" && has_value) {
      o.spans_path = argv[++i];
    } else if (arg == "--spec" && has_value) {
      o.spec_path = argv[++i];
    } else if (arg == "--threads" && has_value) {
      o.threads = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (arg == "--cache-dir" && has_value) {
      o.cache_dir = argv[++i];
    } else if (arg == "--cold-policies" && has_value) {
      o.cold_policies = std::stoul(argv[++i]);
    } else if (arg == "--shards") {
      in_shards = true;
    } else {
      return false;
    }
  }
  return !o.spans_path.empty() && !o.spec_path.empty() && !o.submit_flags.empty() &&
         o.threads >= 1 && o.threads <= 256;
}

int run(const Options& o) {
  std::vector<std::string> args{"--socket", "unused"};
  args.insert(args.end(), o.submit_flags.begin(), o.submit_flags.end());
  serve::SubmitCli cli;
  std::string error;
  if (!serve::parse_submit_args(args, cli, error)) throw std::invalid_argument(error);
  const dist::ShardSpec& spec = cli.job.spec;
  const engine::SweepSpec& sweep = spec.spec.sweep;
  const std::vector<engine::Policy>& policies = sweep.policies;
  const std::size_t n_pol = policies.size();
  const std::uint64_t total = spec.total_scenarios();
  const bool simulates =
      spec.mode == dist::SweepMode::Sim || spec.mode == dist::SweepMode::Combined;
  const bool analyses = spec.mode != dist::SweepMode::Sim;
  const bool optimizes = spec.mode == dist::SweepMode::Optimize;
  if (!o.cache_dir.empty() && (o.cold_policies == 0 || o.cold_policies > n_pol || !analyses)) {
    throw std::invalid_argument("--cache-dir needs an analysing mode and 1 <= K <= policies");
  }

  const std::string spec_text = dist::serialize_spec(spec);
  {
    std::ofstream os(o.spec_path, std::ios::binary);
    os << spec_text;
    if (!os.flush()) throw std::runtime_error("cannot write " + o.spec_path);
  }

  // Names are interned before any worker starts; spans point into them.
  const std::string n_scenario = "scenario", n_generate = "workload.generate",
                    n_replication = "sim.replication", n_sim_setup = "sim.setup",
                    n_decode = "dist.decode", n_merge = "dist.merge", n_encode = "dist.encode",
                    n_load = "cache.load", n_store = "cache.store";
  std::vector<std::string> n_analyze, n_optimize;
  for (const engine::Policy p : policies) {
    n_analyze.push_back("profibus.analyze." + std::string(engine::to_string(p)));
    n_optimize.push_back("opt.optimize." + std::string(engine::to_string(p)));
  }
  const std::vector<std::string> n_phase{"cache.cold", "cache.extend", "cache.warm"};

  const unsigned main_slot = o.threads;
  Recorder rec(o.threads + 1);
  std::vector<engine::AnalysisEngine> engines(o.threads, engine::AnalysisEngine(sweep.engine));
  const engine::SimulationEngine sim(spec.spec.sim);
  engine::SimOptions setup_opts = spec.spec.sim;
  setup_opts.horizon = 1;
  const engine::SimulationEngine sim_setup(setup_opts);
  std::vector<profibus::NetworkTest> tests;
  if (optimizes) {
    for (const engine::Policy p : policies) {
      tests.push_back(opt::optimize_network_test(p, sweep.engine));
    }
  }
  // Cache passes replay stores of what the analysis computed, keyed like the
  // runner's entries: (canonical scenario hash, per-policy digest).
  const bool caches = !o.cache_dir.empty();
  std::vector<std::uint64_t> scenario_hash(caches ? total : 0);
  std::vector<std::string> payload(caches ? total * n_pol : 0);

  const std::int64_t t0 = now_ns();
  parallel(o.threads, total, [&](std::uint64_t id, unsigned w) {
    const std::size_t root = rec.begin(w, n_scenario, id, 0);
    const std::uint64_t root_id = rec.id(w, root);

    std::size_t at = rec.begin(w, n_generate, id, root_id);
    const engine::Scenario sc = engine::SweepRunner::make_scenario(sweep, id);
    rec.end(w, at);

    if (analyses) {
      for (std::size_t p = 0; p < n_pol; ++p) {
        at = rec.begin(w, n_analyze[p], id, root_id);
        const engine::Report r = engines[w].analyze(sc, policies[p]);
        rec.end(w, at, r.schedulable ? 1 : 0);
        if (caches) {
          payload[id * n_pol + p] = std::to_string(r.schedulable) + ' ' +
                                    std::to_string(r.tcycle) + ' ' +
                                    std::to_string(r.worst_slack);
        }
      }
      engines[w].forget(sc.id);
      if (caches) scenario_hash[id] = engine::canonical_hash(sc);
    }
    if (simulates) {
      for (std::size_t p = 0; p < n_pol; ++p) {
        for (std::uint64_t rep = 0; rep < spec.spec.replications; ++rep) {
          at = rec.begin(w, n_replication, id, root_id);
          const sim::SimReport report = sim.simulate(sc, policies[p], rep);
          rec.end(w, at, report.events);
        }
        at = rec.begin(w, n_sim_setup, id, root_id);
        const sim::SimReport report = sim_setup.simulate(sc, policies[p], 0);
        rec.end(w, at, report.events);
      }
    }
    if (optimizes) {
      for (std::size_t p = 0; p < n_pol; ++p) {
        std::uint64_t probes = 0;
        const profibus::NetworkTest counted = [&](const profibus::Network& net) {
          ++probes;
          return tests[p](net);
        };
        at = rec.begin(w, n_optimize[p], id, root_id);
        static_cast<void>(opt::optimize_policy(sc.net, counted, spec.optimize));
        rec.end(w, at, probes);
      }
    }
    rec.end(w, root, id / sweep.scenarios_per_point);
  });

  if (caches) {
    dist::ResultCache cache(o.cache_dir);
    const std::size_t phase_policies[] = {o.cold_policies, n_pol, n_pol};
    for (std::size_t phase = 0; phase < 3; ++phase) {
      const std::size_t root = rec.begin(main_slot, n_phase[phase], 0, 0);
      const std::uint64_t root_id = rec.id(main_slot, root);
      parallel(o.threads, total, [&](std::uint64_t id, unsigned w) {
        for (std::size_t p = 0; p < phase_policies[phase]; ++p) {
          const engine::CacheKey key{scenario_hash[id], fnv1a(n_analyze[p])};
          std::string loaded;
          std::size_t at = rec.begin(w, n_load, id, root_id);
          const bool hit = cache.load(key, loaded);
          rec.end(w, at, hit ? 1 : 0);
          if (hit) continue;
          const std::string& bytes = payload[id * n_pol + p];
          at = rec.begin(w, n_store, id, root_id);
          cache.store(key, bytes);
          rec.end(w, at, bytes.size());
        }
      });
      rec.end(main_slot, root);
    }
  }

  if (!o.shards.empty()) {
    std::vector<dist::ShardArtifact> artifacts;
    for (std::size_t k = 0; k < o.shards.size(); ++k) {
      const std::string text = read_file(o.shards[k]);
      const std::size_t at = rec.begin(main_slot, n_decode, k, 0);
      artifacts.push_back(dist::ShardArtifact::from_text(text));
      const dist::ShardArtifact& a = artifacts.back();
      rec.end(main_slot, at,
              a.analysis.size() + a.sim.size() + a.combined.size() + a.optimize.size());
    }
    std::size_t at = rec.begin(main_slot, n_merge, 0, 0);
    const dist::MergedSweep merged = dist::merge_shards(artifacts);
    rec.end(main_slot, at, merged.spec.total_scenarios());
    for (std::size_t k = 0; k < artifacts.size(); ++k) {
      at = rec.begin(main_slot, n_encode, k, 0);
      const std::string text = artifacts[k].to_text();
      rec.end(main_slot, at, text.size());
    }
  }
  const std::int64_t wall_ns = now_ns() - t0;

  const long long written = rec.write(o.spans_path);
  if (written < 0) throw std::runtime_error("cannot write " + o.spans_path);
  std::printf("{\"spans\": %lld, \"scenarios\": %llu, \"threads\": %u, \"wall_ns\": %lld}\n",
              written, static_cast<unsigned long long>(total), o.threads,
              static_cast<long long>(wall_ns));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_options(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench_trace --spans FILE --spec FILE [--threads N]\n"
                 "                       [--cache-dir DIR --cold-policies K]\n"
                 "                       [--shards FILE...] -- SUBMIT_FLAGS...\n");
    return 2;
  }
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s\n", e.what());
    return 1;
  }
}
