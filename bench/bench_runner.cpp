// bench_runner — the tracked benchmark-regression harness (BENCH_pr9.json).
//
// Unlike the e01–e17 experiment benches (google-benchmark, paper tables),
// this binary exists to pin the repo's measured performance trajectory: it
// times the three hot kernels the PR-4 overhaul reworked and emits one flat
// JSON file CI uploads and diffs against the committed baseline
// (bench/baseline_pr9.json, checked by tools/bench_check.py):
//
//   * per-scenario analyze ns/op — the core fixed-priority / EDF whole-set
//     analyses, measured BOTH through the retained reference implementations
//     (per-task index-span calls, exactly the seed-era analyze loop) and
//     through the SoA + scratch fast path, each key the median window of
//     interleaved reference/fast-path window pairs, so the speedup ratio is
//     computed in-binary and is robust to machine noise;
//   * SIMD dispatch ratios — the same fast paths timed with the vector
//     kernels live vs force_scalar(true), from one binary, as the median
//     ratio over interleaved scalar/vector window pairs, with every result
//     (verdicts, WCRTs, iteration counts) compared bit-for-bit between the
//     two runs; ratio keys are only meaningful when simd_active == 1;
//   * engine scenarios/sec and simulator events/sec — end-to-end rates of
//     the two sweep backends.
//
// Every ref/opt and scalar/vector pair is also cross-checked for identical
// results — a disagreement aborts with a non-zero exit, so CI's "fail on
// crash" also covers silent divergence.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/busy_period.hpp"
#include "core/edf_feasibility.hpp"
#include "core/priority_assignment.hpp"
#include "core/response_time_edf.hpp"
#include "core/response_time_fp.hpp"
#include "core/simd.hpp"
#include "engine/sweep_runner.hpp"
#include "sim/network_sim.hpp"
#include "sim/rng.hpp"
#include "workload/generators.hpp"

namespace profisched::bench {
namespace {

struct Options {
  std::string json_path = "BENCH_pr9.json";
  bool quick = false;  ///< CI smoke: shorter timing windows
};

double min_seconds(const Options& opt) { return opt.quick ? 0.05 : 0.3; }

/// Window pairs behind each timed pair of keys (odd, so a median is one
/// window's reading).
constexpr int kWindowPairs = 7;

double median(std::vector<double> xs) {
  const auto mid = xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 2);
  std::nth_element(xs.begin(), mid, xs.end());
  return *mid;
}

/// Two bodies timed as kWindowPairs interleaved window pairs, the one timed
/// first alternating: each body's median window (ns/op) and the median of
/// the pairs' a/b ratios. One noisy window then sets neither a key nor a
/// ratio taken from a pair of keys.
struct PairTiming {
  double a_ns, b_ns, ratio;
};

template <class BodyA, class BodyB>
PairTiming interleaved(const Options& opt, BodyA&& a, BodyB&& b) {
  std::vector<double> ta, tb, ratio;
  for (int p = 0; p < kWindowPairs; ++p) {
    if (p % 2 == 0) {
      ta.push_back(time_ns_per_op(a, min_seconds(opt)));
      tb.push_back(time_ns_per_op(b, min_seconds(opt)));
    } else {
      tb.push_back(time_ns_per_op(b, min_seconds(opt)));
      ta.push_back(time_ns_per_op(a, min_seconds(opt)));
    }
    ratio.push_back(ta.back() / tb.back());
  }
  return {median(ta), median(tb), median(ratio)};
}

std::vector<TaskSet> task_pool(std::size_t count, std::size_t n, double u) {
  std::vector<TaskSet> pool;
  pool.reserve(count);
  for (std::uint64_t s = 1; s <= count; ++s) {
    sim::Rng rng(s * 7919);
    workload::TaskSetParams p;
    p.n = n;
    p.total_u = u;
    p.deadline_lo = 0.8;
    p.deadline_hi = 1.0;
    pool.push_back(workload::random_task_set(p, rng));
  }
  return pool;
}

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "bench_runner: ref/opt divergence in %s\n", what);
  std::exit(2);
}

/// The seed-era whole-set FP analysis: per-task reference calls with
/// freshly-built index vectors (what analyze_* did before the SoA path).
FpAnalysis reference_fp_analysis(const TaskSet& ts, const PriorityOrder& order, bool preemptive,
                                 Formulation form, int fuel) {
  FpAnalysis out;
  out.per_task.resize(ts.size());
  out.schedulable = true;
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const std::size_t i = order[pos];
    const std::vector<std::size_t> higher(order.begin(),
                                          order.begin() + static_cast<std::ptrdiff_t>(pos));
    const std::vector<std::size_t> lower(order.begin() + static_cast<std::ptrdiff_t>(pos) + 1,
                                         order.end());
    out.per_task[i] = preemptive
                          ? response_time_preemptive(ts, i, higher, fuel)
                          : response_time_nonpreemptive(ts, i, higher, lower, form, fuel);
    if (!out.per_task[i].meets(ts[i].D)) out.schedulable = false;
  }
  return out;
}

bool same(const RtaResult& a, const RtaResult& b) {
  return a.converged == b.converged && a.response == b.response && a.iterations == b.iterations;
}

void core_analyze_metrics(const Options& opt, JsonObject& out, Table& table) {
  const std::vector<TaskSet> pool = task_pool(opt.quick ? 16 : 48, 12, 0.78);
  const int fuel = 1 << 16;

  std::vector<PriorityOrder> orders;
  orders.reserve(pool.size());
  for (const TaskSet& ts : pool) orders.push_back(deadline_monotonic_order(ts));

  // Cross-check once up front: the SoA path must reproduce the reference
  // RtaResults exactly, iteration counts included.
  RtaScratch scratch;
  for (std::size_t s = 0; s < pool.size(); ++s) {
    const FpAnalysis ref = reference_fp_analysis(pool[s], orders[s], /*preemptive=*/false,
                                                 kDefaultFormulation, fuel);
    const FpAnalysis fast =
        analyze_nonpreemptive_fp(pool[s], orders[s], kDefaultFormulation, fuel, scratch);
    if (ref.schedulable != fast.schedulable || ref.per_task.size() != fast.per_task.size()) {
      die("np-dm analyze");
    }
    for (std::size_t i = 0; i < ref.per_task.size(); ++i) {
      if (!same(ref.per_task[i], fast.per_task[i])) die("np-dm analyze");
    }
  }

  const auto per_set = [&](double total_ns) {
    return total_ns / static_cast<double>(pool.size());
  };

  const PairTiming np = interleaved(
      opt,
      [&] {
        for (std::size_t s = 0; s < pool.size(); ++s) {
          const FpAnalysis a = reference_fp_analysis(pool[s], orders[s], false,
                                                     kDefaultFormulation, fuel);
          sink(&a);
        }
      },
      [&] {
        for (std::size_t s = 0; s < pool.size(); ++s) {
          const FpAnalysis a =
              analyze_nonpreemptive_fp(pool[s], orders[s], kDefaultFormulation, fuel, scratch);
          sink(&a);
        }
      });
  const double np_ref = per_set(np.a_ns);
  const double np_opt = per_set(np.b_ns);
  out.put("core_np_dm_analyze_ns_ref", np_ref);
  out.put("core_np_dm_analyze_ns_opt", np_opt);
  table.row({"NP-DM analyze (ns/set)", fmt(np_ref, 0), fmt(np_opt, 0), fmt(np_ref / np_opt, 2)});

  // EDF whole-set analysis: reference per-task scan vs SoA + offset warm.
  for (const TaskSet& ts : pool) {
    EdfAnalysis ref;
    ref.per_task.resize(ts.size());
    ref.schedulable = true;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      ref.per_task[i] = edf_response_time_preemptive(ts, i, fuel);
      if (!ref.per_task[i].meets(ts[i].D)) ref.schedulable = false;
    }
    const EdfAnalysis fast = analyze_preemptive_edf(ts, fuel, scratch);
    if (ref.schedulable != fast.schedulable) die("edf analyze");
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (ref.per_task[i].converged != fast.per_task[i].converged ||
          ref.per_task[i].response != fast.per_task[i].response ||
          ref.per_task[i].critical_offset != fast.per_task[i].critical_offset ||
          ref.per_task[i].offsets_examined != fast.per_task[i].offsets_examined) {
        die("edf analyze");
      }
    }
  }

  const PairTiming edf = interleaved(
      opt,
      [&] {
        for (const TaskSet& ts : pool) {
          for (std::size_t i = 0; i < ts.size(); ++i) {
            const EdfRtaResult r = edf_response_time_preemptive(ts, i, fuel);
            sink(&r);
          }
        }
      },
      [&] {
        for (const TaskSet& ts : pool) {
          const EdfAnalysis a = analyze_preemptive_edf(ts, fuel, scratch);
          sink(&a);
        }
      });
  const double edf_ref = per_set(edf.a_ns);
  const double edf_opt_ns = per_set(edf.b_ns);
  out.put("core_edf_analyze_ns_ref", edf_ref);
  out.put("core_edf_analyze_ns_opt", edf_opt_ns);
  table.row(
      {"EDF analyze (ns/set)", fmt(edf_ref, 0), fmt(edf_opt_ns, 0), fmt(edf_ref / edf_opt_ns, 2)});

  // Busy period: reference TaskSet walk vs a bound view. Views are bound
  // once per set (the amortization every whole-set analysis gets — binding
  // inside the timed loop would charge the copy to a kernel that, in real
  // use, shares it with every other kernel of the same scenario).
  std::vector<TaskSetArena> arenas(pool.size());
  std::vector<const TaskSetView*> views;
  views.reserve(pool.size());
  for (std::size_t s = 0; s < pool.size(); ++s) views.push_back(&arenas[s].bind(pool[s]));
  for (std::size_t s = 0; s < pool.size(); ++s) {
    const BusyPeriod a = synchronous_busy_period(pool[s]);
    const BusyPeriod b = synchronous_busy_period(*views[s]);
    if (a.length != b.length || a.iterations != b.iterations) die("busy period");
  }
  const PairTiming bp = interleaved(
      opt,
      [&] {
        for (const TaskSet& ts : pool) {
          const BusyPeriod b = synchronous_busy_period(ts);
          sink(&b);
        }
      },
      [&] {
        for (const TaskSetView* v : views) {
          const BusyPeriod b = synchronous_busy_period(*v);
          sink(&b);
        }
      });
  const double bp_ref = per_set(bp.a_ns);
  const double bp_opt = per_set(bp.b_ns);
  out.put("core_busy_period_ns_ref", bp_ref);
  out.put("core_busy_period_ns_opt", bp_opt);
  table.row({"busy period (ns/set)", fmt(bp_ref, 0), fmt(bp_opt, 0), fmt(bp_ref / bp_opt, 2)});
}

/// Vector-vs-scalar dispatch ratios: the same optimized paths, same binary,
/// timed with the lane kernels live and with force_scalar(true). Results are
/// compared bit-for-bit between the two runs first — any divergence aborts.
/// When no backend is active (non-AVX2 host, PROFISCHED_SIMD=0) only
/// simd_active / simd_backend are emitted, so tools/bench_check.py knows to
/// skip the ratio gates.
void simd_metrics(const Options& opt, JsonObject& out, Table& table) {
  const bool active = simd::active() != nullptr;
  out.put("simd_active", static_cast<std::uint64_t>(active ? 1 : 0));
  out.put("simd_backend", std::string(simd::backend_name()));
  table.row({"SIMD backend", "-", simd::backend_name(), active ? "live" : "off"});
  if (!active) return;

  const std::vector<TaskSet> pool = task_pool(opt.quick ? 16 : 48, 12, 0.78);
  const int fuel = 1 << 16;
  std::vector<PriorityOrder> orders;
  orders.reserve(pool.size());
  for (const TaskSet& ts : pool) orders.push_back(deadline_monotonic_order(ts));
  RtaScratch scratch;

  // Cross-check: scalar and vector runs of every pool set must agree on
  // verdicts, WCRTs and iteration counts exactly.
  for (std::size_t s = 0; s < pool.size(); ++s) {
    const FpAnalysis fp_vec =
        analyze_nonpreemptive_fp(pool[s], orders[s], kDefaultFormulation, fuel, scratch);
    const EdfAnalysis edf_vec = analyze_preemptive_edf(pool[s], fuel, scratch);
    simd::force_scalar(true);
    const FpAnalysis fp_sc =
        analyze_nonpreemptive_fp(pool[s], orders[s], kDefaultFormulation, fuel, scratch);
    const EdfAnalysis edf_sc = analyze_preemptive_edf(pool[s], fuel, scratch);
    simd::force_scalar(false);
    if (fp_sc.schedulable != fp_vec.schedulable) die("simd np-dm analyze");
    for (std::size_t i = 0; i < fp_sc.per_task.size(); ++i) {
      if (!same(fp_sc.per_task[i], fp_vec.per_task[i])) die("simd np-dm analyze");
    }
    if (edf_sc.schedulable != edf_vec.schedulable) die("simd edf analyze");
    for (std::size_t i = 0; i < edf_sc.per_task.size(); ++i) {
      if (edf_sc.per_task[i].converged != edf_vec.per_task[i].converged ||
          edf_sc.per_task[i].response != edf_vec.per_task[i].response ||
          edf_sc.per_task[i].offsets_examined != edf_vec.per_task[i].offsets_examined) {
        die("simd edf analyze");
      }
    }
  }

  // Scalar windows against vector windows; each key is the median ratio.
  // Setting the dispatch per op costs one atomic store per pool pass.
  const auto timed = [&](auto&& body) {
    const PairTiming t = interleaved(
        opt,
        [&] {
          simd::force_scalar(true);
          body();
        },
        [&] {
          simd::force_scalar(false);
          body();
        });
    simd::force_scalar(false);
    return t;
  };

  const auto report = [&](const char* key, const char* label, const PairTiming& t) {
    out.put(key, t.ratio);
    table.row({label, fmt(t.a_ns / static_cast<double>(pool.size()), 0),
               fmt(t.b_ns / static_cast<double>(pool.size()), 0), fmt(t.ratio, 2)});
  };

  const PairTiming np = timed([&] {
    for (std::size_t s = 0; s < pool.size(); ++s) {
      const FpAnalysis a =
          analyze_nonpreemptive_fp(pool[s], orders[s], kDefaultFormulation, fuel, scratch);
      sink(&a);
    }
  });
  report("core_np_dm_simd_ratio", "NP-DM analyze scalar/vector", np);

  const PairTiming edf = timed([&] {
    for (const TaskSet& ts : pool) {
      const EdfAnalysis a = analyze_preemptive_edf(ts, fuel, scratch);
      sink(&a);
    }
  });
  report("core_edf_simd_ratio", "EDF analyze scalar/vector", edf);

  std::vector<TaskSetArena> arenas(pool.size());
  std::vector<const TaskSetView*> views;
  views.reserve(pool.size());
  for (std::size_t s = 0; s < pool.size(); ++s) views.push_back(&arenas[s].bind(pool[s]));
  const PairTiming bp = timed([&] {
    for (const TaskSetView* v : views) {
      const BusyPeriod b = synchronous_busy_period(*v);
      sink(&b);
    }
  });
  report("core_busy_simd_ratio", "busy period scalar/vector", bp);
}

void engine_metrics(const Options& opt, JsonObject& out, Table& table) {
  engine::SweepSpec spec;
  spec.base.n_masters = 3;
  spec.base.streams_per_master = 4;
  spec.base.ttr = 3'000;  // UUniFast generation derives periods from T_cycle
  spec.points = {{0.3, 0.5, 1.0}, {0.6, 0.5, 1.0}, {0.85, 0.5, 1.0}};
  spec.scenarios_per_point = opt.quick ? 20 : 60;
  spec.policies = {engine::Policy::Fcfs, engine::Policy::Dm, engine::Policy::Edf};

  engine::SweepRunner runner(1);  // single-threaded: a per-core rate, stable in CI
  engine::SweepResult r = runner.run(spec);
  const double seconds_per_run = time_ns_per_op([&] { r = runner.run(spec); },
                                                min_seconds(opt)) / 1e9;
  const double rate = static_cast<double>(spec.total_scenarios()) / seconds_per_run;
  out.put("engine_scenarios_per_sec", rate);
  out.put("engine_scenarios_per_run", static_cast<std::uint64_t>(spec.total_scenarios()));
  table.row({"engine analyze (scenarios/s, 1 thread)", "-", fmt(rate, 0), "-"});
}

void sim_metrics(const Options& opt, JsonObject& out, Table& table) {
  workload::NetworkParams p;
  p.n_masters = 3;
  p.streams_per_master = 4;
  sim::Rng rng(99);
  const workload::GeneratedNetwork g = workload::random_network(p, rng);

  sim::SimConfig cfg;
  cfg.net = g.net;
  cfg.policy = profibus::ApPolicy::Dm;
  cfg.seed = 1234;
  cfg.horizon = opt.quick ? 1'000'000 : 4'000'000;

  std::uint64_t events = 0;
  const double seconds_per_run = time_ns_per_op(
      [&] {
        const sim::SimReport r = sim::simulate(cfg);
        events = r.events;
        sink(&r);
      },
      min_seconds(opt)) / 1e9;
  const double rate = static_cast<double>(events) / seconds_per_run;
  out.put("sim_events_per_sec", rate);
  out.put("sim_events_per_run", events);
  table.row({"simulator (events/s)", "-", fmt(rate, 0), "-"});
}

int run(const Options& opt) {
  JsonObject out;
  out.put("schema", std::string("profisched-bench-pr9-v1"));
#ifdef NDEBUG
  out.put("build", std::string("Release"));
#else
  out.put("build", std::string("Debug"));
#endif
  out.put("quick", static_cast<std::uint64_t>(opt.quick ? 1 : 0));

  banner("bench_runner", "hot-path kernel regression harness (PR 9)");
  Table table({"kernel", "reference", "optimized", "speedup"});
  core_analyze_metrics(opt, out, table);
  simd_metrics(opt, out, table);
  engine_metrics(opt, out, table);
  sim_metrics(opt, out, table);
  table.print();

  std::ofstream f(opt.json_path, std::ios::binary);
  if (!f.good()) {
    std::fprintf(stderr, "bench_runner: cannot write %s\n", opt.json_path.c_str());
    return 1;
  }
  f << out.str();
  std::printf("\nwrote %s\n", opt.json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace profisched::bench

int main(int argc, char** argv) {
  profisched::bench::Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opt.quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      opt.json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_runner [--quick] [--json PATH]\n");
      return 1;
    }
  }
  return profisched::bench::run(opt);
}
