#include "engine/sweep_runner.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "engine/detail/hash.hpp"
#include "engine/detail/record.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "profibus/fault_bounds.hpp"
#include "sim/rng.hpp"

namespace profisched::engine {

bool has_multi_axis(const std::vector<SweepPoint>& points) {
  for (const SweepPoint& pt : points) {
    if (pt.n_masters != 0) return true;
    if (pt.beta_lo != points.front().beta_lo || pt.beta_hi != points.front().beta_hi) {
      return true;
    }
  }
  return false;
}

SweepRunner::SweepRunner(unsigned threads)
    : pool_(threads == 0 ? ThreadPool::default_threads() : threads) {}

unsigned SweepRunner::threads() const noexcept { return pool_.size(); }

std::uint64_t SweepRunner::scenario_seed(std::uint64_t sweep_seed, std::uint64_t id) {
  // SplitMix64 over (seed, id): uncorrelated per-scenario streams whatever
  // the sweep seed, and — crucially — independent of worker assignment.
  std::uint64_t state = sweep_seed ^ (id * 0x9e3779b97f4a7c15ULL + 0xd1b54a32d192ed03ULL);
  return sim::splitmix64(state);
}

Scenario SweepRunner::make_scenario(const SweepSpec& spec, std::uint64_t id) {
  if (spec.points.empty() || spec.scenarios_per_point == 0) {
    throw std::invalid_argument("SweepSpec: needs >= 1 point and >= 1 scenario per point");
  }
  if (id >= spec.total_scenarios()) {
    throw std::out_of_range("SweepRunner::make_scenario: id outside the sweep");
  }
  const std::size_t point = static_cast<std::size_t>(id) / spec.scenarios_per_point;
  const SweepPoint& pt = spec.points[point];

  workload::NetworkParams params = spec.base;
  params.total_u = pt.total_u;
  params.deadline_lo = pt.beta_lo;
  params.deadline_hi = pt.beta_hi;
  if (pt.n_masters != 0) params.n_masters = pt.n_masters;

  Scenario sc;
  sc.id = id;
  sc.seed = scenario_seed(spec.seed, id);
  sc.total_u = pt.total_u;
  sc.beta_lo = pt.beta_lo;
  sc.beta_hi = pt.beta_hi;
  sim::Rng rng(sc.seed);
  workload::GeneratedNetwork g = workload::random_network(params, rng);
  sc.net = std::move(g.net);
  sc.frame_specs = std::move(g.specs);
  return sc;
}

namespace {

void validate_sim_spec(const SimSweepSpec& spec) {
  if (spec.sweep.policies.empty()) {
    throw std::invalid_argument("SimSweepSpec: needs >= 1 policy");
  }
  if (spec.sweep.points.empty() || spec.sweep.scenarios_per_point == 0) {
    throw std::invalid_argument("SimSweepSpec: needs >= 1 point and >= 1 scenario per point");
  }
  if (spec.replications == 0) {
    throw std::invalid_argument("SimSweepSpec: needs >= 1 replication");
  }
  for (const Policy p : spec.sweep.policies) {
    if (!SimulationEngine::simulable(p)) {
      throw std::invalid_argument(std::string("SimSweepSpec: policy ") +
                                  std::string(to_string(p)) + " cannot be simulated");
    }
  }
}

void validate_range(IdRange range, std::uint64_t total) {
  if (range.begin > range.end || range.end > total) {
    throw std::out_of_range("SweepRunner: shard range outside the sweep");
  }
}

/// Registry handles the runner's hot loops write through. Fetched once per
/// process (function-local static) so per-scenario cost is the relaxed add
/// itself — no registry lookup, no lock. Cache accounting goes through the
/// registry too (detail::cache_counters), so it is the single source of
/// truth; RunStats carries per-run values computed as deltas around each run.
struct RunnerMetrics {
  obs::Counter scenarios_done = obs::Registry::global().counter("runner.scenarios_completed");
  obs::Counter ranges = obs::Registry::global().counter("runner.ranges");
  obs::Counter memo_hits = obs::Registry::global().counter("engine.memo_hits");
  obs::Counter memo_misses = obs::Registry::global().counter("engine.memo_misses");
  obs::Timer range_timer = obs::Registry::global().timer("runner.range");
  obs::Timer generate = obs::Registry::global().timer("runner.generate");
  obs::Timer analyze = obs::Registry::global().timer("runner.analyze");
  obs::Timer simulate = obs::Registry::global().timer("runner.simulate");
};

RunnerMetrics& runner_metrics() {
  static RunnerMetrics m;
  return m;
}

/// Simulation-kernel bridge counters: the kernel's own tallies are plain
/// per-run members (the inner event loop stays untouched); each completed
/// replication folds them into the registry here, at the one funnel every
/// sim-backed mode shares.
struct SimBridgeMetrics {
  obs::Counter replications = obs::Registry::global().counter("sim.replications");
  obs::Counter events = obs::Registry::global().counter("sim.events");
  obs::Counter pool_recycles = obs::Registry::global().counter("sim.pool_recycles");
  obs::Counter tokens_lost = obs::Registry::global().counter("sim.faults.tokens_lost");
  obs::Counter token_skips = obs::Registry::global().counter("sim.faults.token_skips");
  obs::Counter leaves = obs::Registry::global().counter("sim.faults.leaves");
  obs::Counter rejoins = obs::Registry::global().counter("sim.faults.rejoins");
  obs::Counter corrupted = obs::Registry::global().counter("sim.faults.corrupted_cycles");
  obs::Counter retrans = obs::Registry::global().counter("sim.faults.retransmissions");
  obs::Counter churn_dropped = obs::Registry::global().counter("sim.faults.churn_dropped");
};

SimBridgeMetrics& sim_bridge() {
  static SimBridgeMetrics b;
  return b;
}

/// Simulate one (scenario, policy) across every replication, reducing to the
/// sweep's scalar columns. When `per_stream_max` is non-null it receives, per
/// (master, stream), the max observed response over all replications — the
/// quantity the combined mode checks against each analytic bound.
SimSummary simulate_policy(const SimulationEngine& sim, const Scenario& sc, Policy policy,
                           std::size_t replications,
                           std::vector<std::vector<Ticks>>* per_stream_max) {
  SimSummary agg;
  if (per_stream_max != nullptr) {
    per_stream_max->assign(sc.net.n_masters(), {});
    for (std::size_t k = 0; k < sc.net.n_masters(); ++k) {
      (*per_stream_max)[k].assign(sc.net.masters[k].nh(), 0);
    }
  }
  SimBridgeMetrics& b = sim_bridge();
  for (std::size_t rep = 0; rep < replications; ++rep) {
    const sim::SimReport r = sim.simulate(sc, policy, rep);
    b.replications.add(1);
    b.events.add(r.events);
    b.pool_recycles.add(r.pool_recycles);
    b.tokens_lost.add(r.faults.tokens_lost);
    b.token_skips.add(r.faults.token_skips);
    b.leaves.add(r.faults.leaves);
    b.rejoins.add(r.faults.rejoins);
    b.corrupted.add(r.faults.corrupted_cycles);
    b.retrans.add(r.faults.retransmissions);
    b.churn_dropped.add(r.faults.churn_dropped);
    const SimSummary s = SimulationEngine::summarize(r, sim.options().quantile);
    agg.observed_max = std::max(agg.observed_max, s.observed_max);
    agg.observed_p99 = std::max(agg.observed_p99, s.observed_p99);
    agg.released += s.released;
    agg.completed += s.completed;
    agg.misses += s.misses;
    agg.dropped += s.dropped;
    if (per_stream_max != nullptr) {
      for (std::size_t k = 0; k < r.hp.size(); ++k) {
        for (std::size_t i = 0; i < r.hp[k].size(); ++i) {
          (*per_stream_max)[k][i] = std::max((*per_stream_max)[k][i], r.hp[k][i].max_response);
        }
      }
    }
  }
  return agg;
}

// --------------------------------------------------------- cache keys
//
// One cache entry per (scenario, policy) cell, in the mode's cell codec
// (detail/record.hpp). The scenario half of the key is canonical_hash(
// Scenario) for the ANALYSIS records, whose results are a pure function of
// the network content. Simulation outcomes additionally depend on the
// scenario's RNG seed (rep_seed() drives cycle-duration draws and the random
// replication phases), and equal-content different-seed scenarios genuinely
// occur in real sweeps, so the sim/combined keys fold sc.seed into the
// scenario half; serving one such scenario the other's record would silently
// break the cached-equals-recomputed guarantee. The params half digests the
// record kind, the policy, and every option that shapes the result, so any
// knob change misses cleanly instead of serving stale data. The engine's
// fixed formulation, fuel, horizon cap and histogram collection are hashed
// too, where earlier key layouts carried them, so caches written by earlier
// builds keep hitting (tests/dist/test_job.cpp pins the keys).

constexpr std::uint64_t kAnalysisRecordKind = 1;
constexpr std::uint64_t kSimRecordKind = 2;
constexpr std::uint64_t kCombinedRecordKind = 3;

/// Scenario half of a simulation-backed cache key: content digest + the RNG
/// seed the replication streams derive from.
std::uint64_t seeded_content_digest(const Scenario& sc) {
  return detail::Fnv1a64().u64(canonical_hash(sc)).u64(sc.seed).digest();
}

std::uint64_t analysis_params_digest(Policy policy, const EngineOptions& opt) {
  detail::Fnv1a64 h;
  h.u64(kAnalysisRecordKind)
      .u64(static_cast<std::uint64_t>(policy))
      .u64(static_cast<std::uint64_t>(opt.method))
      .u64(static_cast<std::uint64_t>(kFormulation))
      .i64(kFuel);
  return h.digest();
}

std::uint64_t sim_params_digest(Policy policy, const SimOptions& opt, std::size_t replications) {
  detail::Fnv1a64 h;
  h.u64(kSimRecordKind)
      .u64(static_cast<std::uint64_t>(policy))
      .u64(static_cast<std::uint64_t>(opt.cycle_model.kind))
      .f64(opt.cycle_model.min_fraction)
      .f64(opt.cycle_model.slave_fail_prob)
      .i64(opt.horizon)
      .f64(opt.horizon_cycles)
      .i64(kHorizonCap)
      .u64(opt.lp_traffic ? 1 : 0)
      .u64(1)  // histograms collected
      .f64(opt.quantile)
      .u64(replications);
  // Every fault knob shapes simulation outcomes (and the burst correlation
  // shapes replication phases), so all of them fold into the digest — a
  // faulted re-sweep can never be served a steady-state record or vice versa.
  h.f64(opt.faults.token_loss_prob)
      .i64(opt.faults.token_recovery)
      .f64(opt.faults.corruption_prob)
      .i64(opt.faults.max_retransmissions)
      .f64(opt.faults.churn_prob)
      .i64(opt.faults.churn_offline)
      .f64(opt.faults.burst_correlation);
  return h.digest();
}

std::uint64_t combined_params_digest(Policy policy, const EngineOptions& eopt,
                                     const SimOptions& sopt, std::size_t replications) {
  detail::Fnv1a64 h;
  h.u64(kCombinedRecordKind)
      .u64(analysis_params_digest(policy, eopt))
      .u64(sim_params_digest(policy, sopt, replications));
  return h.digest();
}

}  // namespace

void SweepRunner::run_scenarios(std::uint64_t total, IdRange range, RunStats& stats,
                                const ScenarioFn& fn) {
  validate_range(range, total);
  const std::size_t n = static_cast<std::size_t>(range.size());
  RunnerMetrics& m = runner_metrics();
  detail::CacheCounters& cache = detail::cache_counters();
  const std::uint64_t hits0 = cache.hits.value(), misses0 = cache.misses.value();
  m.ranges.add(1);
  // The heartbeat exists only when --progress asked for it; otherwise the
  // per-scenario cost is the single relaxed counter add below.
  std::unique_ptr<obs::ProgressMeter> meter;
  if (obs::progress_enabled()) {
    meter = std::make_unique<obs::ProgressMeter>("scenarios", n);
  }
  obs::Span range_span(m.range_timer);

  // A worker exception (e.g. a generation parameter the workload layer
  // rejects) must surface on the calling thread, not std::terminate the
  // process: capture the first one and rethrow after the pool drains.
  std::exception_ptr first_error;
  std::mutex error_mu;

  const auto t0 = std::chrono::steady_clock::now();
  pool_.parallel_for(n, [&](std::size_t i, unsigned worker) {
    try {
      fn(range.begin + i, i, worker);
      m.scenarios_done.add(1);
      if (meter) meter->tick();
    } catch (...) {
      std::lock_guard lock(error_mu);
      if (!first_error) first_error = std::current_exception();
    }
  });
  const auto t1 = std::chrono::steady_clock::now();
  range_span.stop();
  if (first_error) std::rethrow_exception(first_error);
  stats.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  stats.cache_hits = cache.hits.value() - hits0;
  stats.cache_misses = cache.misses.value() - misses0;
}

SweepResult SweepRunner::run(const SweepSpec& spec, ScenarioCache* cache) {
  return run(spec, IdRange{0, spec.total_scenarios()}, cache);
}

SweepResult SweepRunner::run(const SweepSpec& spec, IdRange range, ScenarioCache* cache) {
  if (spec.policies.empty()) {
    throw std::invalid_argument("SweepSpec: needs >= 1 policy");
  }
  if (spec.points.empty() || spec.scenarios_per_point == 0) {
    throw std::invalid_argument("SweepSpec: needs >= 1 point and >= 1 scenario per point");
  }
  validate_range(range, spec.total_scenarios());
  SweepResult out;
  out.outcomes.resize(static_cast<std::size_t>(range.size()));

  // One engine per worker slot: the timing memo is reused across this
  // scenario's policies without any cross-thread locking.
  std::vector<AnalysisEngine> engines(pool_.size(), AnalysisEngine(spec.engine));

  // Per-policy parameter digests are loop-invariant; hash them once.
  std::vector<std::uint64_t> params;
  for (const Policy p : spec.policies) params.push_back(analysis_params_digest(p, spec.engine));
  RunnerMetrics& m = runner_metrics();
  const detail::AnalysisCells codec;

  const auto per_scenario = [&](std::uint64_t id, std::size_t i, unsigned worker) {
    AnalysisEngine& engine = engines[worker];
    obs::Span gen_span(m.generate);
    const Scenario sc = make_scenario(spec, id);
    const std::uint64_t content = cache != nullptr ? canonical_hash(sc) : 0;
    gen_span.stop();
    const obs::Span stage_span(m.analyze);

    ScenarioOutcome& o = out.outcomes[i];  // disjoint slot per index
    o.id = sc.id;
    o.seed = sc.seed;
    o.point = static_cast<std::size_t>(id) / spec.scenarios_per_point;
    o.schedulable.reserve(spec.policies.size());
    // A cell keeps only T_cycle and the verdict, so it takes the engine's
    // verdict dispatch (EDF stops at the first proven miss).
    for (std::size_t p = 0; p < spec.policies.size(); ++p) {
      detail::cached_cell(codec, cache, CacheKey{content, params[p]}, o, [&] {
        const VerdictReport v = engine.verdict(sc, spec.policies[p]);
        return detail::AnalysisCells::Cell{v.tcycle, v.schedulable};
      });
    }
  };
  run_scenarios(spec.total_scenarios(), range, out, per_scenario);

  for (const AnalysisEngine& e : engines) {
    out.memo_hits += e.memo_hits();
    out.memo_misses += e.memo_misses();
  }
  m.memo_hits.add(out.memo_hits);
  m.memo_misses.add(out.memo_misses);
  return out;
}

SimSweepResult SweepRunner::run_sim(const SimSweepSpec& spec, ScenarioCache* cache) {
  return run_sim(spec, IdRange{0, spec.sweep.total_scenarios()}, cache);
}

SimSweepResult SweepRunner::run_sim(const SimSweepSpec& spec, IdRange range,
                                    ScenarioCache* cache) {
  validate_sim_spec(spec);
  validate_range(range, spec.sweep.total_scenarios());
  SimSweepResult out;
  out.outcomes.resize(static_cast<std::size_t>(range.size()));

  const SimulationEngine sim(spec.sim);  // stateless: shared by every worker
  std::vector<std::uint64_t> params;
  for (const Policy p : spec.sweep.policies) {
    params.push_back(sim_params_digest(p, spec.sim, spec.replications));
  }
  RunnerMetrics& m = runner_metrics();
  const detail::SimCells codec;

  const auto per_scenario = [&](std::uint64_t id, std::size_t i, unsigned) {
    obs::Span gen_span(m.generate);
    const Scenario sc = make_scenario(spec.sweep, id);
    const std::uint64_t content = cache != nullptr ? seeded_content_digest(sc) : 0;
    gen_span.stop();
    const obs::Span stage_span(m.simulate);

    SimScenarioOutcome& o = out.outcomes[i];  // disjoint slot per index
    o.id = sc.id;
    o.seed = sc.seed;
    o.point = static_cast<std::size_t>(id) / spec.sweep.scenarios_per_point;
    o.horizon = sim.horizon_for(sc);
    for (std::size_t p = 0; p < spec.sweep.policies.size(); ++p) {
      detail::cached_cell(codec, cache, CacheKey{content, params[p]}, o, [&] {
        return detail::SimCells::Cell{
            o.horizon,
            simulate_policy(sim, sc, spec.sweep.policies[p], spec.replications, nullptr)};
      });
    }
  };
  run_scenarios(spec.sweep.total_scenarios(), range, out, per_scenario);
  return out;
}

CombinedResult SweepRunner::run_combined(const SimSweepSpec& spec, ScenarioCache* cache) {
  return run_combined(spec, IdRange{0, spec.sweep.total_scenarios()}, cache);
}

CombinedResult SweepRunner::run_combined(const SimSweepSpec& spec, IdRange range,
                                         ScenarioCache* cache) {
  validate_sim_spec(spec);
  validate_range(range, spec.sweep.total_scenarios());
  CombinedResult out;
  out.outcomes.resize(static_cast<std::size_t>(range.size()));

  const SimulationEngine sim(spec.sim);
  const bool faulted = spec.sim.faults.any();
  std::vector<AnalysisEngine> engines(pool_.size(), AnalysisEngine(spec.sweep.engine));
  std::vector<std::uint64_t> params;
  for (const Policy p : spec.sweep.policies) {
    params.push_back(combined_params_digest(p, spec.sweep.engine, spec.sim, spec.replications));
  }
  RunnerMetrics& m = runner_metrics();
  const detail::CombinedCells codec{faulted};

  const auto per_scenario = [&](std::uint64_t id, std::size_t i, unsigned worker) {
    AnalysisEngine& engine = engines[worker];
    obs::Span gen_span(m.generate);
    const Scenario sc = make_scenario(spec.sweep, id);
    const std::uint64_t content = cache != nullptr ? seeded_content_digest(sc) : 0;
    gen_span.stop();

    CombinedOutcome& o = out.outcomes[i];  // disjoint slot per index
    o.sim.id = sc.id;
    o.sim.seed = sc.seed;
    o.sim.point = static_cast<std::size_t>(id) / spec.sweep.scenarios_per_point;
    o.sim.horizon = sim.horizon_for(sc);
    // Under faults the degraded network and timing memo are shared across
    // this scenario's policies (the per-policy degraded analyses dispatch
    // through them), computed lazily so full-hit cached scenarios skip it.
    std::optional<profibus::Network> dnet;
    std::optional<profibus::TimingMemo> dmemo;
    std::vector<std::vector<Ticks>> per_stream_max;
    for (std::size_t p = 0; p < spec.sweep.policies.size(); ++p) {
      const Policy policy = spec.sweep.policies[p];
      detail::cached_cell(codec, cache, CacheKey{content, params[p]}, o, [&] {
        detail::CombinedCells::Cell c;
        c.sim.horizon = o.sim.horizon;
        obs::Span an_span(m.analyze);
        const Report a = engine.analyze(sc, policy);
        const auto max_response = [](const profibus::NetworkAnalysis& na) {
          Ticks wcrt = 0;
          for (const profibus::MasterAnalysis& ma : na.masters) {
            for (const profibus::StreamResponse& sr : ma.streams) {
              if (sr.response == kNoBound) return kNoBound;
              wcrt = std::max(wcrt, sr.response);
            }
          }
          return wcrt;
        };
        c.analytic_schedulable = a.schedulable;
        c.analytic_wcrt = max_response(a.detail);

        // Degraded-mode analysis: the guarantee the FAULTED simulation is
        // held to. The clean columns keep the steady-state verdict (their gap
        // is the price of faults); the consistency check below references
        // the degraded bounds instead.
        profibus::NetworkAnalysis degraded;
        if (faulted) {
          if (!dnet) {
            dnet = profibus::degraded_network(sc.net, spec.sim.faults);
            dmemo = profibus::degraded_timing(*dnet, spec.sim.faults, spec.sweep.engine.method);
          }
          degraded = analyze_network(*dnet, *dmemo, policy, engine.scratch()).detail;
          c.degraded_schedulable = degraded.schedulable;
          c.degraded_wcrt = max_response(degraded);
        }
        an_span.stop();
        {
          const obs::Span sim_span(m.simulate);
          c.sim.s = simulate_policy(sim, sc, policy, spec.replications, &per_stream_max);
        }

        // Per-stream consistency: every bounded reference response (degraded
        // under faults) must dominate that stream's observed max across all
        // replications.
        const profibus::NetworkAnalysis& ref = faulted ? degraded : a.detail;
        for (std::size_t k = 0; k < ref.masters.size(); ++k) {
          for (std::size_t si = 0; si < ref.masters[k].streams.size(); ++si) {
            const Ticks bound = ref.masters[k].streams[si].response;
            if (bound != kNoBound && per_stream_max[k][si] > bound) ++c.bound_violations;
          }
        }
        return c;
      });
    }
  };
  run_scenarios(spec.sweep.total_scenarios(), range, out, per_scenario);

  for (const AnalysisEngine& e : engines) {
    out.memo_hits += e.memo_hits();
    out.memo_misses += e.memo_misses();
  }
  m.memo_hits.add(out.memo_hits);
  m.memo_misses.add(out.memo_misses);
  return out;
}

}  // namespace profisched::engine
