#include "opt/optimizer.hpp"

#include <stdexcept>
#include <string>

#include "engine/detail/hash.hpp"
#include "engine/detail/record.hpp"
#include "obs/metrics.hpp"

namespace profisched::opt {

namespace {

/// Probe accounting per bisection axis: each counter totals the verdict
/// evaluations that axis's binary search spent, straight from
/// SensitivityResult::probes. `bisections` counts searches run. The two
/// stage timers are the sweep runner's series: scenario generation, and the
/// bisections of all of a scenario's policies.
struct OptMetrics {
  obs::Counter bisections = obs::Registry::global().counter("opt.bisections");
  obs::Counter probes_breakdown = obs::Registry::global().counter("opt.probes.breakdown");
  obs::Counter probes_ttr = obs::Registry::global().counter("opt.probes.ttr");
  obs::Counter probes_dratio = obs::Registry::global().counter("opt.probes.dratio");
  obs::Timer generate = obs::Registry::global().timer("runner.generate");
  obs::Timer analyze = obs::Registry::global().timer("runner.analyze");
};

OptMetrics& opt_metrics() {
  static OptMetrics m;
  return m;
}

}  // namespace

bool optimizable(engine::Policy policy) {
  switch (policy) {
    case engine::Policy::Fcfs:
    case engine::Policy::Dm:
    case engine::Policy::Edf:
    case engine::Policy::Opa:
      return true;
    default:
      return false;
  }
}

profibus::NetworkTest optimize_network_test(engine::Policy policy,
                                            const engine::EngineOptions& engine) {
  if (!optimizable(policy)) {
    throw std::invalid_argument(std::string("optimize: policy ") +
                                std::string(engine::to_string(policy)) +
                                " has no verdict to bisect against");
  }
  // The engine's verdict dispatch, minus the per-scenario memo (probes run on
  // mutated networks, which a Scenario-id-keyed memo would poison), so the
  // base verdict here equals the sweep's verdict for the same scenario. One
  // scratch per thread: the predicate is shared by every worker.
  return [policy, engine](const profibus::Network& net) {
    thread_local RtaScratch scratch;
    return engine::network_schedulable(net, profibus::compute_timing(net, engine.method), policy,
                                       scratch);
  };
}

double breakdown_utilization_at(const profibus::Network& net, Ticks q1024) {
  if (q1024 <= 0) return 0.0;
  return profibus::message_utilization(profibus::with_scaled_frames(net, q1024));
}

PolicyOptimum optimize_policy(const profibus::Network& net, const profibus::NetworkTest& test,
                              const OptimizeOptions& options) {
  OptMetrics& m = opt_metrics();
  PolicyOptimum o;
  o.schedulable = test(net);

  const auto breakdown = sensitivity::max_satisfying(
      options.scale_lo_q, options.scale_hi_q,
      [&](Ticks q) { return test(profibus::with_scaled_frames(net, q)); });
  m.bisections.add(1);
  m.probes_breakdown.add(breakdown.probes);
  if (breakdown) {
    o.breakdown_q = breakdown.value;
    o.breakdown_cap = breakdown.cap_hit;
    o.breakdown_u = breakdown_utilization_at(net, breakdown.value);
  }

  const auto ttr = profibus::max_schedulable_ttr(net, test, options.ttr_cap);
  m.bisections.add(1);
  m.probes_ttr.add(ttr.probes);
  if (ttr) {
    o.max_ttr = ttr.value;
    o.ttr_cap_hit = ttr.cap_hit;
  }

  const auto dratio =
      profibus::min_deadline_ratio(net, test, options.dratio_lo_q, options.dratio_hi_q);
  m.bisections.add(1);
  m.probes_dratio.add(dratio.probes);
  if (dratio) {
    o.min_dratio_q = dratio.value;
    o.dratio_floor = dratio.cap_hit;
  }
  return o;
}

namespace {

// Cache record kind 4: the optimizer's entry in the shared ResultCache
// namespace (1 = analysis, 2 = sim, 3 = combined).
constexpr std::uint64_t kOptimizeRecordKind = 4;
/// Bump when the search semantics change: old entries then miss cleanly
/// instead of being misread (layout changes bump OptimizeCells::tag).
constexpr std::uint64_t kOptimizeRecordVersion = 1;

std::uint64_t optimize_params_digest(engine::Policy policy, const engine::EngineOptions& eng,
                                     const OptimizeOptions& opt) {
  engine::detail::Fnv1a64 h;
  h.u64(kOptimizeRecordKind)
      .u64(kOptimizeRecordVersion)
      .u64(static_cast<std::uint64_t>(policy))
      .u64(static_cast<std::uint64_t>(eng.method))
      .u64(static_cast<std::uint64_t>(engine::kFormulation))
      .i64(engine::kFuel)
      .i64(opt.scale_lo_q)
      .i64(opt.scale_hi_q)
      .i64(opt.ttr_cap)
      .i64(opt.dratio_lo_q)
      .i64(opt.dratio_hi_q);
  return h.digest();
}

void validate_spec(const OptimizeSpec& spec) {
  if (spec.sweep.policies.empty()) {
    throw std::invalid_argument("OptimizeSpec: needs >= 1 policy");
  }
  for (const engine::Policy p : spec.sweep.policies) {
    if (!optimizable(p)) {
      throw std::invalid_argument(std::string("OptimizeSpec: policy ") +
                                  std::string(engine::to_string(p)) + " cannot be optimized");
    }
  }
  if (spec.sweep.points.empty() || spec.sweep.scenarios_per_point == 0) {
    throw std::invalid_argument("OptimizeSpec: needs >= 1 point and >= 1 scenario per point");
  }
  const OptimizeOptions& o = spec.options;
  if (o.scale_lo_q < 1 || o.scale_lo_q > o.scale_hi_q) {
    throw std::invalid_argument("OptimizeOptions: scale bracket needs 1 <= lo <= hi");
  }
  if (o.dratio_lo_q < 1 || o.dratio_lo_q > o.dratio_hi_q) {
    throw std::invalid_argument("OptimizeOptions: dratio bracket needs 1 <= lo <= hi");
  }
  if (o.ttr_cap < 1) {
    throw std::invalid_argument("OptimizeOptions: ttr cap needs >= 1");
  }
}

}  // namespace

void OptimizeCells::put(std::string& out, const Cell& c) {
  using engine::detail::field;
  field(out, c.schedulable);
  field(out, c.breakdown_q);
  field(out, c.breakdown_cap);
  field(out, c.breakdown_u);
  field(out, c.max_ttr);
  field(out, c.ttr_cap_hit);
  field(out, c.min_dratio_q);
  field(out, c.dratio_floor);
}

bool OptimizeCells::get(engine::detail::RecordReader& r, Cell& c) {
  return r.flag(c.schedulable) && r.read(c.breakdown_q) && r.flag(c.breakdown_cap) &&
         r.read(c.breakdown_u) && r.read(c.max_ttr) && r.flag(c.ttr_cap_hit) &&
         r.read(c.min_dratio_q) && r.flag(c.dratio_floor);
}

OptimizeResult run_optimize(engine::SweepRunner& runner, const OptimizeSpec& spec,
                            engine::ScenarioCache* cache) {
  return run_optimize(runner, spec, engine::IdRange{0, spec.sweep.total_scenarios()}, cache);
}

OptimizeResult run_optimize(engine::SweepRunner& runner, const OptimizeSpec& spec,
                            engine::IdRange range, engine::ScenarioCache* cache) {
  validate_spec(spec);
  if (range.begin > range.end || range.end > spec.sweep.total_scenarios()) {
    throw std::out_of_range("run_optimize: shard range outside the sweep");
  }
  OptimizeResult out;
  out.outcomes.resize(static_cast<std::size_t>(range.size()));

  // One predicate per policy, shared by every worker: the tests are stateless
  // closures over pure analysis calls, safe to probe concurrently.
  std::vector<profibus::NetworkTest> tests;
  tests.reserve(spec.sweep.policies.size());
  for (const engine::Policy p : spec.sweep.policies) {
    tests.push_back(optimize_network_test(p, spec.sweep.engine));
  }

  std::vector<std::uint64_t> params;
  for (const engine::Policy p : spec.sweep.policies) {
    params.push_back(optimize_params_digest(p, spec.sweep.engine, spec.options));
  }
  const OptimizeCells codec;
  OptMetrics& m = opt_metrics();

  const auto per_scenario = [&](std::uint64_t id, std::size_t i, unsigned) {
    obs::Span gen_span(m.generate);
    const engine::Scenario sc = engine::SweepRunner::make_scenario(spec.sweep, id);
    // Optima are a pure function of network content + options (no RNG use
    // past generation), so the scenario half of the key is the plain content
    // hash — equal-content scenarios share entries like analysis records do.
    const std::uint64_t content = cache != nullptr ? engine::canonical_hash(sc) : 0;
    gen_span.stop();
    const obs::Span stage_span(m.analyze);

    OptimizeOutcome& o = out.outcomes[i];  // disjoint slot per index
    o.id = sc.id;
    o.seed = sc.seed;
    o.point = static_cast<std::size_t>(id) / spec.sweep.scenarios_per_point;
    o.per_policy.reserve(spec.sweep.policies.size());
    for (std::size_t p = 0; p < spec.sweep.policies.size(); ++p) {
      engine::detail::cached_cell(codec, cache, engine::CacheKey{content, params[p]}, o,
                                  [&] { return optimize_policy(sc.net, tests[p], spec.options); });
    }
  };
  runner.run_scenarios(spec.sweep.total_scenarios(), range, out, per_scenario);
  return out;
}

}  // namespace profisched::opt
