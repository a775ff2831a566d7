#include "opt/optimizer.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "engine/detail/hash.hpp"
#include "engine/detail/record.hpp"
#include "obs/metrics.hpp"

namespace profisched::opt {

namespace {

/// Probe accounting per bisection axis: each counter totals the verdict
/// evaluations that axis's binary search spent, straight from
/// SensitivityResult::probes. `bisections` counts searches run. The
/// master_verdicts series count how run_optimize's probes reached each master
/// verdict: by an analysis (on any axis; the D/T axis's share separately), or
/// from the per-master bracket without one.
struct OptMetrics {
  obs::Counter bisections = obs::Registry::global().counter("opt.bisections");
  obs::Counter probes_breakdown = obs::Registry::global().counter("opt.probes.breakdown");
  obs::Counter probes_ttr = obs::Registry::global().counter("opt.probes.ttr");
  obs::Counter probes_dratio = obs::Registry::global().counter("opt.probes.dratio");
  obs::Counter analysed = obs::Registry::global().counter("opt.master_verdicts.analysed");
  obs::Counter analysed_dratio =
      obs::Registry::global().counter("opt.master_verdicts.analysed_dratio");
  obs::Counter decided = obs::Registry::global().counter("opt.master_verdicts.decided");
};

OptMetrics& opt_metrics() {
  static OptMetrics m;
  return m;
}

/// The three searches and the PolicyOptimum they assemble, over `probes`:
/// anything that answers the base configuration (base()) and one probe per
/// axis (scaled(q), ttr(T_TR), dratio(q)) for `net`.
template <typename Probes>
PolicyOptimum search(const profibus::Network& net, Probes& probes,
                     const OptimizeOptions& options) {
  OptMetrics& m = opt_metrics();
  PolicyOptimum o;
  o.schedulable = probes.base();

  const auto breakdown = sensitivity::max_satisfying(
      options.scale_lo_q, options.scale_hi_q, [&](Ticks q) { return probes.scaled(q); });
  m.bisections.add(1);
  m.probes_breakdown.add(breakdown.probes);
  if (breakdown) {
    o.breakdown_q = breakdown.value;
    o.breakdown_cap = breakdown.cap_hit;
    o.breakdown_u = breakdown_utilization_at(net, breakdown.value);
  }

  // The T_TR bracket floor: below ring latency + 1 the token starves.
  const Ticks ttr_floor = sat_add(net.ring_latency(), 1);
  const auto ttr = sensitivity::max_satisfying(ttr_floor, std::max(ttr_floor, options.ttr_cap),
                                               [&](Ticks t) { return probes.ttr(t); });
  m.bisections.add(1);
  m.probes_ttr.add(ttr.probes);
  if (ttr) {
    o.max_ttr = ttr.value;
    o.ttr_cap_hit = ttr.cap_hit;
  }

  const auto dratio = sensitivity::min_satisfying(options.dratio_lo_q, options.dratio_hi_q,
                                                  [&](Ticks q) { return probes.dratio(q); });
  m.bisections.add(1);
  m.probes_dratio.add(dratio.probes);
  if (dratio) {
    o.min_dratio_q = dratio.value;
    o.dratio_floor = dratio.cap_hit;
  }
  return o;
}

/// The reference probes: each one builds its network and asks `test`.
struct NetworkProbes {
  const profibus::Network& net;
  const profibus::NetworkTest& test;

  bool base() const { return test(net); }
  bool scaled(Ticks q) const { return test(profibus::with_scaled_frames(net, q)); }
  bool ttr(Ticks ttr) const { return test(profibus::with_ttr(net, ttr)); }
  bool dratio(Ticks q) const { return test(profibus::with_deadline_ratio(net, q)); }
};

/// What the probes of every policy of one scenario share: the validated base
/// network, its masters' cycle maxima and its per-master T_cycle.
struct ProbeBase {
  ProbeBase(const profibus::Network& base, profibus::TcycleMethod m)
      : net(base), method(m), maxima(profibus::cycle_maxima(base)) {
    // Every probe network is valid when the base is: scaling keeps Ch >= 1
    // and Cl >= 0, the T_TR axis starts at ring latency + 1 >= 1, and
    // D = max(Ch, ⌈T·q/1024⌉) >= 1.
    net.validate();
    profibus::t_cycle_per_master(net.ttr, maxima, method, tcycle);
  }

  const profibus::Network& net;
  profibus::TcycleMethod method;
  std::vector<profibus::CycleMaxima> maxima;
  std::vector<Ticks> tcycle;
};

/// Decides one (scenario, policy)'s probes one master at a time with
/// engine::master_schedulable (see optimizer.hpp for why the bracket is
/// exact). The base, breakdown and T_TR probes take their T_cycle vectors
/// from the base's cycle maxima and analyse master k only when T_cycle^k
/// lies strictly inside its bracket; the D/T probes analyse the
/// with_deadline_ratio network at the base T_cycle, with no bracket.
class MasterProbes {
 public:
  MasterProbes(const ProbeBase& base, engine::Policy policy, RtaScratch& scratch)
      : base_(base),
        policy_(policy),
        scratch_(scratch),
        // T_cycle >= T_TR >= 1, so 0 accepts nothing; kNoBound marks "none
        // rejected yet", so the bracket never rejects a saturated T_cycle.
        accepted_(base.maxima.size(), 0),
        rejected_(base.maxima.size(), kNoBound) {}

  bool base() { return t_axis(base_.tcycle); }

  bool scaled(Ticks q) {
    scaled_.clear();
    for (const profibus::CycleMaxima& m : base_.maxima) {
      scaled_.push_back(profibus::scale_cycle_maxima(m, q));
    }
    profibus::t_cycle_per_master(base_.net.ttr, scaled_, base_.method, tcycle_);
    return t_axis(tcycle_);
  }

  bool ttr(Ticks ttr) {
    profibus::t_cycle_per_master(ttr, base_.maxima, base_.method, tcycle_);
    return t_axis(tcycle_);
  }

  bool dratio(Ticks q) {
    const profibus::Network probe = profibus::with_deadline_ratio(base_.net, q);
    return all_masters([&](std::size_t k) {
      ++analysed_dratio_;
      return engine::master_schedulable(probe.masters[k], base_.tcycle[k], policy_, scratch_);
    });
  }

  /// Add this decider's master-verdict counts to the sidecar series.
  void count(OptMetrics& m) const {
    m.analysed.add(analysed_ + analysed_dratio_);
    m.analysed_dratio.add(analysed_dratio_);
    m.decided.add(decided_);
  }

 private:
  /// A probe that changes only the T_cycle vector `tcycle`.
  bool t_axis(const std::vector<Ticks>& tcycle) {
    return all_masters([&](std::size_t k) {
      const Ticks t = tcycle[k];
      if (t <= accepted_[k] || (t >= rejected_[k] && t != kNoBound)) {
        ++decided_;
        return t <= accepted_[k];
      }
      ++analysed_;
      const bool ok = engine::master_schedulable(base_.net.masters[k], t, policy_, scratch_);
      (ok ? accepted_[k] : rejected_[k]) = t;
      return ok;
    });
  }

  /// verdict(k) ANDed over the masters, from the bottleneck on in ring order.
  template <typename Verdict>
  bool all_masters(Verdict&& verdict) {
    const std::size_t n = base_.maxima.size();
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t k = (bottleneck_ + j) % n;
      if (!verdict(k)) {
        bottleneck_ = k;
        return false;
      }
    }
    return true;
  }

  const ProbeBase& base_;
  engine::Policy policy_;
  RtaScratch& scratch_;
  std::vector<Ticks> accepted_;
  std::vector<Ticks> rejected_;
  std::size_t bottleneck_ = 0;
  std::vector<profibus::CycleMaxima> scaled_;
  std::vector<Ticks> tcycle_;
  std::uint64_t analysed_ = 0;
  std::uint64_t analysed_dratio_ = 0;
  std::uint64_t decided_ = 0;
};

}  // namespace

bool optimizable(engine::Policy policy) { return engine::has_master_verdict(policy); }

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
  NetworkProbes probes{net, test};
  return search(net, probes, options);
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
  engine::validate_sweep(spec.sweep, &optimizable, "OptimizeSpec");
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
  OptimizeResult out;
  OptMetrics& m = opt_metrics();  // a fully cached run still shows the opt.* series
  const auto compute = [&](const engine::Scenario& sc, const std::vector<std::size_t>& missing,
                           unsigned) {
    thread_local RtaScratch scratch;
    const ProbeBase base(sc.net, spec.sweep.engine.method);
    std::vector<PolicyOptimum> cells;
    for (const std::size_t p : missing) {
      MasterProbes probes(base, spec.sweep.policies[p], scratch);
      cells.push_back(search(sc.net, probes, spec.options));
      probes.count(m);
    }
    return cells;
  };
  // Optima are a pure function of network content + options (no RNG use
  // past generation), so the scenario half of the key is the plain content
  // hash — equal-content scenarios share entries like analysis records do.
  engine::detail::run_cells(
      runner, spec.sweep, range, cache, OptimizeCells{},
      [&](engine::Policy p) { return optimize_params_digest(p, spec.sweep.engine, spec.options); },
      /*seeded=*/false, engine::detail::stage_timers().analyze, out, compute);
  return out;
}

}  // namespace profisched::opt
