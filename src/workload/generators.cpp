#include "workload/generators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "profibus/ttr_setting.hpp"
#include "workload/uunifast.hpp"

namespace profisched::workload {

std::vector<double> master_utilization_targets(const NetworkParams& p) {
  if (!p.master_split.empty() && p.master_skew != 0.0) {
    throw std::invalid_argument(
        "master_utilization_targets: master_split and master_skew are mutually exclusive");
  }
  if (p.master_skew < 0.0 || !std::isfinite(p.master_skew)) {
    throw std::invalid_argument("master_utilization_targets: master_skew must be >= 0");
  }
  const bool asymmetric = !p.master_split.empty() || p.master_skew > 0.0;
  if (asymmetric && p.total_u <= 0.0) {
    throw std::invalid_argument(
        "master_utilization_targets: master_split/master_skew require total_u > 0 "
        "(utilization-driven generation)");
  }
  if (!asymmetric) {
    // Symmetric legacy semantics: every master's queue independently carries
    // total_u — NOT a network-wide budget. Keeping this exact (the repeated
    // value is p.total_u itself) is what keeps pre-existing sweeps
    // bit-identical.
    return std::vector<double>(p.n_masters, p.total_u);
  }
  std::vector<double> weights;
  if (!p.master_split.empty()) {
    if (p.master_split.size() != p.n_masters) {
      throw std::invalid_argument("master_utilization_targets: master_split carries " +
                                  std::to_string(p.master_split.size()) + " weights for " +
                                  std::to_string(p.n_masters) + " masters");
    }
    for (const double w : p.master_split) {
      if (!std::isfinite(w) || w <= 0.0) {
        throw std::invalid_argument(
            "master_utilization_targets: split weights must be finite and > 0");
      }
    }
    weights = p.master_split;
  } else {
    weights.resize(p.n_masters);
    for (std::size_t k = 0; k < p.n_masters; ++k) {
      weights[k] = std::pow(1.0 + p.master_skew, static_cast<double>(p.n_masters - 1 - k));
      // (1+skew)^(K-1) overflows to inf (or underflows to 0) for reachable
      // inputs — e.g. 4096 masters at skew 1. inf/inf would turn every
      // target into NaN and flow silently into generated workloads; honour
      // the contract and throw instead.
      if (!std::isfinite(weights[k]) || weights[k] <= 0.0) {
        throw std::invalid_argument(
            "master_utilization_targets: master_skew produces non-finite or zero weights "
            "for this many masters; reduce master_skew or n_masters");
      }
    }
  }
  double sum = 0.0;
  for (const double w : weights) sum += w;
  if (!std::isfinite(sum)) {
    throw std::invalid_argument(
        "master_utilization_targets: per-master weights overflow; reduce master_skew, "
        "the weight magnitudes, or n_masters");
  }
  std::vector<double> targets(p.n_masters);
  for (std::size_t k = 0; k < p.n_masters; ++k) {
    targets[k] = p.total_u * (weights[k] / sum);
  }
  return targets;
}

namespace {

/// llround(x) as Ticks; throws, naming `what`, when x does not fit (NaN
/// included), where llround's result is unspecified and a clamp after it
/// would turn the garbage into a plausible value. Every double below 2^63
/// rounds to a representable Ticks.
Ticks rounded_ticks(double x, const char* what) {
  if (!(x > -0x1p63 && x < 0x1p63)) {
    throw std::invalid_argument(std::string("random generation: ") + what + ' ' +
                                std::to_string(x) + " does not fit in Ticks");
  }
  return static_cast<Ticks>(std::llround(x));
}

/// D = beta·T, rounded (the generators' deadline draw).
Ticks deadline_of(double beta, Ticks period) {
  return rounded_ticks(beta * static_cast<double>(period), "deadline beta*T");
}

}  // namespace

Ticks log_uniform(Ticks lo, Ticks hi, sim::Rng& rng) {
  if (lo >= hi) return lo;
  const double llo = std::log(static_cast<double>(lo));
  const double lhi = std::log(static_cast<double>(hi));
  const double v = std::exp(llo + (lhi - llo) * rng.uniform01());
  return std::clamp(static_cast<Ticks>(std::llround(v)), lo, hi);
}

TaskSet random_task_set(const TaskSetParams& p, sim::Rng& rng) {
  const std::vector<double> u = uunifast(p.n, p.total_u, rng);
  std::vector<profisched::Task> tasks;
  tasks.reserve(p.n);
  for (std::size_t i = 0; i < p.n; ++i) {
    profisched::Task t;
    t.T = log_uniform(p.t_min, p.t_max, rng);
    t.C = std::clamp<Ticks>(static_cast<Ticks>(std::llround(u[i] * static_cast<double>(t.T))),
                            1, t.T);
    const double beta = p.deadline_lo + (p.deadline_hi - p.deadline_lo) * rng.uniform01();
    t.D = std::clamp<Ticks>(deadline_of(beta, t.T), t.C, std::max<Ticks>(t.T, t.C));
    if (p.jitter_max > 0) t.J = rng.uniform(std::min(p.jitter_max, t.D - t.C));
    t.name = "task" + std::to_string(i);
    tasks.push_back(std::move(t));
  }
  return TaskSet{std::move(tasks)};
}

namespace {

/// Legacy generation: log-uniform periods, frame specs interleaved with the
/// period/deadline draws (the RNG draw order is load-bearing for
/// reproducibility of the pre-engine benches — do not reorder).
void fill_period_driven(const NetworkParams& p, GeneratedNetwork& out, sim::Rng& rng) {
  for (std::size_t k = 0; k < p.n_masters; ++k) {
    profibus::Master master;
    master.name = "master" + std::to_string(k);
    for (std::size_t i = 0; i < p.streams_per_master; ++i) {
      profibus::MessageCycleSpec spec{
          .request_chars = rng.uniform(p.request_chars_min, p.request_chars_max),
          .response_chars = rng.uniform(p.response_chars_min, p.response_chars_max),
      };
      profibus::MessageStream s;
      s.Ch = profibus::worst_case_cycle_time(out.net.bus, spec);
      s.T = log_uniform(p.t_min, p.t_max, rng);
      const double beta = p.deadline_lo + (p.deadline_hi - p.deadline_lo) * rng.uniform01();
      s.D = std::max<Ticks>(deadline_of(beta, s.T), s.Ch);
      s.name = master.name + ".s" + std::to_string(i);
      master.high_streams.push_back(std::move(s));
      out.specs[k].push_back(spec);
    }
    if (p.low_priority_traffic) {
      const profibus::MessageCycleSpec lp_spec{
          .request_chars = p.request_chars_max,
          .response_chars = p.response_chars_max,
      };
      master.longest_low_cycle = profibus::worst_case_cycle_time(out.net.bus, lp_spec);
    }
    out.net.masters.push_back(std::move(master));
  }
}

/// UUniFast generation: per-master token-service utilizations drive periods.
/// One token visit serves one request, so the load a master puts on its own
/// queue is Σ_i T_cycle/T_i — THAT is the quantity schedulability pivots on,
/// and the one UUniFast distributes: u_i drawn with Σ u_i = total_u, then
/// T_i = T_cycle/u_i. Needs a fixed T_TR (T_cycle must be known before the
/// periods exist, which rules out the eq.-15 auto mode); frame sizes and Ch
/// stay PROFIBUS-realistic exactly as in the legacy mode.
void fill_utilization_driven(const NetworkParams& p, GeneratedNetwork& out, sim::Rng& rng) {
  if (p.ttr <= 0) {
    throw std::invalid_argument(
        "random_network: total_u > 0 requires an explicit ttr (T_cycle must be "
        "known before periods can be derived from utilizations)");
  }
  // Pass 1 — structure: frame specs and cycle lengths for every stream.
  for (std::size_t k = 0; k < p.n_masters; ++k) {
    profibus::Master master;
    master.name = "master" + std::to_string(k);
    for (std::size_t i = 0; i < p.streams_per_master; ++i) {
      profibus::MessageCycleSpec spec{
          .request_chars = rng.uniform(p.request_chars_min, p.request_chars_max),
          .response_chars = rng.uniform(p.response_chars_min, p.response_chars_max),
      };
      profibus::MessageStream s;
      s.Ch = profibus::worst_case_cycle_time(out.net.bus, spec);
      s.name = master.name + ".s" + std::to_string(i);
      master.high_streams.push_back(std::move(s));
      out.specs[k].push_back(spec);
    }
    if (p.low_priority_traffic) {
      const profibus::MessageCycleSpec lp_spec{
          .request_chars = p.request_chars_max,
          .response_chars = p.response_chars_max,
      };
      master.longest_low_cycle = profibus::worst_case_cycle_time(out.net.bus, lp_spec);
    }
    out.net.masters.push_back(std::move(master));
  }
  // Pass 2 — timing: every cycle length is now known, so eq. 14 gives
  // T_cycle, and the per-master utilization shares give the periods. In the
  // symmetric mode every target equals p.total_u, so the RNG draw sequence is
  // bit-identical to the pre-split generator.
  const std::vector<double> targets = master_utilization_targets(p);
  out.net.ttr = p.ttr;
  const Ticks tcycle = profibus::t_cycle(out.net);
  for (std::size_t k = 0; k < p.n_masters; ++k) {
    const std::vector<double> u = uunifast(p.streams_per_master, targets[k], rng);
    for (std::size_t i = 0; i < p.streams_per_master; ++i) {
      profibus::MessageStream& s = out.net.masters[k].high_streams[i];
      const double ui = std::max(u[i], 1e-9);
      s.T = std::max<Ticks>(s.Ch, rounded_ticks(static_cast<double>(tcycle) / ui, "period"));
      const double beta = p.deadline_lo + (p.deadline_hi - p.deadline_lo) * rng.uniform01();
      s.D = std::max<Ticks>(deadline_of(beta, s.T), s.Ch);
    }
  }
}

}  // namespace

GeneratedNetwork random_network(const NetworkParams& p, sim::Rng& rng) {
  GeneratedNetwork out;
  out.net.bus = profibus::BusParameters{};
  out.specs.resize(p.n_masters);

  if (p.total_u > 0) {
    fill_utilization_driven(p, out, rng);
  } else {
    if (!p.master_split.empty() || p.master_skew != 0.0) {
      // Silently ignoring a split in period-driven mode would make the flag a
      // no-op — the kind of workload drift this layer exists to reject.
      throw std::invalid_argument(
          "random_network: master_split/master_skew require total_u > 0");
    }
    fill_period_driven(p, out, rng);
  }

  if (p.ttr > 0) {
    out.net.ttr = p.ttr;
  } else {
    out.net.ttr = 1;  // placeholder so ttr_range can validate the network
    const auto best = profibus::max_schedulable_ttr(out.net);
    if (best.has_value()) {
      out.net.ttr = *best;
    } else {
      // FCFS-infeasible set: still produce a runnable network. One longest
      // cycle per master over the ring latency keeps the token moving.
      Ticks fallback = out.net.ring_latency();
      for (const profibus::Master& m : out.net.masters) {
        fallback = sat_add(fallback, m.longest_cycle());
      }
      out.net.ttr = fallback;
    }
  }
  return out;
}

}  // namespace profisched::workload
