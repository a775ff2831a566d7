#include "engine/simulation_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "profibus/token_ring_analysis.hpp"
#include "sim/rng.hpp"

namespace profisched::engine {

profibus::ApPolicy SimulationEngine::to_ap_policy(Policy p) {
  switch (p) {
    case Policy::Fcfs: return profibus::ApPolicy::Fcfs;
    case Policy::Dm: return profibus::ApPolicy::Dm;
    case Policy::Edf: return profibus::ApPolicy::Edf;
    default:
      throw std::invalid_argument(std::string("SimulationEngine: policy ") +
                                  std::string(to_string(p)) + " has no run-time procedure");
  }
}

std::uint64_t SimulationEngine::rep_seed(std::uint64_t scenario_seed, std::uint64_t rep) {
  // SplitMix64 over (scenario seed, rep): uncorrelated streams per
  // replication, independent of which worker runs it.
  std::uint64_t state = scenario_seed ^ ((rep + 1) * 0xa0761d6478bd642fULL);
  return sim::splitmix64(state);
}

Ticks SimulationEngine::horizon_for(const Scenario& sc) const {
  if (opt_.horizon > 0) return opt_.horizon;
  const Ticks tcycle = profibus::t_cycle(sc.net);
  const double h = opt_.horizon_cycles * static_cast<double>(tcycle);
  const double capped = std::min(h, static_cast<double>(kHorizonCap));
  return std::max<Ticks>(static_cast<Ticks>(std::ceil(capped)), 1);
}

sim::SimConfig SimulationEngine::make_config(const Scenario& sc, Policy policy,
                                             std::uint64_t rep) const {
  sim::SimConfig cfg;
  cfg.net = sc.net;
  cfg.policy = to_ap_policy(policy);
  cfg.horizon = horizon_for(sc);
  cfg.seed = rep_seed(sc.seed, rep);
  cfg.cycle_model = opt_.cycle_model;
  cfg.faults = opt_.faults;
  cfg.collect_histograms = true;

  if (opt_.cycle_model.kind == sim::CycleModel::Kind::FrameLevel) {
    if (sc.frame_specs.size() != sc.net.n_masters()) {
      throw std::invalid_argument(
          "SimulationEngine: FrameLevel cycle model needs Scenario::frame_specs");
    }
    cfg.frame_specs = sc.frame_specs;
  }

  if (rep > 0) {
    // Replications beyond the synchronous one: random per-stream phases drawn
    // from a dedicated stream (cfg.seed stays reserved for in-run sampling).
    // With burst_correlation > 0 every phase is blended toward one
    // network-wide fraction drawn first, aligning releases across streams and
    // masters into correlated bursts; at 0 the draw sequence and phases are
    // exactly the historical ones. Any phasing is admissible to the analysis,
    // so bursts need no degraded bound of their own.
    std::uint64_t phase_state = cfg.seed ^ 0x2545f4914f6cdd1dULL;
    sim::Rng phase_rng(sim::splitmix64(phase_state));
    const double corr = opt_.faults.burst_correlation;
    const double common01 = corr > 0 ? phase_rng.uniform01() : 0.0;
    cfg.hp_traffic.resize(sc.net.n_masters());
    for (std::size_t k = 0; k < sc.net.n_masters(); ++k) {
      for (const profibus::MessageStream& s : sc.net.masters[k].high_streams) {
        const Ticks span = std::max<Ticks>(s.T - 1, 0);
        Ticks phase = phase_rng.uniform(span);
        if (corr > 0) {
          const double common = common01 * static_cast<double>(span);
          phase = static_cast<Ticks>(
              std::llround((1.0 - corr) * static_cast<double>(phase) + corr * common));
        }
        cfg.hp_traffic[k].push_back(sim::TrafficConfig{.phase = phase});
      }
    }
  }

  if (opt_.lp_traffic) {
    cfg.lp_traffic.resize(sc.net.n_masters());
    for (std::size_t k = 0; k < sc.net.n_masters(); ++k) {
      const Ticks cl = sc.net.masters[k].longest_low_cycle;
      if (cl > 0) {
        cfg.lp_traffic[k].push_back(
            sim::LpTraffic{.period = std::max<Ticks>(sc.net.ttr, 1), .cycle_len = cl, .phase = 0});
      }
    }
  }
  return cfg;
}

sim::SimReport SimulationEngine::simulate(const Scenario& sc, Policy policy,
                                          std::uint64_t rep) const {
  return sim::simulate(make_config(sc, policy, rep));
}

sim::GroupReport SimulationEngine::simulate(const Scenario& sc, std::span<const Policy> policies,
                                            std::uint64_t rep) const {
  if (policies.empty()) throw std::invalid_argument("SimulationEngine: needs >= 1 policy");
  std::vector<profibus::ApPolicy> group;
  group.reserve(policies.size());
  for (const Policy p : policies) group.push_back(to_ap_policy(p));
  return sim::simulate(make_config(sc, policies.front(), rep), group);
}

SimSummary SimulationEngine::summarize(const sim::SimReport& r, double quantile) {
  SimSummary out;
  sim::Histogram merged;
  for (const auto& master : r.hp) {
    for (const sim::StreamStats& s : master) {
      out.observed_max = std::max(out.observed_max, s.max_response);
      out.released += s.released;
      out.completed += s.completed;
      out.misses += s.deadline_misses;
      out.dropped += s.dropped;
    }
  }
  for (const auto& master : r.response_hist) {
    for (const sim::Histogram& h : master) merged.merge(h);
  }
  // The histogram quantile reports a bin upper bound; clamp to the exact
  // maximum so the reported percentile never reads above the observed worst
  // case.
  out.observed_p99 = merged.count() > 0 ? std::min(merged.quantile(quantile), out.observed_max)
                                        : out.observed_max;
  return out;
}

}  // namespace profisched::engine
