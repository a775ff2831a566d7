// The group run's equivalence property: sim::simulate(cfg, policies) runs
// FCFS, DM and EDF as one simulation that forks only where their dispatch
// differs, and every policy's report must equal its one-policy run field by
// field — stream and token stats, fault counts, histograms, `events`,
// `pool_recycles` and `lp_cycles_completed`. The grid covers each fault knob
// alone, LP traffic, FrameLevel cycles with slave failures, the synchronous
// replication and random phases, U from 0.3 to 1.2, and a network whose
// streams share one D (the policies never split there). Every non-empty
// subset of the three policies runs in every order.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "engine/simulation_engine.hpp"
#include "engine/sweep_runner.hpp"
#include "sim/network_sim.hpp"

namespace profisched {
namespace {

using engine::Policy;
using profibus::ApPolicy;

/// The first field in which two reports differ, or "" when they are equal.
std::string first_difference(const sim::SimReport& a, const sim::SimReport& b) {
  if (a.events != b.events) return "events";
  if (a.pool_recycles != b.pool_recycles) return "pool_recycles";
  if (a.lp_cycles_completed != b.lp_cycles_completed) return "lp_cycles_completed";
  if (a.horizon != b.horizon) return "horizon";
  if (a.faults != b.faults) return "fault counts";
  if (a.hp.size() != b.hp.size() || a.token.size() != b.token.size()) return "masters";
  if (a.response_hist.size() != b.response_hist.size()) return "histogram masters";
  for (std::size_t k = 0; k < a.hp.size(); ++k) {
    const std::string master = " of master " + std::to_string(k);
    if (a.token[k] != b.token[k]) return "token stats" + master;
    if (a.hp[k].size() != b.hp[k].size()) return "streams" + master;
    for (std::size_t i = 0; i < a.hp[k].size(); ++i) {
      const std::string stream = " of stream " + std::to_string(i) + master;
      if (a.hp[k][i] != b.hp[k][i]) return "stream stats" + stream;
      if (a.response_hist.empty()) continue;
      if (a.response_hist[k][i] != b.response_hist[k][i]) return "histogram" + stream;
    }
  }
  return a == b ? "" : "operator== disagrees with the field walk";
}

/// Every non-empty subset of {FCFS, DM, EDF}, in every order (15 groups).
std::vector<std::vector<Policy>> all_groups() {
  std::vector<std::vector<Policy>> out;
  const std::vector<Policy> all{Policy::Fcfs, Policy::Dm, Policy::Edf};
  for (unsigned mask = 1; mask < 8; ++mask) {
    std::vector<Policy> g;
    for (std::size_t b = 0; b < all.size(); ++b) {
      if ((mask >> b) & 1U) g.push_back(all[b]);
    }
    std::sort(g.begin(), g.end());
    do {
      out.push_back(g);
    } while (std::next_permutation(g.begin(), g.end()));
  }
  return out;
}

/// Three-master, four-stream networks at U 0.3, 0.6, 0.9 and 1.2, deadlines
/// in [T/2, T] (so DM and EDF orders differ from FIFO).
engine::SweepSpec grid_spec() {
  engine::SweepSpec spec;
  spec.base.n_masters = 3;
  spec.base.streams_per_master = 4;
  spec.base.ttr = 3'000;
  for (const double u : {0.3, 0.6, 0.9, 1.2}) spec.points.push_back({u, 0.5, 1.0});
  spec.scenarios_per_point = 3;
  spec.seed = 2;
  return spec;
}

/// The grid's simulation options, by name: faults off, each fault knob
/// alone, LP traffic, and the two sampled cycle models.
std::vector<std::pair<std::string, engine::SimOptions>> cases() {
  std::vector<std::pair<std::string, engine::SimOptions>> out;
  engine::SimOptions o;
  out.emplace_back("faults off", o);
  o = {};
  o.faults.token_loss_prob = 0.05;
  o.faults.token_recovery = 800;
  out.emplace_back("token loss", o);
  o = {};
  o.faults.corruption_prob = 0.1;
  o.faults.max_retransmissions = 2;
  out.emplace_back("corruption", o);
  o = {};
  o.faults.churn_prob = 0.02;
  o.faults.churn_offline = 5'000;
  out.emplace_back("churn", o);
  o = {};
  o.faults.burst_correlation = 0.7;
  out.emplace_back("bursts", o);
  o = {};
  o.lp_traffic = true;
  out.emplace_back("LP traffic", o);
  o = {};
  o.cycle_model.kind = sim::CycleModel::Kind::FrameLevel;
  o.cycle_model.slave_fail_prob = 0.2;
  out.emplace_back("FrameLevel with slave failures", o);
  o = {};
  o.cycle_model.kind = sim::CycleModel::Kind::UniformFraction;
  o.cycle_model.min_fraction = 0.4;
  out.emplace_back("UniformFraction", o);
  return out;
}

/// Splits seen across a whole grid: all of them, and those of groups that
/// hold DM and EDF but not FCFS.
struct SplitTally {
  std::uint64_t all = 0;
  std::uint64_t dm_edf = 0;
};

/// Every group of `sc`'s replication `rep` against the three solo runs.
void expect_groups_match_solo(const engine::SimulationEngine& sim, const engine::Scenario& sc,
                              std::uint64_t rep, const std::string& where, SplitTally& tally) {
  std::vector<sim::SimReport> solo;
  for (const Policy p : {Policy::Fcfs, Policy::Dm, Policy::Edf}) {
    solo.push_back(sim.simulate(sc, p, rep));
  }
  for (const std::vector<Policy>& group : all_groups()) {
    const sim::GroupReport g = sim.simulate(sc, group, rep);
    ASSERT_EQ(g.reports.size(), group.size());
    std::uint64_t total = 0, longest = 0;
    for (std::size_t j = 0; j < group.size(); ++j) {
      const sim::SimReport& expect = solo[static_cast<std::size_t>(group[j])];
      EXPECT_EQ(first_difference(g.reports[j], expect), "")
          << where << ", policy " << engine::to_string(group[j]) << " of a group of "
          << group.size();
      total += g.reports[j].events;
      longest = std::max(longest, g.reports[j].events);
    }
    // The kernels ran at least the longest run and at most all of them, and
    // a group of n splits at most n - 1 times.
    EXPECT_GE(g.events_executed, longest) << where;
    EXPECT_LE(g.events_executed, total) << where;
    EXPECT_LT(g.splits, group.size()) << where;
    if (group.size() == 1) {
      EXPECT_EQ(g.events_executed, g.reports[0].events) << where;
      EXPECT_EQ(g.splits, 0U) << where;
    }
    tally.all += g.splits;
    if (group.size() == 2 && std::ranges::find(group, Policy::Fcfs) == group.end()) {
      tally.dm_edf += g.splits;
    }
  }
}

TEST(PolicyGroups, EveryGroupMatchesItsSoloRunsAcrossTheGrid) {
  const engine::SweepSpec spec = grid_spec();
  SplitTally tally;
  for (const auto& [name, opt] : cases()) {
    const engine::SimulationEngine sim(opt);
    for (std::uint64_t id = 0; id < spec.total_scenarios(); ++id) {
      const engine::Scenario sc = engine::SweepRunner::make_scenario(spec, id);
      const std::string where = name + ", scenario " + std::to_string(id) + ", replication ";
      for (std::uint64_t rep = 0; rep < 2; ++rep) {
        expect_groups_match_solo(sim, sc, rep, where + std::to_string(rep), tally);
      }
    }
  }
  // The grid reaches the forks, including those between DM and EDF alone.
  EXPECT_GT(tally.all, 0U);
  EXPECT_GT(tally.dm_edf, 0U);
}

TEST(PolicyGroups, StreamsSharingOneDeadlineNeverSplit) {
  // With one D on every stream, DM's and EDF's orders are the release order,
  // which is FCFS's: the three policies are one run to the horizon.
  engine::SweepSpec spec = grid_spec();
  engine::SimOptions opt;
  opt.faults.token_loss_prob = 0.02;
  opt.faults.token_recovery = 800;
  const engine::SimulationEngine sim(opt);
  const std::vector<Policy> all{Policy::Fcfs, Policy::Dm, Policy::Edf};
  for (std::uint64_t id = 0; id < spec.total_scenarios(); ++id) {
    engine::Scenario sc = engine::SweepRunner::make_scenario(spec, id);
    Ticks d = kNoBound;
    for (const profibus::Master& m : sc.net.masters) {
      for (const profibus::MessageStream& s : m.high_streams) d = std::min(d, s.T);
    }
    for (profibus::Master& m : sc.net.masters) {
      for (profibus::MessageStream& s : m.high_streams) s.D = d;
    }
    for (std::uint64_t rep = 0; rep < 2; ++rep) {
      const sim::GroupReport g = sim.simulate(sc, all, rep);
      EXPECT_EQ(g.splits, 0U) << "scenario " << id;
      EXPECT_EQ(g.events_executed, g.reports[0].events) << "scenario " << id;
      for (std::size_t j = 0; j < all.size(); ++j) {
        EXPECT_EQ(first_difference(g.reports[j], sim.simulate(sc, all[j], rep)), "")
            << "scenario " << id << ", " << engine::to_string(all[j]);
      }
    }
  }
}

sim::SimConfig small_config() {
  const engine::Scenario sc = engine::SweepRunner::make_scenario(grid_spec(), 4);
  return engine::SimulationEngine().make_config(sc, Policy::Fcfs, 1);
}

TEST(PolicyGroups, RefusesEmptyAndRepeatedGroups) {
  const sim::SimConfig cfg = small_config();
  EXPECT_THROW((void)sim::simulate(cfg, std::vector<ApPolicy>{}), std::invalid_argument);
  EXPECT_THROW((void)sim::simulate(cfg, std::vector<ApPolicy>{ApPolicy::Dm, ApPolicy::Dm}),
               std::invalid_argument);
  EXPECT_THROW((void)sim::simulate(
                   cfg, std::vector<ApPolicy>{ApPolicy::Edf, ApPolicy::Fcfs, ApPolicy::Edf}),
               std::invalid_argument);
}

TEST(PolicyGroups, RefusesTraceAndListenerInGroupsButNotAlone) {
  struct Silent final : sim::SimListener {
    void on_fault(const sim::FaultEvent&) override {}
  };
  sim::Trace trace(64);
  Silent listener;
  const std::vector<ApPolicy> two{ApPolicy::Fcfs, ApPolicy::Edf};
  const std::vector<ApPolicy> one{ApPolicy::Edf};

  sim::SimConfig traced = small_config();
  traced.trace = &trace;
  EXPECT_THROW((void)sim::simulate(traced, two), std::invalid_argument);
  EXPECT_NO_THROW((void)sim::simulate(traced, one));

  sim::SimConfig observed = small_config();
  observed.listener = &listener;
  EXPECT_THROW((void)sim::simulate(observed, two), std::invalid_argument);
  EXPECT_NO_THROW((void)sim::simulate(observed, one));
}

TEST(PolicyGroups, SoloSimulateIsTheOnePolicyGroup) {
  sim::SimConfig cfg = small_config();
  for (const ApPolicy p : {ApPolicy::Fcfs, ApPolicy::Dm, ApPolicy::Edf}) {
    cfg.policy = p;
    const sim::GroupReport g = sim::simulate(cfg, std::vector<ApPolicy>{p});
    ASSERT_EQ(g.reports.size(), 1U);
    EXPECT_EQ(first_difference(g.reports[0], sim::simulate(cfg)), "");
  }
}

}  // namespace
}  // namespace profisched
