#include "engine/analysis_engine.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace profisched::engine {

namespace {

using profibus::MasterAnalysis;
using profibus::NetworkAnalysis;
using profibus::StreamResponse;
using profibus::TimingMemo;

/// A NetworkAnalysis with every stream at the "no bound / miss" default —
/// what OPA reports when no fixed priority order schedules the set.
NetworkAnalysis all_miss(const profibus::Network& net, const TimingMemo& memo) {
  NetworkAnalysis na;
  na.tcycle = memo.tcycle;
  na.schedulable = false;
  na.masters.resize(net.n_masters());
  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    na.masters[k].schedulable = false;
    na.masters[k].streams.resize(net.masters[k].nh());
  }
  return na;
}

/// Timed-token necessary condition: every request needs at least one full
/// token rotation, so D_i >= T_cycle^k must hold under *any* AP policy.
NetworkAnalysis token_ring_check(const profibus::Network& net, const TimingMemo& memo) {
  return profibus::analyze_masters(net, memo, [&](std::size_t k, MasterAnalysis& ma) {
    const profibus::Master& master = net.masters[k];
    for (std::size_t i = 0; i < master.nh(); ++i) {
      StreamResponse& r = ma.streams[i];
      r.response = memo.per_master[k];  // one token visit, best possible
      r.Q = sat_add(r.response, -master.high_streams[i].Ch);
      r.meets_deadline = r.response != kNoBound && r.response <= master.high_streams[i].D;
    }
  });
}

/// Default transaction set for Policy::Holistic: one single-stage transaction
/// per stream, inheriting its period and deadline.
std::vector<profibus::Transaction> per_stream_transactions(const profibus::Network& net) {
  std::vector<profibus::Transaction> txs;
  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    for (std::size_t i = 0; i < net.masters[k].nh(); ++i) {
      const profibus::MessageStream& s = net.masters[k].high_streams[i];
      profibus::Transaction tr;
      tr.stages = {profibus::TransactionStage{.master = k, .stream = i, .task_c = 1}};
      tr.period = s.T;
      tr.deadline = s.D;
      tr.name = s.name;
      txs.push_back(std::move(tr));
    }
  }
  return txs;
}

/// Cheap structural fingerprint so an id collision between different
/// networks invalidates the memo instead of serving stale timing.
Ticks network_fingerprint(const profibus::Network& net) {
  Ticks sum = 0;
  for (const profibus::Master& m : net.masters) {
    for (const profibus::MessageStream& s : m.high_streams) {
      sum = sat_add(sum, sat_add(s.Ch, sat_add(s.T, s.D)));
    }
    sum = sat_add(sum, m.longest_low_cycle);
  }
  return sum;
}

}  // namespace

const profibus::TimingMemo& AnalysisEngine::timing_for(const Scenario& sc) {
  // Validate up front: the memoized timing and token-ring paths would
  // otherwise touch stream parameters (compare against D) before any
  // underlying analysis gets the chance to reject the network.
  sc.net.validate();
  const Ticks fingerprint = network_fingerprint(sc.net);
  if (memo_ && memo_->id == sc.id && memo_->n_streams == sc.net.total_high_streams() &&
      memo_->ttr == sc.net.ttr && memo_->fingerprint == fingerprint) {
    ++hits_;
    return memo_->timing;
  }
  ++misses_;
  memo_ = Memo{sc.id, sc.net.total_high_streams(), sc.net.ttr, fingerprint,
               profibus::compute_timing(sc.net, opt_.method)};
  return memo_->timing;
}

Report AnalysisEngine::analyze(const Scenario& sc, Policy policy) {
  return analyze_network(sc.net, timing_for(sc), policy, scratch_, sc.transactions);
}

VerdictReport AnalysisEngine::verdict(const Scenario& sc, Policy policy) {
  const profibus::TimingMemo& tm = timing_for(sc);
  return {tm.tcycle, network_schedulable(sc.net, tm, policy, scratch_, sc.transactions)};
}

bool has_master_verdict(Policy policy) {
  return policy == Policy::Fcfs || policy == Policy::Dm || policy == Policy::Edf ||
         policy == Policy::Opa;
}

bool master_schedulable(const profibus::Master& master, Ticks tcycle, Policy policy,
                        RtaScratch& scratch) {
  switch (policy) {
    case Policy::Fcfs: return profibus::fcfs_master_schedulable(master, tcycle);
    case Policy::Dm:
      return profibus::dm_master_schedulable(master, tcycle, kFormulation, kFuel, scratch);
    case Policy::Edf: return profibus::edf_master_schedulable(master, tcycle, kFuel, scratch);
    case Policy::Opa:
      return profibus::audsley_master_order(master, tcycle, kFormulation, kFuel, scratch)
          .has_value();
    case Policy::TokenRing:
    case Policy::Holistic: break;
  }
  throw std::invalid_argument(std::string("master_schedulable: policy ") +
                              std::string(to_string(policy)) + " has no per-master verdict");
}

bool network_schedulable(const profibus::Network& net, const TimingMemo& tm, Policy policy,
                         RtaScratch& scratch,
                         const std::vector<profibus::Transaction>& transactions) {
  if (!has_master_verdict(policy)) {
    return analyze_network(net, tm, policy, scratch, transactions).schedulable;
  }
  return profibus::all_masters_schedulable(net, tm, [&](const profibus::Master& m, Ticks tc) {
    return master_schedulable(m, tc, policy, scratch);
  });
}

Report analyze_network(const profibus::Network& net, const TimingMemo& tm, Policy policy,
                       RtaScratch& scratch,
                       const std::vector<profibus::Transaction>& transactions) {
  Report r;
  r.policy = policy;
  r.tcycle = tm.tcycle;
  r.tdel = tm.tdel;

  switch (policy) {
    case Policy::Fcfs:
      r.detail = analyze_fcfs(net, tm);
      r.schedulable = r.detail.schedulable;
      break;
    case Policy::Dm:
      r.detail = analyze_dm(net, tm, kFormulation, kFuel, &scratch);
      r.schedulable = r.detail.schedulable;
      break;
    case Policy::Edf:
      r.detail = analyze_edf(net, tm, nullptr, kFuel, &scratch);
      r.schedulable = r.detail.schedulable;
      break;
    case Policy::Opa: {
      const auto orders = audsley_stream_orders(net, tm, kFormulation, kFuel, &scratch);
      r.detail = orders ? analyze_fixed_priority(net, *orders, tm, kFormulation, kFuel, &scratch)
                        : all_miss(net, tm);
      r.schedulable = r.detail.schedulable;
      break;
    }
    case Policy::TokenRing:
      r.detail = token_ring_check(net, tm);
      r.schedulable = r.detail.schedulable;
      break;
    case Policy::Holistic: {
      const std::vector<profibus::Transaction> derived =
          transactions.empty() ? per_stream_transactions(net) : transactions;
      profibus::HolisticOptions ho;
      ho.policy = profibus::ApPolicy::Dm;
      const profibus::HolisticResult hr = analyze_holistic(net, derived, ho);
      r.detail = hr.network;
      r.schedulable = hr.converged && hr.schedulable;
      break;
    }
  }

  for (std::size_t k = 0; k < r.detail.masters.size(); ++k) {
    const MasterAnalysis& ma = r.detail.masters[k];
    for (std::size_t i = 0; i < ma.streams.size(); ++i) {
      ++r.n_streams;
      const StreamResponse& s = ma.streams[i];
      if (s.meets_deadline) ++r.streams_meeting;
      const Ticks slack = s.response == kNoBound
                              ? std::numeric_limits<Ticks>::min()
                              : net.masters[k].high_streams[i].D - s.response;
      r.worst_slack = r.worst_slack == kNoBound ? slack : std::min(r.worst_slack, slack);
    }
  }
  return r;
}

}  // namespace profisched::engine
