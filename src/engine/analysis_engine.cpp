#include "engine/analysis_engine.hpp"

#include <algorithm>
#include <limits>
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

}  // namespace

namespace {

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

AnalysisEngine::Memo& AnalysisEngine::memo_for(const Scenario& sc) {
  const Ticks fingerprint = network_fingerprint(sc.net);
  const auto it = memo_.find(sc.id);
  if (it != memo_.end() && it->second.n_streams == sc.net.total_high_streams() &&
      it->second.ttr == sc.net.ttr && it->second.fingerprint == fingerprint) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  Memo& m = memo_[sc.id];
  m.timing = profibus::compute_timing(sc.net, opt_.method);
  m.n_streams = sc.net.total_high_streams();
  m.ttr = sc.net.ttr;
  m.fingerprint = fingerprint;
  return m;
}

const profibus::TimingMemo& AnalysisEngine::timing(const Scenario& sc) {
  return memo_for(sc).timing;
}

Report AnalysisEngine::analyze(const Scenario& sc, Policy policy) {
  // Validate up front: the memoized timing and token-ring paths would
  // otherwise touch stream parameters (compare against D) before any
  // underlying analysis gets the chance to reject the network.
  sc.net.validate();
  return analyze_with(sc, policy, memo_for(sc));
}

std::vector<Report> AnalysisEngine::analyze_all(const Scenario& sc,
                                                std::span<const Policy> policies) {
  if (policies.empty()) return {};
  sc.net.validate();
  Memo& m = memo_for(sc);
  // Every policy after the first is served from the shared bind — keep the
  // hit counter equivalent to the per-policy analyze() sequence it replaces.
  hits_ += policies.size() - 1;
  std::vector<Report> out;
  out.reserve(policies.size());
  for (const Policy policy : policies) out.push_back(analyze_with(sc, policy, m));
  return out;
}

Report AnalysisEngine::analyze_with(const Scenario& sc, Policy policy, Memo& m) {
  return analyze_network(sc.net, m.timing, policy, opt_, scratch_, sc.transactions);
}

Report analyze_network(const profibus::Network& net, const TimingMemo& tm, Policy policy,
                       const EngineOptions& opt, RtaScratch& scratch,
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
      r.detail = analyze_dm(net, tm, opt.formulation, opt.fuel, &scratch);
      r.schedulable = r.detail.schedulable;
      break;
    case Policy::Edf:
      r.detail = analyze_edf(net, tm, nullptr, opt.fuel, &scratch);
      r.schedulable = r.detail.schedulable;
      break;
    case Policy::Opa: {
      const auto orders = audsley_stream_orders(net, tm, opt.formulation, opt.fuel, &scratch);
      r.detail = orders.has_value() ? analyze_fixed_priority(net, *orders, tm, opt.formulation,
                                                             opt.fuel, &scratch)
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
