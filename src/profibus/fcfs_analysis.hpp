// fcfs_analysis.hpp — worst-case response time of PROFIBUS high-priority
// messages under the standard FCFS outgoing queue (§3.2, paper eqs. 11–12).
//
// Because a master transmits at least one HP message per token visit, and at
// most nh^k messages can be pending (one per stream — two pending requests of
// the same stream would already imply a missed deadline), a request queued
// behind every other stream's request needs nh^k token visits:
//
//     Q_i^k = nh^k · T_cycle − Ch_i^k,      R_i^k = Q_i^k + Ch_i^k
//           => R_i^k = nh^k · T_cycle                                   (11)
//
// and the stream set is schedulable iff Dh_i^k >= R_i^k for every stream of
// every master (12). Note R is identical for every stream of a master — FCFS
// cannot favour tight deadlines, which is precisely the limitation §4
// removes.
#pragma once

#include <algorithm>
#include <vector>

#include "core/taskset_view.hpp"
#include "profibus/token_ring_analysis.hpp"

namespace profisched::profibus {

/// Per-stream analysis record.
struct StreamResponse {
  Ticks Q = kNoBound;         ///< worst-case queuing delay
  Ticks response = kNoBound;  ///< worst-case response time R
  bool meets_deadline = false;
};

/// Per-master analysis record.
struct MasterAnalysis {
  std::vector<StreamResponse> streams;  ///< indexed like Master::high_streams
  bool schedulable = false;
};

/// Whole-network verdict.
struct NetworkAnalysis {
  std::vector<MasterAnalysis> masters;
  bool schedulable = false;
  Ticks tcycle = 0;  ///< the T_cycle used (eq. 14)
};

/// The shape every network analysis shares: validate `net`, let
/// `per_master(k, ma)` fill master k's pre-sized stream records, and fold
/// the per-stream verdicts into the master and network verdicts.
template <typename PerMaster>
NetworkAnalysis analyze_masters(const Network& net, const TimingMemo& memo,
                                PerMaster&& per_master) {
  net.validate();
  NetworkAnalysis out;
  out.tcycle = memo.tcycle;
  out.schedulable = true;
  out.masters.resize(net.n_masters());
  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    MasterAnalysis& ma = out.masters[k];
    ma.streams.resize(net.masters[k].nh());
    per_master(k, ma);
    ma.schedulable = std::ranges::all_of(ma.streams, &StreamResponse::meets_deadline);
    out.schedulable = out.schedulable && ma.schedulable;
  }
  return out;
}

/// The shape every verdict shares: validate `net`, then AND
/// `master_verdict(master, T_cycle^k)` over its masters in ring order,
/// stopping at the first master it rejects. A per-master verdict reads the
/// network only through its own master and T_cycle^k (the streams' T, D and J,
/// with every C_i = T_cycle^k), which is what lets the optimizer decide its
/// probes one master at a time.
template <typename MasterVerdict>
bool all_masters_schedulable(const Network& net, const TimingMemo& memo,
                             MasterVerdict&& master_verdict) {
  net.validate();
  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    if (!master_verdict(net.masters[k], memo.per_master[k])) return false;
  }
  return true;
}

/// Bind one master's streams into `arena` as the uniprocessor item set of
/// paper §4.3: C_i = T_cycle, T/D/J from the streams, in `order` (stream
/// order when null). DM, OPA and EDF run the core kernels on this view with
/// kMessageModel; reusing one RtaScratch (the engine keeps one per worker)
/// keeps them allocation-free in steady state.
inline const TaskSetView& bind_master(TaskSetArena& arena, const Master& master, Ticks tcycle,
                                      const std::size_t* order = nullptr) {
  struct Row {
    Ticks C, T, D, J;
  };
  return arena.bind_rows(order, master.nh(), [&](std::size_t i) {
    const MessageStream& s = master.high_streams.at(i);
    return Row{tcycle, s.T, s.D, s.J};
  });
}

/// FCFS analysis of the whole network (eqs. 11–12).
[[nodiscard]] NetworkAnalysis analyze_fcfs(const Network& net,
                                           TcycleMethod method = TcycleMethod::PaperEq13);

/// Memoized form: reuse a precomputed TimingMemo (see compute_timing) instead
/// of re-deriving T_del / T_cycle for this call.
[[nodiscard]] NetworkAnalysis analyze_fcfs(const Network& net, const TimingMemo& memo);

/// Master k's verdict in analyze_fcfs(net, memo) with T_cycle^k = `tcycle`:
/// nh^k·T_cycle^k <= D_i^k for every stream, without allocating.
[[nodiscard]] bool fcfs_master_schedulable(const Master& master, Ticks tcycle);

}  // namespace profisched::profibus
