// edf_analysis.hpp — worst-case message response time with an EDF-ordered
// priority queue at the application-process level (§4.3, paper eqs. 17–18).
//
// Same architecture as dm_analysis.hpp, but the AP queue is ordered by the
// earliness of each request's absolute deadline. The paper adapts the
// non-preemptive EDF response-time analysis (eqs. 9–10) by replacing every C
// with T_cycle — one token visit serves one request — and the blocking max
// with T*_cycle:
//
//   R_i(a) = max{ T_cycle, T_cycle + L_i(a) − a }                      (17)
//   L_i^{m+1}(a) = T*_cycle(a) + W_i(a, L_i^m(a)) + ⌊a/T_i⌋·T_cycle
//   W_i(a, t)  = Σ_{j≠i, D_j−J_j <= a+D_i}
//                 min{ 1 + ⌊(t+J_j)/T_j⌋,
//                      1 + ⌊(a + D_i − D_j + J_j)/T_j⌋ } · T_cycle      (18)
//
// with T*_cycle(a) = T_cycle when some other stream can have a pending
// request with a *later* absolute deadline (∃ j : D_j − J_j > a + D_i) —
// that request may occupy the one-deep stack queue when ours arrives — and 0
// otherwise (the EDF analogue of eq. 16's lowest-priority exception).
//
// Candidate offsets follow eq. 10's set, shifted by jitter:
// a ∈ ∪_j { k·T_j + D_j − J_j − D_i } ∩ [0, L], with L the synchronous busy
// period of the master's streams under one-T_cycle-per-request service. If
// Σ_i T_cycle/T_i > 1 for a master, its busy period is unbounded and the
// master is reported unschedulable under the EDF queue (token visits cannot
// keep up with request arrivals); at exactly 1 the busy period is bounded
// but can approach the hyperperiod.
//
// As with DM, R_i is measured from AP-queue insertion; g/J_i belong to the
// end-to-end bound of §4.2.
#pragma once

#include "profibus/fcfs_analysis.hpp"

namespace profisched::profibus {

/// Per-stream extension of StreamResponse with the critical offset found.
struct EdfStreamDetail {
  Ticks critical_offset = 0;
  std::size_t offsets_examined = 0;
};

/// EDF-queue analysis of the whole network (eqs. 17–18): per master, core's
/// synchronous busy period and NP-EDF offset scan (response_time_edf.hpp)
/// over the master bound with C_i = T_cycle, with kMessageModel, `fuel` for
/// both the busy period and each offset's fixed point, and no offset cap.
/// `detail`, when non-null, receives per-master per-stream diagnostics with
/// the same indexing as the returned analysis.
[[nodiscard]] NetworkAnalysis analyze_edf(
    const Network& net, TcycleMethod method = TcycleMethod::PaperEq13,
    std::vector<std::vector<EdfStreamDetail>>* detail = nullptr, int fuel = 1 << 16);

/// Memoized form: reuse a precomputed TimingMemo instead of re-deriving it,
/// and, when non-null, `scratch` (see bind_master).
[[nodiscard]] NetworkAnalysis analyze_edf(
    const Network& net, const TimingMemo& memo,
    std::vector<std::vector<EdfStreamDetail>>* detail = nullptr, int fuel = 1 << 16,
    RtaScratch* scratch = nullptr);

}  // namespace profisched::profibus
