// dm_analysis.hpp — worst-case message response time with a DM-ordered
// priority queue at the application-process level (§4.3, paper eq. 16).
//
// Architecture (§4): requests wait in a deadline-monotonic priority queue in
// the AP; the communication-stack FCFS queue is limited to ONE pending
// request (enforced through the local management service). Every token visit
// then serves exactly the request at the head of the AP order, so the
// "processor" of the uniprocessor analogy serves one unit of T_cycle per
// request: the paper instructs to take the non-preemptive fixed-priority
// analysis (eqs. 1–2) and "replace the Cs by T_cycle", with a blocking term
//
//     T*_cycle = T_cycle   if lower-priority streams exist (a lax request may
//                          occupy the stack slot just before ours arrives)
//              = 0         for the lowest-priority stream                 (16)
//
// and with requests able to appear "marginally after receiving the token and
// marginally before passing the token" — which is exactly what charging a
// full T_cycle per service slot accounts for. Release jitter J_j inherited
// from the generating tasks (§4.1) inflates the interference terms as in
// Tindell's analysis:
//
//     w_i = T*_cycle + Σ_{j ∈ hp(i)} ⌈(w_i + J_j)/T_j⌉ · T_cycle
//     R_i = w_i + T_cycle
//
// R_i is measured from the instant the request enters the AP queue; the
// generation delay g (and hence J_i itself) belongs to the end-to-end bound
// E = g + Q + C + d of §4.2 (see end_to_end.hpp).
//
// Unlike FCFS (R = nh·T_cycle for everyone), R_i now depends on the stream's
// deadline rank and on the *periods* of the interfering streams — the paper's
// central observation.
#pragma once

#include "core/formulation.hpp"
#include "profibus/fcfs_analysis.hpp"

namespace profisched::profibus {

/// DM-queue analysis of the whole network (eq. 16). Streams within each
/// master are ranked deadline-monotonically (ties by index). `form` selects
/// the interference step: PaperLiteral ⌈(w+J)/T⌉ (the printed eq. 16) or
/// Refined ⌊(w+J)/T⌋+1 (start-time form); the blocking term is T*_cycle
/// under both. The fixed point is core's NP-FP kernel (response_time_fp),
/// searched from w⁰ = T*_cycle + |hp(i)|·T_cycle.
[[nodiscard]] NetworkAnalysis analyze_dm(const Network& net,
                                         TcycleMethod method = TcycleMethod::PaperEq13,
                                         Formulation form = Formulation::PaperLiteral,
                                         int fuel = 1 << 16);

/// Memoized form: reuse a precomputed TimingMemo (see compute_timing) instead
/// of re-deriving T_del / T_cycle for this call. `scratch`, when non-null,
/// supplies the arena and order buffer (see bind_master). This is
/// analyze_fixed_priority under deadline_monotonic_order, implemented in
/// priority_assignment.cpp.
[[nodiscard]] NetworkAnalysis analyze_dm(const Network& net, const TimingMemo& memo,
                                         Formulation form = Formulation::PaperLiteral,
                                         int fuel = 1 << 16, RtaScratch* scratch = nullptr);

}  // namespace profisched::profibus
