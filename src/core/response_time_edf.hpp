// response_time_edf.hpp — worst-case response-time analysis under EDF
// (§2.2, paper eqs. 6–10).
//
// Spuri showed that under EDF the critical instant is *not* necessarily the
// synchronous release: the worst case for task i appears inside a "deadline
// busy period" in which all other tasks are released synchronously and at
// maximum rate, while i's analysed instance is released at some offset a >= 0
// (with i's earlier instances released as soon as possible).
//
// Preemptive (eqs. 6–8):
//     r_i(a) = max{ C_i, L_i(a) − a }
//     L_i^{m+1}(a) = W_i(a, L_i^m(a)) + (1 + ⌊a/T_i⌋) · C_i
//     W_i(a, t) = Σ_{j≠i, D_j−J_j <= a+D_i}
//                   min{ ⌈(t+J_j)/T_j⌉, 1 + ⌊(a + D_i − D_j + J_j)/T_j⌋ } · C_j
//     R_i = J_i + max_{a ∈ A} r_i(a)
//
// Non-preemptive (eqs. 9–10): a later-deadline instance can block, and the
// busy period of interest is the one preceding the *start* of execution:
//     r_i(a) = C_i + max{ 0, L_i(a) − a }
//     L_i^{m+1}(a) = max_{D_j−J_j > a+D_i}{C_j − 1}
//                    + W*_i(a, L_i^m(a)) + ⌊a/T_i⌋ · C_i
//     W*_i(a, t) = Σ_{j≠i, D_j−J_j <= a+D_i}
//                   min{ 1 + ⌊(t+J_j)/T_j⌋, 1 + ⌊(a + D_i − D_j + J_j)/T_j⌋ } · C_j
//
// Candidate offsets (eqs. 8/10): A = ∪_j { k·T_j + D_j − J_j − D_i : k ∈ ℕ }
// ∩ [0, L], where L is the synchronous busy period — the maximum length of
// any deadline busy period, hence a valid (if slightly generous) horizon.
//
// Release jitter terms follow Spuri's holistic analysis [34]; with all J = 0
// the formulas reduce exactly to the paper's. The same kernels, with C
// replaced by T_cycle, are the PROFIBUS message analysis of §4.3:
// profibus/edf_analysis.cpp binds each master's streams straight into an
// RtaScratch arena with C_i = T_cycle, computes each master's synchronous
// busy period and calls edf_response_time below with kMessageModel (full-C
// blocking T*_cycle, responses measured from AP-queue insertion).
#pragma once

#include <vector>

#include "core/busy_period.hpp"
#include "core/formulation.hpp"
#include "core/task.hpp"
#include "core/taskset_view.hpp"

namespace profisched {

/// Outcome of an EDF worst-case response-time computation for one task.
struct EdfRtaResult {
  bool converged = false;      ///< false => unbounded busy period, or out of fuel
  Ticks response = kNoBound;   ///< worst-case response time (from event arrival)
  Ticks critical_offset = 0;   ///< the offset a achieving the maximum
  std::size_t offsets_examined = 0;

  [[nodiscard]] bool meets(Ticks deadline) const noexcept {
    return converged && response <= deadline;
  }
};

/// Per-set EDF analysis outcome.
struct EdfAnalysis {
  std::vector<EdfRtaResult> per_task;
  bool schedulable = false;
};

/// Candidate offsets A for task i within [0, horizon] (paper eqs. 8 and 10).
[[nodiscard]] std::vector<Ticks> edf_candidate_offsets(const TaskSet& ts, std::size_t i,
                                                       Ticks horizon);

/// Worst-case response time of task i under preemptive EDF (eqs. 6–8).
/// `fuel` bounds each offset's fixed point.
[[nodiscard]] EdfRtaResult edf_response_time_preemptive(const TaskSet& ts, std::size_t i,
                                                        int fuel = 1 << 16);

/// Worst-case response time of task i under non-preemptive EDF (eqs. 9–10).
[[nodiscard]] EdfRtaResult edf_response_time_nonpreemptive(const TaskSet& ts, std::size_t i,
                                                           int fuel = 1 << 16);

/// Whole-set analyses. These run on the SoA fast path (shared busy period,
/// one candidate-offset walk per task, warm-started per-offset fixed points —
/// see the scratch overloads below); the per-task functions above are the
/// retained references, and the two agree bit-for-bit
/// (tests/core/test_kernel_equivalence.cpp). One caveat scopes that claim:
/// a warm-seeded iteration starts closer to the fixed point, so with a fuel
/// budget the reference exhausts mid-climb the fast path could still
/// converge where the reference gave up. Identity therefore assumes fuel
/// large enough for the reference to converge or saturate (the 1 << 16
/// default; a fuel-bound verdict is a resource limit, not an analysis
/// result).
[[nodiscard]] EdfAnalysis analyze_preemptive_edf(const TaskSet& ts, int fuel = 1 << 16);
[[nodiscard]] EdfAnalysis analyze_nonpreemptive_edf(const TaskSet& ts, int fuel = 1 << 16);

// ---------------------------------------------------------- SoA fast path
//
// Optimizations over the reference, all output-preserving:
//  * the synchronous busy period is computed once per set, not once per task
//    (it does not depend on the analysed task);
//  * the candidate offsets come from one ascending walk over the items'
//    deadline progressions k·T_j + D_j − J_j (scratch.next_terms holds
//    each item's next term) that also counts each offset's deadline caps
//    and finds its blocking term: no offset needs a sort, and no cap a
//    division;
//  * preemptive only: the offset scan seeds each offset's fixed point L(a)
//    from the previous offset's converged value — L(a) is monotone
//    non-decreasing in a (W_i(a,t) and the own-instance term only grow with
//    a), so the seed is a valid lower bound and the least fixed point
//    reached is unchanged. (Non-preemptive L(a) is *not* monotone in a: the
//    blocking term shrinks as a grows — that scan stays cold.)
[[nodiscard]] EdfAnalysis analyze_preemptive_edf(const TaskSet& ts, int fuel, RtaScratch& scratch);
[[nodiscard]] EdfAnalysis analyze_nonpreemptive_edf(const TaskSet& ts, int fuel,
                                                    RtaScratch& scratch);

/// Worst-case response time of the item at view position i, maximized over
/// its candidate offsets within [0, busy.length] (`busy` is the view's
/// synchronous busy period, or any horizon a caller wants scanned; an
/// unbounded one yields an unconverged result). `model` picks eq. 9's
/// blocking term and the response origin, and `fuel` bounds each offset's
/// fixed point. When an offset fails to converge, critical_offset still
/// reports the maximizing offset among those examined before it.
[[nodiscard]] EdfRtaResult edf_response_time(const TaskSetView& v, std::size_t i,
                                             const BusyPeriod& busy, RtaScratch& scratch,
                                             bool preemptive, ItemModel model = kTaskModel,
                                             int fuel = 1 << 16);

/// Verdict-only non-preemptive scan: exactly edf_response_time(v, i, busy,
/// scratch, false, model, fuel).meets(v.D[i]) when `from` is 0, and the same
/// over the candidate offsets a >= `from` otherwise (a caller that has
/// already accepted the smaller ones skips them). R_i is a maximum over
/// offsets, so the first offset whose response exceeds D_i ends the scan,
/// and each fixed point stops once its iterate's response does. An offset is
/// accepted after one evaluation of eq. 9 at L̂ = a + D_i − C_i (less J_i
/// under Origin::Arrival) when that L̂ is a pre-fixed point, f(L̂) <= L̂: the
/// iteration from 0 then converges to a fixed point <= L̂, so r_i(a) meets
/// the deadline. That shortcut is taken only when L̂ / min_j C_j + 2 <= fuel,
/// the evaluations that iteration can need, so a scan whose fuel runs out
/// keeps its verdict. Any other offset runs the bounded fixed point.
[[nodiscard]] bool edf_meets_deadline(const TaskSetView& v, std::size_t i, const BusyPeriod& busy,
                                      RtaScratch& scratch, ItemModel model, int fuel = 1 << 16,
                                      Ticks from = 0);

}  // namespace profisched
