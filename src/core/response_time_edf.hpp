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
// RtaScratch arena with C_i = T_cycle and calls edf_horizon and
// edf_response_time below with kMessageModel (full-C blocking T*_cycle,
// responses measured from AP-queue insertion).
#pragma once

#include <cstdint>
#include <vector>

#include "core/busy_period.hpp"
#include "core/formulation.hpp"
#include "core/task.hpp"
#include "core/taskset_view.hpp"

namespace profisched {

/// Outcome of an EDF worst-case response-time computation for one task.
struct EdfRtaResult {
  bool converged = false;      ///< false => horizon/iteration budget exhausted
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
  /// Iterations the (set-wide) synchronous busy-period fixed point took; 0
  /// when the set was rejected before computing it. Warm-started calls
  /// report fewer — the observable the benchmark-regression harness tracks.
  int busy_iterations = 0;
};

/// Options bounding the (potentially large) offset enumeration.
struct EdfRtaOptions {
  std::size_t max_offsets = 1 << 22;  ///< abort (converged=false) beyond this
  int fixed_point_fuel = 1 << 16;     ///< per-offset iteration bound
};

/// Candidate offsets A for task i within [0, horizon] (paper eqs. 8 and 10).
[[nodiscard]] std::vector<Ticks> edf_candidate_offsets(const TaskSet& ts, std::size_t i,
                                                       Ticks horizon);

/// Worst-case response time of task i under preemptive EDF (eqs. 6–8).
[[nodiscard]] EdfRtaResult edf_response_time_preemptive(const TaskSet& ts, std::size_t i,
                                                        const EdfRtaOptions& opt = {});

/// Worst-case response time of task i under non-preemptive EDF (eqs. 9–10).
[[nodiscard]] EdfRtaResult edf_response_time_nonpreemptive(const TaskSet& ts, std::size_t i,
                                                           const EdfRtaOptions& opt = {});

/// Whole-set analyses. These run on the SoA fast path (shared busy period,
/// reused offset buffers, warm-started per-offset fixed points — see the
/// scratch overloads below); the per-task functions above are the retained
/// references, and the two agree bit-for-bit
/// (tests/core/test_kernel_equivalence.cpp). One caveat scopes that claim:
/// a warm-seeded iteration starts closer to the fixed point, so with a fuel
/// budget the reference exhausts mid-climb the fast path could still
/// converge where the reference gave up. Identity therefore assumes fuel
/// large enough for the reference to converge or saturate (the 1 << 16
/// default; a fuel-bound verdict is a resource limit, not an analysis
/// result).
[[nodiscard]] EdfAnalysis analyze_preemptive_edf(const TaskSet& ts, const EdfRtaOptions& opt = {});
[[nodiscard]] EdfAnalysis analyze_nonpreemptive_edf(const TaskSet& ts,
                                                    const EdfRtaOptions& opt = {});

// ---------------------------------------------------------- SoA fast path
//
// Optimizations over the reference, all output-preserving:
//  * the synchronous busy period is computed once per set, not once per task
//    (it does not depend on the analysed task), and can be warm-started from
//    scratch.warm_busy across compatible calls (`warm_start`, usweep
//    contract: same structure, parameters only grown);
//  * candidate offsets land in a reused scratch buffer;
//  * preemptive only: the offset scan seeds each offset's fixed point L(a)
//    from the previous offset's converged value — L(a) is monotone
//    non-decreasing in a (W_i(a,t) and the own-instance term only grow with
//    a), so the seed is a valid lower bound and the least fixed point
//    reached is unchanged. (Non-preemptive L(a) is *not* monotone in a: the
//    blocking term shrinks as a grows — that scan stays cold.)
[[nodiscard]] EdfAnalysis analyze_preemptive_edf(const TaskSet& ts, const EdfRtaOptions& opt,
                                                 RtaScratch& scratch, bool warm_start = false);
[[nodiscard]] EdfAnalysis analyze_nonpreemptive_edf(const TaskSet& ts, const EdfRtaOptions& opt,
                                                    RtaScratch& scratch,
                                                    bool warm_start = false);

/// The per-set half of the whole-set analyses: the synchronous busy period
/// (the offset horizon L; kNoBound when overloaded or out of fuel) and
/// whether scratch.offsets holds the shared candidate-deadline set.
struct EdfHorizon {
  BusyPeriod busy;
  bool shared = false;
};

/// Horizon of an identity-bound view. The shared candidate set, which spans
/// [min_j D_j, L + max_j D_j], is built only while max_j D_j − min_j D_j <=
/// (n − 1)·L; deadlines spread wider (an optimizer probe at D = 64·T, a
/// master whose periods differ 100-fold) leave the per-task sets smaller.
/// `busy_fuel` bounds the busy-period iteration: the task analyses pass
/// 1 << 20, the message analyses their one fuel budget.
[[nodiscard]] EdfHorizon edf_horizon(const TaskSetView& v, int busy_fuel, RtaScratch& scratch,
                                     bool warm_start = false);

/// Worst-case response time of the item at view position i, maximized over
/// its candidate offsets within `h` (which must come from edf_horizon on the
/// same view and scratch). `model` picks eq. 9's blocking term and the
/// response origin. When an offset fails to converge, critical_offset still
/// reports the maximizing offset among those examined before it.
[[nodiscard]] EdfRtaResult edf_response_time(const TaskSetView& v, std::size_t i,
                                             const EdfHorizon& h, const EdfRtaOptions& opt,
                                             RtaScratch& scratch, bool preemptive,
                                             ItemModel model = kTaskModel);

/// Whole-set outcome folded down to what a sweep cell needs — exactly what
/// run_usweep derives from an EdfAnalysis, computed without materializing
/// the per-task vector so a warm sweep step performs zero allocations. The
/// fold is order-independent (sticky kNoBound, max over responses, summed
/// counters), hence bit-identical to folding analyze_*_edf's per_task.
struct EdfCellResult {
  bool schedulable = false;
  Ticks worst_response = 0;  ///< kNoBound if any task failed to converge
  int busy_iterations = 0;
  std::uint64_t offsets_examined = 0;  ///< Σ per-task offsets examined
};

[[nodiscard]] EdfCellResult analyze_edf_cell(const TaskSet& ts, bool preemptive,
                                             const EdfRtaOptions& opt, RtaScratch& scratch,
                                             bool warm_start);

}  // namespace profisched
