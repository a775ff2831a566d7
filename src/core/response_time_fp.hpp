// response_time_fp.hpp — fixed-priority worst-case response-time analysis
// (§2.1 of the paper).
//
// Preemptive (Joseph & Pandya, extended with release jitter per Audsley et
// al. / Tindell):
//
//     w_i^{m+1} = C_i + Σ_{j ∈ hp(i)} ⌈(w_i^m + J_j) / T_j⌉ · C_j
//     R_i      = J_i + w_i
//
// Non-preemptive (paper eqs. 1–2, Audsley et al.):
//
//     R_i = w_i + C_i   (paper eq. 1; we additionally add J_i when jitter
//                        is modelled, so R is measured from the *arrival*
//                        of the triggering event)
//     w_i^{m+1} = B_i + Σ_{j ∈ hp(i)} I_j(w_i^m)
//
// where the interference term I_j and blocking factor B_i depend on the
// Formulation:
//   * PaperLiteral: I_j(w) = ⌈(w + J_j)/T_j⌉ · C_j,       B_i = max_{lp} C_j
//   * Refined:      I_j(w) = (⌊(w + J_j)/T_j⌋ + 1) · C_j, B_i = max_{lp} (C_j − 1)
//
// Both iterations start from w^0 = B_i + Σ_{hp} C_j, a value that is (a) a
// lower bound on the fixed point for both formulations and (b) non-zero, so
// the paper-literal ⌈·⌉ form cannot collapse to the degenerate w = B fixed
// point at 0. Iterations are monotone non-decreasing, so the fixed point
// reached is the least one above the start.
//
// Validity: constrained deadlines (D <= T) — exactly one pending instance
// per task, which is also the regime the paper's PROFIBUS adaptation assumes
// ("two messages from the same stream would mean that a deadline ... was
// missed").
#pragma once

#include <span>
#include <vector>

#include "core/formulation.hpp"
#include "core/priority_assignment.hpp"
#include "core/task.hpp"
#include "core/taskset_view.hpp"

namespace profisched {

/// Outcome of one response-time fixed-point computation.
struct RtaResult {
  bool converged = false;  ///< false => iteration diverged (response = kNoBound)
  Ticks response = kNoBound;  ///< worst-case response time (from the model's Origin)
  int iterations = 0;         ///< fixed-point iterations used
  /// The converged fixed point w itself, before the final C_i / J_i terms
  /// are added (non-preemptive: the queueing delay, Q_i of the message
  /// model). kNoBound unless converged.
  Ticks queueing = kNoBound;

  /// Schedulability against a deadline: converged and response <= D.
  [[nodiscard]] bool meets(Ticks deadline) const noexcept {
    return converged && response <= deadline;
  }
};

/// Per-set analysis outcome.
struct FpAnalysis {
  std::vector<RtaResult> per_task;  ///< indexed like the TaskSet
  bool schedulable = false;         ///< all tasks meet their deadlines
};

/// Blocking factor B_i (paper eq. 2): the longest lower-priority execution
/// that can delay task `i` in a non-preemptive system. `lower_priority` lists
/// the indices of tasks with priority below i. PaperLiteral: max C_j;
/// Refined: max (C_j − 1) (a lower-priority job must have *started* strictly
/// before the instant of interest).
[[nodiscard]] Ticks blocking_factor(const TaskSet& ts, std::span<const std::size_t> lower_priority,
                                    Formulation form = kDefaultFormulation);

/// Preemptive worst-case response time of task `i` given the set of
/// higher-priority task indices. Jitter-aware; R measured from event arrival
/// (includes J_i).
[[nodiscard]] RtaResult response_time_preemptive(const TaskSet& ts, std::size_t i,
                                                 std::span<const std::size_t> higher_priority,
                                                 int fuel = 1 << 16);

/// Non-preemptive worst-case response time of task `i` (paper eqs. 1–2).
[[nodiscard]] RtaResult response_time_nonpreemptive(const TaskSet& ts, std::size_t i,
                                                    std::span<const std::size_t> higher_priority,
                                                    std::span<const std::size_t> lower_priority,
                                                    Formulation form = kDefaultFormulation,
                                                    int fuel = 1 << 16);

// ---------------------------------------------------------- SoA fast path
//
// The TaskSet/index-span functions above are the retained reference
// implementations (tests/core/test_kernel_equivalence.cpp runs the two
// against each other). The hot path iterates a priority-permuted TaskSetView
// instead: higher-priority tasks are the prefix [0, rank), lower-priority
// ones the suffix (rank, n), so the interference loop streams four flat
// arrays with no index indirection and no per-task vector builds. Each
// fixed point starts where the reference's does, so the iterates and their
// count are the reference's too.

/// Blocking factor over the view suffix [first_lower, n): max C_j when
/// `blocking` is Full (messages, T*_cycle) or the formulation is
/// PaperLiteral, else max (C_j − 1).
[[nodiscard]] Ticks blocking_factor(const TaskSetView& pv, std::size_t first_lower,
                                    Formulation form = kDefaultFormulation,
                                    Blocking blocking = Blocking::Started);

/// Preemptive response time of the task at view position `rank`.
[[nodiscard]] RtaResult response_time_preemptive(const TaskSetView& pv, std::size_t rank,
                                                 int fuel = 1 << 16);

/// Non-preemptive response time of the item at view position `rank`, with
/// [0, rank) above it and (rank, n) below it. `model` picks the blocking
/// term and the response origin: the profibus DM/OPA adapters pass
/// kMessageModel over a master bound with C_i = T_cycle (paper eq. 16).
///
/// `bound` (>= 0) serves callers that only need R <= bound, such as a
/// deadline test. The iterates climb from a lower bound on the least fixed
/// point and never pass it, so the first iterate whose response would exceed
/// the bound proves the converged response does too: the iteration stops
/// there, unconverged, as if out of fuel. meets(bound) is therefore exactly
/// the unbounded result's meets(bound). A bounded call runs the scalar loop;
/// the default kNoBound is the full fixed point, bit for bit.
[[nodiscard]] RtaResult response_time_nonpreemptive(const TaskSetView& pv, std::size_t rank,
                                                    Formulation form = kDefaultFormulation,
                                                    int fuel = 1 << 16,
                                                    ItemModel model = kTaskModel,
                                                    Ticks bound = kNoBound);

/// Analyse a whole set under a priority order (highest first), preemptive.
/// Runs on the SoA fast path via an internal scratch; bit-identical to
/// calling the reference response_time_preemptive per task.
[[nodiscard]] FpAnalysis analyze_preemptive_fp(const TaskSet& ts, const PriorityOrder& order,
                                               int fuel = 1 << 16);

/// Analyse a whole set under a priority order (highest first), non-preemptive.
[[nodiscard]] FpAnalysis analyze_nonpreemptive_fp(const TaskSet& ts, const PriorityOrder& order,
                                                  Formulation form = kDefaultFormulation,
                                                  int fuel = 1 << 16);

/// Scratch-reusing forms: bind/iterate entirely inside `scratch` (no
/// steady-state allocations across calls beyond the result vector).
[[nodiscard]] FpAnalysis analyze_preemptive_fp(const TaskSet& ts, const PriorityOrder& order,
                                               int fuel, RtaScratch& scratch);
[[nodiscard]] FpAnalysis analyze_nonpreemptive_fp(const TaskSet& ts, const PriorityOrder& order,
                                                  Formulation form, int fuel, RtaScratch& scratch);

}  // namespace profisched
