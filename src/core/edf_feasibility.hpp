// edf_feasibility.hpp — EDF pre-run-time feasibility tests (§2.2, paper
// eqs. 3–5).
//
// Preemptive (eq. 3): the processor-demand criterion. The set is feasible iff
// U <= 1 and for every absolute deadline t in [0, L):  h(t) <= t, where the
// demand function is
//
//   Refined:       h(t) = Σ_i (⌊(t − D_i)/T_i⌋ + 1)⁺ · C_i   (standard DBF)
//   PaperLiteral:  h(t) = Σ_i ⌈(t − D_i)/T_i⌉⁺ · C_i          (as printed;
//                  note it misses the job whose deadline is exactly t)
//
// and L is the synchronous busy period (a valid t_max; the paper discusses
// t_max determination citing [26–29]).
//
// Non-preemptive, Zheng & Shin (eq. 4): adds a blocking term equal to the
// longest execution in the whole set, for every t:
//
//     h(t) + max_i C_i <= t        for all t >= min_i D_i.
//
// Non-preemptive, George et al. refinement (eq. 5): the blocking term only
// involves tasks whose deadline exceeds t, and a blocker must have started
// at least one tick before:
//
//     h(t) + max_{i : D_i > t} (C_i − 1) <= t      (0 when no such i).
//
// The paper's §2.2 argues eq. 5 is strictly less pessimistic than eq. 4;
// experiment E4 regenerates that comparison.
#pragma once

#include <vector>

#include "core/busy_period.hpp"
#include "core/formulation.hpp"
#include "core/task.hpp"

namespace profisched {

/// Outcome of a feasibility test.
struct FeasibilityResult {
  bool feasible = false;
  Ticks first_violation = kNoBound;  ///< smallest checkpoint t where demand exceeded supply
  Ticks horizon = 0;                 ///< the t_max actually used (busy period)
  std::size_t checkpoints = 0;       ///< number of deadline checkpoints examined
};

/// Processor demand h(t): total execution of jobs released at/after 0 with
/// absolute deadline <= t, under synchronous release at maximum rate.
[[nodiscard]] Ticks demand_bound(const TaskSet& ts, Ticks t,
                                 Formulation form = kDefaultFormulation);

/// All absolute deadlines k·T_i + D_i in [0, limit], sorted, deduplicated.
/// These are the only points where h(t) changes, hence the only checkpoints
/// any of the tests needs (paper: "its value only changes at k·Ti + Di
/// steps").
[[nodiscard]] std::vector<Ticks> deadline_checkpoints(const TaskSet& ts, Ticks limit);

/// Preemptive EDF feasibility (paper eq. 3). Exact for D <= T and D > T alike
/// under the Refined demand function.
[[nodiscard]] FeasibilityResult edf_preemptive_feasible(const TaskSet& ts,
                                                        Formulation form = kDefaultFormulation);

/// Non-preemptive EDF sufficient test of Zheng & Shin (paper eq. 4).
[[nodiscard]] FeasibilityResult np_edf_feasible_zheng_shin(const TaskSet& ts,
                                                           Formulation form = kDefaultFormulation);

/// Non-preemptive EDF test of George, Rivierre & Spuri (paper eq. 5) —
/// exact for sporadic non-concrete task sets.
[[nodiscard]] FeasibilityResult np_edf_feasible_george(const TaskSet& ts,
                                                       Formulation form = kDefaultFormulation);

}  // namespace profisched
