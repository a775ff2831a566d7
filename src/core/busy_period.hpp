// busy_period.hpp — the synchronous (processor) busy period (§2.2 of the
// paper, after eq. 10): the fixed point of
//
//     L^{m+1} = W(L^m),   W(t) = Σ_i ⌈t / T_i⌉ · C_i,   L^0 = Σ_i C_i.
//
// L bounds the interval that EDF feasibility tests must examine and the range
// of release offsets `a` that the EDF response-time analyses enumerate.
// The iteration converges iff U <= 1 (with U == 1 it converges to the
// hyperperiod in the worst case); a fuel bound turns pathological inputs into
// an explicit kNoBound instead of an endless loop.
#pragma once

#include "core/task.hpp"
#include "core/taskset_view.hpp"

namespace profisched {

/// Result of a busy-period computation.
struct BusyPeriod {
  Ticks length = 0;      ///< L, or kNoBound if the iteration diverged
  int iterations = 0;    ///< fixed-point iterations used

  [[nodiscard]] bool bounded() const noexcept { return length != kNoBound; }
};

/// Length of the synchronous busy period. Jitter-aware: with per-task release
/// jitter J the workload becomes W(t) = Σ ⌈(t + J_i) / T_i⌉ C_i (Tindell &
/// Clark holistic analysis), which this uses; for J = 0 it reduces to the
/// paper's form. Returns kNoBound when U > 1 or the iteration exceeds `fuel`.
[[nodiscard]] BusyPeriod synchronous_busy_period(const TaskSet& ts, int fuel = 1 << 20);

/// SoA fast path over an identity-bound view (the reference above is
/// retained for the equivalence suite), with the reference's iterates. The
/// view must be identity-bound: the U > 1 guard compares a double sum whose
/// value is summation-order-sensitive.
[[nodiscard]] BusyPeriod synchronous_busy_period(const TaskSetView& v, int fuel = 1 << 20);

}  // namespace profisched
