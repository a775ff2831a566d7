// fixed_point.hpp — the one job-sum fixed point behind every core recurrence
// of the SoA fast path.
//
// The paper's uniprocessor recurrences (§2), which its message analyses
// reuse with every C_i = T_cycle (§4.3), all iterate one job sum over a
// bound view's prefix [0, count):
//
//     L → base + Σ_{j<count} min(jobs(L + J_j, T_j), cap_j) · C_j
//
// with jobs = ⌈x/T⌉⁺ (Ceil) or (⌊x/T⌋ + 1)⁺:
//   * FP-RTA (eqs. 1–2 and the preemptive form): the higher-priority prefix,
//     base C_i or B_i, uncapped;
//   * the synchronous busy period (§2.2): the whole set, base 0, Ceil,
//     uncapped;
//   * the EDF per-offset recurrences (eqs. 6 and 9): the whole set, capped
//     by the offset walk's deadline caps (0 for the items that cannot
//     interfere), Ceil when preemptive and floor+1 when not.
//
// job_sum_fixed_point holds the one scalar loop, the one lane dispatch and
// the one fallback. The TaskSet-based reference functions stay separate as
// the equivalence oracles.
#pragma once

#include <algorithm>
#include <cstddef>

#include "core/simd.hpp"
#include "core/taskset_view.hpp"

namespace profisched {

/// Σ_{j<count} min(jobs(t + J_j, T_j), caps[j]) · C_j over the view,
/// saturating, in view order. `caps` is read only when Capped; an item whose
/// cap is 0 adds nothing.
template <bool Ceil, bool Capped>
[[nodiscard]] Ticks job_sum(const TaskSetView& v, std::size_t count, const Ticks* caps, Ticks t) {
  Ticks sum = 0;
  for (std::size_t j = 0; j < count; ++j) {
    if constexpr (Capped) {
      if (caps[j] == 0) continue;
    }
    const Ticks arg = sat_add(t, v.J[j]);
    Ticks jobs = Ceil ? ceil_div_plus(arg, v.T[j]) : floor_div_plus1(arg, v.T[j]);
    if constexpr (Capped) jobs = std::min(jobs, caps[j]);
    sum = sat_add(sum, sat_mul(jobs, v.C[j]));
  }
  return sum;
}

/// Least fixed point >= `seed` of L → base + job_sum(L), iterated from
/// `seed`. It is unconverged when an iterate diverges, when one exceeds
/// `limit`, or when `fuel` evaluations run out. The iterates climb from a
/// seed at or below the least fixed point and never pass it, so stopping
/// above `limit` proves that fixed point lies above `limit` too.
/// `iterations` counts evaluations of the job sum, and `status` is always
/// kOk. From kMinLaneTasks items a simd_ok view runs the lane kernel; if a
/// gate trips there, the scalar loop below re-runs from `seed`, so both
/// paths give the same result bit for bit.
template <bool Ceil, bool Capped>
[[nodiscard]] simd::FixedPointResult job_sum_fixed_point(const TaskSetView& v, std::size_t count,
                                                         const Ticks* caps, Ticks base,
                                                         Ticks seed, int fuel,
                                                         Ticks limit = kNoBound) {
  if (v.simd_ok && count >= simd::kMinLaneTasks) {
    if (const simd::Kernels* k = simd::active()) {
      const simd::FixedPointResult r = k->fixed_point[Ceil][Capped](
          v.C, v.T, v.J, v.recip_t, caps, count, base, seed, limit, fuel);
      if (r.status == simd::Status::kOk) return r;
    }
  }
  simd::FixedPointResult out;
  out.status = simd::Status::kOk;
  if (seed > limit) return out;
  Ticks w = seed;
  for (int it = 1; it <= fuel; ++it) {
    const Ticks next = sat_add(base, job_sum<Ceil, Capped>(v, count, caps, w));
    out.iterations = it;
    if (next == w) {
      out.converged = true;
      out.value = w;
      return out;
    }
    if (next == kNoBound || next > limit) return out;
    w = next;
  }
  return out;
}

}  // namespace profisched
