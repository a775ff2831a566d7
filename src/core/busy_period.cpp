#include "core/busy_period.hpp"

#include <algorithm>

#include "core/simd.hpp"

namespace profisched {

BusyPeriod synchronous_busy_period(const TaskSet& ts, int fuel) {
  BusyPeriod out;
  if (ts.empty()) return out;
  if (exceeds_one(ts.utilization(), ts.size())) {
    out.length = kNoBound;
    return out;
  }

  Ticks L = ts.total_execution();
  for (int it = 0; it < fuel; ++it) {
    Ticks next = 0;
    for (const Task& t : ts) {
      next = sat_add(next, sat_mul(ceil_div_plus(sat_add(L, t.J), t.T), t.C));
    }
    out.iterations = it + 1;
    if (next == L) {
      out.length = L;
      return out;
    }
    if (next == kNoBound) break;
    L = next;
  }
  out.length = kNoBound;
  return out;
}

BusyPeriod synchronous_busy_period(const TaskSetView& v, int fuel, Ticks warm_l) {
  BusyPeriod out;
  if (v.empty()) return out;
  if (v.overloaded()) {
    out.length = kNoBound;
    return out;
  }

  Ticks L = std::max(v.total_execution(), warm_l);
  // The busy-period recurrence is the FP interference sum with base 0 over
  // the full (padded) set — same vector kernel, same fallback contract.
  if (const simd::Kernels* k = v.simd_ok ? simd::active() : nullptr) {
    const simd::FixedPointResult r = k->fp_fixed_point(v.C, v.T, v.J, v.recip_t, v.n_padded,
                                                       /*base=*/0, L, /*ceil_form=*/true, fuel);
    if (r.status == simd::Status::kOk) {
      out.iterations = r.iterations;
      out.length = r.converged ? r.value : kNoBound;
      return out;
    }
  }
  for (int it = 0; it < fuel; ++it) {
    Ticks next = 0;
    for (std::size_t i = 0; i < v.n; ++i) {
      next = sat_add(next, sat_mul(ceil_div_plus(sat_add(L, v.J[i]), v.T[i]), v.C[i]));
    }
    out.iterations = it + 1;
    if (next == L) {
      out.length = L;
      return out;
    }
    if (next == kNoBound) break;
    L = next;
  }
  out.length = kNoBound;
  return out;
}

}  // namespace profisched
