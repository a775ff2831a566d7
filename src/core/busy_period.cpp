#include "core/busy_period.hpp"

#include "core/fixed_point.hpp"

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

BusyPeriod synchronous_busy_period(const TaskSetView& v, int fuel) {
  BusyPeriod out;
  if (v.empty()) return out;
  if (v.overloaded()) {
    out.length = kNoBound;
    return out;
  }
  // W(L) over the whole set: ceil form, uncapped, base 0, from L^0 = Σ C_i.
  const simd::FixedPointResult r =
      job_sum_fixed_point<true, false>(v, v.n, nullptr, 0, v.total_execution(), fuel);
  out.iterations = r.iterations;
  out.length = r.converged ? r.value : kNoBound;
  return out;
}

}  // namespace profisched
