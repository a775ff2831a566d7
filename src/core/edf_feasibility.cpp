#include "core/edf_feasibility.hpp"

#include <algorithm>

#include "core/taskset_view.hpp"

namespace profisched {

namespace {

/// h(t) with the Formulation branch hoisted to a template parameter
/// (Ceil == PaperLiteral) so the inner loop is branch-free.
template <bool Ceil>
Ticks demand_bound_impl(const TaskSet& ts, Ticks t) {
  Ticks h = 0;
  for (const Task& task : ts) {
    const Ticks arg = t - task.D;
    const Ticks jobs = Ceil ? ceil_div_plus(arg, task.T) : floor_div_plus1(arg, task.T);
    h = sat_add(h, sat_mul(jobs, task.C));
  }
  return h;
}

}  // namespace

Ticks demand_bound(const TaskSet& ts, Ticks t, Formulation form) {
  return form == Formulation::PaperLiteral ? demand_bound_impl<true>(ts, t)
                                           : demand_bound_impl<false>(ts, t);
}

std::vector<Ticks> deadline_checkpoints(const TaskSet& ts, Ticks limit) {
  std::vector<Ticks> points;
  for (const Task& task : ts) {
    for (Ticks t = task.D; t <= limit; t = sat_add(t, task.T)) {
      points.push_back(t);
      if (t == kNoBound) break;
    }
  }
  std::ranges::sort(points);
  const auto dup = std::ranges::unique(points);
  points.erase(dup.begin(), dup.end());
  return points;
}

namespace {

/// Shared driver: checks `demand_plus_blocking(t) <= t` over all deadline
/// checkpoints within the synchronous busy period.
template <typename DemandFn>
FeasibilityResult check_over_checkpoints(const TaskSet& ts, Ticks min_t, DemandFn demand) {
  FeasibilityResult out;
  if (ts.empty()) {
    out.feasible = true;
    return out;
  }
  // exceeds_one, not `> 1.0`: a set at exactly U = 1 whose double sum rounds
  // above 1 must reach the busy period, which bounds it. A set truly above 1
  // that the tolerance lets through fails there, its busy period unbounded.
  if (exceeds_one(ts.utilization(), ts.size())) {
    out.feasible = false;
    out.first_violation = 0;
    return out;
  }
  const BusyPeriod bp = synchronous_busy_period(ts);
  if (!bp.bounded()) {
    out.feasible = false;
    return out;
  }
  out.horizon = bp.length;
  for (const Ticks t : deadline_checkpoints(ts, bp.length)) {
    if (t < min_t) continue;
    ++out.checkpoints;
    if (demand(t) > t) {
      out.first_violation = t;
      out.feasible = false;
      return out;
    }
  }
  out.feasible = true;
  return out;
}

}  // namespace

FeasibilityResult edf_preemptive_feasible(const TaskSet& ts, Formulation form) {
  return check_over_checkpoints(ts, /*min_t=*/0,
                                [&](Ticks t) { return demand_bound(ts, t, form); });
}

FeasibilityResult np_edf_feasible_zheng_shin(const TaskSet& ts, Formulation form) {
  const Ticks cmax = ts.max_execution();
  // The paper states the condition for t >= min_i D_i; below that no deadline
  // exists, so there is nothing to check.
  return check_over_checkpoints(ts, ts.min_deadline(), [&](Ticks t) {
    return sat_add(demand_bound(ts, t, form), cmax);
  });
}

FeasibilityResult np_edf_feasible_george(const TaskSet& ts, Formulation form) {
  return check_over_checkpoints(ts, /*min_t=*/0, [&](Ticks t) {
    Ticks blocking = 0;
    for (const Task& task : ts) {
      if (task.D > t) blocking = std::max(blocking, task.C - 1);
    }
    return sat_add(demand_bound(ts, t, form), blocking);
  });
}

}  // namespace profisched
