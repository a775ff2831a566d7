#include "core/response_time_edf.hpp"

#include <algorithm>

#include "core/fixed_point.hpp"

namespace profisched {

std::vector<Ticks> edf_candidate_offsets(const TaskSet& ts, std::size_t i, Ticks horizon) {
  std::vector<Ticks> offsets{0};
  const Ticks di = ts[i].D;
  for (std::size_t j = 0; j < ts.size(); ++j) {
    const Task& tj = ts[j];
    const Ticks base = tj.D - tj.J - di;
    // First k with k·T_j + base >= 0.
    Ticks k0 = base >= 0 ? 0 : ceil_div(-base, tj.T);
    for (Ticks k = k0;; ++k) {
      const Ticks a = sat_add(sat_mul(k, tj.T), base);
      if (a > horizon || a == kNoBound) break;
      offsets.push_back(a);
    }
  }
  std::ranges::sort(offsets);
  const auto dup = std::ranges::unique(offsets);
  offsets.erase(dup.begin(), dup.end());
  return offsets;
}

namespace {

/// Higher-priority workload W_i(a, t) (preemptive) or W*_i(a, t)
/// (non-preemptive start-time form): jobs of other tasks with absolute
/// deadline no later than a + D_i.
Ticks hp_workload(const TaskSet& ts, std::size_t i, Ticks a, Ticks t, bool start_time_form) {
  const Ticks abs_deadline = sat_add(a, ts[i].D);
  Ticks sum = 0;
  for (std::size_t j = 0; j < ts.size(); ++j) {
    if (j == i) continue;
    const Task& tj = ts[j];
    if (tj.D - tj.J > abs_deadline) continue;  // deadline after i's: not higher priority
    const Ticks by_deadline = floor_div_plus1(abs_deadline - tj.D + tj.J, tj.T);
    const Ticks by_time = start_time_form ? floor_div_plus1(sat_add(t, tj.J), tj.T)
                                          : ceil_div_plus(sat_add(t, tj.J), tj.T);
    sum = sat_add(sum, sat_mul(std::min(by_time, by_deadline), tj.C));
  }
  return sum;
}

/// Blocking by a later-deadline (lower-priority) non-preemptable job
/// (eq. 9's leading max term).
Ticks np_blocking(const TaskSet& ts, std::size_t i, Ticks a) {
  const Ticks abs_deadline = sat_add(a, ts[i].D);
  Ticks b = 0;
  for (std::size_t j = 0; j < ts.size(); ++j) {
    if (j == i) continue;
    const Task& tj = ts[j];
    if (tj.D - tj.J > abs_deadline) b = std::max(b, tj.C - 1);
  }
  return b;
}

struct OffsetResult {
  bool converged = false;
  Ticks response = kNoBound;
};

/// r_i(a) for preemptive EDF (eqs. 6).
OffsetResult response_at_offset_preemptive(const TaskSet& ts, std::size_t i, Ticks a, int fuel) {
  const Task& ti = ts[i];
  const Ticks own = sat_mul(floor_div_plus1(a, ti.T), ti.C);  // (1 + ⌊a/T_i⌋)·C_i
  Ticks L = own;
  for (int it = 0; it < fuel; ++it) {
    const Ticks next = sat_add(hp_workload(ts, i, a, L, /*start_time_form=*/false), own);
    if (next == L) return {true, std::max(ti.C, L - a)};
    if (next == kNoBound) return {};
    L = next;
  }
  return {};
}

/// r_i(a) for non-preemptive EDF (eqs. 9).
OffsetResult response_at_offset_nonpreemptive(const TaskSet& ts, std::size_t i, Ticks a,
                                              int fuel) {
  const Task& ti = ts[i];
  const Ticks blocking = np_blocking(ts, i, a);
  const Ticks own_prior = sat_mul(floor_div(a, ti.T), ti.C);  // ⌊a/T_i⌋·C_i
  Ticks L = 0;
  for (int it = 0; it < fuel; ++it) {
    const Ticks next = sat_add(
        blocking, sat_add(hp_workload(ts, i, a, L, /*start_time_form=*/true), own_prior));
    if (next == L) return {true, sat_add(ti.C, std::max<Ticks>(0, L - a))};
    if (next == kNoBound) return {};
    L = next;
  }
  return {};
}

template <typename PerOffsetFn>
EdfRtaResult max_over_offsets(const TaskSet& ts, std::size_t i, PerOffsetFn per_offset) {
  EdfRtaResult out;
  const BusyPeriod bp = synchronous_busy_period(ts);  // unbounded: report unschedulable
  if (!bp.bounded()) return out;

  Ticks best = 0;
  Ticks best_a = 0;
  for (const Ticks a : edf_candidate_offsets(ts, i, bp.length)) {
    ++out.offsets_examined;
    const OffsetResult r = per_offset(a);
    if (!r.converged) {
      out.critical_offset = best_a;  // the maximum over the offsets that converged
      return out;
    }
    if (r.response > best) {
      best = r.response;
      best_a = a;
    }
  }
  out.converged = true;
  out.response = sat_add(best, ts[i].J);  // measured from event arrival
  out.critical_offset = best_a;
  return out;
}

}  // namespace

EdfRtaResult edf_response_time_preemptive(const TaskSet& ts, std::size_t i, int fuel) {
  return max_over_offsets(
      ts, i, [&](Ticks a) { return response_at_offset_preemptive(ts, i, a, fuel); });
}

EdfRtaResult edf_response_time_nonpreemptive(const TaskSet& ts, std::size_t i, int fuel) {
  return max_over_offsets(
      ts, i, [&](Ticks a) { return response_at_offset_nonpreemptive(ts, i, a, fuel); });
}

// ------------------------------------------------------------ SoA fast path

namespace {

/// Calls visit(a, blocking) for item i's candidate offsets a within
/// [0, horizon] (eqs. 8/10), in ascending order, until visit returns false.
/// They are 0 and every a = s − D_i for a deadline term s = k·T_j + D_j − J_j
/// (k >= 0, any item j, i included) with D_i < s <= horizon + D_i: the same
/// set as edf_candidate_offsets. One walk yields them, keeping each item's
/// next term in scratch.next_terms: at each step it advances every item
/// whose next term is the least one s (so coincident terms give one offset)
/// and finds the next least term in the same pass. Before each visit,
/// scratch.caps[j] counts j's terms <= a + D_i, which is eq. 9's deadline
/// cap 1 + ⌊(a + D_i − D_j + J_j)/T_j⌋: 0 exactly for the later-deadline
/// items (D_j − J_j > a + D_i). caps[i] stays 0. So no cap needs a division
/// after offset 0's. `blocking` is eq. 9's blocking by the later-deadline
/// items: max (C_j − 1) for tasks, the full max C_j (the paper's T*_cycle)
/// for messages.
template <typename VisitFn>
void for_each_candidate_offset(const TaskSetView& v, std::size_t i, Ticks horizon, Blocking model,
                               RtaScratch& scratch, VisitFn visit) {
  const std::size_t n = v.n;
  const Ticks started = model == Blocking::Full ? 0 : 1;
  const Ticks di = v.D[i];
  // Terms are positive, so they step as unsigned: a term past Ticks' range
  // lands above every horizon instead of overflowing.
  const auto beyond = static_cast<std::uint64_t>(kNoBound);
  const auto last = static_cast<std::uint64_t>(sat_add(horizon, di));
  std::vector<std::uint64_t>& next = scratch.next_terms;
  std::vector<Ticks>& caps = scratch.caps;
  next.resize(n);
  caps.resize(n);
  // Offset 0 counts each item's terms <= D_i.
  std::uint64_t term = beyond;  // the least next term
  for (std::size_t j = 0; j < n; ++j) {
    const Ticks first = v.D[j] - v.J[j];
    caps[j] = floor_div_plus1(di - first, v.T[j]);
    next[j] = static_cast<std::uint64_t>(sat_add(first, sat_mul(caps[j], v.T[j])));
    term = std::min(term, next[j]);
  }
  caps[i] = 0;
  // The later-deadline items are those whose first term D_j − J_j lies past
  // the offset's deadline s, so the blocking changes only once s reaches
  // the least such term, `unblocked`: at most once per item.
  Ticks blocking = 0;
  Ticks unblocked = kNoBound;
  const auto later_items = [&](Ticks s) {
    blocking = 0;
    unblocked = kNoBound;
    for (std::size_t j = 0; j < n; ++j) {
      const Ticks first = v.D[j] - v.J[j];
      if (j == i || first <= s) continue;
      blocking = std::max(blocking, v.C[j] - started);
      unblocked = std::min(unblocked, first);
    }
  };
  later_items(di);
  Ticks a = 0;
  while (visit(a, blocking) && term != beyond && term <= last) {
    const std::uint64_t s = term;
    term = beyond;
    // Branch-free: which items hit s differs at every step.
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t hit = next[j] == s;
      const std::uint64_t stepped = next[j] + (static_cast<std::uint64_t>(v.T[j]) & (0 - hit));
      next[j] = stepped;
      caps[j] += static_cast<Ticks>(hit);
      term = std::min(term, stepped);
    }
    caps[i] = 0;
    a = static_cast<Ticks>(s) - di;
    if (static_cast<Ticks>(s) >= unblocked) later_items(static_cast<Ticks>(s));
  }
}

/// Eq. 9's constant term at offset `a`: the walk's blocking plus ⌊a/T_i⌋·C_i.
Ticks np_base(const TaskSetView& v, std::size_t i, Ticks a, Ticks blocking) {
  return sat_add(blocking, sat_mul(floor_div(a, v.T[i]), v.C[i]));
}

/// Eq. 9's r_i(a) from the fixed point L(a).
Ticks np_response(const TaskSetView& v, std::size_t i, Ticks a, Ticks l) {
  return sat_add(v.C[i], std::max<Ticks>(0, l - a));
}

}  // namespace

EdfRtaResult edf_response_time(const TaskSetView& v, std::size_t i, const BusyPeriod& busy,
                               RtaScratch& scratch, bool preemptive, ItemModel model, int fuel) {
  if (!busy.bounded()) return {};
  const std::vector<Ticks>& caps = scratch.caps;
  // Folds exactly like the reference max_over_offsets.
  EdfRtaResult r;
  Ticks best = 0;
  Ticks best_a = 0;
  Ticks warm_l = 0;  // the previous offset's L(a): the preemptive scan's seed
  bool ok = true;
  const auto visit = [&](Ticks a, Ticks blocking) {
    ++r.offsets_examined;
    Ticks response = 0;
    if (preemptive) {
      // Eq. 6: the own instances (1 + ⌊a/T_i⌋)·C_i are the base.
      const Ticks own = sat_mul(floor_div_plus1(a, v.T[i]), v.C[i]);
      const simd::FixedPointResult fp =
          job_sum_fixed_point<true, true>(v, v.n, caps.data(), own, std::max(own, warm_l), fuel);
      ok = fp.converged;
      warm_l = fp.value;
      response = std::max(v.C[i], fp.value - a);
    } else {
      // Eq. 9, cold from 0: its L(a) is not monotone in a.
      const Ticks base = np_base(v, i, a, blocking);
      const simd::FixedPointResult fp =
          job_sum_fixed_point<false, true>(v, v.n, caps.data(), base, 0, fuel);
      ok = fp.converged;
      response = np_response(v, i, a, fp.value);
    }
    if (!ok) return false;
    if (response > best) {
      best = response;
      best_a = a;
    }
    return true;
  };
  for_each_candidate_offset(v, i, busy.length, model.blocking, scratch, visit);
  r.critical_offset = best_a;
  if (ok) {
    r.converged = true;
    r.response = sat_add(best, model.origin == Origin::Arrival ? v.J[i] : 0);
  }
  return r;
}

bool edf_meets_deadline(const TaskSetView& v, std::size_t i, const BusyPeriod& busy,
                        RtaScratch& scratch, ItemModel model, int fuel, Ticks from) {
  if (!busy.bounded()) return false;
  // The bound on r_i(a): the reported response adds J_i under Origin::Arrival.
  const Ticks limit = v.D[i] - (model.origin == Origin::Arrival ? v.J[i] : 0);
  const std::vector<Ticks>& caps = scratch.caps;
  // Every strict step of the fixed point after its first adds at least one
  // C_j, so one that stays within L̂ converges within L̂ / min C_j + 2
  // evaluations: the one-step acceptance below is sound only while that fits
  // the fuel the exact scan has.
  Ticks min_c = kNoBound;
  for (std::size_t j = 0; j < v.n; ++j) min_c = std::min(min_c, v.C[j]);
  bool meets = true;
  const auto visit = [&](Ticks a, Ticks blocking) {
    if (a < from) return true;
    const Ticks base = np_base(v, i, a, blocking);
    // r_i(a) <= limit exactly when L(a) <= L̂ = a + limit − C_i. A pre-fixed
    // point f(L̂) <= L̂ bounds the least fixed point, which the iteration
    // from 0 reaches, so one evaluation of eq. 18 at L̂ accepts the offset.
    const Ticks l_hat = sat_add(a, limit - v.C[i]);
    if (limit >= v.C[i] && min_c > 0 && l_hat / min_c <= fuel - 2 &&
        sat_add(base, job_sum<false, true>(v, v.n, caps.data(), l_hat)) <= l_hat) {
      return true;
    }
    // Otherwise the fixed point from 0, stopped once an iterate passes L̂.
    const simd::FixedPointResult fp =
        job_sum_fixed_point<false, true>(v, v.n, caps.data(), base, 0, fuel, l_hat);
    meets = fp.converged && np_response(v, i, a, fp.value) <= limit;
    return meets;
  };
  for_each_candidate_offset(v, i, busy.length, model.blocking, scratch, visit);
  return meets;
}

namespace {

/// Whole-set driver behind the analyze_*_edf entry points: binds the view
/// and computes the busy period once (the reference evaluates it per task,
/// but it is task-independent, so the verdict is identical either way).
EdfAnalysis analyze_view_edf(const TaskSet& ts, int fuel, RtaScratch& scratch, bool preemptive) {
  const TaskSetView& v = scratch.arena.bind(ts);
  const BusyPeriod busy = synchronous_busy_period(v, 1 << 20);
  EdfAnalysis out;
  out.per_task.resize(ts.size());
  out.schedulable = true;
  for (std::size_t i = 0; i < v.n; ++i) {
    out.per_task[i] = edf_response_time(v, i, busy, scratch, preemptive, kTaskModel, fuel);
    if (!out.per_task[i].meets(v.D[i])) out.schedulable = false;
  }
  return out;
}

}  // namespace

EdfAnalysis analyze_preemptive_edf(const TaskSet& ts, int fuel) {
  RtaScratch scratch;
  return analyze_view_edf(ts, fuel, scratch, /*preemptive=*/true);
}

EdfAnalysis analyze_nonpreemptive_edf(const TaskSet& ts, int fuel) {
  RtaScratch scratch;
  return analyze_view_edf(ts, fuel, scratch, /*preemptive=*/false);
}

EdfAnalysis analyze_preemptive_edf(const TaskSet& ts, int fuel, RtaScratch& scratch) {
  return analyze_view_edf(ts, fuel, scratch, /*preemptive=*/true);
}

EdfAnalysis analyze_nonpreemptive_edf(const TaskSet& ts, int fuel, RtaScratch& scratch) {
  return analyze_view_edf(ts, fuel, scratch, /*preemptive=*/false);
}

}  // namespace profisched
