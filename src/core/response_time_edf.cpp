#include "core/response_time_edf.hpp"

#include <algorithm>

#include "core/simd.hpp"

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
EdfRtaResult max_over_offsets(const TaskSet& ts, std::size_t i, const EdfRtaOptions& opt,
                              PerOffsetFn per_offset) {
  EdfRtaResult out;
  const BusyPeriod bp = synchronous_busy_period(ts);  // unbounded: report unschedulable
  if (!bp.bounded()) return out;

  const std::vector<Ticks> offsets = edf_candidate_offsets(ts, i, bp.length);
  if (offsets.size() > opt.max_offsets) return out;

  Ticks best = 0;
  Ticks best_a = 0;
  for (const Ticks a : offsets) {
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

EdfRtaResult edf_response_time_preemptive(const TaskSet& ts, std::size_t i,
                                          const EdfRtaOptions& opt) {
  return max_over_offsets(ts, i, opt, [&](Ticks a) {
    return response_at_offset_preemptive(ts, i, a, opt.fixed_point_fuel);
  });
}

EdfRtaResult edf_response_time_nonpreemptive(const TaskSet& ts, std::size_t i,
                                             const EdfRtaOptions& opt) {
  return max_over_offsets(ts, i, opt, [&](Ticks a) {
    return response_at_offset_nonpreemptive(ts, i, a, opt.fixed_point_fuel);
  });
}

// ------------------------------------------------------------ SoA fast path

namespace {

/// Candidate offsets into a reused buffer — same generation order (hence
/// identical sorted/deduplicated content) as edf_candidate_offsets above.
void candidate_offsets_view(const TaskSetView& v, std::size_t i, Ticks horizon,
                            std::vector<Ticks>& out) {
  out.clear();
  out.push_back(0);
  const Ticks di = v.D[i];
  for (std::size_t j = 0; j < v.n; ++j) {
    const Ticks base = v.D[j] - v.J[j] - di;
    const Ticks k0 = base >= 0 ? 0 : ceil_div(-base, v.T[j]);
    for (Ticks k = k0;; ++k) {
      const Ticks a = sat_add(sat_mul(k, v.T[j]), base);
      if (a > horizon || a == kNoBound) break;
      out.push_back(a);
    }
  }
  std::ranges::sort(out);
  const auto dup = std::ranges::unique(out);
  out.erase(dup.begin(), dup.end());
}

/// The per-offset deadline caps 1 + ⌊(a + D_i − D_j + J_j)/T_j⌋ of the tasks
/// that can interfere, hoisted out of the fixed point into `caps` (the lane
/// kernel hoists the same caps). caps[j] is 0 exactly for j = i and for the
/// later-deadline tasks (D_j − J_j > a + D_i); every other cap is >= 1.
/// Returns eq. 9's blocking by those later-deadline tasks: max (C_j − 1) for
/// tasks, the full max C_j (the paper's T*_cycle) for messages.
Ticks deadline_caps(const TaskSetView& v, std::size_t i, Ticks abs_deadline, Blocking model,
                    std::vector<Ticks>& caps) {
  const Ticks started = model == Blocking::Full ? 0 : 1;
  caps.resize(v.n);
  Ticks blocking = 0;
  for (std::size_t j = 0; j < v.n; ++j) {
    const bool later = v.D[j] - v.J[j] > abs_deadline;
    if (j != i && later) blocking = std::max(blocking, v.C[j] - started);
    caps[j] = j == i ? 0 : floor_div_plus1(abs_deadline - v.D[j] + v.J[j], v.T[j]);
  }
  return blocking;
}

/// W_i(a, t) / W*_i(a, t) over the view, from the hoisted caps.
Ticks hp_workload_view(const TaskSetView& v, const std::vector<Ticks>& caps, Ticks t,
                       bool start_time_form) {
  Ticks sum = 0;
  for (std::size_t j = 0; j < v.n; ++j) {
    if (caps[j] == 0) continue;
    const Ticks by_time = start_time_form ? floor_div_plus1(sat_add(t, v.J[j]), v.T[j])
                                          : ceil_div_plus(sat_add(t, v.J[j]), v.T[j]);
    sum = sat_add(sum, sat_mul(std::min(by_time, caps[j]), v.C[j]));
  }
  return sum;
}

/// OffsetResult plus the converged L(a) (the next offset's warm seed).
struct OffsetOutcomeView {
  bool converged = false;
  Ticks response = kNoBound;
  Ticks fixed_point = 0;
};

OffsetOutcomeView offset_preemptive_view(const TaskSetView& v, const simd::Kernels* k,
                                         std::size_t i, Ticks a, int fuel, Ticks warm_l,
                                         std::vector<Ticks>& caps) {
  const Ticks own = sat_mul(floor_div_plus1(a, v.T[i]), v.C[i]);
  const Ticks abs_deadline = sat_add(a, v.D[i]);
  Ticks L = std::max(own, warm_l);
  if (k != nullptr) {
    const simd::EdfOffsetResult r =
        k->edf_offset_fixed_point(v.C, v.T, v.D, v.J, v.recip_t, v.n_padded, i, abs_deadline,
                                  own, L, /*start_time_form=*/false, fuel);
    if (r.status == simd::Status::kOk) {
      if (!r.converged) return {};
      return {true, std::max(v.C[i], r.fixed_point - a), r.fixed_point};
    }
  }
  deadline_caps(v, i, abs_deadline, Blocking::Started, caps);
  for (int it = 0; it < fuel; ++it) {
    const Ticks next = sat_add(hp_workload_view(v, caps, L, false), own);
    if (next == L) return {true, std::max(v.C[i], L - a), L};
    if (next == kNoBound) return {};
    L = next;
  }
  return {};
}

/// `limit` stops the scalar fixed point early: L climbs from 0 and never
/// passes the least fixed point, so an iterate whose response already exceeds
/// `limit` proves the converged response does too. The outcome then carries
/// that iterate's response (converged, as far as the scan's fold is concerned).
/// `blocking` and `caps` are deadline_caps' for offset `a`, and `own_prior`
/// is ⌊a/T_i⌋·C_i.
OffsetOutcomeView offset_nonpreemptive_view(const TaskSetView& v, const simd::Kernels* k,
                                            std::size_t i, Ticks a, int fuel, Ticks limit,
                                            Ticks blocking, Ticks own_prior,
                                            const std::vector<Ticks>& caps) {
  const Ticks abs_deadline = sat_add(a, v.D[i]);
  if (k != nullptr) {
    // base = blocking + own_prior: sat_add over non-negative terms is
    // order-insensitive, so folding it up front matches the reference sum.
    const simd::EdfOffsetResult r =
        k->edf_offset_fixed_point(v.C, v.T, v.D, v.J, v.recip_t, v.n_padded, i, abs_deadline,
                                  sat_add(blocking, own_prior), /*l0=*/0,
                                  /*start_time_form=*/true, fuel);
    if (r.status == simd::Status::kOk) {
      if (!r.converged) return {};
      return {true, sat_add(v.C[i], std::max<Ticks>(0, r.fixed_point - a)), r.fixed_point};
    }
  }
  const auto response = [&](Ticks l) { return sat_add(v.C[i], std::max<Ticks>(0, l - a)); };
  Ticks L = 0;
  for (int it = 0; it < fuel; ++it) {
    const Ticks next =
        sat_add(blocking, sat_add(hp_workload_view(v, caps, L, true), own_prior));
    if (next == L) return {true, response(L), L};
    if (next == kNoBound) return {};
    L = next;
    if (response(L) > limit) return {true, response(L), L};
  }
  return {};
}

/// Shared candidate-deadline set: every s = k·T_j + D_j − J_j within
/// [first, last], sorted and deduplicated. With first = min_i D_i and last =
/// L + max_i D_i, task i's candidate offsets are exactly
/// {0} ∪ {s − D_i : s ∈ S, D_i <= s <= L + D_i} — the map a = s − D_i is a
/// bijection between the reference's per-task candidates and the slice
/// elements — so one sort serves all tasks where the reference sorts once
/// per task.
void shared_candidate_deadlines(const TaskSetView& v, Ticks first, Ticks last,
                                std::vector<Ticks>& out) {
  out.clear();
  for (std::size_t j = 0; j < v.n; ++j) {
    const Ticks base = v.D[j] - v.J[j];
    const Ticks k0 = base >= first ? 0 : ceil_div(first - base, v.T[j]);
    for (Ticks k = k0;; ++k) {
      const Ticks s = sat_add(sat_mul(k, v.T[j]), base);
      if (s > last || s == kNoBound) break;
      out.push_back(s);
    }
  }
  std::ranges::sort(out);
  const auto dup = std::ranges::unique(out);
  out.erase(dup.begin(), dup.end());
}

/// Calls visit(a) for item i's candidate offsets within `h`, in ascending
/// order, until visit returns false (see edf_response_time for `h`). Returns
/// false, visiting none, when they number more than `max_offsets`.
template <typename VisitFn>
bool for_each_candidate_offset(const TaskSetView& v, std::size_t i, const EdfHorizon& h,
                               std::size_t max_offsets, std::vector<Ticks>& offsets,
                               VisitFn visit) {
  if (!h.shared) {
    candidate_offsets_view(v, i, h.busy.length, offsets);
    if (offsets.size() > max_offsets) return false;
    for (const Ticks a : offsets) {
      if (!visit(a)) break;
    }
    return true;
  }
  const Ticks di = v.D[i];
  const auto lo = std::lower_bound(offsets.begin(), offsets.end(), di);
  const auto hi = std::upper_bound(lo, offsets.end(), sat_add(h.busy.length, di));
  // Offset 0 is prepended; the slice's first element re-yields it when
  // s == D_i, so the deduplicated count drops by one in that case.
  const bool dup0 = lo != hi && *lo == di;
  const std::size_t n_offsets =
      1 + static_cast<std::size_t>(hi - lo) - static_cast<std::size_t>(dup0);
  if (n_offsets > max_offsets) return false;
  if (!visit(Ticks{0})) return true;
  for (auto it = lo; it != hi; ++it) {
    const Ticks a = *it - di;
    if (a == 0) continue;
    if (!visit(a)) break;
  }
  return true;
}

/// The lane kernels an offset scan over `v` may use.
const simd::Kernels* edf_lanes(const TaskSetView& v) {
  return v.simd_ok && v.n >= simd::kMinEdfLaneTasks ? simd::active() : nullptr;
}

/// The bound on r_i(a) that keeps the reported response within `bound`: it
/// adds J_i under Origin::Arrival, and r + J_i > bound exactly when
/// r > bound − J_i.
Ticks offset_limit(const TaskSetView& v, std::size_t i, ItemModel model, Ticks bound) {
  const Ticks shift = model.origin == Origin::Arrival ? v.J[i] : 0;
  return bound == kNoBound ? kNoBound : bound - shift;
}

}  // namespace

EdfHorizon edf_horizon(const TaskSetView& v, int busy_fuel, RtaScratch& scratch,
                       bool warm_start) {
  const BusyPeriod busy =
      synchronous_busy_period(v, busy_fuel, warm_start ? scratch.warm_busy : 0);
  if (busy.bounded()) scratch.warm_busy = busy.length;
  return edf_horizon(v, busy, scratch);
}

EdfHorizon edf_horizon(const TaskSetView& v, const BusyPeriod& busy, RtaScratch& scratch) {
  EdfHorizon h{.busy = busy};
  if (!h.busy.bounded() || v.empty()) return h;  // nothing to enumerate

  // The tasks' candidate ranges [D_i, L + D_i] overlap while the deadlines
  // spread less than (n − 1)·L; then one shared set is the smaller
  // enumeration. Past that it spans gaps no task reads.
  Ticks min_d = kNoBound;
  Ticks max_d = 0;
  for (std::size_t j = 0; j < v.n; ++j) {
    min_d = std::min(min_d, v.D[j]);
    max_d = std::max(max_d, v.D[j]);
  }
  const Ticks last = sat_add(h.busy.length, max_d);
  h.shared = last != kNoBound &&
             max_d - min_d <= sat_mul(static_cast<Ticks>(v.n) - 1, h.busy.length);
  if (h.shared) shared_candidate_deadlines(v, min_d, last, scratch.offsets);
  return h;
}

EdfRtaResult edf_response_time(const TaskSetView& v, std::size_t i, const EdfHorizon& h,
                               const EdfRtaOptions& opt, RtaScratch& scratch, bool preemptive,
                               ItemModel model, Ticks bound) {
  if (!h.busy.bounded()) return {};
  const simd::Kernels* k = edf_lanes(v);
  const int fuel = opt.fixed_point_fuel;
  const Ticks shift = model.origin == Origin::Arrival ? v.J[i] : 0;
  const Ticks limit = offset_limit(v, i, model, bound);
  std::vector<Ticks>& caps = scratch.caps;
  // Folds exactly like the reference max_over_offsets, and stops once the
  // maximum exceeds the bound.
  EdfRtaResult r;
  Ticks best = 0;
  Ticks best_a = 0;
  Ticks warm_l = 0;
  bool ok = true;
  const auto visit = [&](Ticks a) {
    ++r.offsets_examined;
    OffsetOutcomeView o;
    if (preemptive) {
      o = offset_preemptive_view(v, k, i, a, fuel, warm_l, caps);
    } else {
      const Ticks blocking = deadline_caps(v, i, sat_add(a, v.D[i]), model.blocking, caps);
      const Ticks own_prior = sat_mul(floor_div(a, v.T[i]), v.C[i]);
      o = offset_nonpreemptive_view(v, k, i, a, fuel, limit, blocking, own_prior, caps);
    }
    if (!o.converged) {
      ok = false;
      return false;
    }
    if (preemptive) warm_l = o.fixed_point;
    if (o.response > best) {
      best = o.response;
      best_a = a;
    }
    return best <= limit;
  };
  if (!for_each_candidate_offset(v, i, h, opt.max_offsets, scratch.offsets, visit)) return {};
  r.critical_offset = best_a;
  if (ok) {
    r.converged = best <= limit;
    r.response = sat_add(best, shift);
  }
  return r;
}

bool edf_meets_deadline(const TaskSetView& v, std::size_t i, const EdfHorizon& h,
                        const EdfRtaOptions& opt, RtaScratch& scratch, ItemModel model,
                        Ticks from) {
  if (!h.busy.bounded()) return false;
  const simd::Kernels* k = edf_lanes(v);
  const int fuel = opt.fixed_point_fuel;
  const Ticks limit = offset_limit(v, i, model, v.D[i]);
  std::vector<Ticks>& caps = scratch.caps;
  // Every strict step of the fixed point after its first adds at least one
  // C_j, so one that stays within L̂ converges within L̂ / min C_j + 2
  // evaluations: the one-step acceptance below is sound only while that fits
  // the fuel the exact scan has.
  Ticks min_c = kNoBound;
  for (std::size_t j = 0; j < v.n; ++j) min_c = std::min(min_c, v.C[j]);
  bool meets = true;
  const auto visit = [&](Ticks a) {
    if (a < from) return true;
    const Ticks blocking = deadline_caps(v, i, sat_add(a, v.D[i]), model.blocking, caps);
    const Ticks own_prior = sat_mul(floor_div(a, v.T[i]), v.C[i]);
    // r_i(a) <= limit exactly when L(a) <= L̂ = a + limit − C_i. A pre-fixed
    // point f(L̂) <= L̂ bounds the least fixed point, which the iteration
    // from 0 reaches, so one evaluation of eq. 18 at L̂ accepts the offset.
    if (limit >= v.C[i] && min_c > 0) {
      const Ticks l_hat = sat_add(a, limit - v.C[i]);
      if (l_hat / min_c <= fuel - 2) {
        const Ticks work = hp_workload_view(v, caps, l_hat, /*start_time_form=*/true);
        if (sat_add(blocking, sat_add(work, own_prior)) <= l_hat) return true;
      }
    }
    const OffsetOutcomeView o =
        offset_nonpreemptive_view(v, k, i, a, fuel, limit, blocking, own_prior, caps);
    meets = o.converged && o.response <= limit;
    return meets;
  };
  return for_each_candidate_offset(v, i, h, opt.max_offsets, scratch.offsets, visit) && meets;
}

namespace {

/// Whole-set driver shared by the EdfAnalysis and EdfCellResult entry
/// points: binds the view, computes the horizon once (the reference
/// evaluates it per task, but it is task-independent — identical verdict
/// either way), and hands each task's EdfRtaResult to `sink(i, r, D_i)`.
template <typename SinkFn>
void analyze_edf_common(const TaskSet& ts, const EdfRtaOptions& opt, RtaScratch& scratch,
                        bool warm_start, bool preemptive, int& busy_iterations, SinkFn sink) {
  const TaskSetView& v = scratch.arena.bind(ts);
  const EdfHorizon h = edf_horizon(v, 1 << 20, scratch, warm_start);
  busy_iterations = h.busy.iterations;
  for (std::size_t i = 0; i < v.n; ++i) {
    sink(i, edf_response_time(v, i, h, opt, scratch, preemptive), v.D[i]);
  }
}

EdfAnalysis analyze_view_edf(const TaskSet& ts, const EdfRtaOptions& opt, RtaScratch& scratch,
                             bool warm_start, bool preemptive) {
  EdfAnalysis out;
  out.per_task.resize(ts.size());
  out.schedulable = true;
  analyze_edf_common(ts, opt, scratch, warm_start, preemptive, out.busy_iterations,
                     [&](std::size_t i, const EdfRtaResult& r, Ticks d) {
                       out.per_task[i] = r;
                       if (!r.meets(d)) out.schedulable = false;
                     });
  return out;
}

}  // namespace

EdfCellResult analyze_edf_cell(const TaskSet& ts, bool preemptive, const EdfRtaOptions& opt,
                               RtaScratch& scratch, bool warm_start) {
  EdfCellResult out;
  out.schedulable = true;
  Ticks worst = 0;
  analyze_edf_common(ts, opt, scratch, warm_start, preemptive, out.busy_iterations,
                     [&](std::size_t, const EdfRtaResult& r, Ticks d) {
                       out.offsets_examined += static_cast<std::uint64_t>(r.offsets_examined);
                       worst = (!r.converged || worst == kNoBound) ? kNoBound
                                                                   : std::max(worst, r.response);
                       if (!r.meets(d)) out.schedulable = false;
                     });
  out.worst_response = worst;
  return out;
}

EdfAnalysis analyze_preemptive_edf(const TaskSet& ts, const EdfRtaOptions& opt) {
  RtaScratch scratch;
  return analyze_view_edf(ts, opt, scratch, /*warm_start=*/false, /*preemptive=*/true);
}

EdfAnalysis analyze_nonpreemptive_edf(const TaskSet& ts, const EdfRtaOptions& opt) {
  RtaScratch scratch;
  return analyze_view_edf(ts, opt, scratch, /*warm_start=*/false, /*preemptive=*/false);
}

EdfAnalysis analyze_preemptive_edf(const TaskSet& ts, const EdfRtaOptions& opt,
                                   RtaScratch& scratch, bool warm_start) {
  return analyze_view_edf(ts, opt, scratch, warm_start, /*preemptive=*/true);
}

EdfAnalysis analyze_nonpreemptive_edf(const TaskSet& ts, const EdfRtaOptions& opt,
                                      RtaScratch& scratch, bool warm_start) {
  return analyze_view_edf(ts, opt, scratch, warm_start, /*preemptive=*/false);
}

}  // namespace profisched
