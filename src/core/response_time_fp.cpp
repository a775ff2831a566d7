#include "core/response_time_fp.hpp"

#include <algorithm>

#include "core/fixed_point.hpp"

namespace profisched {

namespace {

/// One step of the interference sum Σ_j I_j(w) for the given formulation.
Ticks interference(const TaskSet& ts, std::span<const std::size_t> higher_priority, Ticks w,
                   Formulation form) {
  Ticks sum = 0;
  for (const std::size_t j : higher_priority) {
    const Task& tj = ts[j];
    const Ticks arg = sat_add(w, tj.J);
    const Ticks jobs = (form == Formulation::PaperLiteral) ? ceil_div_plus(arg, tj.T)
                                                           : floor_div_plus1(arg, tj.T);
    sum = sat_add(sum, sat_mul(jobs, tj.C));
  }
  return sum;
}

/// Monotone fixed-point iteration from `w0`; returns the least fixed point
/// >= w0, or kNoBound on divergence / fuel exhaustion.
RtaResult iterate(const TaskSet& ts, std::span<const std::size_t> higher_priority, Ticks base,
                  Ticks w0, Formulation form, int fuel) {
  RtaResult out;
  Ticks w = w0;
  for (int it = 0; it < fuel; ++it) {
    const Ticks next = sat_add(base, interference(ts, higher_priority, w, form));
    out.iterations = it + 1;
    if (next == w) {
      out.converged = true;
      out.response = w;
      out.queueing = w;
      return out;
    }
    if (next == kNoBound) return out;
    w = next;
  }
  return out;
}

}  // namespace

Ticks blocking_factor(const TaskSet& ts, std::span<const std::size_t> lower_priority,
                      Formulation form) {
  Ticks b = 0;
  for (const std::size_t j : lower_priority) {
    const Ticks c = (form == Formulation::PaperLiteral) ? ts[j].C : std::max<Ticks>(ts[j].C - 1, 0);
    b = std::max(b, c);
  }
  return b;
}

RtaResult response_time_preemptive(const TaskSet& ts, std::size_t i,
                                   std::span<const std::size_t> higher_priority, int fuel) {
  const Task& ti = ts[i];
  // Preemptive interference always counts a job released exactly at w, i.e.
  // the ceil form — that is the classic Joseph–Pandya recurrence.
  RtaResult r = iterate(ts, higher_priority, ti.C, ti.C, Formulation::PaperLiteral, fuel);
  if (r.converged) r.response = sat_add(r.response, ti.J);
  return r;
}

RtaResult response_time_nonpreemptive(const TaskSet& ts, std::size_t i,
                                      std::span<const std::size_t> higher_priority,
                                      std::span<const std::size_t> lower_priority, Formulation form,
                                      int fuel) {
  const Task& ti = ts[i];
  const Ticks b = blocking_factor(ts, lower_priority, form);

  // Start from B + Σ_hp C_j: a positive lower bound on the fixed point for
  // both formulations (see header).
  Ticks w0 = b;
  for (const std::size_t j : higher_priority) w0 = sat_add(w0, ts[j].C);

  RtaResult r = iterate(ts, higher_priority, b, w0, form, fuel);
  if (r.converged) r.response = sat_add(sat_add(r.response, ti.C), ti.J);
  return r;
}

// ------------------------------------------------------------ SoA fast path

namespace {

/// The fixed point w → base + Σ_{j < hp_count} I_j(w) over the priority
/// prefix of a permuted view, from w0, stopped at the first iterate above
/// `limit` (see response_time_nonpreemptive's `bound`). PaperLiteral's I_j
/// is the ceil form.
RtaResult iterate(const TaskSetView& pv, std::size_t hp_count, Ticks base, Ticks w0,
                  Formulation form, int fuel, Ticks limit = kNoBound) {
  const simd::FixedPointResult fp =
      form == Formulation::PaperLiteral
          ? job_sum_fixed_point<true, false>(pv, hp_count, nullptr, base, w0, fuel, limit)
          : job_sum_fixed_point<false, false>(pv, hp_count, nullptr, base, w0, fuel, limit);
  RtaResult out;
  out.converged = fp.converged;
  out.iterations = fp.iterations;
  if (fp.converged) out.response = out.queueing = fp.value;
  return out;
}

/// One lower-priority item's blocking contribution (see blocking_factor).
Ticks blocking_cost(Ticks c, Formulation form, Blocking blocking) {
  return form == Formulation::PaperLiteral || blocking == Blocking::Full
             ? c
             : std::max<Ticks>(c - 1, 0);
}

/// `b` is blocking_factor(pv, rank + 1, form, model.blocking); `hp_exec` is
/// the saturating Σ_{j < rank} C_j. Both folds are order-insensitive over
/// non-negative operands, so the whole-set driver precomputes them
/// incrementally (suffix max / running prefix) with results identical to the
/// per-rank scans.
RtaResult nonpreemptive_fixed_point(const TaskSetView& pv, std::size_t rank, Formulation form,
                                    int fuel, Ticks b, Ticks hp_exec,
                                    Origin origin = Origin::Arrival, Ticks bound = kNoBound) {
  // R = w + C_i (+ J_i), so R exceeds the bound exactly when w exceeds this.
  const Ticks added = origin == Origin::Arrival ? sat_add(pv.C[rank], pv.J[rank]) : pv.C[rank];
  const Ticks limit = bound == kNoBound ? kNoBound : bound - added;
  RtaResult r = iterate(pv, rank, b, sat_add(b, hp_exec), form, fuel, limit);
  if (r.converged) r.response = sat_add(r.response, added);
  return r;
}

/// Whole-set driver behind the analyze_*_fp entry points.
FpAnalysis analyze_view(const TaskSet& ts, const PriorityOrder& order, bool preemptive,
                        Formulation form, int fuel, RtaScratch& scratch) {
  const TaskSetView& pv = scratch.arena.bind(ts, order);

  if (!preemptive) {
    // Suffix-max blocking factors: np_blocking[r] == blocking_factor(pv,
    // r + 1, form), filled back-to-front in one pass.
    scratch.np_blocking.resize(pv.n);
    Ticks acc = 0;
    for (std::size_t r = pv.n; r-- > 0;) {
      scratch.np_blocking[r] = acc;
      acc = std::max(acc, blocking_cost(pv.C[r], form, Blocking::Started));
    }
  }

  FpAnalysis out;
  out.per_task.resize(ts.size());
  out.schedulable = true;
  Ticks hp_exec = 0;  // running Σ_{j < rank} C_j (saturating)
  for (std::size_t rank = 0; rank < pv.n; ++rank) {
    const RtaResult r = preemptive ? response_time_preemptive(pv, rank, fuel)
                                   : nonpreemptive_fixed_point(pv, rank, form, fuel,
                                                               scratch.np_blocking[rank], hp_exec);
    hp_exec = sat_add(hp_exec, pv.C[rank]);
    out.per_task[pv.index[rank]] = r;
    if (!r.meets(pv.D[rank])) out.schedulable = false;
  }
  return out;
}

}  // namespace

Ticks blocking_factor(const TaskSetView& pv, std::size_t first_lower, Formulation form,
                      Blocking blocking) {
  Ticks b = 0;
  for (std::size_t j = first_lower; j < pv.n; ++j) {
    b = std::max(b, blocking_cost(pv.C[j], form, blocking));
  }
  return b;
}

RtaResult response_time_preemptive(const TaskSetView& pv, std::size_t rank, int fuel) {
  const Ticks ci = pv.C[rank];
  RtaResult r = iterate(pv, rank, ci, ci, Formulation::PaperLiteral, fuel);
  if (r.converged) r.response = sat_add(r.response, pv.J[rank]);
  return r;
}

RtaResult response_time_nonpreemptive(const TaskSetView& pv, std::size_t rank, Formulation form,
                                      int fuel, ItemModel model, Ticks bound) {
  Ticks hp_exec = 0;
  for (std::size_t j = 0; j < rank; ++j) hp_exec = sat_add(hp_exec, pv.C[j]);
  return nonpreemptive_fixed_point(pv, rank, form, fuel,
                                   blocking_factor(pv, rank + 1, form, model.blocking), hp_exec,
                                   model.origin, bound);
}

FpAnalysis analyze_preemptive_fp(const TaskSet& ts, const PriorityOrder& order, int fuel) {
  RtaScratch scratch;
  return analyze_view(ts, order, /*preemptive=*/true, kDefaultFormulation, fuel, scratch);
}

FpAnalysis analyze_nonpreemptive_fp(const TaskSet& ts, const PriorityOrder& order, Formulation form,
                                    int fuel) {
  RtaScratch scratch;
  return analyze_view(ts, order, /*preemptive=*/false, form, fuel, scratch);
}

FpAnalysis analyze_preemptive_fp(const TaskSet& ts, const PriorityOrder& order, int fuel,
                                 RtaScratch& scratch) {
  return analyze_view(ts, order, /*preemptive=*/true, kDefaultFormulation, fuel, scratch);
}

FpAnalysis analyze_nonpreemptive_fp(const TaskSet& ts, const PriorityOrder& order,
                                    Formulation form, int fuel, RtaScratch& scratch) {
  return analyze_view(ts, order, /*preemptive=*/false, form, fuel, scratch);
}

}  // namespace profisched
