#include "core/response_time_fp.hpp"

#include <algorithm>

#include "core/simd.hpp"

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

/// Σ_j I_j(w) over the priority prefix [0, hp_count) of a permuted view —
/// the same sum as interference() above, streamed from flat arrays. The
/// Formulation branch is hoisted to a template parameter so the loop body is
/// branch-free (Ceil == PaperLiteral's ceil_div_plus).
template <bool Ceil>
Ticks interference(const TaskSetView& pv, std::size_t hp_count, Ticks w) {
  Ticks sum = 0;
  for (std::size_t j = 0; j < hp_count; ++j) {
    const Ticks arg = sat_add(w, pv.J[j]);
    const Ticks jobs = Ceil ? ceil_div_plus(arg, pv.T[j]) : floor_div_plus1(arg, pv.T[j]);
    sum = sat_add(sum, sat_mul(jobs, pv.C[j]));
  }
  return sum;
}

/// View-based fixed point, additionally exposing the last iterate w itself —
/// the warm-start seed for the next compatible call (the RtaResult response
/// has jitter/C folded in, so it cannot be reused directly). The last
/// iterate is a sound seed even when the iteration diverged or ran out of
/// fuel: every iterate is a lower bound on the (possibly nonexistent) fixed
/// point, and at a higher utilization the recurrence only grows, so a
/// re-diverging task resumes its climb near saturation instead of repeating
/// it from the bottom.
struct FixedPoint {
  RtaResult result;
  Ticks w = 0;
};

template <bool Ceil>
FixedPoint iterate_scalar(const TaskSetView& pv, std::size_t hp_count, Ticks base, Ticks w0,
                          int fuel) {
  FixedPoint out;
  Ticks w = w0;
  for (int it = 0; it < fuel; ++it) {
    out.w = w;
    const Ticks next = sat_add(base, interference<Ceil>(pv, hp_count, w));
    out.result.iterations = it + 1;
    if (next == w) {
      out.result.converged = true;
      out.result.response = w;
      out.result.queueing = w;
      return out;
    }
    if (next == kNoBound) return out;
    w = next;
  }
  return out;
}

FixedPoint iterate(const TaskSetView& pv, const simd::Kernels* k, std::size_t hp_count,
                   Ticks base, Ticks w0, Formulation form, int fuel) {
  const bool ceil_form = form == Formulation::PaperLiteral;
  if (k != nullptr && hp_count >= simd::kMinFpLaneTasks) {
    const simd::FixedPointResult r =
        k->fp_fixed_point(pv.C, pv.T, pv.J, pv.recip_t, hp_count, base, w0, ceil_form, fuel);
    if (r.status == simd::Status::kOk) {
      FixedPoint out;
      out.result.converged = r.converged;
      out.result.iterations = r.iterations;
      if (r.converged) out.result.response = out.result.queueing = r.value;
      out.w = r.last;
      return out;
    }
    // A gate tripped mid-iteration: recompute entirely from the original seed
    // on the exact scalar path (deterministic, so the result is identical to
    // a scalar-only run).
  }
  return ceil_form ? iterate_scalar<true>(pv, hp_count, base, w0, fuel)
                   : iterate_scalar<false>(pv, hp_count, base, w0, fuel);
}

FixedPoint preemptive_fixed_point(const TaskSetView& pv, const simd::Kernels* k,
                                  std::size_t rank, int fuel, Ticks warm_w) {
  const Ticks ci = pv.C[rank];
  FixedPoint fp =
      iterate(pv, k, rank, ci, std::max(ci, warm_w), Formulation::PaperLiteral, fuel);
  if (fp.result.converged) fp.result.response = sat_add(fp.result.response, pv.J[rank]);
  return fp;
}

/// One lower-priority item's blocking contribution (see blocking_factor).
Ticks blocking_cost(Ticks c, Formulation form, Blocking blocking) {
  return form == Formulation::PaperLiteral || blocking == Blocking::Full
             ? c
             : std::max<Ticks>(c - 1, 0);
}

/// `b` is blocking_factor(pv, rank + 1, form, model.blocking); `hp_exec` is
/// the saturating Σ_{j < rank} C_j. Both folds are order-insensitive over
/// non-negative operands, so the whole-set drivers precompute them
/// incrementally (suffix max / running prefix) with results identical to the
/// per-rank scans.
FixedPoint nonpreemptive_fixed_point(const TaskSetView& pv, const simd::Kernels* k,
                                     std::size_t rank, Formulation form, int fuel, Ticks warm_w,
                                     Ticks b, Ticks hp_exec, Origin origin = Origin::Arrival) {
  FixedPoint fp = iterate(pv, k, rank, b, std::max(sat_add(b, hp_exec), warm_w), form, fuel);
  if (fp.result.converged) {
    fp.result.response = sat_add(fp.result.response, pv.C[rank]);
    if (origin == Origin::Arrival) fp.result.response = sat_add(fp.result.response, pv.J[rank]);
  }
  return fp;
}

/// Whole-set driver shared by the FpAnalysis and FpCellResult entry points;
/// hands each rank's result to `sink(rank, fp.result, D_rank)`.
template <typename SinkFn>
void analyze_fp_common(const TaskSet& ts, const PriorityOrder& order, bool preemptive,
                       Formulation form, int fuel, RtaScratch& scratch, bool warm_start,
                       SinkFn sink) {
  const TaskSetView& pv = scratch.arena.bind(ts, order);
  const simd::Kernels* k = pv.simd_ok ? simd::active() : nullptr;
  const bool seed = warm_start && scratch.warm.size() == pv.n;
  scratch.warm.resize(pv.n);

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

  Ticks hp_exec = 0;  // running Σ_{j < rank} C_j (saturating)
  for (std::size_t rank = 0; rank < pv.n; ++rank) {
    const Ticks warm_w = seed ? scratch.warm[rank] : 0;
    const FixedPoint fp =
        preemptive ? preemptive_fixed_point(pv, k, rank, fuel, warm_w)
                   : nonpreemptive_fixed_point(pv, k, rank, form, fuel, warm_w,
                                               scratch.np_blocking[rank], hp_exec);
    scratch.warm[rank] = fp.w;  // last iterate: sound even without convergence
    hp_exec = sat_add(hp_exec, pv.C[rank]);
    sink(rank, pv.index[rank], fp.result, pv.D[rank]);
  }
}

FpAnalysis analyze_view(const TaskSet& ts, const PriorityOrder& order, bool preemptive,
                        Formulation form, int fuel, RtaScratch& scratch, bool warm_start) {
  FpAnalysis out;
  out.per_task.resize(ts.size());
  out.schedulable = true;
  analyze_fp_common(ts, order, preemptive, form, fuel, scratch, warm_start,
                    [&](std::size_t, std::size_t i, const RtaResult& r, Ticks d) {
                      out.per_task[i] = r;
                      if (!r.meets(d)) out.schedulable = false;
                    });
  return out;
}

}  // namespace

FpCellResult analyze_fp_cell(const TaskSet& ts, const PriorityOrder& order, bool preemptive,
                             Formulation form, int fuel, RtaScratch& scratch, bool warm_start) {
  FpCellResult out;
  out.schedulable = true;
  Ticks worst = 0;
  analyze_fp_common(ts, order, preemptive, form, fuel, scratch, warm_start,
                    [&](std::size_t, std::size_t, const RtaResult& r, Ticks d) {
                      out.iterations += static_cast<std::uint64_t>(r.iterations);
                      worst = (!r.converged || worst == kNoBound) ? kNoBound
                                                                  : std::max(worst, r.response);
                      if (!r.meets(d)) out.schedulable = false;
                    });
  out.worst_response = worst;
  return out;
}

Ticks blocking_factor(const TaskSetView& pv, std::size_t first_lower, Formulation form,
                      Blocking blocking) {
  Ticks b = 0;
  for (std::size_t j = first_lower; j < pv.n; ++j) {
    b = std::max(b, blocking_cost(pv.C[j], form, blocking));
  }
  return b;
}

RtaResult response_time_preemptive(const TaskSetView& pv, std::size_t rank, int fuel,
                                   Ticks warm_w) {
  const simd::Kernels* k = pv.simd_ok ? simd::active() : nullptr;
  return preemptive_fixed_point(pv, k, rank, fuel, warm_w).result;
}

RtaResult response_time_nonpreemptive(const TaskSetView& pv, std::size_t rank, Formulation form,
                                      int fuel, Ticks warm_w, ItemModel model) {
  const simd::Kernels* k = pv.simd_ok && rank >= simd::kMinFpLaneTasks ? simd::active() : nullptr;
  Ticks hp_exec = 0;
  for (std::size_t j = 0; j < rank; ++j) hp_exec = sat_add(hp_exec, pv.C[j]);
  return nonpreemptive_fixed_point(pv, k, rank, form, fuel, warm_w,
                                   blocking_factor(pv, rank + 1, form, model.blocking), hp_exec,
                                   model.origin)
      .result;
}

FpAnalysis analyze_preemptive_fp(const TaskSet& ts, const PriorityOrder& order, int fuel) {
  RtaScratch scratch;
  return analyze_view(ts, order, /*preemptive=*/true, kDefaultFormulation, fuel, scratch,
                      /*warm_start=*/false);
}

FpAnalysis analyze_nonpreemptive_fp(const TaskSet& ts, const PriorityOrder& order, Formulation form,
                                    int fuel) {
  RtaScratch scratch;
  return analyze_view(ts, order, /*preemptive=*/false, form, fuel, scratch,
                      /*warm_start=*/false);
}

FpAnalysis analyze_preemptive_fp(const TaskSet& ts, const PriorityOrder& order, int fuel,
                                 RtaScratch& scratch, bool warm_start) {
  return analyze_view(ts, order, /*preemptive=*/true, kDefaultFormulation, fuel, scratch,
                      warm_start);
}

FpAnalysis analyze_nonpreemptive_fp(const TaskSet& ts, const PriorityOrder& order,
                                    Formulation form, int fuel, RtaScratch& scratch,
                                    bool warm_start) {
  return analyze_view(ts, order, /*preemptive=*/false, form, fuel, scratch, warm_start);
}

}  // namespace profisched
