// simd.hpp — runtime-dispatched data-parallel kernels for the SoA analysis
// fast paths, with the scalar view code retained as the equivalence reference.
//
// Design. The hot inner loops of the analyses are fixed-point sums of
// job-count × execution-time terms. Their divisions (ceil_div_plus /
// floor_div_plus1) have no 64-bit vector instruction on AVX2, so the lane
// kernels compute floor(a/T) as floor(a · (1/T)) in double precision and
// correct the quotient by ±1 with an exact 64-bit low-multiply remainder
// check. That is *exact* — bit-identical to the integer reference — provided
// every operand stays well inside the 2^52 double mantissa:
//
//   - per-bind gate (TaskSetView::simd_ok): C, T, D, J ≤ 2^44, n ≤ 256, and
//     the relational invariant 0 ≤ C ≤ T (T ≥ 1 follows, a TaskSet
//     construction invariant) — all certified once when the arena binds;
//   - per-iteration gate (inside the kernels): every iterate (w, L, t) ≤ 2^44.
//
// Together these statically bound every lane product: jobs ≤ a'/T + 1 with
// |a'| < 2^46, so jobs·C ≤ a'·(C/T) + C < 2^47 and 256-task lane sums stay
// below 2^55 — no per-iteration overflow gate is needed. Inside that region
// |fl(a · fl(1/T)) − a/T| < 0.02 for |a| < 2^46, so the floored quotient is
// off by at most one and the remainder correction makes it exact; saturating
// arithmetic also degenerates to plain arithmetic, so lane sums equal the
// reference's sequential sat_add folds. The moment any check trips, the
// kernel returns Status::kFallback *without* publishing a result and the
// call site re-runs its scalar reference from the original seed —
// divergence, kNoBound saturation, and near-INT64_MAX inputs are therefore
// always produced by the exact scalar code.
//
// One binary serves every machine: the AVX2 bodies live in a dedicated TU
// compiled with -mavx2 and are only selected after a cpuid check; NEON is the
// aarch64 baseline; everything else (and -DPROFISCHED_NO_SIMD=ON builds, and
// PROFISCHED_SIMD=0 environments) gets active() == nullptr, i.e. the scalar
// reference paths.
#pragma once

#include <cstddef>

#include "core/time_types.hpp"

namespace profisched::simd {

/// Per-bind input gate: every C/T/D/J must be ≤ this for the vector kernels
/// to be admissible (keeps every derived quantity exactly representable in
/// double). 2^44 ticks is ~1.5 years at 12 Mbit/s PROFIBUS bit-time.
inline constexpr Ticks kMaxValue = Ticks{1} << 44;

/// Per-iteration gate on fixed-point iterates (w, L, t). Same bound as the
/// inputs so w + J and t − D stay below 2^45.
inline constexpr Ticks kMaxAccum = Ticks{1} << 44;

/// Task-count gate (bounds kernel stack buffers and the lane-sum width).
inline constexpr std::size_t kMaxTasks = 256;

/// Fewest summed tasks a lane-kernel call pays for: the FP interference sum
/// from one full lane block plus a tail, the EDF offset recurrence — which
/// also hoists a deadline cap for every slot — from two full blocks. Below
/// these the scalar loops won on the 5-stream PROFIBUS masters.
inline constexpr std::size_t kMinFpLaneTasks = 5;
inline constexpr std::size_t kMinEdfLaneTasks = 8;

enum class Status : int {
  kOk = 0,        ///< result fields are valid and bit-identical to the reference
  kFallback = 1,  ///< a gate tripped; caller must run the scalar reference
};

/// Result of a monotone fixed-point iteration w → base + Σ jobs(w)·C.
struct FixedPointResult {
  Status status = Status::kFallback;
  bool converged = false;
  Ticks value = 0;     ///< converged fixed point (valid when converged)
  Ticks last = 0;      ///< last finite iterate examined (warm-start seed)
  int iterations = 0;  ///< matches the scalar reference count exactly
};

struct DemandResult {
  Status status = Status::kFallback;
  Ticks demand = 0;
};

/// Four demand-bound evaluations in one pass (lanes = checkpoints).
struct DemandGridResult {
  Status status = Status::kFallback;
  Ticks demand[4] = {0, 0, 0, 0};
};

struct EdfOffsetResult {
  Status status = Status::kFallback;
  bool converged = false;
  Ticks fixed_point = 0;  ///< converged L(a)
};

/// Function-pointer kernel table. Arguments are the raw SoA arrays of a bound
/// TaskSetView (including its recip_t reciprocals); `count` may exceed the
/// logical task count only with the arena's neutral padding (C=0, T=1) in the
/// extra slots.
struct Kernels {
  const char* name;

  /// Least fixed point of w → base + Σ_{j<count} jobs(w + J[j], T[j]) · C[j],
  /// starting from w0; jobs = ceil_div_plus when ceil_form else
  /// floor_div_plus1. Covers the FP-RTA recurrence (preemptive and
  /// non-preemptive) and, with base = 0 over the full set, the synchronous
  /// busy period.
  FixedPointResult (*fp_fixed_point)(const Ticks* C, const Ticks* T, const Ticks* J,
                                     const double* recip_t, std::size_t count, Ticks base,
                                     Ticks w0, bool ceil_form, int fuel);

  /// Σ_{j<count} jobs(t − D[j], T[j]) · C[j] — the EDF demand bound h(t).
  DemandResult (*demand_sum)(const Ticks* C, const Ticks* T, const Ticks* D,
                             const double* recip_t, std::size_t count, Ticks t, bool ceil_form);

  /// h(t) at four checkpoints per pass (lanes = t values, tasks broadcast) —
  /// the profitable shape when the task loop is short.
  DemandGridResult (*demand_grid)(const Ticks* C, const Ticks* T, const Ticks* D,
                                  const double* recip_t, std::size_t count, const Ticks* t4,
                                  bool ceil_form);

  /// EDF per-offset fixed point (eqs. 6 / 9 inner recurrence):
  ///   L → base + Σ_j min(jobs_time(L + J[j], T[j]), by_deadline[j]) · C[j]
  /// where by_deadline[j] = floor_div_plus1(abs_deadline − D[j] + J[j], T[j])
  /// is hoisted once per offset inside the kernel (it is 0 exactly for the
  /// excluded later-deadline tasks, and slot `self` is forced to 0).
  /// jobs_time is floor_div_plus1 when start_time_form else ceil_div_plus.
  EdfOffsetResult (*edf_offset_fixed_point)(const Ticks* C, const Ticks* T, const Ticks* D,
                                            const Ticks* J, const double* recip_t,
                                            std::size_t count, std::size_t self,
                                            Ticks abs_deadline, Ticks base, Ticks l0,
                                            bool start_time_form, int fuel);
};

/// The kernel table for this process, or nullptr when the scalar reference
/// paths should run (unsupported CPU, -DPROFISCHED_NO_SIMD=ON,
/// PROFISCHED_SIMD=0 in the environment, or force_scalar(true)).
[[nodiscard]] const Kernels* active() noexcept;

/// Cross-check override: force active() to nullptr on every thread. Used by
/// bench_runner and the equivalence tests to time/compare the scalar paths
/// from the same binary.
void force_scalar(bool on) noexcept;

/// "avx2", "neon", or "scalar" (what active() would dispatch to absent
/// force_scalar).
[[nodiscard]] const char* backend_name() noexcept;

/// The generic lane bodies instantiated on the portable scalar backend —
/// always available, so the kernel logic is testable on any build (including
/// -DPROFISCHED_NO_SIMD=ON ones).
[[nodiscard]] const Kernels& scalar_lane_kernels() noexcept;

}  // namespace profisched::simd
