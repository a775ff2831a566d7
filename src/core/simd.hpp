// simd.hpp — runtime-dispatched data-parallel kernel for the SoA analysis
// fast paths. The analyses reach it only through job_sum_fixed_point
// (core/fixed_point.hpp), whose scalar loop is the equivalence reference.
//
// Design. Every core recurrence of the fast path is a fixed point of one
// job sum, L → base + Σ_j min(jobs_j(L), cap_j)·C_j. Its divisions
// (ceil_div_plus / floor_div_plus1) have no 64-bit vector instruction on
// AVX2, so the lane kernel computes floor(a/T) as floor(a · (1/T)) in double
// precision and corrects the quotient by ±1 with an exact 64-bit low-multiply
// remainder check. That is *exact* — bit-identical to the integer reference
// — provided every operand stays well inside the 2^52 double mantissa:
//
//   - per-bind gate (TaskSetView::simd_ok): C, T, D, J ≤ 2^44, n ≤ 256, and
//     the relational invariant 0 ≤ C ≤ T (T ≥ 1 follows, a TaskSet
//     construction invariant) — all certified once when the arena binds;
//   - per-iteration gate (inside the kernel): every iterate L ≤ 2^44.
//
// Together these statically bound every lane product: jobs ≤ a'/T + 1 with
// |a'| < 2^46, so jobs·C ≤ a'·(C/T) + C < 2^47 and 256-task lane sums stay
// below 2^55 — no per-iteration overflow gate is needed. Inside that region
// |fl(a · fl(1/T)) − a/T| < 0.02 for |a| < 2^46, so the floored quotient is
// off by at most one and the remainder correction makes it exact; saturating
// arithmetic also degenerates to plain arithmetic, so lane sums equal the
// reference's sequential sat_add folds. The moment any check trips, the
// kernel returns Status::kFallback *without* publishing a result and
// job_sum_fixed_point re-runs its scalar loop from the original seed —
// divergence, kNoBound saturation, and near-INT64_MAX inputs are therefore
// always produced by the exact scalar code.
//
// One binary serves every machine: the AVX2 bodies live in a dedicated TU
// compiled with -mavx2 and are only selected after a cpuid check; NEON is the
// aarch64 baseline; everything else (and PROFISCHED_SIMD=0 environments)
// gets active() == nullptr, i.e. the scalar loop.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "core/time_types.hpp"

namespace profisched::simd {

/// Per-bind input gate: every C/T/D/J must be ≤ this for the vector kernel
/// to be admissible (keeps every derived quantity exactly representable in
/// double). 2^44 ticks is ~1.5 years at 12 Mbit/s PROFIBUS bit-time.
inline constexpr Ticks kMaxValue = Ticks{1} << 44;

/// Per-iteration gate on fixed-point iterates. Same bound as the inputs so
/// L + J stays below 2^45.
inline constexpr Ticks kMaxAccum = Ticks{1} << 44;

/// Task-count gate (bounds the lane-sum width).
inline constexpr std::size_t kMaxTasks = 256;

/// Fewest summed items a lane-kernel call pays for: two full AVX2 blocks.
/// Below it the scalar loop won on every product grid measured (the 4- to
/// 7-stream PROFIBUS masters).
inline constexpr std::size_t kMinLaneTasks = 8;

enum class Status : std::uint8_t {
  kOk = 0,        ///< result fields are valid and bit-identical to the reference
  kFallback = 1,  ///< a gate tripped; caller must run the scalar reference
};

/// Result of a monotone job-sum fixed-point iteration. It fits in 16 bytes,
/// so the kernel returns it in registers: the EDF offset scans call the
/// kernel once per offset.
struct FixedPointResult {
  Ticks value = 0;     ///< converged fixed point (valid when converged)
  int iterations = 0;  ///< evaluations of the job sum, the reference's count exactly
  Status status = Status::kFallback;
  bool converged = false;
};

/// The kernel: least fixed point >= seed of
///   L → base + Σ_{j<count} min(jobs(L + J[j], T[j]), caps[j]) · C[j],
/// with jobs = ceil_div_plus when Ceil, else floor_div_plus1, and no cap
/// unless Capped (caps is then unread). It stops unconverged at the first
/// iterate above `limit`. Arguments are the raw SoA arrays of a bound
/// TaskSetView, including its recip_t reciprocals; any count works.
using FixedPointFn = FixedPointResult (*)(const Ticks* C, const Ticks* T, const Ticks* J,
                                          const double* recip_t, const Ticks* caps,
                                          std::size_t count, Ticks base, Ticks seed, Ticks limit,
                                          int fuel);

/// Kernel table: fixed_point[Ceil][Capped] is the kernel instantiated for
/// that form, so a caller that knows its form at compile time names it.
struct Kernels {
  const char* name;
  FixedPointFn fixed_point[2][2];
};

namespace detail {
/// What active() returns: the detected table, set by a static initializer
/// in simd.cpp, or nullptr under force_scalar(true).
extern std::atomic<const Kernels*> g_active;
}  // namespace detail

/// The kernel table for this process, or nullptr when the scalar loop should
/// run (unsupported CPU, PROFISCHED_SIMD=0 in the environment, or
/// force_scalar(true)).
[[nodiscard]] inline const Kernels* active() noexcept {
  return detail::g_active.load(std::memory_order_relaxed);
}

/// Cross-check override: force active() to nullptr on every thread. Used by
/// bench_runner and the equivalence tests to time/compare the scalar paths
/// from the same binary.
void force_scalar(bool on) noexcept;

/// "avx2", "neon", or "scalar" (what active() would dispatch to absent
/// force_scalar).
[[nodiscard]] const char* backend_name() noexcept;

/// The generic lane body instantiated on the portable scalar backend —
/// always available, so the kernel logic is testable on any machine.
[[nodiscard]] const Kernels& scalar_lane_kernels() noexcept;

}  // namespace profisched::simd
