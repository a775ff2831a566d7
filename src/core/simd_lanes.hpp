// simd_lanes.hpp — lane backends and the generic kernel bodies they
// instantiate. Internal to the simd*.cpp TUs; everything else includes only
// simd.hpp.
//
// The bodies are written once, templated over a backend that supplies
// fixed-width 64-bit integer and double lanes. Three backends exist:
//   - ScalarBackend: plain arrays, compiles everywhere — this is what the
//     equivalence tests exercise, so the shared body logic is verified even
//     on builds without AVX2/NEON.
//   - Avx2Backend: visible only in a TU compiled with -mavx2 (simd_avx2.cpp).
//   - NeonBackend: aarch64 baseline (simd_neon.cpp).
//
// Exactness contract (see simd.hpp): callers certify input magnitudes
// ≤ 2^44 and the relational invariant 0 ≤ C ≤ T (T ≥ 1) — TaskSetView::simd_ok
// checks both at bind time — and the bodies gate every iterate to ≤ 2^44,
// returning Status::kFallback the moment a check trips. Inside that region
// every lane product is statically bounded: jobs ≤ a'/T + 1 with |a'| < 2^46,
// so jobs·C ≤ a'·(C/T) + C < 2^47 — no per-iteration overflow gate is
// needed. The double-reciprocal division plus ±1 remainder correction is
// exact and saturating arithmetic equals plain arithmetic, so every result
// is bit-identical to the scalar reference.
#pragma once

#include <cstdint>
#include <cstring>

#include "core/simd.hpp"

#if defined(__AVX2__) && (defined(__x86_64__) || defined(__i386__))
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace profisched::simd::detail {

// ------------------------------------------------------------------ scalar

/// Portable 4-lane backend over plain arrays. Uses the same
/// double-reciprocal division as the vector backends so the numeric path
/// (not just the results) matches what AVX2/NEON execute.
struct ScalarBackend {
  static constexpr std::size_t kLanes = 4;
  struct I {
    Ticks v[kLanes];
  };
  struct F {
    double v[kLanes];
  };

  static I load(const Ticks* p) {
    I r;
    std::memcpy(r.v, p, sizeof(r.v));
    return r;
  }
  static void store(Ticks* p, I x) { std::memcpy(p, x.v, sizeof(x.v)); }
  static I set1(Ticks x) {
    I r;
    for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = x;
    return r;
  }
  static I add(I a, I b) {
    I r;
    for (std::size_t l = 0; l < kLanes; ++l) {
      r.v[l] = static_cast<Ticks>(static_cast<std::uint64_t>(a.v[l]) +
                                  static_cast<std::uint64_t>(b.v[l]));
    }
    return r;
  }
  static I sub(I a, I b) {
    I r;
    for (std::size_t l = 0; l < kLanes; ++l) {
      r.v[l] = static_cast<Ticks>(static_cast<std::uint64_t>(a.v[l]) -
                                  static_cast<std::uint64_t>(b.v[l]));
    }
    return r;
  }
  static I mul_lo(I a, I b) {
    I r;
    for (std::size_t l = 0; l < kLanes; ++l) {
      r.v[l] = static_cast<Ticks>(static_cast<std::uint64_t>(a.v[l]) *
                                  static_cast<std::uint64_t>(b.v[l]));
    }
    return r;
  }
  static I cmpgt(I a, I b) {
    I r;
    for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] > b.v[l] ? -1 : 0;
    return r;
  }
  static I and_(I a, I b) {
    I r;
    for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] & b.v[l];
    return r;
  }
  static I blend(I a, I b, I mask) {
    I r;
    for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = mask.v[l] != 0 ? b.v[l] : a.v[l];
    return r;
  }
  static Ticks reduce_add(I x) {
    Ticks s = 0;
    for (std::size_t l = 0; l < kLanes; ++l) s += x.v[l];
    return s;
  }
  static F to_f64(I x) {
    F r;
    for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = static_cast<double>(x.v[l]);
    return r;
  }
  static I from_f64(F d) {
    I r;
    for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = static_cast<Ticks>(d.v[l]);
    return r;
  }
  static F fload(const double* p) {
    F r;
    std::memcpy(r.v, p, sizeof(r.v));
    return r;
  }
  static F fmul(F a, F b) {
    F r;
    for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = a.v[l] * b.v[l];
    return r;
  }
  static F ffloor(F a) {
    F r;
    for (std::size_t l = 0; l < kLanes; ++l) r.v[l] = __builtin_floor(a.v[l]);
    return r;
  }
};

// ------------------------------------------------------------------- AVX2

#if defined(__AVX2__) && (defined(__x86_64__) || defined(__i386__))
struct Avx2Backend {
  static constexpr std::size_t kLanes = 4;
  using I = __m256i;
  using F = __m256d;

  // int64 ↔ double conversion by mantissa aliasing: valid for |x| < 2^51,
  // far beyond the ≤ 2^46 magnitudes the gated bodies produce.
  static constexpr std::int64_t kMagicBits = 0x4338000000000000LL;  // 2^52 + 2^51
  static constexpr double kMagic = 6755399441055744.0;              // 2^52 + 2^51

  static I load(const Ticks* p) { return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)); }
  static void store(Ticks* p, I x) { _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), x); }
  static I set1(Ticks x) { return _mm256_set1_epi64x(x); }
  static I add(I a, I b) { return _mm256_add_epi64(a, b); }
  static I sub(I a, I b) { return _mm256_sub_epi64(a, b); }
  static I mul_lo(I a, I b) {
    // Exact low 64 bits from 32×32→64 partial products.
    const I lo = _mm256_mul_epu32(a, b);
    const I cross = _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                                     _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
    return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
  }
  static I cmpgt(I a, I b) { return _mm256_cmpgt_epi64(a, b); }
  static I and_(I a, I b) { return _mm256_and_si256(a, b); }
  static I blend(I a, I b, I mask) { return _mm256_blendv_epi8(a, b, mask); }
  static Ticks reduce_add(I x) {
    const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(x), _mm256_extracti128_si256(x, 1));
    return _mm_cvtsi128_si64(s) + _mm_extract_epi64(s, 1);
  }
  static F to_f64(I x) {
    const I shifted = _mm256_add_epi64(x, _mm256_set1_epi64x(kMagicBits));
    return _mm256_sub_pd(_mm256_castsi256_pd(shifted), _mm256_set1_pd(kMagic));
  }
  static I from_f64(F d) {
    const F shifted = _mm256_add_pd(d, _mm256_set1_pd(kMagic));
    return _mm256_sub_epi64(_mm256_castpd_si256(shifted), _mm256_set1_epi64x(kMagicBits));
  }
  static F fload(const double* p) { return _mm256_loadu_pd(p); }
  static F fmul(F a, F b) { return _mm256_mul_pd(a, b); }
  static F ffloor(F a) { return _mm256_floor_pd(a); }
};
#endif  // __AVX2__

// ------------------------------------------------------------------- NEON

#if defined(__aarch64__)
struct NeonBackend {
  static constexpr std::size_t kLanes = 2;
  using I = int64x2_t;
  using F = float64x2_t;

  static I load(const Ticks* p) { return vld1q_s64(p); }
  static void store(Ticks* p, I x) { vst1q_s64(p, x); }
  static I set1(Ticks x) { return vdupq_n_s64(x); }
  static I add(I a, I b) { return vaddq_s64(a, b); }
  static I sub(I a, I b) { return vsubq_s64(a, b); }
  static I mul_lo(I a, I b) {
    // No 64-bit lane multiply on NEON; two exact scalar multiplies.
    const std::uint64_t l0 = static_cast<std::uint64_t>(vgetq_lane_s64(a, 0)) *
                             static_cast<std::uint64_t>(vgetq_lane_s64(b, 0));
    const std::uint64_t l1 = static_cast<std::uint64_t>(vgetq_lane_s64(a, 1)) *
                             static_cast<std::uint64_t>(vgetq_lane_s64(b, 1));
    I r = vdupq_n_s64(static_cast<std::int64_t>(l0));
    return vsetq_lane_s64(static_cast<std::int64_t>(l1), r, 1);
  }
  static I cmpgt(I a, I b) { return vreinterpretq_s64_u64(vcgtq_s64(a, b)); }
  static I and_(I a, I b) { return vandq_s64(a, b); }
  static I blend(I a, I b, I mask) { return vbslq_s64(vreinterpretq_u64_s64(mask), b, a); }
  static Ticks reduce_add(I x) { return vaddvq_s64(x); }
  static F to_f64(I x) { return vcvtq_f64_s64(x); }
  static I from_f64(F d) { return vcvtmq_s64_f64(d); }  // floor-convert; d is integral
  static F fload(const double* p) { return vld1q_f64(p); }
  static F fmul(F a, F b) { return vmulq_f64(a, b); }
  static F ffloor(F a) { return vrndmq_f64(a); }
};
#endif  // __aarch64__

// --------------------------------------------------------- generic bodies

/// Lane job count:
///   jobs = max(floor((a + addend) / T) + inc, 0)
/// where Ceil selects addend = T−1, inc = 0 (ceil_div_plus) and otherwise
/// addend = 0, inc = 1 (floor_div_plus1) — the same floor-based identity the
/// scalar helpers satisfy for every integer numerator. floor(a'/T) is the
/// floored double product a'·(1/T), off by at most one for |a'| < 2^46, made
/// exact by the remainder correction.
template <class B, bool Ceil>
typename B::I lane_jobs(typename B::I a, typename B::I tv, typename B::F recip) {
  const typename B::I one = B::set1(1);
  const typename B::I tm1 = B::sub(tv, one);
  const typename B::I a2 = Ceil ? B::add(a, tm1) : a;
  typename B::I q = B::from_f64(B::ffloor(B::fmul(B::to_f64(a2), recip)));
  const typename B::I r = B::sub(a2, B::mul_lo(q, tv));
  q = B::add(q, B::cmpgt(B::set1(0), r));  // r < 0  → q − 1 (mask is −1)
  q = B::sub(q, B::cmpgt(r, tm1));         // r ≥ T  → q + 1
  typename B::I jobs = Ceil ? q : B::add(q, one);
  return B::and_(jobs, B::cmpgt(jobs, B::set1(-1)));  // max(jobs, 0)
}

// The bodies below do not re-verify the caller contract (magnitudes ≤ 2^44,
// 0 ≤ C ≤ T, T ≥ 1): TaskSetView::simd_ok certifies it at bind time, and it
// is what makes every lane product statically exact (jobs·C < 2^47).

template <class B, bool Ceil>
FixedPointResult fp_fixed_point_impl(const Ticks* C, const Ticks* T, const Ticks* J,
                                     const double* recip_t, std::size_t count, Ticks base,
                                     Ticks w0, int fuel) {
  FixedPointResult out;
  if (count > kMaxTasks || base < 0 || base > kMaxAccum || w0 < 0 || w0 > kMaxAccum) return out;
  const std::size_t vec_n = count - count % B::kLanes;

  Ticks w = w0;
  for (int it = 0; it < fuel; ++it) {
    typename B::I acc = B::set1(0);
    const typename B::I wv = B::set1(w);
    for (std::size_t j = 0; j < vec_n; j += B::kLanes) {
      const typename B::I tv = B::load(T + j);
      const typename B::I cv = B::load(C + j);
      const typename B::I a = B::add(wv, B::load(J + j));
      const typename B::I jb = lane_jobs<B, Ceil>(a, tv, B::fload(recip_t + j));
      acc = B::add(acc, B::mul_lo(jb, cv));
    }
    Ticks sum = B::reduce_add(acc);
    for (std::size_t j = vec_n; j < count; ++j) {
      const Ticks arg = sat_add(w, J[j]);
      const Ticks jobs = Ceil ? ceil_div_plus(arg, T[j]) : floor_div_plus1(arg, T[j]);
      sum = sat_add(sum, sat_mul(jobs, C[j]));
    }
    const Ticks next = sat_add(base, sum);
    out.iterations = it + 1;
    if (next == w) {
      out.status = Status::kOk;
      out.converged = true;
      out.value = w;
      return out;
    }
    if (next == kNoBound) {
      out.status = Status::kOk;  // reference diverges at the identical iterate
      return out;
    }
    if (next > kMaxAccum) return out;  // kFallback: leaving the exact region
    w = next;
  }
  out.status = Status::kOk;  // fuel exhausted in-region: reference state identical
  return out;
}

template <class B, bool StartForm>
EdfOffsetResult edf_offset_impl(const Ticks* C, const Ticks* T, const Ticks* J,
                                const double* recip_t, const Ticks* caps, std::size_t count,
                                Ticks base, Ticks l0, int fuel) {
  EdfOffsetResult out;
  if (count > kMaxTasks || base < 0 || base > kMaxAccum || l0 < 0 || l0 > kMaxAccum) {
    return out;
  }
  const std::size_t vec_n = count - count % B::kLanes;

  Ticks L = l0;
  for (int it = 0; it < fuel; ++it) {
    typename B::I acc = B::set1(0);
    const typename B::I lv = B::set1(L);
    for (std::size_t j = 0; j < vec_n; j += B::kLanes) {
      const typename B::I tv = B::load(T + j);
      const typename B::I cv = B::load(C + j);
      const typename B::I a = B::add(lv, B::load(J + j));
      const typename B::I jb = lane_jobs<B, !StartForm>(a, tv, B::fload(recip_t + j));
      const typename B::I cap = B::load(caps + j);
      const typename B::I m = B::blend(jb, cap, B::cmpgt(jb, cap));  // min
      acc = B::add(acc, B::mul_lo(m, cv));
    }
    Ticks sum = B::reduce_add(acc);
    for (std::size_t j = vec_n; j < count; ++j) {
      const Ticks arg = sat_add(L, J[j]);
      const Ticks by_time = StartForm ? floor_div_plus1(arg, T[j]) : ceil_div_plus(arg, T[j]);
      sum = sat_add(sum, sat_mul(by_time < caps[j] ? by_time : caps[j], C[j]));
    }
    const Ticks next = sat_add(base, sum);
    if (next == L) {
      out.status = Status::kOk;
      out.converged = true;
      out.fixed_point = L;
      return out;
    }
    if (next == kNoBound) {
      out.status = Status::kOk;  // reference diverges identically
      return out;
    }
    if (next > kMaxAccum) return out;  // kFallback
    L = next;
  }
  out.status = Status::kOk;  // fuel exhausted in-region
  return out;
}

// --------------------------------------------------- runtime-bool wrappers

template <class B>
FixedPointResult fp_fixed_point_k(const Ticks* C, const Ticks* T, const Ticks* J,
                                  const double* recip_t, std::size_t count, Ticks base, Ticks w0,
                                  bool ceil_form, int fuel) {
  return ceil_form ? fp_fixed_point_impl<B, true>(C, T, J, recip_t, count, base, w0, fuel)
                   : fp_fixed_point_impl<B, false>(C, T, J, recip_t, count, base, w0, fuel);
}

template <class B>
EdfOffsetResult edf_offset_k(const Ticks* C, const Ticks* T, const Ticks* J, const double* recip_t,
                             const Ticks* caps, std::size_t count, Ticks base, Ticks l0,
                             bool start_time_form, int fuel) {
  return start_time_form
             ? edf_offset_impl<B, true>(C, T, J, recip_t, caps, count, base, l0, fuel)
             : edf_offset_impl<B, false>(C, T, J, recip_t, caps, count, base, l0, fuel);
}

template <class B>
constexpr Kernels make_kernels(const char* name) {
  return Kernels{name, &fp_fixed_point_k<B>, &edf_offset_k<B>};
}

}  // namespace profisched::simd::detail
