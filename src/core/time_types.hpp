// time_types.hpp — exact integer time arithmetic for schedulability analysis.
//
// All analyses in profisched operate on integer "ticks". In the PROFIBUS
// layers one tick is one bit-time at the configured baud rate; in the generic
// uniprocessor analyses the unit is whatever the caller chooses. Using
// integers keeps every fixed-point iteration and demand-bound comparison
// exact: a schedulability verdict never depends on floating-point rounding.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>

namespace profisched {

/// Integer time. One tick is the caller's base unit (bit-time for PROFIBUS).
using Ticks = std::int64_t;

/// Sentinel for "no bound" / divergence (e.g. a response-time iteration that
/// exceeded its deadline ceiling).
inline constexpr Ticks kNoBound = std::numeric_limits<Ticks>::max();

/// Floor division that is correct for negative numerators (C++ `/` truncates
/// toward zero, which is *not* floor for negatives).
[[nodiscard]] constexpr Ticks floor_div(Ticks a, Ticks b) noexcept {
  assert(b > 0);
  const Ticks q = a / b;
  return (a % b != 0 && a < 0) ? q - 1 : q;
}

/// Ceiling division, correct for negative numerators.
[[nodiscard]] constexpr Ticks ceil_div(Ticks a, Ticks b) noexcept {
  assert(b > 0);
  const Ticks q = a / b;
  return (a % b != 0 && a > 0) ? q + 1 : q;
}

/// The paper's ⌈x⌉⁺ operator: ceil_div clamped at zero (⌈x⌉⁺ = 0 if x < 0).
[[nodiscard]] constexpr Ticks ceil_div_plus(Ticks a, Ticks b) noexcept {
  const Ticks v = ceil_div(a, b);
  return v > 0 ? v : 0;
}

/// (⌊x⌋ + 1)⁺ — the number of jobs of a task with offset `d` and period `b`
/// whose release falls in [0, a]: max(0, floor(a / b) + 1). Used by the
/// standard demand-bound function.
[[nodiscard]] constexpr Ticks floor_div_plus1(Ticks a, Ticks b) noexcept {
  if (a < 0) return 0;
  return floor_div(a, b) + 1;
}

/// Saturating addition: any operand at kNoBound propagates kNoBound, and an
/// overflowing sum saturates to kNoBound instead of wrapping (UB).
[[nodiscard]] constexpr Ticks sat_add(Ticks a, Ticks b) noexcept {
  if (a == kNoBound || b == kNoBound) return kNoBound;
  if (a > 0 && b > std::numeric_limits<Ticks>::max() - a) return kNoBound;
  if (a < 0 && b < std::numeric_limits<Ticks>::min() - a) return std::numeric_limits<Ticks>::min();
  return a + b;
}

/// Saturating multiplication for non-negative operands: kNoBound exactly
/// when a·b exceeds it (so a kNoBound operand stays kNoBound unless the other
/// is 0). The overflow flag of the multiply replaces a division by b, which
/// the fixed-point kernels would otherwise pay once per term.
[[nodiscard]] constexpr Ticks sat_mul(Ticks a, Ticks b) noexcept {
  assert(a >= 0 && b >= 0);
  Ticks product = 0;
  return __builtin_mul_overflow(a, b, &product) ? kNoBound : product;
}

/// Greatest common divisor (Ticks are non-negative here).
[[nodiscard]] constexpr Ticks gcd_ticks(Ticks a, Ticks b) noexcept {
  while (b != 0) {
    const Ticks t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// Least common multiple, saturating to kNoBound on overflow. Used for
/// (capped) hyperperiod computation.
[[nodiscard]] constexpr Ticks lcm_ticks(Ticks a, Ticks b) noexcept {
  if (a == 0 || b == 0) return 0;
  if (a == kNoBound || b == kNoBound) return kNoBound;
  const Ticks g = gcd_ticks(a, b);
  return sat_mul(a / g, b);
}

}  // namespace profisched
