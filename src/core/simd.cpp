// simd.cpp — kernel-table dispatch. Detection runs once per process, from a
// static initializer: the PROFISCHED_SIMD=0 environment knob pins the scalar
// loop; otherwise the AVX2 table is selected after a cpuid check (the AVX2
// TU is the only one built with -mavx2, so the rest of the library stays
// baseline-ISA) and NEON is the aarch64 baseline. force_scalar() is a
// process-wide override the bench harness and equivalence tests flip to
// time/compare both paths in one binary.
#include "core/simd.hpp"

#include <cstdlib>
#include <cstring>

#include "core/simd_lanes.hpp"

namespace profisched::simd {

const Kernels* avx2_kernels() noexcept;  // simd_avx2.cpp (nullptr off-x86)
const Kernels* neon_kernels() noexcept;  // simd_neon.cpp (nullptr off-aarch64)

namespace {

bool env_disabled() noexcept {
  const char* v = std::getenv("PROFISCHED_SIMD");
  if (v == nullptr) return false;
  return std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0 ||
         std::strcmp(v, "scalar") == 0;
}

const Kernels* detect() noexcept {
  if (env_disabled()) return nullptr;
#if defined(__x86_64__) || defined(__i386__)
  // Static initializers may run before the runtime fills in the cpu model.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return avx2_kernels();
  return nullptr;
#else
  return neon_kernels();
#endif
}

const Kernels* detected() noexcept {
  static const Kernels* table = detect();
  return table;
}

}  // namespace

std::atomic<const Kernels*> detail::g_active{detected()};

void force_scalar(bool on) noexcept {
  detail::g_active.store(on ? nullptr : detected(), std::memory_order_relaxed);
}

const char* backend_name() noexcept {
  const Kernels* k = detected();
  return k != nullptr ? k->name : "scalar";
}

const Kernels& scalar_lane_kernels() noexcept {
  static const Kernels table = detail::make_kernels<detail::ScalarBackend>("scalar-lanes");
  return table;
}

}  // namespace profisched::simd
