// SIMD kernel suite: the lane kernels (scalar-lane instantiation and the
// runtime-dispatched backend, when one is active) must be bit-identical to
// the integer scalar helpers on in-contract inputs, fall back — never
// publish — on out-of-contract ones, and the full analyses must produce
// identical verdicts, WCRTs and iteration counts with the vector path forced
// off versus on, over randomized sweeps per policy.
#include <array>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/busy_period.hpp"
#include "core/priority_assignment.hpp"
#include "core/response_time_edf.hpp"
#include "core/response_time_fp.hpp"
#include "core/simd.hpp"
#include "core/taskset_view.hpp"
#include "sim/rng.hpp"
#include "workload/generators.hpp"

namespace profisched {
namespace {

using simd::Kernels;
using simd::Status;

/// Restores the dispatch override on scope exit so a failing assertion never
/// leaks force_scalar(true) into later tests.
struct ScalarGuard {
  explicit ScalarGuard(bool on) { simd::force_scalar(on); }
  ~ScalarGuard() { simd::force_scalar(false); }
};

/// Kernel tables worth exercising: the portable scalar-lane instantiation is
/// always present; the dispatched backend (AVX2/NEON) is added when the build
/// and CPU provide one.
std::vector<const Kernels*> tables_under_test() {
  std::vector<const Kernels*> ks{&simd::scalar_lane_kernels()};
  if (const Kernels* k = simd::active(); k != nullptr) ks.push_back(k);
  return ks;
}

/// In-contract hand-built SoA fixture (0 ≤ C ≤ T, magnitudes ≤ kMaxValue),
/// padded to a lane multiple with neutral slots exactly as the arena pads.
struct Soa {
  std::vector<Ticks> C, T, D, J;
  std::vector<double> recip;
  std::size_t n = 0;

  explicit Soa(std::vector<std::array<Ticks, 4>> rows) : n(rows.size()) {
    const std::size_t np = (n + 3) & ~std::size_t{3};
    for (const auto& [c, t, d, j] : rows) {
      C.push_back(c);
      T.push_back(t);
      D.push_back(d);
      J.push_back(j);
    }
    for (std::size_t p = n; p < np; ++p) {
      C.push_back(0);
      T.push_back(1);
      D.push_back(0);
      J.push_back(0);
    }
    for (const Ticks t : T) recip.push_back(1.0 / static_cast<double>(t));
  }
  [[nodiscard]] std::size_t padded() const { return T.size(); }
};

Ticks ref_jobs(Ticks a, Ticks t, bool ceil_form) {
  return ceil_form ? ceil_div_plus(a, t) : floor_div_plus1(a, t);
}

/// The integer reference of the fp_fixed_point recurrence.
simd::FixedPointResult ref_fixed_point(const Soa& s, Ticks base, Ticks w0, bool ceil_form,
                                       int fuel) {
  simd::FixedPointResult out;
  out.status = Status::kOk;
  Ticks w = w0;
  for (int it = 0; it < fuel; ++it) {
    Ticks sum = 0;
    for (std::size_t j = 0; j < s.n; ++j) {
      sum = sat_add(sum, sat_mul(ref_jobs(sat_add(w, s.J[j]), s.T[j], ceil_form), s.C[j]));
    }
    const Ticks next = sat_add(base, sum);
    out.iterations = it + 1;
    if (next == w) {
      out.converged = true;
      out.value = w;
      return out;
    }
    if (next == kNoBound) return out;
    w = next;
  }
  return out;
}

TEST(SimdKernels, FixedPointMatchesIntegerReference) {
  const Soa s({{3, 10, 10, 0}, {4, 15, 12, 2}, {7, 35, 30, 0}, {5, 50, 50, 5}, {2, 9, 9, 1}});
  for (const Kernels* k : tables_under_test()) {
    for (const bool ceil_form : {true, false}) {
      for (const Ticks base : {Ticks{0}, Ticks{6}}) {
        for (const Ticks w0 : {Ticks{1}, Ticks{13}}) {
          const auto ref = ref_fixed_point(s, base, w0, ceil_form, 256);
          const auto got = k->fp_fixed_point(s.C.data(), s.T.data(), s.J.data(), s.recip.data(),
                                             s.padded(), base, w0, ceil_form, 256);
          ASSERT_EQ(got.status, Status::kOk) << k->name;
          EXPECT_EQ(got.converged, ref.converged) << k->name;
          EXPECT_EQ(got.value, ref.value) << k->name;
          EXPECT_EQ(got.iterations, ref.iterations) << k->name;
        }
      }
    }
  }
}

TEST(SimdKernels, PaddingSlotsAreNeutral) {
  // The same logical set evaluated at the logical count and at the padded
  // count must agree: C=0/T=1 slots contribute exactly zero.
  const Soa s({{3, 10, 10, 0}, {4, 15, 12, 0}, {7, 35, 30, 3}});
  ASSERT_NE(s.n, s.padded());
  for (const Kernels* k : tables_under_test()) {
    const auto a = k->fp_fixed_point(s.C.data(), s.T.data(), s.J.data(), s.recip.data(), s.n, 0,
                                     1, true, 256);
    const auto b = k->fp_fixed_point(s.C.data(), s.T.data(), s.J.data(), s.recip.data(),
                                     s.padded(), 0, 1, true, 256);
    ASSERT_EQ(a.status, Status::kOk);
    ASSERT_EQ(b.status, Status::kOk);
    EXPECT_EQ(a.value, b.value) << k->name;
    EXPECT_EQ(a.iterations, b.iterations) << k->name;
  }
}

TEST(SimdKernels, EntryGuardsReportFallbackWithoutPublishing) {
  const Soa s({{3, 10, 10, 0}, {4, 15, 12, 0}, {7, 35, 30, 0}, {5, 50, 50, 0}});
  const Ticks over = simd::kMaxAccum + 1;
  for (const Kernels* k : tables_under_test()) {
    EXPECT_EQ(k->fp_fixed_point(s.C.data(), s.T.data(), s.J.data(), s.recip.data(), s.padded(),
                                over, 1, true, 64)
                  .status,
              Status::kFallback)
        << k->name << " base over kMaxAccum";
    EXPECT_EQ(k->fp_fixed_point(s.C.data(), s.T.data(), s.J.data(), s.recip.data(), s.padded(), 0,
                                over, true, 64)
                  .status,
              Status::kFallback)
        << k->name << " w0 over kMaxAccum";
    const std::vector<Ticks> caps(s.padded(), 1);
    EXPECT_EQ(k->edf_offset_fixed_point(s.C.data(), s.T.data(), s.J.data(), s.recip.data(),
                                        caps.data(), s.padded(), over, 0, false, 64)
                  .status,
              Status::kFallback)
        << k->name << " EDF base over kMaxAccum";
  }
}

TEST(SimdKernels, IterateGateTripsBeforeLeavingExactRegion) {
  // U > 1 with tiny periods: iterates grow geometrically and cross kMaxAccum
  // long before kNoBound — the kernel must hand the divergence decision back
  // to the exact scalar reference instead of publishing a saturated result.
  const Soa s({{1, 1, 1, 0}, {1, 1, 1, 0}});
  for (const Kernels* k : tables_under_test()) {
    const auto r = k->fp_fixed_point(s.C.data(), s.T.data(), s.J.data(), s.recip.data(),
                                     s.padded(), 1, 1, true, 1 << 16);
    EXPECT_EQ(r.status, Status::kFallback) << k->name;
  }
}

TEST(SimdKernels, BindGateRejectsOversizedMagnitudes) {
  // Near-saturation task parameters exceed kMaxValue, so the arena must mark
  // the view simd_ok == false and the analyses silently take the exact
  // scalar paths — verdicts at the INT64 boundary never come from lanes.
  const Ticks huge = kNoBound / 4;
  const TaskSet ts{{
      Task{.C = huge / 2, .D = huge, .T = huge, .J = 0, .name = ""},
      Task{.C = 3, .D = 10, .T = 10, .J = 0, .name = ""},
  }};
  RtaScratch scratch;
  const TaskSetView& v = scratch.arena.bind(ts);
  EXPECT_FALSE(v.simd_ok);

  const PriorityOrder order = rate_monotonic_order(ts);
  ScalarGuard off(false);
  const FpAnalysis vec = analyze_preemptive_fp(ts, order, 1 << 16, scratch);
  simd::force_scalar(true);
  const FpAnalysis ref = analyze_preemptive_fp(ts, order, 1 << 16, scratch);
  ASSERT_EQ(vec.per_task.size(), ref.per_task.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(vec.per_task[i].response, ref.per_task[i].response);
    EXPECT_EQ(vec.per_task[i].iterations, ref.per_task[i].iterations);
  }
}

TEST(SimdKernels, RecipCacheSurvivesRebindWithNewExecutionTimes) {
  // A utilization sweep rebinds the same periods with scaled C — the cached
  // reciprocals must keep the kernels exact across the rebind.
  RtaScratch scratch;
  std::vector<Task> tasks;
  for (Ticks c : {Ticks{2}, Ticks{5}, Ticks{3}, Ticks{8}, Ticks{4}}) {
    tasks.push_back(Task{.C = c, .D = 20 * c, .T = 20 * c, .J = 0, .name = ""});
  }
  for (const Ticks bump : {Ticks{0}, Ticks{1}, Ticks{3}}) {
    std::vector<Task> scaled = tasks;
    for (Task& t : scaled) t.C += bump;
    const TaskSet ts{scaled};
    const PriorityOrder order = rate_monotonic_order(ts);
    ScalarGuard off(false);
    const FpAnalysis vec = analyze_preemptive_fp(ts, order, 1 << 16, scratch);
    simd::force_scalar(true);
    const FpAnalysis ref = analyze_preemptive_fp(ts, order, 1 << 16, scratch);
    simd::force_scalar(false);
    for (std::size_t i = 0; i < ts.size(); ++i) {
      EXPECT_EQ(vec.per_task[i].response, ref.per_task[i].response) << "bump " << bump;
      EXPECT_EQ(vec.per_task[i].iterations, ref.per_task[i].iterations) << "bump " << bump;
    }
  }
}

// ------------------------------------------------ randomized vector/scalar

constexpr std::uint64_t kRandomSets = 500;

/// Randomized set spanning convergent, divergent and degenerate regimes
/// (U up to 1.15, constrained deadlines, occasional jitter).
TaskSet random_set(std::uint64_t seed) {
  sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  workload::TaskSetParams p;
  p.n = 2 + static_cast<std::size_t>(rng.uniform(0, 14));
  p.total_u = 0.3 + 0.85 * rng.uniform01();
  p.deadline_lo = 0.6 + 0.2 * rng.uniform01();
  p.deadline_hi = 1.0 + 0.2 * rng.uniform01();
  p.jitter_max = (seed % 3 == 0) ? 200 : 0;
  return workload::random_task_set(p, rng);
}

void expect_same_rta(const RtaResult& sc, const RtaResult& vec, std::uint64_t seed,
                     std::size_t task) {
  EXPECT_EQ(sc.converged, vec.converged) << "seed " << seed << " task " << task;
  EXPECT_EQ(sc.response, vec.response) << "seed " << seed << " task " << task;
  EXPECT_EQ(sc.iterations, vec.iterations) << "seed " << seed << " task " << task;
}

TEST(SimdKernels, RandomizedFpSweepIdenticalScalarVsVector) {
  RtaScratch scratch;
  ScalarGuard guard(false);
  for (std::uint64_t seed = 1; seed <= kRandomSets; ++seed) {
    const TaskSet ts = random_set(seed);
    const PriorityOrder rm = rate_monotonic_order(ts);
    const PriorityOrder dm = deadline_monotonic_order(ts);
    simd::force_scalar(false);
    const FpAnalysis p_vec = analyze_preemptive_fp(ts, rm, 1 << 16, scratch);
    const FpAnalysis n_vec =
        analyze_nonpreemptive_fp(ts, dm, Formulation::PaperLiteral, 1 << 16, scratch);
    const FpAnalysis r_vec =
        analyze_nonpreemptive_fp(ts, dm, Formulation::Refined, 1 << 16, scratch);
    simd::force_scalar(true);
    const FpAnalysis p_sc = analyze_preemptive_fp(ts, rm, 1 << 16, scratch);
    const FpAnalysis n_sc =
        analyze_nonpreemptive_fp(ts, dm, Formulation::PaperLiteral, 1 << 16, scratch);
    const FpAnalysis r_sc =
        analyze_nonpreemptive_fp(ts, dm, Formulation::Refined, 1 << 16, scratch);
    EXPECT_EQ(p_sc.schedulable, p_vec.schedulable) << "seed " << seed;
    EXPECT_EQ(n_sc.schedulable, n_vec.schedulable) << "seed " << seed;
    EXPECT_EQ(r_sc.schedulable, r_vec.schedulable) << "seed " << seed;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      expect_same_rta(p_sc.per_task[i], p_vec.per_task[i], seed, i);
      expect_same_rta(n_sc.per_task[i], n_vec.per_task[i], seed, i);
      expect_same_rta(r_sc.per_task[i], r_vec.per_task[i], seed, i);
    }
  }
}

TEST(SimdKernels, RandomizedEdfSweepIdenticalScalarVsVector) {
  RtaScratch scratch;
  ScalarGuard guard(false);
  const int fuel = 1 << 16;
  for (std::uint64_t seed = 1; seed <= kRandomSets; ++seed) {
    const TaskSet ts = random_set(seed);
    for (const bool preemptive : {true, false}) {
      simd::force_scalar(false);
      const EdfAnalysis vec = preemptive ? analyze_preemptive_edf(ts, fuel, scratch)
                                         : analyze_nonpreemptive_edf(ts, fuel, scratch);
      simd::force_scalar(true);
      const EdfAnalysis sc = preemptive ? analyze_preemptive_edf(ts, fuel, scratch)
                                        : analyze_nonpreemptive_edf(ts, fuel, scratch);
      EXPECT_EQ(sc.schedulable, vec.schedulable) << "seed " << seed;
      for (std::size_t i = 0; i < ts.size(); ++i) {
        EXPECT_EQ(sc.per_task[i].converged, vec.per_task[i].converged)
            << "seed " << seed << " task " << i << " preemptive " << preemptive;
        EXPECT_EQ(sc.per_task[i].response, vec.per_task[i].response)
            << "seed " << seed << " task " << i << " preemptive " << preemptive;
        EXPECT_EQ(sc.per_task[i].critical_offset, vec.per_task[i].critical_offset)
            << "seed " << seed << " task " << i << " preemptive " << preemptive;
        EXPECT_EQ(sc.per_task[i].offsets_examined, vec.per_task[i].offsets_examined)
            << "seed " << seed << " task " << i << " preemptive " << preemptive;
      }
    }
  }
}

TEST(SimdKernels, RandomizedBusyPeriodIdenticalScalarVsVector) {
  RtaScratch scratch;
  ScalarGuard guard(false);
  for (std::uint64_t seed = 1; seed <= kRandomSets; ++seed) {
    const TaskSet ts = random_set(seed);
    simd::force_scalar(false);
    const BusyPeriod bp_vec = synchronous_busy_period(scratch.arena.bind(ts));
    simd::force_scalar(true);
    const BusyPeriod bp_sc = synchronous_busy_period(scratch.arena.bind(ts));
    EXPECT_EQ(bp_sc.length, bp_vec.length) << "seed " << seed;
    EXPECT_EQ(bp_sc.iterations, bp_vec.iterations) << "seed " << seed;
  }
}

}  // namespace
}  // namespace profisched
