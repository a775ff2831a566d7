// SIMD kernel suite: the one lane kernel (scalar-lane instantiation and the
// runtime-dispatched backend, when one is active) must be bit-identical to
// the integer job-sum reference on in-contract inputs at every count, form
// and cap, stop at `limit` with the reference's iteration count, fall back —
// never publish — on out-of-contract ones, and the full analyses must
// produce identical verdicts, WCRTs and iteration counts with the vector
// path forced off versus on, over randomized sweeps per policy. Each sweep
// counts the inputs that reach the lane size (simd_ok and at least
// kMinLaneTasks items), so a threshold change cannot quietly turn it into a
// scalar-vs-scalar check.
#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/busy_period.hpp"
#include "core/fixed_point.hpp"
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

/// Whether job_sum_fixed_point hands `count` items of `v` to the lane kernel
/// when one is active.
bool reaches_lanes(const TaskSetView& v, std::size_t count) {
  return v.simd_ok && count >= simd::kMinLaneTasks;
}

/// In-contract hand-built SoA fixture (0 ≤ C ≤ T, magnitudes ≤ kMaxValue),
/// unpadded, as the arena binds it.
struct Soa {
  std::vector<Ticks> C, T, D, J;
  std::vector<double> recip;

  explicit Soa(std::vector<std::array<Ticks, 4>> rows) {
    for (const auto& [c, t, d, j] : rows) {
      C.push_back(c);
      T.push_back(t);
      D.push_back(d);
      J.push_back(j);
      recip.push_back(1.0 / static_cast<double>(t));
    }
  }
  [[nodiscard]] std::size_t n() const { return T.size(); }
};

/// Nine items at U ≈ 0.91, with jitter: every prefix converges uncapped.
const Soa& nine_items() {
  static const Soa s({{1, 10, 10, 0},
                      {2, 15, 12, 2},
                      {3, 35, 30, 0},
                      {5, 50, 50, 5},
                      {2, 9, 9, 1},
                      {1, 20, 18, 0},
                      {4, 60, 55, 3},
                      {3, 40, 40, 0},
                      {2, 25, 20, 1}});
  return s;
}

/// Deadline caps that bind at the fixture's iterates, zeros included (the
/// walk's excluded items), so a kernel that ignores them anywhere disagrees.
const std::vector<Ticks> kCaps{1, 0, 2, 1, 1, 0, 1, 2, 1};

Ticks ref_jobs(Ticks a, Ticks t, bool ceil_form) {
  return ceil_form ? ceil_div_plus(a, t) : floor_div_plus1(a, t);
}

/// The integer reference of the kernel's recurrence over the first `count`
/// items (`caps` null: uncapped). Its limit check is the FP-RTA loop's
/// original form, before each evaluation, so it pins the iteration count a
/// limited kernel must report.
simd::FixedPointResult ref_fixed_point(const Soa& s, std::size_t count, const Ticks* caps,
                                       Ticks base, Ticks seed, bool ceil_form, int fuel,
                                       Ticks limit = kNoBound) {
  simd::FixedPointResult out;
  out.status = Status::kOk;
  Ticks w = seed;
  for (int it = 0; it < fuel; ++it) {
    if (w > limit) return out;
    Ticks sum = 0;
    for (std::size_t j = 0; j < count; ++j) {
      Ticks jobs = ref_jobs(sat_add(w, s.J[j]), s.T[j], ceil_form);
      if (caps != nullptr) jobs = std::min(jobs, caps[j]);
      sum = sat_add(sum, sat_mul(jobs, s.C[j]));
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

simd::FixedPointResult run(const Kernels* k, const Soa& s, std::size_t count, const Ticks* caps,
                           Ticks base, Ticks seed, bool ceil_form, int fuel,
                           Ticks limit = kNoBound) {
  return k->fixed_point[ceil_form][caps != nullptr](s.C.data(), s.T.data(), s.J.data(),
                                                    s.recip.data(), caps, count, base, seed,
                                                    limit, fuel);
}

/// job_sum_fixed_point over the fixture bound as a view, forms picked at run
/// time: its lane dispatch and its own scalar loop.
simd::FixedPointResult routine(const TaskSetView& v, std::size_t count, const Ticks* caps,
                               Ticks base, Ticks seed, bool ceil_form, int fuel, Ticks limit) {
  if (ceil_form) {
    return caps != nullptr
               ? job_sum_fixed_point<true, true>(v, count, caps, base, seed, fuel, limit)
               : job_sum_fixed_point<true, false>(v, count, caps, base, seed, fuel, limit);
  }
  return caps != nullptr
             ? job_sum_fixed_point<false, true>(v, count, caps, base, seed, fuel, limit)
             : job_sum_fixed_point<false, false>(v, count, caps, base, seed, fuel, limit);
}

void expect_same(const simd::FixedPointResult& got, const simd::FixedPointResult& ref,
                 const std::string& what) {
  ASSERT_EQ(got.status, Status::kOk) << what;
  EXPECT_EQ(got.converged, ref.converged) << what;
  EXPECT_EQ(got.value, ref.value) << what;
  EXPECT_EQ(got.iterations, ref.iterations) << what;
}

TEST(SimdKernels, KernelMatchesIntegerReferenceAtEveryCount) {
  // Counts 1..9 cover tails of 0..3 items after 0..2 full AVX2 blocks (and
  // 0..1 after NEON pairs); nothing is padded.
  const Soa& s = nine_items();
  std::size_t converged = 0;
  for (const Kernels* k : tables_under_test()) {
    for (std::size_t count = 1; count <= s.n(); ++count) {
      for (const bool ceil_form : {true, false}) {
        for (const Ticks* caps : {static_cast<const Ticks*>(nullptr), kCaps.data()}) {
          for (const Ticks base : {Ticks{0}, Ticks{6}}) {
            for (const Ticks seed : {Ticks{0}, Ticks{1}, Ticks{13}}) {
              const auto ref = ref_fixed_point(s, count, caps, base, seed, ceil_form, 256);
              expect_same(run(k, s, count, caps, base, seed, ceil_form, 256), ref,
                          std::string(k->name) + " count " + std::to_string(count) +
                              (ceil_form ? " ceil" : " floor+1") +
                              (caps != nullptr ? " capped" : " uncapped") + " base " +
                              std::to_string(base) + " seed " + std::to_string(seed));
              converged += ref.converged;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(converged, 0u);
}

TEST(SimdKernels, LimitStopsAtTheReferenceIterate) {
  // The kernel stops unconverged at the first iterate above `limit`, with
  // the reference's count; a limit at the fixed point (or above) converges.
  // job_sum_fixed_point, on either dispatch, agrees with the same reference.
  const Soa& s = nine_items();
  std::vector<Task> tasks;
  for (std::size_t j = 0; j < s.n(); ++j) {
    tasks.push_back(Task{.C = s.C[j], .D = s.D[j], .T = s.T[j], .J = s.J[j], .name = ""});
  }
  const TaskSet ts{tasks};
  TaskSetArena arena;
  const TaskSetView& v = arena.bind(ts);
  ASSERT_TRUE(v.simd_ok);
  std::size_t stopped = 0;
  for (const Kernels* k : tables_under_test()) {
    for (const std::size_t count : {std::size_t{5}, std::size_t{8}, std::size_t{9}}) {
      for (const bool ceil_form : {true, false}) {
        for (const Ticks* caps : {static_cast<const Ticks*>(nullptr), kCaps.data()}) {
          const Ticks base = 4;
          const Ticks seed = 4;
          const auto full = ref_fixed_point(s, count, caps, base, seed, ceil_form, 256);
          ASSERT_TRUE(full.converged);
          ASSERT_GT(full.value, seed);
          const std::string what = std::string(k->name) + " count " + std::to_string(count) +
                                   (ceil_form ? " ceil" : " floor+1") +
                                   (caps != nullptr ? " capped" : " uncapped");
          for (const Ticks limit : {Ticks{-1}, seed - 1, seed, (seed + full.value) / 2,
                                    full.value - 1, full.value, full.value + 1}) {
            const auto ref = ref_fixed_point(s, count, caps, base, seed, ceil_form, 256, limit);
            const auto got = run(k, s, count, caps, base, seed, ceil_form, 256, limit);
            expect_same(got, ref, what + " limit " + std::to_string(limit));
            EXPECT_EQ(got.converged, limit >= full.value) << what << " limit " << limit;
            stopped += !got.converged;
            for (const bool scalar : {true, false}) {
              ScalarGuard guard(scalar);
              expect_same(routine(v, count, caps, base, seed, ceil_form, 256, limit), ref,
                          what + (scalar ? " routine, forced scalar" : " routine") + " limit " +
                              std::to_string(limit));
            }
          }
          const auto at = run(k, s, count, caps, base, seed, ceil_form, 256, full.value);
          EXPECT_EQ(at.value, full.value) << what;
          EXPECT_EQ(at.iterations, full.iterations) << what;
        }
      }
    }
  }
  EXPECT_GT(stopped, 0u);
}

TEST(SimdKernels, EntryGuardsReportFallbackWithoutPublishing) {
  const Soa& s = nine_items();
  const Ticks over = simd::kMaxAccum + 1;
  for (const Kernels* k : tables_under_test()) {
    for (const bool ceil_form : {true, false}) {
      for (const Ticks* caps : {static_cast<const Ticks*>(nullptr), kCaps.data()}) {
        const std::string what = std::string(k->name) + (ceil_form ? " ceil" : " floor+1") +
                                 (caps != nullptr ? " capped" : " uncapped");
        for (const auto& [base, seed] : {std::pair{over, Ticks{1}}, std::pair{Ticks{0}, over},
                                         std::pair{Ticks{-1}, Ticks{1}},
                                         std::pair{Ticks{0}, Ticks{-1}}}) {
          const auto r = run(k, s, s.n(), caps, base, seed, ceil_form, 64);
          EXPECT_EQ(r.status, Status::kFallback) << what << " base " << base << " seed " << seed;
          EXPECT_EQ(r.iterations, 0) << what;
        }
        EXPECT_EQ(run(k, s, simd::kMaxTasks + 1, caps, 0, 1, ceil_form, 64).status,
                  Status::kFallback)
            << what << " count over kMaxTasks";
      }
    }
  }
}

TEST(SimdKernels, IterateGateTripsBeforeLeavingExactRegion) {
  // U > 1 with tiny periods: iterates grow geometrically and cross kMaxAccum
  // long before kNoBound — the kernel must hand the divergence decision back
  // to the exact scalar reference instead of publishing a saturated result.
  const Soa s({{1, 1, 1, 0}, {1, 1, 1, 0}, {1, 1, 1, 0}, {1, 1, 1, 0}, {1, 1, 1, 0}});
  const std::vector<Ticks> caps(s.n(), kNoBound);
  for (const Kernels* k : tables_under_test()) {
    for (const Ticks* c : {static_cast<const Ticks*>(nullptr), caps.data()}) {
      EXPECT_EQ(run(k, s, s.n(), c, 1, 1, true, 1 << 16).status, Status::kFallback) << k->name;
    }
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
  // A utilization sweep rebinds the same periods with scaled C, and a
  // smaller set between two binds shrinks the arena — the cached
  // reciprocals must keep the kernel exact across every rebind.
  RtaScratch scratch;
  std::vector<Task> tasks;
  for (Ticks c : {Ticks{2}, Ticks{5}, Ticks{3}, Ticks{8}, Ticks{4}, Ticks{6}, Ticks{1}, Ticks{7},
                  Ticks{3}, Ticks{2}}) {
    tasks.push_back(Task{.C = c, .D = 20 * c, .T = 20 * c, .J = 0, .name = ""});
  }
  std::size_t lane_ranks = 0;
  for (const Ticks bump : {Ticks{0}, Ticks{1}, Ticks{3}}) {
    for (const std::size_t n : {tasks.size(), std::size_t{4}}) {
      std::vector<Task> scaled(tasks.begin(), tasks.begin() + static_cast<std::ptrdiff_t>(n));
      for (Task& t : scaled) t.C += bump;
      const TaskSet ts{scaled};
      const PriorityOrder order = rate_monotonic_order(ts);
      ScalarGuard off(false);
      const FpAnalysis vec = analyze_preemptive_fp(ts, order, 1 << 16, scratch);
      const TaskSetView& v = scratch.arena.bind(ts, order);
      for (std::size_t rank = 0; rank < n; ++rank) lane_ranks += reaches_lanes(v, rank);
      simd::force_scalar(true);
      const FpAnalysis ref = analyze_preemptive_fp(ts, order, 1 << 16, scratch);
      simd::force_scalar(false);
      for (std::size_t i = 0; i < ts.size(); ++i) {
        EXPECT_EQ(vec.per_task[i].response, ref.per_task[i].response) << "bump " << bump;
        EXPECT_EQ(vec.per_task[i].iterations, ref.per_task[i].iterations) << "bump " << bump;
      }
    }
  }
  EXPECT_GT(lane_ranks, 0u);
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
  TaskSetArena sizes;
  ScalarGuard guard(false);
  std::size_t lane_ranks = 0;  // the prefixes, across the sets, that reach the lanes
  for (std::uint64_t seed = 1; seed <= kRandomSets; ++seed) {
    const TaskSet ts = random_set(seed);
    const PriorityOrder rm = rate_monotonic_order(ts);
    const PriorityOrder dm = deadline_monotonic_order(ts);
    const TaskSetView& v = sizes.bind(ts);
    for (std::size_t rank = 0; rank < v.n; ++rank) lane_ranks += reaches_lanes(v, rank);
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
  EXPECT_GT(lane_ranks, 0u);
}

TEST(SimdKernels, RandomizedEdfSweepIdenticalScalarVsVector) {
  RtaScratch scratch;
  TaskSetArena sizes;
  ScalarGuard guard(false);
  const int fuel = 1 << 16;
  std::size_t lane_sets = 0;
  for (std::uint64_t seed = 1; seed <= kRandomSets; ++seed) {
    const TaskSet ts = random_set(seed);
    const TaskSetView& v = sizes.bind(ts);
    lane_sets += reaches_lanes(v, v.n);
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
  EXPECT_GT(lane_sets, 0u);
}

TEST(SimdKernels, RandomizedBusyPeriodIdenticalScalarVsVector) {
  RtaScratch scratch;
  ScalarGuard guard(false);
  std::size_t lane_sets = 0;
  for (std::uint64_t seed = 1; seed <= kRandomSets; ++seed) {
    const TaskSet ts = random_set(seed);
    simd::force_scalar(false);
    const TaskSetView& v = scratch.arena.bind(ts);
    lane_sets += reaches_lanes(v, v.n);
    const BusyPeriod bp_vec = synchronous_busy_period(v);
    simd::force_scalar(true);
    const BusyPeriod bp_sc = synchronous_busy_period(scratch.arena.bind(ts));
    EXPECT_EQ(bp_sc.length, bp_vec.length) << "seed " << seed;
    EXPECT_EQ(bp_sc.iterations, bp_vec.iterations) << "seed " << seed;
  }
  EXPECT_GT(lane_sets, 0u);
}

}  // namespace
}  // namespace profisched
