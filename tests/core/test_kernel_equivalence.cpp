// Kernel-equivalence suite: the SoA fast paths (taskset_view + scratch
// overloads, the routes analyze_* take since the PR-4 overhaul) must produce
// results identical to the retained TaskSet/index-span reference
// implementations — response, convergence flag AND iteration count where the
// result defines one — over randomized UUniFast task sets spanning
// convergent, divergent and degenerate regimes.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/busy_period.hpp"
#include "core/priority_assignment.hpp"
#include "core/response_time_edf.hpp"
#include "core/response_time_fp.hpp"
#include "sim/rng.hpp"
#include "workload/generators.hpp"

namespace profisched {
namespace {

constexpr std::size_t kSetsPerPolicy = 220;

/// Randomized set: n in [2, 16], U in [0.3, 1.15] (past 1 exercises the
/// divergence paths), deadlines down to 0.6·T, occasional jitter.
TaskSet random_set(std::uint64_t seed) {
  sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  workload::TaskSetParams p;
  p.n = 2 + static_cast<std::size_t>(rng.uniform(0, 14));
  p.total_u = 0.3 + 0.85 * rng.uniform01();
  p.deadline_lo = 0.6 + 0.2 * rng.uniform01();
  p.deadline_hi = 1.0 + 0.2 * rng.uniform01();
  p.jitter_max = (seed % 3 == 0) ? 200 : 0;
  return workload::random_task_set(p, rng);
}

/// The seed-era whole-set FP analysis, built from the retained per-task
/// reference entry points (exactly what analyze_* did before the SoA path).
FpAnalysis reference_fp(const TaskSet& ts, const PriorityOrder& order, bool preemptive,
                        Formulation form, int fuel = 1 << 16) {
  FpAnalysis out;
  out.per_task.resize(ts.size());
  out.schedulable = true;
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const std::size_t i = order[pos];
    const std::vector<std::size_t> higher(order.begin(),
                                          order.begin() + static_cast<std::ptrdiff_t>(pos));
    const std::vector<std::size_t> lower(order.begin() + static_cast<std::ptrdiff_t>(pos) + 1,
                                         order.end());
    out.per_task[i] = preemptive
                          ? response_time_preemptive(ts, i, higher, fuel)
                          : response_time_nonpreemptive(ts, i, higher, lower, form, fuel);
    if (!out.per_task[i].meets(ts[i].D)) out.schedulable = false;
  }
  return out;
}

void expect_same(const RtaResult& ref, const RtaResult& fast, std::uint64_t seed,
                 std::size_t task) {
  EXPECT_EQ(ref.converged, fast.converged) << "seed " << seed << " task " << task;
  EXPECT_EQ(ref.response, fast.response) << "seed " << seed << " task " << task;
  EXPECT_EQ(ref.iterations, fast.iterations) << "seed " << seed << " task " << task;
}

TEST(KernelEquivalence, PreemptiveFpMatchesReference) {
  RtaScratch scratch;
  for (std::uint64_t seed = 1; seed <= kSetsPerPolicy; ++seed) {
    const TaskSet ts = random_set(seed);
    const PriorityOrder order = rate_monotonic_order(ts);
    const FpAnalysis ref = reference_fp(ts, order, /*preemptive=*/true, kDefaultFormulation);
    const FpAnalysis plain = analyze_preemptive_fp(ts, order);
    const FpAnalysis reused = analyze_preemptive_fp(ts, order, 1 << 16, scratch);
    ASSERT_EQ(ref.per_task.size(), plain.per_task.size());
    EXPECT_EQ(ref.schedulable, plain.schedulable) << "seed " << seed;
    EXPECT_EQ(ref.schedulable, reused.schedulable) << "seed " << seed;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      expect_same(ref.per_task[i], plain.per_task[i], seed, i);
      expect_same(ref.per_task[i], reused.per_task[i], seed, i);
    }
  }
}

TEST(KernelEquivalence, NonpreemptiveFpMatchesReferenceBothFormulations) {
  RtaScratch scratch;
  for (const Formulation form : {Formulation::PaperLiteral, Formulation::Refined}) {
    for (std::uint64_t seed = 1; seed <= kSetsPerPolicy; ++seed) {
      const TaskSet ts = random_set(seed);
      const PriorityOrder order = deadline_monotonic_order(ts);
      const FpAnalysis ref = reference_fp(ts, order, /*preemptive=*/false, form);
      const FpAnalysis plain = analyze_nonpreemptive_fp(ts, order, form);
      const FpAnalysis reused = analyze_nonpreemptive_fp(ts, order, form, 1 << 16, scratch);
      EXPECT_EQ(ref.schedulable, plain.schedulable) << "seed " << seed;
      EXPECT_EQ(ref.schedulable, reused.schedulable) << "seed " << seed;
      for (std::size_t i = 0; i < ts.size(); ++i) {
        expect_same(ref.per_task[i], plain.per_task[i], seed, i);
        expect_same(ref.per_task[i], reused.per_task[i], seed, i);
      }
    }
  }
}

TEST(KernelEquivalence, PerTaskViewEntryPointsMatchReference) {
  // The rank-indexed view functions themselves (not just the analyze loop).
  RtaScratch scratch;
  for (std::uint64_t seed = 1; seed <= kSetsPerPolicy; ++seed) {
    const TaskSet ts = random_set(seed);
    const PriorityOrder order = deadline_monotonic_order(ts);
    const TaskSetView& pv = scratch.arena.bind(ts, order);
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      const std::size_t i = order[pos];
      const std::vector<std::size_t> higher(order.begin(),
                                            order.begin() + static_cast<std::ptrdiff_t>(pos));
      const std::vector<std::size_t> lower(order.begin() + static_cast<std::ptrdiff_t>(pos) + 1,
                                           order.end());
      expect_same(response_time_preemptive(ts, i, higher),
                  response_time_preemptive(pv, pos), seed, i);
      expect_same(response_time_nonpreemptive(ts, i, higher, lower),
                  response_time_nonpreemptive(pv, pos), seed, i);
      EXPECT_EQ(blocking_factor(ts, lower), blocking_factor(pv, pos + 1));
    }
  }
}

TEST(KernelEquivalence, BusyPeriodMatchesReference) {
  TaskSetArena arena;
  for (std::uint64_t seed = 1; seed <= kSetsPerPolicy; ++seed) {
    const TaskSet ts = random_set(seed);
    const BusyPeriod ref = synchronous_busy_period(ts);
    const BusyPeriod fast = synchronous_busy_period(arena.bind(ts));
    EXPECT_EQ(ref.length, fast.length) << "seed " << seed;
    EXPECT_EQ(ref.iterations, fast.iterations) << "seed " << seed;
  }
}

/// Hand-built sets whose deadline terms k·T_j + D_j − J_j coincide, each at
/// n = 3, 8 and 12 (the lane offset kernel takes n >= 8):
///  * identical items, with jitter so their busy period spans ten periods;
///  * harmonic periods, doubling in blocks of four, with D = T;
///  * a term landing exactly on D_0: every other item has D_j + T_j = D_0;
///  * jitter that moves the odd items' D_j − J_j below the even items' D_i,
///    though their D_j is larger.
/// Every item takes U_j = 0.95 / n, less rounding.
std::vector<TaskSet> coincident_term_sets() {
  struct Shape {
    Ticks T, D, J;
  };
  std::vector<TaskSet> out;
  for (const Ticks n : {3, 8, 12}) {
    const Ticks base = 100 * n;
    const auto set = [&](auto shape) {
      TaskSet ts;
      for (Ticks j = 0; j < n; ++j) {
        const Shape s = shape(j);
        const Ticks c = std::max<Ticks>(1, s.T * 95 / (100 * n));
        ts.push_back(Task{.C = c, .D = s.D, .T = s.T, .J = s.J, .name = ""});
      }
      return ts;
    };
    out.push_back(set([&](Ticks) { return Shape{base, 4 * base / 5, base / 2}; }));
    out.push_back(set([&](Ticks j) { return Shape{base << (j % 4), base << (j % 4), 0}; }));
    out.push_back(set([&](Ticks j) {
      if (j == 0) return Shape{3 * base, 2 * base, 0};
      return Shape{base + 10 * j, base - 10 * j, 0};
    }));
    out.push_back(set([&](Ticks j) {
      return Shape{base + 10 * j, base + 10 * j, j % 2 == 1 ? 2 * base / 5 : 0};
    }));
  }
  return out;
}

TEST(KernelEquivalence, EdfRtaMatchesReference) {
  RtaScratch scratch;
  std::vector<TaskSet> sets;
  for (std::uint64_t seed = 1; seed <= kSetsPerPolicy; ++seed) sets.push_back(random_set(seed));
  for (TaskSet& ts : coincident_term_sets()) sets.push_back(std::move(ts));
  for (std::size_t set = 0; set < sets.size(); ++set) {
    const TaskSet& ts = sets[set];
    for (const bool preemptive : {true, false}) {
      EdfAnalysis ref;
      ref.per_task.resize(ts.size());
      ref.schedulable = true;
      for (std::size_t i = 0; i < ts.size(); ++i) {
        ref.per_task[i] = preemptive ? edf_response_time_preemptive(ts, i)
                                     : edf_response_time_nonpreemptive(ts, i);
        if (!ref.per_task[i].meets(ts[i].D)) ref.schedulable = false;
      }
      const EdfAnalysis plain =
          preemptive ? analyze_preemptive_edf(ts) : analyze_nonpreemptive_edf(ts);
      const EdfAnalysis reused = preemptive ? analyze_preemptive_edf(ts, 1 << 16, scratch)
                                            : analyze_nonpreemptive_edf(ts, 1 << 16, scratch);
      EXPECT_EQ(ref.schedulable, plain.schedulable) << "set " << set;
      EXPECT_EQ(ref.schedulable, reused.schedulable) << "set " << set;
      for (std::size_t i = 0; i < ts.size(); ++i) {
        for (const EdfAnalysis* fast : {&plain, &reused}) {
          EXPECT_EQ(ref.per_task[i].converged, fast->per_task[i].converged)
              << "set " << set << " task " << i << " preemptive " << preemptive;
          EXPECT_EQ(ref.per_task[i].response, fast->per_task[i].response)
              << "set " << set << " task " << i << " preemptive " << preemptive;
          EXPECT_EQ(ref.per_task[i].critical_offset, fast->per_task[i].critical_offset)
              << "set " << set << " task " << i << " preemptive " << preemptive;
          EXPECT_EQ(ref.per_task[i].offsets_examined, fast->per_task[i].offsets_examined)
              << "set " << set << " task " << i << " preemptive " << preemptive;
        }
      }
    }
  }
}

}  // namespace
}  // namespace profisched
