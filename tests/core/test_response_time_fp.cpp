// Unit tests for the fixed-priority response-time analyses (paper eqs. 1–2
// plus the preemptive Joseph–Pandya base).
#include "core/response_time_fp.hpp"

#include <gtest/gtest.h>

#include "core/simd.hpp"
#include "sim/rng.hpp"
#include "workload/generators.hpp"

namespace profisched {
namespace {

// The classic Audsley et al. example set: R = {3, 6, 20} under RM/DM.
TaskSet classic() {
  return TaskSet{{
      Task{.C = 3, .D = 7, .T = 7, .J = 0, .name = "t1"},
      Task{.C = 3, .D = 12, .T = 12, .J = 0, .name = "t2"},
      Task{.C = 5, .D = 20, .T = 20, .J = 0, .name = "t3"},
  }};
}

TEST(PreemptiveRta, ClassicExample) {
  const TaskSet ts = classic();
  const PriorityOrder order = deadline_monotonic_order(ts);
  const FpAnalysis a = analyze_preemptive_fp(ts, order);
  ASSERT_TRUE(a.schedulable);
  EXPECT_EQ(a.per_task[0].response, 3);
  EXPECT_EQ(a.per_task[1].response, 6);
  EXPECT_EQ(a.per_task[2].response, 20);
}

TEST(PreemptiveRta, HighestPriorityTaskIsItsOwnC) {
  const TaskSet ts = classic();
  const RtaResult r = response_time_preemptive(ts, 0, {});
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.response, 3);
}

TEST(PreemptiveRta, DivergesWhenHigherPrioritySaturates) {
  const TaskSet ts{{
      Task{.C = 5, .D = 5, .T = 5, .J = 0, .name = "hog"},
      Task{.C = 1, .D = 100, .T = 100, .J = 0, .name = "victim"},
  }};
  const std::vector<std::size_t> hp{0};
  const RtaResult r = response_time_preemptive(ts, 1, hp, /*fuel=*/1000);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.response, kNoBound);
}

TEST(PreemptiveRta, JitterInflatesInterferenceAndOwnResponse) {
  const TaskSet no_jitter{{
      Task{.C = 2, .D = 10, .T = 10, .J = 0, .name = ""},
      Task{.C = 3, .D = 20, .T = 20, .J = 0, .name = ""},
  }};
  const TaskSet with_jitter{{
      Task{.C = 2, .D = 10, .T = 10, .J = 9, .name = ""},
      Task{.C = 3, .D = 20, .T = 20, .J = 0, .name = ""},
  }};
  const std::vector<std::size_t> hp{0};
  const Ticks r0 = response_time_preemptive(no_jitter, 1, hp).response;   // 3+2 = 5
  const Ticks r1 = response_time_preemptive(with_jitter, 1, hp).response;
  EXPECT_EQ(r0, 5);
  // w = 3 + ⌈(w+9)/10⌉·2: w=5 → ⌈14/10⌉·2=4 → w=7 → ⌈16/10⌉·2 → 7 ✓
  EXPECT_EQ(r1, 7);
}

TEST(BlockingFactor, PaperLiteralTakesMaxLowerC) {
  const TaskSet ts = classic();
  const std::vector<std::size_t> lower{1, 2};
  EXPECT_EQ(blocking_factor(ts, lower, Formulation::PaperLiteral), 5);
  EXPECT_EQ(blocking_factor(ts, lower, Formulation::Refined), 4);  // C−1
}

TEST(BlockingFactor, EmptyLowerSetIsZero) {
  const TaskSet ts = classic();
  EXPECT_EQ(blocking_factor(ts, {}, Formulation::PaperLiteral), 0);
  EXPECT_EQ(blocking_factor(ts, {}, Formulation::Refined), 0);
}

// Hand-computed NP example (header comment of response_time_fp.hpp):
//   t1: C=1 T=D=4,  t2: C=1 T=D=5,  t3: C=3 T=D=9, DM order t1>t2>t3.
TEST(NonPreemptiveRta, HandComputedRefined) {
  const TaskSet ts{{
      Task{.C = 1, .D = 4, .T = 4, .J = 0, .name = ""},
      Task{.C = 1, .D = 5, .T = 5, .J = 0, .name = ""},
      Task{.C = 3, .D = 9, .T = 9, .J = 0, .name = ""},
  }};
  const FpAnalysis a =
      analyze_nonpreemptive_fp(ts, deadline_monotonic_order(ts), Formulation::Refined);
  ASSERT_TRUE(a.schedulable);
  EXPECT_EQ(a.per_task[0].response, 3);  // B=2, w=2, +C=3
  EXPECT_EQ(a.per_task[1].response, 4);  // B=2, w=3, +C=4
  EXPECT_EQ(a.per_task[2].response, 5);  // B=0, w=2, +C=5
}

TEST(NonPreemptiveRta, HandComputedPaperLiteral) {
  const TaskSet ts{{
      Task{.C = 1, .D = 4, .T = 4, .J = 0, .name = ""},
      Task{.C = 1, .D = 5, .T = 5, .J = 0, .name = ""},
      Task{.C = 3, .D = 9, .T = 9, .J = 0, .name = ""},
  }};
  const FpAnalysis a =
      analyze_nonpreemptive_fp(ts, deadline_monotonic_order(ts), Formulation::PaperLiteral);
  ASSERT_TRUE(a.schedulable);
  EXPECT_EQ(a.per_task[0].response, 4);  // B=3, w=3, +C=4
  EXPECT_EQ(a.per_task[1].response, 5);  // B=3, w=4 (⌈4/4⌉·1), +C=5
  EXPECT_EQ(a.per_task[2].response, 5);  // B=0, w=2, +C=5
}

TEST(NonPreemptiveRta, PaperLiteralNeverBelowRefined) {
  // The literal formulation is the more pessimistic of the two on every task
  // of this grid.
  for (Ticks c3 = 1; c3 <= 6; ++c3) {
    const TaskSet ts{{
        Task{.C = 1, .D = 6, .T = 6, .J = 0, .name = ""},
        Task{.C = 2, .D = 9, .T = 9, .J = 0, .name = ""},
        Task{.C = c3, .D = 30, .T = 30, .J = 0, .name = ""},
    }};
    const PriorityOrder order = deadline_monotonic_order(ts);
    const FpAnalysis lit = analyze_nonpreemptive_fp(ts, order, Formulation::PaperLiteral);
    const FpAnalysis ref = analyze_nonpreemptive_fp(ts, order, Formulation::Refined);
    for (std::size_t i = 0; i < ts.size(); ++i) {
      ASSERT_TRUE(lit.per_task[i].converged);
      ASSERT_TRUE(ref.per_task[i].converged);
      EXPECT_GE(lit.per_task[i].response, ref.per_task[i].response) << "c3=" << c3 << " i=" << i;
    }
  }
}

TEST(NonPreemptiveRta, NonPreemptionCostsAtLeastPreemptive) {
  // Lower-priority blocking means NP response >= preemptive response for the
  // highest-priority task.
  const TaskSet ts = classic();
  const PriorityOrder order = deadline_monotonic_order(ts);
  const FpAnalysis pre = analyze_preemptive_fp(ts, order);
  const FpAnalysis np = analyze_nonpreemptive_fp(ts, order, Formulation::Refined);
  ASSERT_TRUE(pre.per_task[0].converged);
  ASSERT_TRUE(np.per_task[0].converged);
  EXPECT_GT(np.per_task[0].response, pre.per_task[0].response);
}

TEST(NonPreemptiveRta, LowestPriorityHasNoBlocking) {
  const TaskSet ts = classic();
  const std::vector<std::size_t> hp{0, 1};
  const RtaResult r = response_time_nonpreemptive(ts, 2, hp, /*lower=*/{});
  ASSERT_TRUE(r.converged);
  // w = ⌊w/7⌋+1)·3 + (⌊w/12⌋+1)·3 from w0=6: w=6 → 3+3=6 ✓; R = 6+5 = 11.
  EXPECT_EQ(r.response, 11);
}

TEST(RtaResult, MeetsSemantics) {
  RtaResult r;
  EXPECT_FALSE(r.meets(100));
  r.converged = true;
  r.response = 10;
  EXPECT_TRUE(r.meets(10));
  EXPECT_FALSE(r.meets(9));
}

// Parameterized sweep: response times are monotone in added blocking load.
class BlockingSweep : public ::testing::TestWithParam<Ticks> {};

TEST_P(BlockingSweep, ResponseMonotoneInBlockerLength) {
  const Ticks blocker = GetParam();
  const TaskSet ts{{
      Task{.C = 1, .D = 10, .T = 10, .J = 0, .name = "victim"},
      Task{.C = blocker, .D = 50, .T = 50, .J = 0, .name = "blocker"},
  }};
  const std::vector<std::size_t> lower{1};
  const RtaResult r = response_time_nonpreemptive(ts, 0, {}, lower, Formulation::Refined);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.response, (blocker - 1) + 1);  // B + C
}

INSTANTIATE_TEST_SUITE_P(BlockerLengths, BlockingSweep, ::testing::Values(1, 2, 5, 9, 20, 49));

// response_time_nonpreemptive's `bound`, on UUniFast sets of 5 and 12 tasks
// (12 reaches the lane interference kernel) near U = 1, with and without
// jitter, under both formulations and the task and message models, with the
// lanes active and forced scalar.
class FpBound : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { simd::force_scalar(GetParam()); }
  void TearDown() override { simd::force_scalar(false); }
};

TEST_P(FpBound, MeetsExactlyWhatTheUnboundedIterationMeets) {
  RtaScratch scratch;
  std::size_t uncrossed = 0, stopped = 0;
  for (const std::size_t n : {5, 12}) {
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      sim::Rng rng(seed * 7919 + n);
      workload::TaskSetParams p;
      p.n = n;
      p.total_u = 0.85 + 0.2 * rng.uniform01();
      p.deadline_lo = 0.5;
      p.jitter_max = seed % 3 == 0 ? 50 : 0;
      const TaskSet ts = workload::random_task_set(p, rng);
      const TaskSetView& v = scratch.arena.bind(ts, deadline_monotonic_order(ts));
      for (const Formulation form : {Formulation::PaperLiteral, Formulation::Refined}) {
        for (const ItemModel model : {kTaskModel, kMessageModel}) {
          for (std::size_t rank = 0; rank < v.n; ++rank) {
            const auto run = [&](Ticks bound) {
              return response_time_nonpreemptive(v, rank, form, 1 << 16, model, bound);
            };
            const RtaResult exact = run(kNoBound);
            const Ticks r = exact.converged ? exact.response : kNoBound;
            if (exact.converged) {
              // A bound the response does not exceed changes nothing.
              const RtaResult same = run(r);
              EXPECT_TRUE(same.converged);
              EXPECT_EQ(same.response, r) << "seed " << seed << " rank " << rank;
              ++uncrossed;
            }
            const Ticks below = r == kNoBound ? 0 : r - 1;
            for (const Ticks bound : {Ticks{0}, v.C[rank], v.D[rank], below}) {
              const RtaResult b = run(bound);
              EXPECT_EQ(b.meets(bound), exact.meets(bound))
                  << "n " << n << " seed " << seed << " rank " << rank << " bound " << bound;
              stopped += !b.converged && exact.converged;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(uncrossed, 0u);
  EXPECT_GT(stopped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Dispatch, FpBound, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "ForcedScalar" : "Active";
                         });

}  // namespace
}  // namespace profisched
