// Unit tests for the EDF feasibility tests (paper eqs. 3–5).
#include "core/edf_feasibility.hpp"

#include <gtest/gtest.h>

namespace profisched {
namespace {

TEST(DemandBound, HandComputedRefined) {
  // C=2 D=4 T=6 and C=3 D=9 T=8.
  const TaskSet ts{{
      Task{.C = 2, .D = 4, .T = 6, .J = 0, .name = ""},
      Task{.C = 3, .D = 9, .T = 8, .J = 0, .name = ""},
  }};
  EXPECT_EQ(demand_bound(ts, 0, Formulation::Refined), 0);
  EXPECT_EQ(demand_bound(ts, 3, Formulation::Refined), 0);
  EXPECT_EQ(demand_bound(ts, 4, Formulation::Refined), 2);   // one job of task 0
  EXPECT_EQ(demand_bound(ts, 9, Formulation::Refined), 5);   // + one of task 1
  EXPECT_EQ(demand_bound(ts, 10, Formulation::Refined), 7);  // second job of task 0 (D at 10)
  EXPECT_EQ(demand_bound(ts, 17, Formulation::Refined), 12);  // t0@4,10,16; t1@9,17
}

TEST(DemandBound, PaperLiteralMissesTheBoundaryJob) {
  const TaskSet ts{{Task{.C = 2, .D = 4, .T = 6, .J = 0, .name = ""}}};
  // At exactly t = D the literal ⌈(t−D)/T⌉⁺ counts zero jobs.
  EXPECT_EQ(demand_bound(ts, 4, Formulation::PaperLiteral), 0);
  EXPECT_EQ(demand_bound(ts, 4, Formulation::Refined), 2);
  // One tick later both agree again.
  EXPECT_EQ(demand_bound(ts, 5, Formulation::PaperLiteral), 2);
}

TEST(DemandBound, NonDecreasingInT) {
  const TaskSet ts{{
      Task{.C = 2, .D = 4, .T = 6, .J = 0, .name = ""},
      Task{.C = 3, .D = 9, .T = 8, .J = 0, .name = ""},
  }};
  Ticks prev = 0;
  for (Ticks t = 0; t <= 100; ++t) {
    const Ticks h = demand_bound(ts, t);
    EXPECT_GE(h, prev) << "t=" << t;
    prev = h;
  }
}

TEST(DeadlineCheckpoints, EnumeratesKTiPlusDi) {
  const TaskSet ts{{
      Task{.C = 1, .D = 4, .T = 6, .J = 0, .name = ""},
      Task{.C = 1, .D = 9, .T = 8, .J = 0, .name = ""},
  }};
  const std::vector<Ticks> pts = deadline_checkpoints(ts, 25);
  EXPECT_EQ(pts, (std::vector<Ticks>{4, 9, 10, 16, 17, 22, 25}));
}

TEST(DeadlineCheckpoints, DeduplicatesCollisions) {
  const TaskSet ts{{
      Task{.C = 1, .D = 6, .T = 6, .J = 0, .name = ""},
      Task{.C = 1, .D = 6, .T = 6, .J = 0, .name = ""},
  }};
  const std::vector<Ticks> pts = deadline_checkpoints(ts, 12);
  EXPECT_EQ(pts, (std::vector<Ticks>{6, 12}));
}

TEST(EdfPreemptive, AcceptsFullUtilizationImplicitDeadlines) {
  const TaskSet exact{{
      Task{.C = 1, .D = 2, .T = 2, .J = 0, .name = ""},
      Task{.C = 2, .D = 4, .T = 4, .J = 0, .name = ""},
  }};  // U = 1 — EDF-schedulable
  // Also U = 1 exactly (9/14 + 9/28 + 9/252), but its double sum rounds to
  // 1.0000000000000002: it must not be rejected as an overload.
  const TaskSet rounded{{
      Task{.C = 9, .D = 14, .T = 14, .J = 0, .name = ""},
      Task{.C = 9, .D = 28, .T = 28, .J = 0, .name = ""},
      Task{.C = 9, .D = 252, .T = 252, .J = 0, .name = ""},
  }};
  ASSERT_GT(rounded.utilization(), 1.0);
  for (const TaskSet* ts : {&exact, &rounded}) {
    const FeasibilityResult r = edf_preemptive_feasible(*ts);
    EXPECT_TRUE(r.feasible) << "first violation " << r.first_violation;
    EXPECT_EQ(r.first_violation, kNoBound);
  }
  EXPECT_EQ(edf_preemptive_feasible(rounded).horizon, 252);
}

TEST(EdfPreemptive, RejectsOverUtilization) {
  const TaskSet ts{{
      Task{.C = 3, .D = 5, .T = 5, .J = 0, .name = ""},
      Task{.C = 3, .D = 6, .T = 6, .J = 0, .name = ""},
  }};
  const FeasibilityResult r = edf_preemptive_feasible(ts);
  EXPECT_FALSE(r.feasible);
}

TEST(EdfPreemptive, ConstrainedDeadlineViolationDetected) {
  // U < 1 but both deadlines at 3 while total demand by 3 is 4.
  const TaskSet ts{{
      Task{.C = 2, .D = 3, .T = 10, .J = 0, .name = ""},
      Task{.C = 2, .D = 3, .T = 10, .J = 0, .name = ""},
  }};
  const FeasibilityResult r = edf_preemptive_feasible(ts);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.first_violation, 3);
}

TEST(EdfPreemptive, ReportsCheckpointsAndHorizon) {
  const TaskSet ts{{
      Task{.C = 2, .D = 4, .T = 6, .J = 0, .name = ""},
      Task{.C = 3, .D = 9, .T = 8, .J = 0, .name = ""},
  }};
  const FeasibilityResult r = edf_preemptive_feasible(ts);
  EXPECT_TRUE(r.feasible);
  EXPECT_GT(r.checkpoints, 0u);
  EXPECT_GT(r.horizon, 0);
}

TEST(EdfPreemptive, EmptySetFeasible) {
  EXPECT_TRUE(edf_preemptive_feasible(TaskSet{}).feasible);
}

TEST(NpEdfZhengShin, BlockingByLongestTaskEverywhere) {
  // Feasible preemptively but the +max C blocking breaks the tight deadline:
  // t0: C=1 D=2 T=10, t1: C=5 D=50 T=50. At t=2: h=1, +max C=5 → 6 > 2.
  const TaskSet ts{{
      Task{.C = 1, .D = 2, .T = 10, .J = 0, .name = ""},
      Task{.C = 5, .D = 50, .T = 50, .J = 0, .name = ""},
  }};
  EXPECT_TRUE(edf_preemptive_feasible(ts).feasible);
  EXPECT_FALSE(np_edf_feasible_zheng_shin(ts).feasible);
}

TEST(NpEdfGeorge, LessPessimisticThanZhengShin) {
  // George's refinement (eq. 5): at large t no task has D > t, so blocking
  // vanishes; Zheng–Shin keeps charging max C forever. Construct a set
  // Zheng–Shin rejects and George accepts: blocking C−1 = 4 at t = 6 needs
  // h(6) + 4 <= 6 … t0: C=2 D=6 T=12, t1: C=5 D=12 T=12.
  //   George @6:  h=2, blocking (D=12>6): 4 → 6 <= 6 ✓
  //          @12: h=7, blocking 0 → 7 <= 12 ✓
  //   Zheng–Shin @6: 2 + 5 = 7 > 6 ✗
  const TaskSet ts{{
      Task{.C = 2, .D = 6, .T = 12, .J = 0, .name = ""},
      Task{.C = 5, .D = 12, .T = 12, .J = 0, .name = ""},
  }};
  EXPECT_FALSE(np_edf_feasible_zheng_shin(ts).feasible);
  EXPECT_TRUE(np_edf_feasible_george(ts).feasible);
}

TEST(NpEdfGeorge, RejectsGenuineOverload) {
  const TaskSet ts{{
      Task{.C = 3, .D = 4, .T = 8, .J = 0, .name = ""},
      Task{.C = 3, .D = 4, .T = 8, .J = 0, .name = ""},
  }};  // demand 6 by t=4 even preemptively
  EXPECT_FALSE(np_edf_feasible_george(ts).feasible);
}

TEST(NpEdfTests, GeorgeAcceptsWhateverZhengShinAccepts) {
  // Dominance on a deterministic grid of two-task sets.
  for (Ticks c1 = 1; c1 <= 4; ++c1) {
    for (Ticks c2 = 1; c2 <= 6; ++c2) {
      for (Ticks d1 = c1; d1 <= 12; d1 += 3) {
        const TaskSet ts{{
            Task{.C = c1, .D = d1, .T = 12, .J = 0, .name = ""},
            Task{.C = c2, .D = 14, .T = 14, .J = 0, .name = ""},
        }};
        if (np_edf_feasible_zheng_shin(ts).feasible) {
          EXPECT_TRUE(np_edf_feasible_george(ts).feasible)
              << "c1=" << c1 << " c2=" << c2 << " d1=" << d1;
        }
      }
    }
  }
}

// Parameterized: the refined demand function dominates the paper-literal one
// pointwise, so literal-feasible ⊇ refined-feasible (the literal form is
// *optimistic*, which is exactly why DESIGN.md defaults to Refined).
class FormulationSweep : public ::testing::TestWithParam<Ticks> {};

TEST_P(FormulationSweep, LiteralDemandNeverExceedsRefined) {
  const Ticks d = GetParam();
  const TaskSet ts{{
      Task{.C = 2, .D = d, .T = 10, .J = 0, .name = ""},
      Task{.C = 3, .D = d + 4, .T = 14, .J = 0, .name = ""},
  }};
  for (Ticks t = 0; t <= 60; ++t) {
    EXPECT_LE(demand_bound(ts, t, Formulation::PaperLiteral),
              demand_bound(ts, t, Formulation::Refined))
        << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Deadlines, FormulationSweep, ::testing::Values(2, 4, 6, 8, 10));

}  // namespace
}  // namespace profisched
