// Property test: the bisected breakdown scaling must bracket the
// accept→reject flip of the §2 analyses over a coarse utilization grid on
// the same scenario and policy.
//
// Each grid point scales C by its factor q_k under the sensitivity layer's
// contract (C -> clamp(ceil(C·q/1024), 1, T)), so it probes the EXACT task
// set the breakdown bisection probes at q_k. The verdict at every grid point
// must therefore equal (q_k <= q*), with q* the bisected breakdown boundary —
// across >= 100 UUniFast scenarios for each of the five §2 policies.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/sensitivity.hpp"
#include "sim/rng.hpp"
#include "workload/generators.hpp"

namespace profisched {
namespace {

TaskSet implicit_deadline_base(std::uint64_t seed, std::size_t n) {
  sim::Rng rng(seed * 6364136223846793005ULL + 1442695040888963407ULL);
  workload::TaskSetParams p;
  p.n = n;
  p.total_u = 0.3;
  p.deadline_lo = 1.0;  // D = T: scaled sets need no deadline adjustment
  p.deadline_hi = 1.0;
  return workload::random_task_set(p, rng);
}

TaskSet scaled(const TaskSet& base, Ticks q1024) {
  std::vector<Task> tasks(base.begin(), base.end());
  for (Task& t : tasks) {
    t.C = std::clamp<Ticks>(ceil_div(sat_mul(t.C, q1024), sensitivity::kScaleOne), 1, t.T);
  }
  return TaskSet{std::move(tasks)};
}

TEST(BreakdownVsGrid, BisectionBracketsTheCoarseGridFlip) {
  constexpr std::size_t kScenarios = 120;
  constexpr std::size_t kGridPoints = 14;
  const std::vector<Policy> policies{Policy::RateMonotonic, Policy::DeadlineMonotonic,
                                     Policy::NpDeadlineMonotonic, Policy::Edf, Policy::NpEdf};

  for (std::uint64_t seed = 1; seed <= kScenarios; ++seed) {
    const TaskSet base = implicit_deadline_base(seed, 4 + seed % 6);
    const double base_u = base.utilization();

    // Grid point k targets u_k = base_u·(1 + 0.2k), i.e. scale factor q_k.
    std::vector<TaskSet> grid;
    std::vector<Ticks> q;
    for (std::size_t k = 0; k < kGridPoints; ++k) {
      const double u_k = base_u * (1.0 + 0.2 * static_cast<double>(k));
      q.push_back(static_cast<Ticks>(std::llround(u_k / base_u * 1024.0)));
      ASSERT_GE(q.back(), sensitivity::kScaleOne);  // grid starts at the base load
      grid.push_back(scaled(base, q.back()));
    }

    for (std::size_t p = 0; p < policies.size(); ++p) {
      const SchedulabilityTest test = test_for(policies[p]);
      const sensitivity::SensitivityResult bd = sensitivity::breakdown_scaling(base, test);

      for (std::size_t k = 0; k < kGridPoints; ++k) {
        const bool expect_schedulable = bd.feasible && q[k] <= bd.value;
        EXPECT_EQ(analyze(grid[k], policies[p]).schedulable, expect_schedulable)
            << "seed " << seed << " policy " << p << " grid point " << k << " (q=" << q[k]
            << ", breakdown q*="
            << (bd.feasible ? std::to_string(bd.value) : std::string("infeasible")) << ")";
      }

      // And the breakdown utilization itself must land inside the coarse
      // grid's flip interval: at least the last accepted point's actual
      // utilization, below the first rejected point's.
      if (bd.feasible && !bd.cap_hit) {
        const double breakdown_u = sensitivity::utilization_at_scale(base, bd.value);
        for (std::size_t k = 0; k < kGridPoints; ++k) {
          if (q[k] <= bd.value) {
            EXPECT_GE(breakdown_u + 1e-12, grid[k].utilization())
                << "seed " << seed << " policy " << p;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace profisched
