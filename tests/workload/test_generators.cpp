// Unit tests for the random task-set and network generators.
#include "workload/generators.hpp"

#include <gtest/gtest.h>

#include "profibus/fcfs_analysis.hpp"
#include "profibus/ttr_setting.hpp"

namespace profisched::workload {
namespace {

TEST(LogUniform, StaysInRange) {
  sim::Rng rng(1);
  for (int i = 0; i < 10'000; ++i) {
    const Ticks v = log_uniform(100, 10'000, rng);
    EXPECT_GE(v, 100);
    EXPECT_LE(v, 10'000);
  }
}

TEST(LogUniform, DegenerateRange) {
  sim::Rng rng(2);
  EXPECT_EQ(log_uniform(500, 500, rng), 500);
}

TEST(RandomTaskSet, AlwaysValidAndOnSize) {
  sim::Rng rng(3);
  TaskSetParams p;
  p.n = 12;
  for (int trial = 0; trial < 200; ++trial) {
    const TaskSet ts = random_task_set(p, rng);
    EXPECT_EQ(ts.size(), 12u);
    EXPECT_NO_THROW(ts.validate());
  }
}

TEST(RandomTaskSet, UtilizationNearTarget) {
  sim::Rng rng(4);
  TaskSetParams p;
  p.n = 10;
  p.total_u = 0.7;
  p.t_min = 1'000;  // large periods keep rounding error small
  p.t_max = 100'000;
  double sum = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) sum += random_task_set(p, rng).utilization();
  EXPECT_NEAR(sum / trials, 0.7, 0.02);
}

TEST(RandomTaskSet, ConstrainedDeadlinesWhenRequested) {
  sim::Rng rng(5);
  TaskSetParams p;
  p.deadline_lo = 0.5;
  p.deadline_hi = 1.0;
  for (int t = 0; t < 100; ++t) {
    const TaskSet ts = random_task_set(p, rng);
    EXPECT_TRUE(ts.constrained_deadlines());
  }
}

TEST(RandomTaskSet, ImplicitDeadlinesByDefault) {
  sim::Rng rng(6);
  const TaskSet ts = random_task_set(TaskSetParams{}, rng);
  EXPECT_TRUE(ts.implicit_deadlines());
}

TEST(RandomTaskSet, JitterBoundedByRequestAndSlack) {
  sim::Rng rng(7);
  TaskSetParams p;
  p.jitter_max = 500;
  p.deadline_lo = 0.8;
  for (int t = 0; t < 100; ++t) {
    for (const auto& task : random_task_set(p, rng)) {
      EXPECT_LE(task.J, 500);
      EXPECT_LE(task.J, task.D - task.C);
    }
  }
}

TEST(RandomNetwork, ShapeAndValidity) {
  sim::Rng rng(8);
  NetworkParams p;
  p.n_masters = 4;
  p.streams_per_master = 3;
  const GeneratedNetwork g = random_network(p, rng);
  EXPECT_EQ(g.net.n_masters(), 4u);
  EXPECT_EQ(g.net.total_high_streams(), 12u);
  EXPECT_NO_THROW(g.net.validate());
  ASSERT_EQ(g.specs.size(), 4u);
  EXPECT_EQ(g.specs[0].size(), 3u);
}

TEST(RandomNetwork, ChMatchesSpecWorstCase) {
  sim::Rng rng(9);
  const GeneratedNetwork g = random_network(NetworkParams{}, rng);
  for (std::size_t k = 0; k < g.net.n_masters(); ++k) {
    for (std::size_t i = 0; i < g.net.masters[k].nh(); ++i) {
      EXPECT_EQ(g.net.masters[k].high_streams[i].Ch,
                profibus::worst_case_cycle_time(g.net.bus, g.specs[k][i]));
    }
  }
}

TEST(RandomNetwork, AutoTtrMakesFcfsSchedulableWhenPossible) {
  sim::Rng rng(10);
  int auto_schedulable = 0, total = 0;
  for (int t = 0; t < 50; ++t) {
    NetworkParams p;
    p.ttr = 0;  // auto
    const GeneratedNetwork g = random_network(p, rng);
    const auto best = profibus::max_schedulable_ttr(g.net);
    ++total;
    if (best.has_value()) {
      EXPECT_TRUE(profibus::analyze_fcfs(g.net).schedulable);
      ++auto_schedulable;
    }
  }
  EXPECT_GT(auto_schedulable, 0) << "generator never produced a schedulable set in " << total;
}

TEST(RandomNetwork, ExplicitTtrIsRespected) {
  sim::Rng rng(11);
  NetworkParams p;
  p.ttr = 123'456;
  EXPECT_EQ(random_network(p, rng).net.ttr, 123'456);
}

TEST(RandomNetwork, UnrepresentableDeadlinesThrow) {
  // D = beta*T past Ticks used to be llround's unspecified result, clamped up
  // to Ch; both generators now refuse it, and so does a period T_cycle/u_i
  // past Ticks.
  sim::Rng rng(7);
  NetworkParams p;
  p.deadline_lo = p.deadline_hi = 1e300;
  EXPECT_THROW((void)random_network(p, rng), std::invalid_argument);
  p.total_u = 0.5;
  p.ttr = 3'000;
  EXPECT_THROW((void)random_network(p, rng), std::invalid_argument);
  p.deadline_lo = 0.5;
  p.deadline_hi = 1.0;
  p.ttr = 1'000'000'000'000'000'000;
  p.streams_per_master = 64;  // shares near 1/128 put T = T_cycle/u_i near 1e20
  EXPECT_THROW((void)random_network(p, rng), std::invalid_argument);
}

TEST(RandomNetwork, LowPriorityTrafficToggle) {
  sim::Rng rng(12);
  NetworkParams p;
  p.low_priority_traffic = false;
  const GeneratedNetwork g = random_network(p, rng);
  for (const auto& m : g.net.masters) EXPECT_EQ(m.longest_low_cycle, 0);
}

}  // namespace
}  // namespace profisched::workload
