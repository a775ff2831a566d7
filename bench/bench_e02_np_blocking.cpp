// E2 (§2.1, eqs. 1–2): the cost of non-preemption under fixed priorities.
// Compares preemptive DM response times with non-preemptive ones (both the
// paper-literal and the refined formulation) and isolates the blocking
// factor's contribution.
#include "common.hpp"

#include <cmath>

#include "core/response_time_fp.hpp"
#include "core/schedulability.hpp"
#include "workload/generators.hpp"

namespace {

using namespace profisched;
using bench::Table;

constexpr int kSetsPerCell = 300;

void run_experiment() {
  bench::banner("E2", "preemptive vs non-preemptive fixed-priority response times (eqs. 1-2)");

  std::printf(
      "\nMean worst-case response, normalized by deadline (%d sets per cell, n=5, D in "
      "[0.7T, T]):\n",
      kSetsPerCell);
  Table t({"U", "R/D preemptive", "R/D np-refined", "R/D np-literal", "sched% pre",
           "sched% np-ref", "sched% np-lit"});
  sim::Rng rng(42);
  for (double u = 0.30; u <= 0.91; u += 0.10) {
    double sum_pre = 0, sum_ref = 0, sum_lit = 0;
    int n_pre = 0, n_ref = 0, n_lit = 0;
    int samples = 0;
    for (int s = 0; s < kSetsPerCell; ++s) {
      workload::TaskSetParams p;
      p.n = 5;
      p.total_u = u;
      p.t_min = 100;
      p.t_max = 5'000;
      p.deadline_lo = 0.7;
      const TaskSet ts = workload::random_task_set(p, rng);
      const Verdict pre = analyze(ts, Policy::DeadlineMonotonic);
      const Verdict ref = analyze(ts, Policy::NpDeadlineMonotonic, Formulation::Refined);
      const Verdict lit = analyze(ts, Policy::NpDeadlineMonotonic, Formulation::PaperLiteral);
      n_pre += pre.schedulable;
      n_ref += ref.schedulable;
      n_lit += lit.schedulable;
      const double wp = pre.worst_normalized_response(ts);
      const double wr = ref.worst_normalized_response(ts);
      const double wl = lit.worst_normalized_response(ts);
      if (std::isfinite(wp) && std::isfinite(wr) && std::isfinite(wl)) {
        sum_pre += wp;
        sum_ref += wr;
        sum_lit += wl;
        ++samples;
      }
    }
    const double d = samples > 0 ? samples : 1;
    t.row({bench::fmt(u, 2), bench::fmt(sum_pre / d), bench::fmt(sum_ref / d),
           bench::fmt(sum_lit / d), bench::pct(1.0 * n_pre / kSetsPerCell),
           bench::pct(1.0 * n_ref / kSetsPerCell), bench::pct(1.0 * n_lit / kSetsPerCell)});
  }
  t.print();

  std::printf("\nBlocking factor anatomy (tight task vs one long lower-priority task):\n");
  Table b({"blocker C", "B literal", "B refined", "R tight (lit)", "R tight (ref)"});
  for (const Ticks c : {10, 50, 200, 800}) {
    const TaskSet ts{{
        Task{.C = 5, .D = 1'000, .T = 1'000, .J = 0, .name = "tight"},
        Task{.C = c, .D = 10'000, .T = 10'000, .J = 0, .name = "blocker"},
    }};
    const std::vector<std::size_t> lower{1};
    b.row({bench::fmt_t(c), bench::fmt_t(blocking_factor(ts, lower, Formulation::PaperLiteral)),
           bench::fmt_t(blocking_factor(ts, lower, Formulation::Refined)),
           bench::fmt_t(
               response_time_nonpreemptive(ts, 0, {}, lower, Formulation::PaperLiteral).response),
           bench::fmt_t(
               response_time_nonpreemptive(ts, 0, {}, lower, Formulation::Refined).response)});
  }
  b.print();
  std::printf("\nExpected shape: np-literal >= np-refined >= preemptive everywhere;\n"
              "the tight task's response grows linearly with the blocker's C.\n");
}

void BM_NpRta(benchmark::State& state) {
  sim::Rng rng(3);
  workload::TaskSetParams p;
  p.n = static_cast<std::size_t>(state.range(0));
  p.total_u = 0.7;
  p.deadline_lo = 0.8;
  const TaskSet ts = workload::random_task_set(p, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyze(ts, Policy::NpDeadlineMonotonic).schedulable);
  }
}
BENCHMARK(BM_NpRta)->Arg(5)->Arg(20)->Arg(50);

}  // namespace

BENCH_MAIN(run_experiment)
