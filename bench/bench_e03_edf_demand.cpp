// E3 (§2.2, eq. 3): the processor-demand criterion for preemptive EDF.
// Regenerates the paper's observation that "when the utilisation approaches
// 1, t_max becomes very large": the busy-period horizon and the number of
// deadline checkpoints both blow up as U → 1.
#include "common.hpp"

#include "core/busy_period.hpp"
#include "core/edf_feasibility.hpp"
#include "workload/generators.hpp"

namespace {

using namespace profisched;
using bench::Table;

constexpr int kSetsPerCell = 300;

void run_experiment() {
  bench::banner("E3", "EDF processor-demand test: horizon growth as U -> 1 (eq. 3)");

  std::printf(
      "\nMean busy-period horizon and checkpoint count (%d sets per cell, n=6, D in "
      "[0.8T, T]):\n",
      kSetsPerCell);
  Table t({"U", "feasible%", "mean horizon", "mean checkpoints", "max checkpoints"});
  sim::Rng rng(7);
  for (const double u : {0.50, 0.70, 0.85, 0.92, 0.96, 0.98, 0.995}) {
    int feasible = 0;
    double horizon_sum = 0, cp_sum = 0;
    std::size_t cp_max = 0;
    int bounded = 0;
    for (int s = 0; s < kSetsPerCell; ++s) {
      workload::TaskSetParams p;
      p.n = 6;
      p.total_u = u;
      p.t_min = 100;
      p.t_max = 10'000;
      p.deadline_lo = 0.8;
      const TaskSet ts = workload::random_task_set(p, rng);
      const FeasibilityResult r = edf_preemptive_feasible(ts);
      feasible += r.feasible;
      if (r.horizon > 0) {
        horizon_sum += static_cast<double>(r.horizon);
        cp_sum += static_cast<double>(r.checkpoints);
        cp_max = std::max(cp_max, r.checkpoints);
        ++bounded;
      }
    }
    const double d = bounded > 0 ? bounded : 1;
    t.row({bench::fmt(u, 3), bench::pct(1.0 * feasible / kSetsPerCell),
           bench::fmt(horizon_sum / d, 0), bench::fmt(cp_sum / d, 1), std::to_string(cp_max)});
  }
  t.print();

  std::printf("\nPaper-literal vs refined demand function on the same sets:\n");
  Table f({"U", "literal accept", "refined accept", "literal-only accepts"});
  for (const double u : {0.85, 0.95, 0.99}) {
    int lit = 0, ref = 0, lit_only = 0;
    for (int s = 0; s < kSetsPerCell; ++s) {
      workload::TaskSetParams p;
      p.n = 6;
      p.total_u = u;
      p.deadline_lo = 0.8;
      const TaskSet ts = workload::random_task_set(p, rng);
      const bool a = edf_preemptive_feasible(ts, Formulation::PaperLiteral).feasible;
      const bool b = edf_preemptive_feasible(ts, Formulation::Refined).feasible;
      lit += a;
      ref += b;
      lit_only += (a && !b);
    }
    f.row({bench::fmt(u, 2), bench::pct(1.0 * lit / kSetsPerCell),
           bench::pct(1.0 * ref / kSetsPerCell), std::to_string(lit_only)});
  }
  f.print();
  std::printf("\nExpected shape: horizon and checkpoint counts explode as U -> 1; the\n"
              "literal ceil-form accepts a (small) superset — those extra accepts are\n"
              "optimistic, which is why the library defaults to the refined form.\n");
}

void BM_DemandTest(benchmark::State& state) {
  sim::Rng rng(9);
  workload::TaskSetParams p;
  p.n = 8;
  p.total_u = static_cast<double>(state.range(0)) / 100.0;
  p.deadline_lo = 0.8;
  const TaskSet ts = workload::random_task_set(p, rng);
  for (auto _ : state) benchmark::DoNotOptimize(edf_preemptive_feasible(ts).feasible);
}
BENCHMARK(BM_DemandTest)->Arg(70)->Arg(90)->Arg(98);

}  // namespace

BENCH_MAIN(run_experiment)
