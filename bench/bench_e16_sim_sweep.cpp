// E16 (cross-cutting, at scale): analysis-vs-simulation acceptance curves
// through the parallel engine. The classic UUniFast validation picture: per
// utilization level, the fraction of scenarios the analysis ACCEPTS against
// the fraction the simulator observes running miss-free, plus the pessimism
// ratio (analytic bound / observed max). The analysis curve must always lie
// at or below the simulation curve — an accepted-but-missing scenario or a
// violated bound would falsify the corresponding analysis.
#include "common.hpp"

#include "engine/sim_aggregate.hpp"
#include "engine/sweep_runner.hpp"

namespace {

using namespace profisched;
using bench::Table;

engine::SimSweepSpec make_spec(std::size_t scenarios_per_point) {
  engine::SimSweepSpec spec;
  spec.sweep.base.n_masters = 2;
  spec.sweep.base.streams_per_master = 4;
  spec.sweep.base.ttr = 3'000;
  for (const double u : {0.2, 0.4, 0.6, 0.8, 1.0, 1.2}) {
    spec.sweep.points.push_back(engine::SweepPoint{u, 0.5, 1.0});
  }
  spec.sweep.scenarios_per_point = scenarios_per_point;
  spec.sweep.policies = {engine::Policy::Fcfs, engine::Policy::Dm, engine::Policy::Edf};
  spec.sweep.seed = 16;
  spec.replications = 2;  // synchronous + one randomly-phased run
  return spec;
}

void acceptance_curves() {
  std::printf("\nAnalysis-accept%% vs simulation miss-free%% per utilization level\n"
              "(2 masters x 4 streams, worst-case cycle durations, 2 replications\n"
              "per scenario: synchronous + random phases):\n");
  const engine::SimSweepSpec spec = make_spec(150);
  engine::SweepRunner runner;
  const engine::CombinedResult result = runner.run_combined(spec);
  const engine::ConsistencyTable table = engine::consistency_table(spec, result);

  // Bucket the per-point ratios in one pass (a per-point rescan is
  // O(points x scenarios)).
  const std::size_t n_pol = spec.sweep.policies.size();
  const std::size_t n_pts = spec.sweep.points.size();
  std::vector<std::size_t> accepted(n_pts * n_pol, 0), miss_free(n_pts * n_pol, 0),
      scenarios(n_pts, 0);
  for (const engine::CombinedOutcome& o : result.outcomes) {
    ++scenarios[o.point];
    for (std::size_t p = 0; p < n_pol; ++p) {
      const engine::CombinedCell& c = o.cells[p];
      if (c.analytic_schedulable) ++accepted[o.point * n_pol + p];
      if (c.sim.misses == 0 && c.sim.dropped == 0) ++miss_free[o.point * n_pol + p];
    }
  }
  Table t({"U", "FCFS an%", "FCFS sim%", "DM an%", "DM sim%", "EDF an%", "EDF sim%"});
  for (std::size_t pt = 0; pt < n_pts; ++pt) {
    const double n = scenarios[pt] == 0 ? 1.0 : static_cast<double>(scenarios[pt]);
    std::vector<std::string> row{bench::fmt(spec.sweep.points[pt].total_u, 1)};
    for (std::size_t p = 0; p < n_pol; ++p) {
      row.push_back(bench::pct(static_cast<double>(accepted[pt * n_pol + p]) / n));
      row.push_back(bench::pct(static_cast<double>(miss_free[pt * n_pol + p]) / n));
    }
    t.row(std::move(row));
  }
  t.print();

  double max_pessimism = 0.0, min_pessimism = 1e300;
  for (const engine::ConsistencyRow& r : table.rows) {
    const double p = r.pessimism();
    if (p > 0) {
      max_pessimism = std::max(max_pessimism, p);
      min_pessimism = std::min(min_pessimism, p);
    }
  }
  std::printf("\n%zu joined rows, %u threads, %.3f s; bound violations: %llu (must be 0);\n"
              "analysis-accepts-but-sim-misses: %zu (must be 0); pessimism ratio in "
              "[%.3f, %.3f]\n",
              table.rows.size(), runner.threads(), result.elapsed_s,
              static_cast<unsigned long long>(table.total_bound_violations()),
              table.accept_but_miss_count(), min_pessimism, max_pessimism);
  std::printf("Expected shape: every an%% <= its sim%% (the analysis is sufficient, the\n"
              "simulation cannot observe the worst case it bounds), both monotone down\n"
              "in U, and min pessimism near 1 where FCFS runs fully loaded.\n");
}

void sim_sweep_scaling() {
  std::printf("\nParallel simulation-sweep scaling (same spec, simulation only) —\n"
              "aggregate CSV is bit-identical for every thread count:\n");
  const engine::SimSweepSpec spec = make_spec(100);
  std::string reference_csv;
  double t1 = 0.0;
  Table t({"threads", "wall (s)", "sim-runs/s", "speedup", "bit-identical"});
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    engine::SweepRunner runner(threads);
    const engine::SimSweepResult result = runner.run_sim(spec);
    const std::string csv = engine::aggregate_sim(spec, result).to_csv();
    if (threads == 1) {
      reference_csv = csv;
      t1 = result.elapsed_s;
    }
    const double runs = static_cast<double>(result.outcomes.size() *
                                            spec.sweep.policies.size() * spec.replications);
    t.row({std::to_string(threads), bench::fmt(result.elapsed_s),
           bench::fmt(runs / (result.elapsed_s > 0 ? result.elapsed_s : 1.0), 0),
           bench::fmt(t1 / (result.elapsed_s > 0 ? result.elapsed_s : 1.0), 2),
           csv == reference_csv ? "yes" : "NO"});
  }
  t.print();
}

void run_experiment() {
  bench::banner("E16", "analysis vs simulation acceptance curves through the engine");
  acceptance_curves();
  sim_sweep_scaling();
}

void BM_SimSweepAllCores(benchmark::State& state) {
  const engine::SimSweepSpec spec = make_spec(30);
  engine::SweepRunner runner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.run_sim(spec).outcomes.size());
  }
}
BENCHMARK(BM_SimSweepAllCores)->Unit(benchmark::kMillisecond);

}  // namespace

BENCH_MAIN(run_experiment)
