// The observability layer's core guarantee: turning on --metrics/--progress
// instrumentation changes ZERO bytes of any primary artifact. Each test runs
// the same small sweep with telemetry off and fully on (timed spans + the
// progress heartbeat) and compares the serialized outputs byte-for-byte,
// across every engine backend (analysis, sim, combined, optimize). Each also
// counts the runner's stage spans: one generate span per scenario and the
// mode's stage spans, only with telemetry on. The optimizer's opt.* counters
// also repeat exactly across thread counts and shard splits.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/aggregate.hpp"
#include "engine/sim_aggregate.hpp"
#include "engine/sweep_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "opt/opt_aggregate.hpp"
#include "opt/optimizer.hpp"

namespace profisched {
namespace {

/// Flips both telemetry switches for a scope and restores them on exit.
class ObsFlagsGuard {
 public:
  ObsFlagsGuard(bool enabled, bool progress)
      : was_enabled_(obs::enabled()), was_progress_(obs::progress_enabled()) {
    obs::set_enabled(enabled);
    obs::set_progress_enabled(progress);
  }
  ~ObsFlagsGuard() {
    obs::set_enabled(was_enabled_);
    obs::set_progress_enabled(was_progress_);
  }

 private:
  bool was_enabled_;
  bool was_progress_;
};

/// Spans recorded so far by the runner's stage timers.
struct StageSpans {
  std::uint64_t generate, analyze, simulate;
  bool operator==(const StageSpans&) const = default;
};
StageSpans stage_spans() {
  const obs::Snapshot s = obs::Registry::global().snapshot();
  return {s.timer("runner.generate").count, s.timer("runner.analyze").count,
          s.timer("runner.simulate").count};
}

/// The stage spans after `before` plus the given ones.
StageSpans plus(const StageSpans& before, std::uint64_t generate, std::uint64_t analyze,
                std::uint64_t simulate) {
  return {before.generate + generate, before.analyze + analyze, before.simulate + simulate};
}

engine::SimSweepSpec small_spec() {
  engine::SimSweepSpec spec;
  spec.sweep.base.n_masters = 1;
  spec.sweep.base.streams_per_master = 4;
  spec.sweep.base.ttr = 3'000;
  spec.sweep.points = {engine::SweepPoint{0.3, 0.5, 1.0}, engine::SweepPoint{0.7, 0.5, 1.0}};
  spec.sweep.scenarios_per_point = 8;
  spec.sweep.policies = {engine::Policy::Fcfs, engine::Policy::Dm, engine::Policy::Edf};
  spec.sweep.seed = 4242;
  spec.replications = 2;
  spec.sim.horizon_cycles = 25.0;
  return spec;
}

TEST(ObsByteIdentity, AnalysisSweepOutputsAreIdentical) {
  const engine::SimSweepSpec spec = small_spec();
  const std::uint64_t n = spec.sweep.total_scenarios();
  std::string off_csv, off_json, on_csv, on_json;
  const StageSpans spans0 = stage_spans();
  {
    const ObsFlagsGuard flags(false, false);
    engine::SweepRunner runner(2);
    const engine::SweepCurves curves =
        engine::aggregate(spec.sweep, runner.run(spec.sweep, nullptr));
    off_csv = curves.to_csv();
    off_json = curves.to_json();
  }
  EXPECT_EQ(stage_spans(), spans0);
  {
    const ObsFlagsGuard flags(true, true);
    engine::SweepRunner runner(2);
    const engine::SweepCurves curves =
        engine::aggregate(spec.sweep, runner.run(spec.sweep, nullptr));
    on_csv = curves.to_csv();
    on_json = curves.to_json();
  }
  EXPECT_EQ(stage_spans(), plus(spans0, n, n, 0));
  EXPECT_EQ(off_csv, on_csv);
  EXPECT_EQ(off_json, on_json);
}

TEST(ObsByteIdentity, SimSweepOutputsAreIdentical) {
  const engine::SimSweepSpec spec = small_spec();
  const std::uint64_t n = spec.sweep.total_scenarios();
  std::string off_csv, on_csv;
  const StageSpans spans0 = stage_spans();
  {
    const ObsFlagsGuard flags(false, false);
    engine::SweepRunner runner(2);
    off_csv = engine::aggregate_sim(spec, runner.run_sim(spec, nullptr)).to_csv();
  }
  EXPECT_EQ(stage_spans(), spans0);
  {
    const ObsFlagsGuard flags(true, true);
    engine::SweepRunner runner(2);
    on_csv = engine::aggregate_sim(spec, runner.run_sim(spec, nullptr)).to_csv();
  }
  EXPECT_EQ(stage_spans(), plus(spans0, n, 0, n));
  EXPECT_EQ(off_csv, on_csv);
}

/// The simulation bridge's event and sharing counters, as they stand.
struct SimCounts {
  std::uint64_t events, executed, splits;
};
SimCounts sim_counts() {
  const obs::Snapshot s = obs::Registry::global().snapshot();
  return {s.counter("sim.events"), s.counter("sim.events_executed"), s.counter("sim.splits")};
}

TEST(ObsByteIdentity, CombinedSweepOutputsAreIdentical) {
  engine::SimSweepSpec spec = small_spec();
  spec.sim.faults.token_loss_prob = 0.02;  // exercise the fault bridge too
  spec.sim.faults.token_recovery = 600;
  const std::uint64_t n = spec.sweep.total_scenarios();
  std::string off_csv, on_csv;
  const SimCounts c0 = sim_counts();
  const StageSpans spans0 = stage_spans();
  {
    const ObsFlagsGuard flags(false, false);
    engine::SweepRunner runner(2);
    off_csv = engine::consistency_table(spec, runner.run_combined(spec, nullptr)).to_csv();
  }
  EXPECT_EQ(stage_spans(), spans0);
  const SimCounts c1 = sim_counts();
  {
    const ObsFlagsGuard flags(true, true);
    engine::SweepRunner runner(2);
    on_csv = engine::consistency_table(spec, runner.run_combined(spec, nullptr)).to_csv();
  }
  const SimCounts c2 = sim_counts();
  // Without a cache every policy is computed: one analyze span per (scenario,
  // policy), one simulate span per scenario's group simulation.
  EXPECT_EQ(stage_spans(), plus(spans0, n, n * spec.sweep.policies.size(), n));
  EXPECT_EQ(off_csv, on_csv);
  // The sharing series count the same with telemetry on and off: the group
  // runs share prefixes, so the kernels ran fewer events than the per-policy
  // runs count, and at least one run forked.
  EXPECT_EQ(c2.events - c1.events, c1.events - c0.events);
  EXPECT_EQ(c2.executed - c1.executed, c1.executed - c0.executed);
  EXPECT_EQ(c2.splits - c1.splits, c1.splits - c0.splits);
  EXPECT_GT(c1.executed - c0.executed, 0u);
  EXPECT_LT(c1.executed - c0.executed, c1.events - c0.events);
  EXPECT_GT(c1.splits - c0.splits, 0u);
}

TEST(ObsByteIdentity, OptimizeOutputsAreIdentical) {
  opt::OptimizeSpec spec;
  spec.sweep = small_spec().sweep;
  spec.sweep.scenarios_per_point = 4;
  const std::uint64_t n = spec.sweep.total_scenarios();
  std::string off_csv, off_json, on_csv, on_json;
  // Optimize runs attribute their bisections to runner.analyze.
  const StageSpans spans0 = stage_spans();
  {
    const ObsFlagsGuard flags(false, false);
    engine::SweepRunner runner(2);
    const opt::OptimizeTable table =
        opt::aggregate_optimize(spec, opt::run_optimize(runner, spec, nullptr));
    off_csv = table.to_csv();
    off_json = table.to_json();
  }
  EXPECT_EQ(stage_spans(), spans0);
  {
    const ObsFlagsGuard flags(true, true);
    engine::SweepRunner runner(2);
    const opt::OptimizeTable table =
        opt::aggregate_optimize(spec, opt::run_optimize(runner, spec, nullptr));
    on_csv = table.to_csv();
    on_json = table.to_json();
  }
  EXPECT_EQ(stage_spans(), plus(spans0, n, n, 0));
  EXPECT_EQ(off_csv, on_csv);
  EXPECT_EQ(off_json, on_json);
}

/// The optimizer's counters, as they stand.
std::vector<std::uint64_t> opt_counts() {
  const obs::Snapshot s = obs::Registry::global().snapshot();
  std::vector<std::uint64_t> out;
  for (const char* name :
       {"opt.bisections", "opt.probes.breakdown", "opt.probes.ttr", "opt.probes.dratio",
        "opt.master_verdicts.analysed", "opt.master_verdicts.analysed_dratio",
        "opt.master_verdicts.decided"}) {
    out.push_back(s.counter(name));
  }
  return out;
}

std::vector<std::uint64_t> minus(const std::vector<std::uint64_t>& a,
                                 const std::vector<std::uint64_t>& b) {
  std::vector<std::uint64_t> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

TEST(ObsByteIdentity, OptimizeCountersRepeatAcrossThreadsAndShards) {
  // Each (scenario, policy)'s probes and master verdicts depend on that cell
  // alone, so every opt.* counter sums to the same value on any thread count
  // and any split of the id range into shards.
  opt::OptimizeSpec spec;
  spec.sweep = small_spec().sweep;
  spec.sweep.base.n_masters = 3;
  spec.sweep.policies = {engine::Policy::Fcfs, engine::Policy::Dm, engine::Policy::Edf,
                         engine::Policy::Opa};
  spec.sweep.engine.method = profibus::TcycleMethod::PerMasterRefined;
  const std::uint64_t total = spec.sweep.total_scenarios();
  const auto counted = [&](unsigned threads, std::uint64_t shards) {
    const std::vector<std::uint64_t> before = opt_counts();
    engine::SweepRunner runner(threads);
    for (std::uint64_t k = 0; k < shards; ++k) {
      (void)opt::run_optimize(runner, spec,
                              engine::IdRange{total * k / shards, total * (k + 1) / shards});
    }
    return minus(opt_counts(), before);
  };
  const std::vector<std::uint64_t> one = counted(1, 1);
  EXPECT_EQ(one[0], 3 * total * spec.sweep.policies.size());
  EXPECT_GT(one[4], 0u);  // analysed
  EXPECT_GT(one[6], 0u);  // decided
  EXPECT_EQ(counted(4, 1), one);
  EXPECT_EQ(counted(1, 3), one);
  EXPECT_EQ(counted(4, 5), one);
}

}  // namespace
}  // namespace profisched
