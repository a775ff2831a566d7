// The observability layer's core guarantee: turning on --metrics/--progress
// instrumentation changes ZERO bytes of any primary artifact. Each test runs
// the same small sweep with telemetry off and fully on (timed spans + the
// progress heartbeat) and compares the serialized outputs byte-for-byte,
// across every engine backend (analysis, sim, combined, optimize).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

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
  std::string off_csv, off_json, on_csv, on_json;
  {
    const ObsFlagsGuard flags(false, false);
    engine::SweepRunner runner(2);
    const engine::SweepCurves curves =
        engine::aggregate(spec.sweep, runner.run(spec.sweep, nullptr));
    off_csv = curves.to_csv();
    off_json = curves.to_json();
  }
  {
    const ObsFlagsGuard flags(true, true);
    engine::SweepRunner runner(2);
    const engine::SweepCurves curves =
        engine::aggregate(spec.sweep, runner.run(spec.sweep, nullptr));
    on_csv = curves.to_csv();
    on_json = curves.to_json();
  }
  EXPECT_EQ(off_csv, on_csv);
  EXPECT_EQ(off_json, on_json);
}

TEST(ObsByteIdentity, SimSweepOutputsAreIdentical) {
  const engine::SimSweepSpec spec = small_spec();
  std::string off_csv, on_csv;
  {
    const ObsFlagsGuard flags(false, false);
    engine::SweepRunner runner(2);
    off_csv = engine::aggregate_sim(spec, runner.run_sim(spec, nullptr)).to_csv();
  }
  {
    const ObsFlagsGuard flags(true, true);
    engine::SweepRunner runner(2);
    on_csv = engine::aggregate_sim(spec, runner.run_sim(spec, nullptr)).to_csv();
  }
  EXPECT_EQ(off_csv, on_csv);
}

TEST(ObsByteIdentity, CombinedSweepOutputsAreIdentical) {
  engine::SimSweepSpec spec = small_spec();
  spec.sim.faults.token_loss_prob = 0.02;  // exercise the fault bridge too
  spec.sim.faults.token_recovery = 600;
  std::string off_csv, on_csv;
  {
    const ObsFlagsGuard flags(false, false);
    engine::SweepRunner runner(2);
    off_csv = engine::consistency_table(spec, runner.run_combined(spec, nullptr)).to_csv();
  }
  {
    const ObsFlagsGuard flags(true, true);
    engine::SweepRunner runner(2);
    on_csv = engine::consistency_table(spec, runner.run_combined(spec, nullptr)).to_csv();
  }
  EXPECT_EQ(off_csv, on_csv);
}

/// Spans recorded so far by the runner.generate and runner.analyze timers.
std::uint64_t stage_spans() {
  const obs::Snapshot s = obs::Registry::global().snapshot();
  return s.timer("runner.generate").count + s.timer("runner.analyze").count;
}

TEST(ObsByteIdentity, OptimizeOutputsAreIdentical) {
  opt::OptimizeSpec spec;
  spec.sweep = small_spec().sweep;
  spec.sweep.scenarios_per_point = 4;
  std::string off_csv, off_json, on_csv, on_json;
  // Optimize runs attribute their time to the runner's stage timers, one
  // generate and one analyze span per scenario, and only with telemetry on.
  const std::uint64_t spans0 = stage_spans();
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
  EXPECT_EQ(stage_spans(), spans0 + 2 * spec.sweep.total_scenarios());
  EXPECT_EQ(off_csv, on_csv);
  EXPECT_EQ(off_json, on_json);
}

}  // namespace
}  // namespace profisched
