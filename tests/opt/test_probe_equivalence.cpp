// The optimizer's per-master probes against the reference path. run_optimize
// decides each probe master by master: the base, breakdown and T_TR probes
// from each master's T_cycle^k alone, derived from the base network's cycle
// maxima and held in a per-master accept/reject bracket; the D/T probes on
// the mutated network, without a bracket. The reference path,
// optimize_policy(net, optimize_network_test(p, engine), options), builds
// every probe's network and runs engine::network_schedulable on it. This
// suite holds the two to each other under both T_cycle methods:
//  (a) the probe-side per-master T_cycle vector equals compute_timing of the
//      probe's network, and an independent transcription of eqs. 13–14, on
//      generated networks and hand-built edge cases;
//  (b) run_optimize equals the reference field by field on more than 2 000
//      (scenario, policy) cells per method, around U = 1, on single-master
//      networks, 3-stream masters and lane-sized 8- and 12-stream masters;
//  (c) the bracket decides some master verdicts, so fewer masters are
//      analysed than on the reference path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "opt/optimizer.hpp"

namespace profisched::opt {
namespace {

using profibus::CycleMaxima;
using profibus::Network;
using profibus::TcycleMethod;

constexpr TcycleMethod kMethods[] = {TcycleMethod::PaperEq13, TcycleMethod::PerMasterRefined};
constexpr engine::Policy kPolicies[] = {engine::Policy::Fcfs, engine::Policy::Dm,
                                        engine::Policy::Edf, engine::Policy::Opa};

/// Eqs. 13–14 transcribed from the paper on a whole network: the uniform
/// T_TR + Σ_k C_M^k, or per master k the worst lateness over the overrunning
/// master j, C_M^j plus Ch-max of every master strictly between j and k.
std::vector<Ticks> reference_t_cycles(const Network& net, TcycleMethod method) {
  const std::size_t n = net.n_masters();
  Ticks tdel = 0;
  for (const profibus::Master& m : net.masters) tdel = sat_add(tdel, m.longest_cycle());
  std::vector<Ticks> out(n, sat_add(net.ttr, tdel));
  if (method == TcycleMethod::PaperEq13) return out;
  for (std::size_t k = 0; k < n; ++k) {
    Ticks worst = 0;
    for (std::size_t j = 0; j < n; ++j) {
      Ticks lateness = net.masters[j].longest_cycle();
      for (std::size_t m = (j + 1) % n; m != k && m != j; m = (m + 1) % n) {
        lateness = sat_add(lateness, net.masters[m].longest_high_cycle());
      }
      worst = std::max(worst, lateness);
    }
    out[k] = sat_add(net.ttr, worst);
  }
  return out;
}

/// The breakdown probe's T_cycle vector as run_optimize derives it: the
/// base's cycle maxima, scaled, through the shared formula.
std::vector<Ticks> scaled_probe_t_cycles(const Network& net, Ticks q, TcycleMethod method) {
  std::vector<CycleMaxima> maxima = profibus::cycle_maxima(net);
  for (CycleMaxima& m : maxima) m = profibus::scale_cycle_maxima(m, q);
  std::vector<Ticks> out;
  profibus::t_cycle_per_master(net.ttr, maxima, method, out);
  return out;
}

/// The T_TR probe's T_cycle vector as run_optimize derives it.
std::vector<Ticks> ttr_probe_t_cycles(const Network& net, Ticks ttr, TcycleMethod method) {
  std::vector<Ticks> out;
  profibus::t_cycle_per_master(ttr, profibus::cycle_maxima(net), method, out);
  return out;
}

profibus::MessageStream stream(Ticks ch) {
  return profibus::MessageStream{.Ch = ch, .D = 50'000, .T = 50'000, .J = 0, .name = ""};
}

profibus::Master master(std::vector<Ticks> chs, Ticks cl) {
  profibus::Master m;
  for (const Ticks ch : chs) m.high_streams.push_back(stream(ch));
  m.longest_low_cycle = cl;
  return m;
}

Network ring(std::vector<profibus::Master> masters) {
  Network net;
  net.ttr = 3'000;
  net.masters = std::move(masters);
  return net;
}

/// The cases scaled cycle maxima must get right: Cl above every Ch, Cl = 0,
/// a master without streams, Ch small enough to clamp to 1 at small q, and
/// Ch·q past the range of Ticks.
std::vector<Network> edge_networks() {
  constexpr Ticks kHuge = Ticks{1} << 61;
  return {
      ring({master({200, 300}, 900)}),                                     // Cl > max Ch
      ring({master({200, 300}, 0), master({500}, 0)}),                     // Cl = 0
      ring({master({200, 300}, 100), master({}, 400), master({700}, 0)}),  // no streams
      ring({master({}, 0), master({1, 2, 3}, 0)}),                         // Ch clamps to 1
      ring({master({1, 15}, 7), master({2}, 1)}),                          // clamps, Cl rounds up
      ring({master({kHuge, 300}, 100), master({400}, kHuge)}),             // saturating Ch·q
  };
}

TEST(ProbeTcycle, EqualsComputeTimingOfTheProbeNetwork) {
  std::vector<Network> nets = edge_networks();
  for (const std::size_t masters : {1, 2, 3, 5}) {
    engine::SweepSpec spec;
    spec.base.n_masters = masters;
    spec.base.streams_per_master = 4;
    spec.base.ttr = 3'000;
    spec.points = {{.total_u = 0.4}, {.total_u = 0.9}};
    spec.scenarios_per_point = 10;
    spec.seed = 61 + masters;
    for (std::uint64_t id = 0; id < spec.total_scenarios(); ++id) {
      nets.push_back(engine::SweepRunner::make_scenario(spec, id).net);
    }
  }
  const Ticks qs[] = {1, 7, 64, 100, 333, 1'000, 1'023, 1'024, 1'025, 2'047, 5'000, 16'384,
                      1'000'000};
  std::size_t checked = 0, clamped = 0, saturated = 0;
  for (const Network& net : nets) {
    const Ticks ttrs[] = {net.ring_latency() + 1, net.ttr, net.ttr + 17, 1 << 24};
    for (const TcycleMethod method : kMethods) {
      EXPECT_EQ(profibus::compute_timing(net, method).per_master,
                reference_t_cycles(net, method));
      for (const Ticks q : qs) {
        const Network probe = profibus::with_scaled_frames(net, q);
        const std::vector<Ticks> want = profibus::compute_timing(probe, method).per_master;
        EXPECT_EQ(scaled_probe_t_cycles(net, q, method), want) << "q " << q;
        EXPECT_EQ(reference_t_cycles(probe, method), want) << "q " << q;
        for (std::size_t k = 0; k < net.n_masters(); ++k) {
          EXPECT_EQ(profibus::cycle_maxima(probe)[k].high,
                    profibus::scale_cycle_maxima(profibus::cycle_maxima(net)[k], q).high);
          for (const profibus::MessageStream& s : net.masters[k].high_streams) {
            clamped += sat_mul(s.Ch, q) < sensitivity::kScaleOne;
            saturated += sat_mul(s.Ch, q) == kNoBound;
          }
        }
        ++checked;
      }
      for (const Ticks ttr : ttrs) {
        const std::vector<Ticks> want =
            profibus::compute_timing(profibus::with_ttr(net, ttr), method).per_master;
        EXPECT_EQ(ttr_probe_t_cycles(net, ttr, method), want) << "ttr " << ttr;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 2'000u);
  EXPECT_GT(clamped, 0u);
  EXPECT_GT(saturated, 0u);
}

/// Every field of two optima, doubles compared exactly.
void expect_same(const PolicyOptimum& got, const PolicyOptimum& want, std::string_view what) {
  EXPECT_EQ(got.schedulable, want.schedulable) << what;
  EXPECT_EQ(got.breakdown_q, want.breakdown_q) << what;
  EXPECT_EQ(got.breakdown_cap, want.breakdown_cap) << what;
  EXPECT_EQ(got.breakdown_u, want.breakdown_u) << what;
  EXPECT_EQ(got.max_ttr, want.max_ttr) << what;
  EXPECT_EQ(got.ttr_cap_hit, want.ttr_cap_hit) << what;
  EXPECT_EQ(got.min_dratio_q, want.min_dratio_q) << what;
  EXPECT_EQ(got.dratio_floor, want.dratio_floor) << what;
}

OptimizeSpec grid(std::size_t masters, std::size_t streams, std::vector<double> us,
                  std::size_t per_point, std::uint64_t seed, double beta_lo = 0.5) {
  OptimizeSpec spec;
  spec.sweep.base.n_masters = masters;
  spec.sweep.base.streams_per_master = streams;
  spec.sweep.base.ttr = 3'000;
  for (const double u : us) spec.sweep.points.push_back({.total_u = u, .beta_lo = beta_lo});
  spec.sweep.scenarios_per_point = per_point;
  spec.sweep.policies.assign(std::begin(kPolicies), std::end(kPolicies));
  spec.sweep.seed = seed;
  return spec;
}

/// What one grid's cells read, and how many of them the reference matched.
struct CellCount {
  std::size_t cells = 0, schedulable = 0, breakdown = 0;
};

/// run_optimize on `spec` against the reference path, cell by cell.
CellCount expect_reference_optima(const OptimizeSpec& spec) {
  engine::SweepRunner runner(2);
  const OptimizeResult got = run_optimize(runner, spec);
  std::vector<profibus::NetworkTest> tests;
  for (const engine::Policy p : spec.sweep.policies) {
    tests.push_back(optimize_network_test(p, spec.sweep.engine));
  }
  CellCount n;
  for (const OptimizeOutcome& o : got.outcomes) {
    const engine::Scenario sc = engine::SweepRunner::make_scenario(spec.sweep, o.id);
    for (std::size_t p = 0; p < tests.size(); ++p) {
      const PolicyOptimum want = optimize_policy(sc.net, tests[p], spec.options);
      expect_same(o.cells[p], want, engine::to_string(spec.sweep.policies[p]));
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "scenario " << o.id << " policy " << p;
        return n;
      }
      ++n.cells;
      n.schedulable += want.schedulable;
      n.breakdown += want.breakdown_q > 0 && !want.breakdown_cap;
    }
  }
  return n;
}

class ProbeEquivalence : public ::testing::TestWithParam<TcycleMethod> {};

TEST_P(ProbeEquivalence, RunOptimizeEqualsTheReferencePath) {
  // At u = 1.0 the base EDF verdict of a 5-stream master scans busy periods
  // of up to seconds each, so exact saturation runs on 3-stream masters.
  std::vector<OptimizeSpec> grids = {
      grid(3, 5, {0.3, 0.6, 0.8, 0.95, 1.05}, 30, 71),  // 600 cells
      grid(1, 5, {0.5, 0.9, 0.95, 1.05}, 40, 72),       // 640 single-master cells
      grid(2, 3, {0.95, 1.0, 1.05}, 40, 73),            // 480 cells, 3 streams
      grid(1, 3, {1.0}, 30, 74),                        // 120 single-master cells at u = 1
      grid(3, 4, {0.7, 0.9}, 20, 75, 0.2),              // 160 cells, tight deadlines
      grid(2, 8, {0.5, 0.8, 0.95}, 10, 76),             // 120 lane-sized cells
      grid(2, 12, {0.5, 0.7}, 6, 77),                   // 48 lane-sized cells
  };
  CellCount total;
  for (OptimizeSpec& spec : grids) {
    spec.sweep.engine.method = GetParam();
    const CellCount n = expect_reference_optima(spec);
    if (HasFailure()) return;
    total.cells += n.cells;
    total.schedulable += n.schedulable;
    total.breakdown += n.breakdown;
  }
  EXPECT_GE(total.cells, 2'000u);
  EXPECT_GT(total.schedulable, 0u);
  EXPECT_LT(total.schedulable, total.cells);
  EXPECT_GT(total.breakdown, 0u);
}

INSTANTIATE_TEST_SUITE_P(Method, ProbeEquivalence, ::testing::ValuesIn(kMethods),
                         [](const ::testing::TestParamInfo<TcycleMethod>& p) {
                           return p.param == TcycleMethod::PaperEq13 ? "Paper" : "Refined";
                         });

/// The optimizer's master-verdict series, as they stand.
struct Verdicts {
  std::uint64_t analysed, analysed_dratio, decided, probes;
};
Verdicts verdicts() {
  const obs::Snapshot s = obs::Registry::global().snapshot();
  return {s.counter("opt.master_verdicts.analysed"),
          s.counter("opt.master_verdicts.analysed_dratio"),
          s.counter("opt.master_verdicts.decided"),
          s.counter("opt.probes.breakdown") + s.counter("opt.probes.ttr") +
              s.counter("opt.probes.dratio")};
}

TEST(ProbeBracket, DecidesMasterVerdictsWithoutAnalysis) {
  for (const TcycleMethod method : kMethods) {
    OptimizeSpec spec = grid(3, 5, {0.35, 0.65, 0.95}, 12, 78);
    spec.sweep.engine.method = method;
    engine::SweepRunner runner(2);
    const Verdicts v0 = verdicts();
    const OptimizeResult got = run_optimize(runner, spec);
    const Verdicts v1 = verdicts();

    // The reference predicate, counting the master analyses its
    // engine::network_schedulable runs: validate, then master by master.
    std::uint64_t reference = 0;
    RtaScratch scratch;
    for (const OptimizeOutcome& o : got.outcomes) {
      const engine::Scenario sc = engine::SweepRunner::make_scenario(spec.sweep, o.id);
      for (std::size_t p = 0; p < spec.sweep.policies.size(); ++p) {
        const engine::Policy policy = spec.sweep.policies[p];
        const profibus::NetworkTest counted = [&](const Network& net) {
          return profibus::all_masters_schedulable(
              net, profibus::compute_timing(net, method), [&](const profibus::Master& m, Ticks tc) {
                ++reference;
                return engine::master_schedulable(m, tc, policy, scratch);
              });
        };
        expect_same(o.cells[p], optimize_policy(sc.net, counted, spec.options), "counted");
      }
    }
    const std::uint64_t analysed = v1.analysed - v0.analysed;
    const std::uint64_t decided = v1.decided - v0.decided;
    EXPECT_GT(decided, 0u);
    EXPECT_LT(analysed, reference);
    // Every probe decides at least one master, and the D/T probes analyse.
    EXPECT_GE(analysed + decided, v1.probes - v0.probes);
    EXPECT_GT(v1.analysed_dratio - v0.analysed_dratio, 0u);
    EXPECT_LE(v1.analysed_dratio - v0.analysed_dratio, analysed);
  }
}

}  // namespace
}  // namespace profisched::opt
