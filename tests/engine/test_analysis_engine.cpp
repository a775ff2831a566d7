// Unit tests for the unified AnalysisEngine front end: memoized results must
// equal the direct analyze_* entry points bit for bit, and the policy wraps
// must agree with the underlying analyses' verdicts.
#include "engine/analysis_engine.hpp"

#include <gtest/gtest.h>

#include "profibus/edf_analysis.hpp"
#include "workload/generators.hpp"
#include "workload/scenarios.hpp"

namespace profisched::engine {
namespace {

using profibus::ApPolicy;
using profibus::NetworkAnalysis;

Scenario scenario_from(profibus::Network net, std::uint64_t id) {
  Scenario sc;
  sc.id = id;
  sc.net = std::move(net);
  return sc;
}

void expect_same_analysis(const NetworkAnalysis& a, const NetworkAnalysis& b) {
  EXPECT_EQ(a.schedulable, b.schedulable);
  EXPECT_EQ(a.tcycle, b.tcycle);
  ASSERT_EQ(a.masters.size(), b.masters.size());
  for (std::size_t k = 0; k < a.masters.size(); ++k) {
    ASSERT_EQ(a.masters[k].streams.size(), b.masters[k].streams.size());
    EXPECT_EQ(a.masters[k].schedulable, b.masters[k].schedulable);
    for (std::size_t i = 0; i < a.masters[k].streams.size(); ++i) {
      EXPECT_EQ(a.masters[k].streams[i].response, b.masters[k].streams[i].response);
      EXPECT_EQ(a.masters[k].streams[i].Q, b.masters[k].streams[i].Q);
      EXPECT_EQ(a.masters[k].streams[i].meets_deadline, b.masters[k].streams[i].meets_deadline);
    }
  }
}

TEST(AnalysisEngine, MemoizedResultsEqualDirectAnalyses) {
  sim::Rng rng(42);
  AnalysisEngine engine;
  for (std::uint64_t s = 0; s < 50; ++s) {
    workload::NetworkParams p;
    p.n_masters = 1 + static_cast<std::size_t>(s % 3);
    p.streams_per_master = 3 + static_cast<std::size_t>(s % 4);
    p.deadline_lo = 0.4;
    p.ttr = 3'000;
    const Scenario sc = scenario_from(workload::random_network(p, rng).net, s);

    expect_same_analysis(engine.analyze(sc, Policy::Fcfs).detail,
                         analyze_fcfs(sc.net));
    expect_same_analysis(engine.analyze(sc, Policy::Dm).detail,
                         analyze_dm(sc.net));
    expect_same_analysis(engine.analyze(sc, Policy::Edf).detail,
                         analyze_edf(sc.net));
  }
}

TEST(AnalysisEngine, TimingMemoIsReusedAcrossPolicies) {
  AnalysisEngine engine;
  const Scenario sc = scenario_from(workload::scenarios::factory_cell(), 7);
  (void)engine.analyze(sc, Policy::Fcfs);
  EXPECT_EQ(engine.memo_misses(), 1u);
  (void)engine.analyze(sc, Policy::Dm);
  (void)engine.analyze(sc, Policy::Edf);
  (void)engine.analyze(sc, Policy::Edf);
  EXPECT_EQ(engine.memo_misses(), 1u);  // one derivation only
  EXPECT_EQ(engine.memo_hits(), 3u);
  (void)engine.verdict(sc, Policy::Opa);  // the verdict dispatch shares the memo
  EXPECT_EQ(engine.memo_hits(), 4u);
  engine.forget(sc.id);
  (void)engine.analyze(sc, Policy::Fcfs);  // forgotten: derived again
  EXPECT_EQ(engine.memo_misses(), 2u);
  EXPECT_EQ(engine.memo_hits(), 4u);
  // The memo holds the scenario last analysed: another one replaces it.
  const Scenario other = scenario_from(workload::scenarios::tight_deadline_mix(), 8);
  (void)engine.analyze(other, Policy::Fcfs);
  (void)engine.analyze(sc, Policy::Fcfs);
  EXPECT_EQ(engine.memo_misses(), 4u);
  EXPECT_EQ(engine.memo_hits(), 4u);
}

TEST(AnalysisEngine, MemoGuardsAgainstIdReuseWithDifferentNetwork) {
  AnalysisEngine engine;
  const Scenario a = scenario_from(workload::scenarios::factory_cell(), 1);
  const Scenario b = scenario_from(workload::scenarios::tight_deadline_mix(), 1);  // same id!
  const Report ra = engine.analyze(a, Policy::Fcfs);
  const Report rb = engine.analyze(b, Policy::Fcfs);
  // b must not be served a's timing: its FCFS verdict is NOT schedulable.
  EXPECT_TRUE(ra.schedulable);
  EXPECT_FALSE(rb.schedulable);
  EXPECT_EQ(rb.detail.tcycle, profibus::t_cycle(b.net));
}

TEST(AnalysisEngine, ReportSummariesMatchDetail) {
  AnalysisEngine engine;
  const Scenario sc = scenario_from(workload::scenarios::tight_deadline_mix(), 3);
  const Report r = engine.analyze(sc, Policy::Fcfs);
  EXPECT_EQ(r.n_streams, 4u);
  EXPECT_EQ(r.streams_meeting, 3u);  // the urgent stream misses under FCFS
  // worst slack = D(urgent) − R(urgent) < 0.
  const Ticks d = sc.net.masters[0].high_streams[0].D;
  const Ticks resp = r.detail.masters[0].streams[0].response;
  EXPECT_EQ(r.worst_slack, d - resp);
  EXPECT_LT(r.worst_slack, 0);
}

TEST(AnalysisEngine, OpaPolicyMatchesAudsley) {
  sim::Rng rng(99);
  AnalysisEngine engine;
  for (std::uint64_t s = 0; s < 30; ++s) {
    workload::NetworkParams p;
    p.n_masters = 1;
    p.streams_per_master = 4;
    p.deadline_lo = 0.3;
    p.t_min = 8'000;
    p.t_max = 60'000;
    p.ttr = 3'000;
    const Scenario sc = scenario_from(workload::random_network(p, rng).net, 100 + s);
    const Report r = engine.analyze(sc, Policy::Opa);
    EXPECT_EQ(r.schedulable, audsley_stream_orders(sc.net).has_value());
  }
}

TEST(AnalysisEngine, TokenRingIsNecessaryForFcfs) {
  sim::Rng rng(7);
  AnalysisEngine engine;
  for (std::uint64_t s = 0; s < 40; ++s) {
    workload::NetworkParams p;
    p.n_masters = 2;
    p.streams_per_master = 3;
    p.deadline_lo = 0.5;
    p.ttr = 2'000;
    const Scenario sc = scenario_from(workload::random_network(p, rng).net, 200 + s);
    const bool token_ok = engine.analyze(sc, Policy::TokenRing).schedulable;
    const bool fcfs_ok = engine.analyze(sc, Policy::Fcfs).schedulable;
    // D >= T_cycle is necessary under any AP policy.
    if (fcfs_ok) EXPECT_TRUE(token_ok);
  }
}

TEST(AnalysisEngine, InvalidNetworksAreRejectedUnderEveryPolicy) {
  AnalysisEngine engine;
  Scenario sc;
  sc.id = 99;
  profibus::Master m;
  m.high_streams.push_back(profibus::MessageStream{});  // Ch = D = T = 0: invalid
  sc.net.masters = {m};
  sc.net.ttr = 0;
  for (const Policy p : {Policy::Fcfs, Policy::Dm, Policy::Edf, Policy::Opa,
                         Policy::TokenRing, Policy::Holistic}) {
    EXPECT_THROW((void)engine.analyze(sc, p), std::invalid_argument)
        << "policy " << to_string(p);
  }
}

TEST(AnalysisEngine, HolisticWrapAcceptsHealthyBaseline) {
  AnalysisEngine engine;
  const Scenario sc = scenario_from(workload::scenarios::factory_cell(), 11);
  const Report r = engine.analyze(sc, Policy::Holistic);
  // factory_cell is schedulable under DM; the derived single-stage
  // transactions (one per stream) must converge and fit too.
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.n_streams, 9u);
}

}  // namespace
}  // namespace profisched::engine
