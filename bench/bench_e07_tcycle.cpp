// E7 (§3.3, eqs. 13–14): token-cycle-time analysis. T_del grows linearly in
// the ring's longest cycles; T_cycle = T_TR + T_del upper-bounds every
// observed token rotation in the simulator — including under saturating
// low-priority load, which is what causes the T_TH overruns that create the
// lateness in the first place.
#include "common.hpp"

#include "profibus/token_ring_analysis.hpp"
#include "sim/network_sim.hpp"
#include "workload/generators.hpp"

namespace {

using namespace profisched;
using namespace profisched::profibus;
using bench::Table;

Network make_ring(std::size_t n_masters, Ticks ttr) {
  Network net;
  net.ttr = ttr;
  for (std::size_t k = 0; k < n_masters; ++k) {
    Master m;
    m.name = "m" + std::to_string(k);
    m.high_streams = {
        MessageStream{.Ch = 500, .D = 1'000'000, .T = 50'000, .J = 0, .name = "hp"},
    };
    m.longest_low_cycle = 800;
    net.masters.push_back(std::move(m));
  }
  return net;
}

void run_experiment() {
  bench::banner("E7", "T_del / T_cycle vs ring size, with simulator validation (eqs. 13-14)");

  std::printf("\nAnalytic bounds and observed max token rotation (T_TR = 20'000,\n"
              "saturating LP load, synchronous HP traffic, 8 s simulated):\n");
  Table t({"masters", "T_del", "T_cycle eq.14", "T_cycle refined(max)", "sim max TRR",
           "sim/bound", "TTH overruns"});
  for (const std::size_t n : {2u, 4u, 8u, 16u, 32u}) {
    const Network net = make_ring(n, 20'000);
    const Ticks tdel = t_del(net);
    const Ticks tcycle = t_cycle(net);
    const std::vector<Ticks> refined =
      compute_timing(net, TcycleMethod::PerMasterRefined).per_master;
    const Ticks refined_max = *std::max_element(refined.begin(), refined.end());

    sim::SimConfig cfg;
    cfg.net = net;
    cfg.horizon = 4'000'000;
    cfg.lp_traffic.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      cfg.lp_traffic[k].push_back(sim::LpTraffic{.period = 2'000, .cycle_len = 800, .phase = 0});
    }
    const sim::SimReport r = sim::simulate(cfg);
    Ticks max_trr = 0;
    std::uint64_t overruns = 0;
    for (std::size_t k = 0; k < n; ++k) {
      max_trr = std::max(max_trr, r.token[k].max_trr);
      overruns += r.token[k].tth_overruns;
    }
    t.row({std::to_string(n), bench::fmt_t(tdel), bench::fmt_t(tcycle),
           bench::fmt_t(refined_max),
           bench::fmt_t(max_trr),
           bench::fmt(static_cast<double>(max_trr) / static_cast<double>(tcycle)),
           std::to_string(overruns)});
  }
  t.print();

  std::printf("\nT_cycle as a function of T_TR (4 masters):\n");
  Table s({"T_TR", "T_cycle", "sim max TRR", "sim/bound"});
  for (const Ticks ttr : {2'000, 5'000, 10'000, 40'000}) {
    const Network net = make_ring(4, ttr);
    sim::SimConfig cfg;
    cfg.net = net;
    cfg.horizon = 4'000'000;
    cfg.lp_traffic.assign(4, {sim::LpTraffic{.period = 2'000, .cycle_len = 800, .phase = 0}});
    const sim::SimReport r = sim::simulate(cfg);
    Ticks max_trr = 0;
    for (const auto& tok : r.token) max_trr = std::max(max_trr, tok.max_trr);
    s.row({bench::fmt_t(ttr), bench::fmt_t(t_cycle(net)), bench::fmt_t(max_trr),
           bench::fmt(static_cast<double>(max_trr) / static_cast<double>(t_cycle(net)))});
  }
  s.print();
  std::printf("\nExpected shape: T_del linear in ring size; sim/bound <= 1 everywhere and\n"
              "approaching 1 under load (the bound is tight up to phasing artifacts);\n"
              "refined per-master T_cycle never exceeds the uniform eq.-14 value.\n");
}

void BM_Simulate8Masters(benchmark::State& state) {
  const Network net = make_ring(8, 20'000);
  for (auto _ : state) {
    sim::SimConfig cfg;
    cfg.net = net;
    cfg.horizon = 1'000'000;
    benchmark::DoNotOptimize(sim::simulate(cfg).events);
  }
}
BENCHMARK(BM_Simulate8Masters)->Unit(benchmark::kMillisecond);

}  // namespace

BENCH_MAIN(run_experiment)
