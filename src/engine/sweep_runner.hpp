// sweep_runner.hpp — fan thousands of generated scenarios across cores.
//
// A sweep is a grid of points (utilization × deadline spread), each point
// holding `scenarios_per_point` independently generated networks, each
// analysed under every requested policy. Scenario generation is keyed ONLY by
// (sweep seed, global scenario index): worker i regenerates scenario j from
// scratch with Rng(scenario_seed(seed, j)), and outcomes land in slot j of a
// pre-sized vector. Results are therefore bit-identical for any thread count
// — the acceptance property tests/engine/test_sweep_runner.cpp locks in.
//
// Every mode's result has one shape: per scenario an Outcome<Cell>, the row
// header plus one cell per policy, where Cell is the mode's cell type (the
// one its codec writes as a cache record and an artifact-row cell). The same
// machinery drives every backend over one scenario range. One driver,
// detail::run_cells (engine/detail/record.hpp), owns the per-scenario
// skeleton on the pool's ranged core (run_scenarios): the range check,
// generation, the cache digest, the outcome header and the stage timer. It
// fills a scenario's cells through detail::cached_cells, which looks up every
// policy's cell when there is a cache and computes all the misses in one
// call. A mode supplies only its cell codec, its per-policy params digests
// and that compute body. The simulation modes use the one call to simulate
// the missing policies as one group run per replication, which forks only
// where their dispatch differs (SimulationEngine::simulate). Every entry
// point takes an optional IdRange — the full-sweep overloads are thin
// wrappers passing [0, total):
//   run()          — analysis only (AnalysisEngine);
//   run_sim()      — simulation only (SimulationEngine, replicated runs with
//                    (seed, scenario, replication)-keyed RNG streams, one
//                    group run per replication for all the policies);
//   run_combined() — both on the SAME generated scenarios, joining each
//                    analytic verdict/bound with the observed simulation
//                    behaviour (the analysis-vs-simulation acceptance data);
//   opt::run_optimize() (src/opt/) — per-scenario parameter synthesis,
//                    through the same driver from outside this header.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "engine/analysis_engine.hpp"
#include "engine/scenario.hpp"
#include "engine/simulation_engine.hpp"
#include "engine/thread_pool.hpp"
#include "workload/generators.hpp"

namespace profisched::engine {

/// A contiguous range of global scenario ids, [begin, end). The distributed
/// subsystem (src/dist/) carves a sweep into these; a default-constructed
/// range is empty.
struct IdRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  ///< exclusive

  [[nodiscard]] std::uint64_t size() const noexcept { return end - begin; }
};

/// Content address of one cached (scenario, policy, options) result:
/// `scenario` is canonical_hash(Scenario), `params` digests the record kind,
/// policy and every option that shapes the result. 128 bits total so sweeps
/// with many millions of entries stay far from birthday-collision territory.
struct CacheKey {
  std::uint64_t scenario = 0;
  std::uint64_t params = 0;
};

/// Hook the SweepRunner consults per (scenario, policy): load() returns true
/// and fills `payload` on a hit; store() persists a payload computed on a
/// miss. Implementations must be safe to call from every worker thread
/// concurrently, and must treat payloads as opaque bytes (the format is each
/// mode's cell codec, engine/detail/record.hpp). The on-disk implementation is
/// dist::ResultCache.
class ScenarioCache {
 public:
  virtual ~ScenarioCache() = default;
  virtual bool load(const CacheKey& key, std::string& payload) = 0;
  virtual void store(const CacheKey& key, const std::string& payload) = 0;
};

/// One grid point of a sweep: one coordinate of the u × beta × masters cross
/// product. A sweep whose points all leave n_masters at 0 is a classic
/// single-structure grid (u and/or beta only) — exactly the pre-multi-axis
/// shape, which the serialized formats keep emitting unchanged.
struct SweepPoint {
  double total_u = 0.0;  ///< UUniFast target utilization (0 = period-driven)
  double beta_lo = 1.0;  ///< deadlines drawn in [beta_lo·T, beta_hi·T]
  double beta_hi = 1.0;
  /// Ring-size axis: masters this point's networks are generated with.
  /// 0 = inherit SweepSpec::base.n_masters (no masters axis).
  std::size_t n_masters = 0;
};

/// True when `points` spans more than the classic u-grid: any explicit
/// per-point ring size, or a deadline-ratio (beta) spread that varies across
/// points. The serialized result formats switch to their extended axis
/// columns exactly when this holds, so single-axis sweeps stay byte-identical
/// to the historical goldens.
[[nodiscard]] bool has_multi_axis(const std::vector<SweepPoint>& points);

/// Everything that defines a sweep. `base` supplies the structural knobs
/// (masters, streams, frame sizes, T_TR mode, per-master load split); each
/// point overrides the utilization / deadline-spread / ring-size axes.
struct SweepSpec {
  workload::NetworkParams base;
  std::vector<SweepPoint> points;
  std::size_t scenarios_per_point = 100;
  std::vector<Policy> policies{Policy::Fcfs, Policy::Dm, Policy::Edf};
  std::uint64_t seed = 1;
  EngineOptions engine;

  [[nodiscard]] std::size_t total_scenarios() const noexcept {
    return points.size() * scenarios_per_point;
  }
};

/// Throws std::out_of_range unless range.begin <= range.end <= total: every
/// mode checks its range before it sizes its outcomes.
void validate_range(IdRange range, std::uint64_t total);

/// The spec check every engine mode shares: throws std::invalid_argument,
/// naming `what`, unless `sweep` has >= 1 point, >= 1 scenario per point and
/// >= 1 policy, each of which `admits`.
void validate_sweep(const SweepSpec& sweep, bool (*admits)(Policy), const char* what);

/// Run-wide bookkeeping every mode's result carries: wall clock plus
/// memo/cache counters. None of it is part of the deterministic data — the
/// outcome vectors alone define a run's identity.
struct RunStats {
  double elapsed_s = 0.0;      ///< wall clock
  std::size_t memo_hits = 0;   ///< timing-memo reuse across policies
  std::size_t memo_misses = 0;
  std::size_t cache_hits = 0;    ///< result-cache lookups served (0 without a cache)
  std::size_t cache_misses = 0;  ///< result-cache lookups recomputed
};

/// Analysis cell (run): the scenario's T_cycle and the policy's verdict, in
/// one word, since a sweep holds one per (scenario, policy). T_cycle keeps 63
/// bits: every spec dist::validate_spec admits stays far below 2^62 (T_TR <=
/// kMaxTtr = 10^15 plus T_del), and run() refuses a T_cycle that would not
/// fit.
struct AnalysisCell {
  Ticks tcycle : 63 = 0;
  bool schedulable : 1 = false;
};
static_assert(sizeof(AnalysisCell) == sizeof(Ticks));

/// Simulation cell (run_sim): one policy's summary across the replications,
/// and the horizon each replication simulated. `dropped` counts cycles
/// abandoned after exhausting retries (FrameLevel model with slave failures),
/// apart from misses: a dropped request never completes, so it records no
/// response time, and undelivered traffic must not read as miss-free.
struct SimCell : SimSummary {
  Ticks horizon = 0;
};

/// Combined cell (run_combined): one policy's simulation joined with its
/// analysis.
struct CombinedCell {
  SimCell sim;
  /// Always the CLEAN (fault-free) analysis — under faults it retains the
  /// steady-state verdict so the degraded columns can be read against it.
  bool analytic_schedulable = false;
  /// Max over streams of the analytic response bound; kNoBound when any
  /// stream's iteration diverged.
  Ticks analytic_wcrt = 0;
  /// Streams whose observed max response exceeded their (bounded) reference
  /// response bound — a correct analysis keeps this identically 0. The
  /// reference is the clean analysis for fault-free sweeps and the DEGRADED
  /// analysis (profibus/fault_bounds.hpp) when the spec injects faults: a
  /// faulted sim may legitimately exceed steady-state bounds, but never the
  /// degraded ones.
  std::uint64_t bound_violations = 0;
  /// Degraded-mode verdict/bound; set only when the sweep's FaultModel is
  /// active (and then the acceptance the must-never-fire miss check uses).
  bool degraded_schedulable = false;
  Ticks degraded_wcrt = 0;
};

/// Per-scenario result of every mode: the row header (id, seed, point) and
/// one cell per requested policy, indexed like SweepSpec::policies. The cell
/// type is the mode's codec cell (engine/detail/record.hpp), so a cache
/// record and an artifact row hold exactly what the outcome holds.
template <class Cell>
struct Outcome {
  std::uint64_t id = 0;
  std::uint64_t seed = 0;
  std::size_t point = 0;  ///< index into SweepSpec::points
  std::vector<Cell> cells;
};

/// A range's result. `outcomes` is indexed by global scenario id (minus the
/// range's begin for a ranged run), so its content is independent of thread
/// count and scheduling order.
template <class Cell>
struct Result : RunStats {
  std::vector<Outcome<Cell>> outcomes;
};

using ScenarioOutcome = Outcome<AnalysisCell>;
using SweepResult = Result<AnalysisCell>;
using SimScenarioOutcome = Outcome<SimCell>;
/// Simulation sweeps never touch the analysis memo, so memo_hits/misses stay
/// 0.
using SimSweepResult = Result<SimCell>;
using CombinedOutcome = Outcome<CombinedCell>;
/// consistency_table (engine/sim_aggregate.hpp) joins it with its spec and
/// counts the consistency violations.
using CombinedResult = Result<CombinedCell>;

/// A sweep whose scenarios are simulated instead of (or as well as) analysed.
/// `sweep` supplies the grid / policies / seed; the policies must be distinct
/// and each must satisfy SimulationEngine::simulable.
struct SimSweepSpec {
  SweepSpec sweep;
  SimOptions sim;
  /// Simulation runs per (scenario, policy): replication 0 is the synchronous
  /// release pattern, further replications draw random per-stream phases.
  std::size_t replications = 1;
};

class SweepRunner {
 public:
  /// `threads` = 0 picks ThreadPool::default_threads().
  explicit SweepRunner(unsigned threads = 0);

  /// Deterministic seed for one scenario: depends only on the sweep seed and
  /// the global scenario index.
  [[nodiscard]] static std::uint64_t scenario_seed(std::uint64_t sweep_seed, std::uint64_t id);

  /// Regenerate scenario `id` of the sweep (id in [0, total_scenarios())).
  [[nodiscard]] static Scenario make_scenario(const SweepSpec& spec, std::uint64_t id);

  /// Per-scenario worker callback for run_scenarios: global scenario id, the
  /// outcome slot it must write (id - range.begin), and the worker slot
  /// (index into any per-worker state such as engine vectors).
  using ScenarioFn = std::function<void(std::uint64_t id, std::size_t slot, unsigned worker)>;

  /// The one ranged execution core every mode shares: validates `range`
  /// against `total` (validate_range), fans fn(id, slot, worker) across the
  /// pool for each id in [range.begin, range.end), captures the first worker
  /// exception and rethrows it on the calling thread after the pool drains,
  /// and records the wall clock in `stats`. Callers size their outcome
  /// vector to range.size() beforehand and write only their own slot — that
  /// (plus index-keyed generation) is the whole thread-count-invariance
  /// argument. Public so detail::run_cells, a template outside the class,
  /// can drive it.
  void run_scenarios(std::uint64_t total, IdRange range, RunStats& stats,
                     const ScenarioFn& fn);

  /// Analyse the scenarios with ids in `range` (a shard of the sweep).
  /// Outcomes land at slot id - range.begin; their content is exactly what
  /// the same slots of a [0, total) run would hold, which is what makes
  /// shard execution mergeable back into the single-process result
  /// (src/dist/). With a cache, each (scenario, policy) result is looked up
  /// by content address first and only misses are computed (and stored) —
  /// the outcomes are bit-identical either way.
  [[nodiscard]] SweepResult run(const SweepSpec& spec, IdRange range,
                                ScenarioCache* cache = nullptr);

  /// Whole-sweep wrapper: run over [0, total_scenarios()).
  [[nodiscard]] SweepResult run(const SweepSpec& spec, ScenarioCache* cache = nullptr);

  /// Simulate the ranged scenarios under every policy × `replications`, the
  /// policies of one replication as one group run. Outcomes are bit-identical
  /// for any thread count (generation and RNG streams are index-keyed) and to
  /// per-policy runs.
  [[nodiscard]] SimSweepResult run_sim(const SimSweepSpec& spec, IdRange range,
                                       ScenarioCache* cache = nullptr);

  /// Whole-sweep wrapper: run_sim over [0, total_scenarios()).
  [[nodiscard]] SimSweepResult run_sim(const SimSweepSpec& spec, ScenarioCache* cache = nullptr);

  /// Analyse AND simulate the ranged scenarios, joining verdicts per policy.
  [[nodiscard]] CombinedResult run_combined(const SimSweepSpec& spec, IdRange range,
                                            ScenarioCache* cache = nullptr);

  /// Whole-sweep wrapper: run_combined over [0, total_scenarios()).
  [[nodiscard]] CombinedResult run_combined(const SimSweepSpec& spec,
                                            ScenarioCache* cache = nullptr);

  [[nodiscard]] unsigned threads() const noexcept;

 private:
  ThreadPool pool_;
};

}  // namespace profisched::engine
