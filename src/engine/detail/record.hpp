// record.hpp — the cell codecs. A cell is one (scenario, policy) result of one
// mode, and the cells of a scenario are its Outcome (engine/sweep_runner.hpp).
// A codec writes a cell as space-separated numbers. The same bytes serve
// twice: behind the codec's tag they are a result-cache record
// (dist::ResultCache), and one per policy they make up a shard-artifact row
// (dist/shard.cpp), so the two formats cannot drift apart. Every field is an
// integer except the optimizer's breakdown_u, which is written in shortest
// round-trip form, so decode(encode(x)) == x exactly. Decoding is strict and
// all-or-nothing: a wrong tag, a malformed field, trailing bytes or any bytes
// other than the ones encode writes for the decoded cell (a leading zero,
// "-0", a doubled space) read as "no cell", which the cache treats as a miss
// and the artifact reader as corruption.
//
// A codec provides: `Cell` (the mode's cell type), its `tag`, put/get (the
// fields), fits(sc, c) and agree(a, b). The last two check the per-scenario
// fact a cell carries, if any: a cached cell that does not fit its scenario is
// a miss, and an artifact row whose cells do not agree is refused; a codec
// whose cells carry no such fact returns true. Bump a tag whenever its bytes
// change: stale cache entries then miss cleanly.
//
// run_cells, at the end, is the per-scenario skeleton every mode runs: a mode
// brings only its codec, its params digests and the body that computes its
// missing cells.
#pragma once

#include <charconv>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "engine/detail/hash.hpp"
#include "engine/detail/serialize.hpp"
#include "engine/sweep_runner.hpp"
#include "obs/metrics.hpp"

namespace profisched::engine::detail {

/// Strict reader over space-separated fields.
class RecordReader {
 public:
  explicit RecordReader(const std::string& text) : text_(text) {}

  bool tag(const char* expected) {
    const std::size_t end = token_end();
    if (text_.compare(pos_, end - pos_, expected) != 0) return false;
    advance(end);
    return true;
  }

  /// One integer or double field (std::from_chars: full token, no locale).
  template <class T>
  bool read(T& v) {
    const std::size_t end = token_end();
    const auto [ptr, ec] = std::from_chars(text_.data() + pos_, text_.data() + end, v);
    if (ec != std::errc{} || ptr != text_.data() + end || end == pos_) return false;
    advance(end);
    return true;
  }

  /// A 0/1 field.
  bool flag(bool& v) {
    unsigned bit = 2;
    if (!read(bit) || bit > 1) return false;
    v = bit == 1;
    return true;
  }

  [[nodiscard]] bool done() const noexcept { return pos_ >= text_.size(); }

 private:
  [[nodiscard]] std::size_t token_end() const {
    std::size_t end = pos_;
    while (end < text_.size() && text_[end] != ' ') ++end;
    return end;
  }
  void advance(std::size_t end) { pos_ = end < text_.size() ? end + 1 : end; }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Append one field: integers in decimal, doubles in shortest round-trip form.
template <class T>
void field(std::string& out, T v) {
  out += ' ';
  if constexpr (std::is_floating_point_v<T>) {
    out += fmt_double_exact(v);
  } else {
    out += std::to_string(v);
  }
}

/// Analysis cells. T_cycle is the scenario's, so a row's cells agree on it.
struct AnalysisCells {
  using Cell = AnalysisCell;
  static constexpr const char* tag = "a2";

  static void put(std::string& out, const Cell& c) {
    field(out, c.tcycle);
    field(out, c.schedulable);
  }
  static bool get(RecordReader& r, Cell& c) {
    Ticks tcycle = 0;
    bool schedulable = false;
    if (!r.read(tcycle) || !r.flag(schedulable)) return false;
    c = {tcycle, schedulable};  // a T_cycle that does not fit fails the re-encode
    return true;
  }
  static bool fits(const Scenario&, const Cell&) { return true; }
  static bool agree(const Cell& a, const Cell& b) { return a.tcycle == b.tcycle; }
};

/// Simulation cells: the horizon, then the replications' summary. The
/// horizon is a pure function of (scenario, options): a cached cell whose
/// horizon is not the scenario's is a corrupted or colliding entry, and a
/// row's cells agree on it.
struct SimCells {
  using Cell = SimCell;
  static constexpr const char* tag = "s1";
  /// The engine the cells are simulated under. Only fits() reads it, so an
  /// artifact reader leaves it null.
  const SimulationEngine* engine = nullptr;

  static void put(std::string& out, const Cell& c) {
    field(out, c.horizon);
    field(out, c.observed_max);
    field(out, c.observed_p99);
    field(out, c.released);
    field(out, c.completed);
    field(out, c.misses);
    field(out, c.dropped);
  }
  static bool get(RecordReader& r, Cell& c) {
    return r.read(c.horizon) && r.read(c.observed_max) && r.read(c.observed_p99) &&
           r.read(c.released) && r.read(c.completed) && r.read(c.misses) && r.read(c.dropped);
  }
  bool fits(const Scenario& sc, const Cell& c) const {
    return c.horizon == engine->horizon_for(sc);
  }
  static bool agree(const Cell& a, const Cell& b) { return a.horizon == b.horizon; }
};

/// Combined cells: the simulation cell, then the clean analysis verdict/bound
/// and the bound violations, then (fault axis only) the degraded
/// verdict/bound. The simulation cell's checks are theirs.
struct CombinedCells {
  using Cell = CombinedCell;
  static constexpr const char* tag = "c3";
  bool faulted = false;  ///< the spec injects faults: the degraded fields exist
  const SimulationEngine* engine = nullptr;  ///< as SimCells::engine

  void put(std::string& out, const Cell& c) const {
    SimCells::put(out, c.sim);
    field(out, c.analytic_schedulable);
    field(out, c.analytic_wcrt);
    field(out, c.bound_violations);
    if (faulted) {
      field(out, c.degraded_schedulable);
      field(out, c.degraded_wcrt);
    }
  }
  bool get(RecordReader& r, Cell& c) const {
    return SimCells::get(r, c.sim) && r.flag(c.analytic_schedulable) &&
           r.read(c.analytic_wcrt) && r.read(c.bound_violations) &&
           (!faulted || (r.flag(c.degraded_schedulable) && r.read(c.degraded_wcrt)));
  }
  bool fits(const Scenario& sc, const Cell& c) const { return SimCells{engine}.fits(sc, c.sim); }
  static bool agree(const Cell& a, const Cell& b) { return SimCells::agree(a.sim, b.sim); }
};

/// Result-cache record of one cell: the codec's tag, then the cell.
template <class Codec>
std::string encode_record(const Codec& codec, const typename Codec::Cell& c) {
  std::string out = codec.tag;
  codec.put(out, c);
  return out;
}

template <class Codec>
bool decode_record(const Codec& codec, const std::string& payload, typename Codec::Cell& c) {
  RecordReader r(payload);
  return r.tag(codec.tag) && codec.get(r, c) && r.done() && encode_record(codec, c) == payload;
}

/// The record-level `cache.*` series: an undecodable or contradicting entry
/// counts as the recompute it is.
struct CacheCounters {
  obs::Counter lookups = obs::Registry::global().counter("cache.lookups");
  obs::Counter hits = obs::Registry::global().counter("cache.hits");
  obs::Counter misses = obs::Registry::global().counter("cache.misses");
};

inline CacheCounters& cache_counters() {
  static CacheCounters m;
  return m;
}

/// The cache sequence every mode runs per scenario, filling `cells` with one
/// cell per policy. It looks up every policy's cell under
/// CacheKey{content, params[p]}, decoding each record and counting the hit;
/// a record that fails to decode or does not fit `sc` counts as the miss it
/// is. Then one call, compute(missing), computes all the misses: `missing`
/// holds their policy indices ascending, and compute returns their cells in
/// that order, so a mode can share work across its missing policies. The
/// computed cells are stored in policy order. Without a cache every cell is
/// computed and nothing counted.
template <class Codec, class Compute>
void cached_cells(const Codec& codec, ScenarioCache* cache, const Scenario& sc,
                  std::uint64_t content, const std::vector<std::uint64_t>& params,
                  std::vector<typename Codec::Cell>& cells, Compute&& compute) {
  cells.resize(params.size());
  std::vector<std::size_t> missing;
  CacheCounters& m = cache_counters();
  for (std::size_t p = 0; p < params.size(); ++p) {
    if (cache != nullptr) {
      m.lookups.add(1);
      std::string payload;
      if (cache->load(CacheKey{content, params[p]}, payload) &&
          decode_record(codec, payload, cells[p]) && codec.fits(sc, cells[p])) {
        m.hits.add(1);
        continue;
      }
      m.misses.add(1);
    }
    missing.push_back(p);
  }
  if (missing.empty()) return;
  std::vector<typename Codec::Cell> computed = compute(missing);
  for (std::size_t j = 0; j < missing.size(); ++j) {
    typename Codec::Cell& c = cells[missing[j]];
    c = std::move(computed[j]);
    if (cache != nullptr) {
      cache->store(CacheKey{content, params[missing[j]]}, encode_record(codec, c));
    }
  }
}

/// The runner's per-scenario stage timers.
struct StageTimers {
  obs::Timer generate = obs::Registry::global().timer("runner.generate");
  obs::Timer analyze = obs::Registry::global().timer("runner.analyze");
  obs::Timer simulate = obs::Registry::global().timer("runner.simulate");
};

inline StageTimers& stage_timers() {
  static StageTimers t;
  return t;
}

/// Scenario half of a cache key: canonical_hash(sc). Simulation outcomes also
/// depend on the RNG seed the replication streams derive from, and
/// equal-content scenarios with different seeds occur in real sweeps, so
/// `seeded` (simulation-backed) records fold sc.seed in.
inline std::uint64_t content_digest(const Scenario& sc, bool seeded) {
  const std::uint64_t content = canonical_hash(sc);
  return seeded ? Fnv1a64().u64(content).u64(sc.seed).digest() : content;
}

/// The per-scenario skeleton of every mode, over the scenarios of `sweep`
/// with ids in `range`. It checks the range before sizing out.outcomes, then
/// per scenario: regenerates it under runner.generate, digests its content
/// (content_digest) and writes the outcome header; then, under `stage` (an
/// empty Timer for a body that times itself), fills the outcome's cells
/// through cached_cells, whose misses compute(sc, missing, worker) computes.
/// digest(policy) is the params half of that policy's cache key.
template <class Codec, class Digest, class Compute>
void run_cells(SweepRunner& runner, const SweepSpec& sweep, IdRange range, ScenarioCache* cache,
               const Codec& codec, Digest&& digest, bool seeded, obs::Timer stage,
               Result<typename Codec::Cell>& out, Compute&& compute) {
  validate_range(range, sweep.total_scenarios());
  out.outcomes.resize(static_cast<std::size_t>(range.size()));
  std::vector<std::uint64_t> params;  // loop-invariant: hashed once
  for (const Policy p : sweep.policies) params.push_back(digest(p));
  const StageTimers& t = stage_timers();

  const auto per_scenario = [&](std::uint64_t id, std::size_t i, unsigned worker) {
    obs::Span gen_span(t.generate);
    const Scenario sc = SweepRunner::make_scenario(sweep, id);
    const std::uint64_t content = cache != nullptr ? content_digest(sc, seeded) : 0;
    gen_span.stop();
    const obs::Span stage_span(stage);

    Outcome<typename Codec::Cell>& o = out.outcomes[i];  // disjoint slot per index
    o.id = sc.id;
    o.seed = sc.seed;
    o.point = static_cast<std::size_t>(id) / sweep.scenarios_per_point;
    cached_cells(codec, cache, sc, content, params, o.cells,
                 [&](const std::vector<std::size_t>& missing) {
                   return compute(sc, missing, worker);
                 });
  };
  runner.run_scenarios(sweep.total_scenarios(), range, out, per_scenario);
}

}  // namespace profisched::engine::detail
