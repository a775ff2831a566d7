// record.hpp — the cell codecs. A cell is one (scenario, policy) result of one
// mode, written as space-separated numbers. The same bytes serve twice:
// behind the codec's tag they are a result-cache record (dist::ResultCache),
// and one per policy they make up a shard-artifact row (dist/shard.cpp), so
// the two formats cannot drift apart. Every field is an integer except the
// optimizer's breakdown_u, which is written in shortest round-trip form, so
// decode(encode(x)) == x exactly. Decoding is strict and all-or-nothing: a
// wrong tag, a malformed field, trailing bytes or any bytes other than the
// ones encode writes for the decoded cell (a leading zero, "-0", a doubled
// space) read as "no cell", which the cache treats as a miss and the
// artifact reader as corruption.
//
// A codec provides: `Cell`, its `tag`, put/get (the fields), cell(o, p) (cell
// p of an outcome) and push(o, c) (append a cell; false, leaving `o`
// untouched, when the cell contradicts the scenario). Bump a tag whenever its
// bytes change: stale cache entries then miss cleanly.
//
// run_cells, at the end, is the per-scenario skeleton every mode runs: a mode
// brings only its codec, its params digests, an optional prepare step and the
// body that computes its missing cells.
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

/// Analysis cell: T_cycle and the verdict.
struct AnalysisCells {
  struct Cell {
    Ticks tcycle = 0;
    bool schedulable = false;
  };
  static constexpr const char* tag = "a2";

  static void put(std::string& out, const Cell& c) {
    field(out, c.tcycle);
    field(out, c.schedulable);
  }
  static bool get(RecordReader& r, Cell& c) { return r.read(c.tcycle) && r.flag(c.schedulable); }
  static Cell cell(const ScenarioOutcome& o, std::size_t p) { return {o.tcycle, o.schedulable[p]}; }
  static bool push(ScenarioOutcome& o, const Cell& c) {
    o.tcycle = c.tcycle;
    o.schedulable.push_back(c.schedulable);
    return true;
  }
};

/// Simulation cell: the horizon and the replications' summary.
struct SimCells {
  struct Cell {
    Ticks horizon = 0;
    SimSummary s;
  };
  static constexpr const char* tag = "s1";

  static void put(std::string& out, const Cell& c) {
    field(out, c.horizon);
    field(out, c.s.observed_max);
    field(out, c.s.observed_p99);
    field(out, c.s.released);
    field(out, c.s.completed);
    field(out, c.s.misses);
    field(out, c.s.dropped);
  }
  static bool get(RecordReader& r, Cell& c) {
    return r.read(c.horizon) && r.read(c.s.observed_max) && r.read(c.s.observed_p99) &&
           r.read(c.s.released) && r.read(c.s.completed) && r.read(c.s.misses) &&
           r.read(c.s.dropped);
  }
  static Cell cell(const SimScenarioOutcome& o, std::size_t p) {
    return {o.horizon, SimSummary{o.observed_max[p], o.observed_p99[p], o.released[p],
                                  o.completed[p], o.misses[p], o.dropped[p]}};
  }
  /// The horizon is a pure function of (scenario, options): a cell whose
  /// horizon disagrees with the scenario's is a corrupted or colliding entry.
  static bool push(SimScenarioOutcome& o, const Cell& c) {
    if (o.horizon != 0 && c.horizon != o.horizon) return false;
    o.horizon = c.horizon;
    o.observed_max.push_back(c.s.observed_max);
    o.observed_p99.push_back(c.s.observed_p99);
    o.released.push_back(c.s.released);
    o.completed.push_back(c.s.completed);
    o.misses.push_back(c.s.misses);
    o.dropped.push_back(c.s.dropped);
    return true;
  }
};

/// Combined cell: the simulation cell, then the clean analysis verdict/bound
/// and the bound violations, then (fault axis only) the degraded verdict/bound.
struct CombinedCells {
  struct Cell {
    SimCells::Cell sim;
    bool analytic_schedulable = false;
    Ticks analytic_wcrt = 0;
    std::uint64_t bound_violations = 0;
    bool degraded_schedulable = false;
    Ticks degraded_wcrt = 0;
  };
  static constexpr const char* tag = "c3";
  bool faulted = false;  ///< the spec injects faults: the degraded fields exist

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
  Cell cell(const CombinedOutcome& o, std::size_t p) const {
    Cell c{SimCells::cell(o.sim, p), o.analytic_schedulable[p], o.analytic_wcrt[p],
           o.bound_violations[p]};
    if (faulted) {
      c.degraded_schedulable = o.degraded_schedulable[p];
      c.degraded_wcrt = o.degraded_wcrt[p];
    }
    return c;
  }
  bool push(CombinedOutcome& o, const Cell& c) const {
    if (!SimCells::push(o.sim, c.sim)) return false;
    o.analytic_schedulable.push_back(c.analytic_schedulable);
    o.analytic_wcrt.push_back(c.analytic_wcrt);
    o.bound_violations.push_back(c.bound_violations);
    if (faulted) {
      o.degraded_schedulable.push_back(c.degraded_schedulable);
      o.degraded_wcrt.push_back(c.degraded_wcrt);
    }
    return true;
  }
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

/// The cache sequence every mode runs per scenario. It looks up every
/// policy's cell under CacheKey{content, params[p]}, decoding each record and
/// counting the hit; a record that fails to decode or contradicts the scenario
/// counts as the miss it is. Then one call, compute(missing), computes all the
/// misses: `missing` holds their policy indices ascending, and compute returns
/// their cells in that order, so a mode can share work across its missing
/// policies. Last, the cells land in `o` and the computed ones are stored, in
/// policy order. Without a cache every cell is computed and nothing counted.
template <class Codec, class Outcome, class Compute>
void cached_cells(const Codec& codec, ScenarioCache* cache, std::uint64_t content,
                  const std::vector<std::uint64_t>& params, Outcome& o, Compute&& compute) {
  std::vector<typename Codec::Cell> cells(params.size());
  std::vector<std::size_t> missing;
  if (cache == nullptr) {
    for (std::size_t p = 0; p < params.size(); ++p) missing.push_back(p);
  } else {
    CacheCounters& m = cache_counters();
    // Pushing a hit onto a copy of the outcome checks it against the
    // scenario without touching `o`, whose cells must go in policy order.
    Outcome probe = o;
    for (std::size_t p = 0; p < params.size(); ++p) {
      m.lookups.add(1);
      std::string payload;
      if (cache->load(CacheKey{content, params[p]}, payload) &&
          decode_record(codec, payload, cells[p]) && codec.push(probe, cells[p])) {
        m.hits.add(1);
      } else {
        m.misses.add(1);
        missing.push_back(p);
      }
    }
  }
  if (!missing.empty()) {
    std::vector<typename Codec::Cell> computed = compute(missing);
    for (std::size_t j = 0; j < missing.size(); ++j) cells[missing[j]] = std::move(computed[j]);
  }
  std::size_t next = 0;  // the first missing policy not stored yet
  for (std::size_t p = 0; p < params.size(); ++p) {
    codec.push(o, cells[p]);
    if (cache == nullptr || next == missing.size() || missing[next] != p) continue;
    cache->store(CacheKey{content, params[p]}, encode_record(codec, cells[p]));
    ++next;
  }
}

/// Row header (id, seed, point) of an outcome; combined outcomes keep it in .sim.
template <class Outcome>
Outcome& header(Outcome& o) {
  return o;
}
inline const SimScenarioOutcome& header(const CombinedOutcome& o) { return o.sim; }
inline SimScenarioOutcome& header(CombinedOutcome& o) { return o.sim; }

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

struct NoPrepare {
  template <class Outcome>
  void operator()(const Scenario&, Outcome&) const {}
};

/// The per-scenario skeleton of every mode, over the scenarios of `sweep`
/// with ids in `range`. It checks the range before sizing out.outcomes, then
/// per scenario: regenerates it under runner.generate, digests its content
/// (content_digest), writes the outcome header and runs prepare(sc, o); then,
/// under `stage` (an empty Timer for a body that times itself), fills o's
/// cells through cached_cells, whose misses compute(sc, o, missing, worker)
/// computes. digest(policy) is the params half of that policy's cache key.
template <class Codec, class Digest, class Result, class Compute, class Prepare = NoPrepare>
void run_cells(SweepRunner& runner, const SweepSpec& sweep, IdRange range, ScenarioCache* cache,
               const Codec& codec, Digest&& digest, bool seeded, obs::Timer stage, Result& out,
               Compute&& compute, Prepare prepare = {}) {
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

    auto& o = out.outcomes[i];  // disjoint slot per index
    auto& h = header(o);
    h.id = sc.id;
    h.seed = sc.seed;
    h.point = static_cast<std::size_t>(id) / sweep.scenarios_per_point;
    prepare(sc, o);
    cached_cells(codec, cache, content, params, o, [&](const std::vector<std::size_t>& missing) {
      return compute(sc, o, missing, worker);
    });
  };
  runner.run_scenarios(sweep.total_scenarios(), range, out, per_scenario);
}

}  // namespace profisched::engine::detail
