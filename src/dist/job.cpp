#include "dist/job.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "engine/detail/cli_parse.hpp"
#include "engine/detail/hash.hpp"
#include "engine/detail/record.hpp"

namespace profisched::dist {

namespace {

// ---------------------------------------------------------------- modes
//
// A mode class names its outcome rows in ShardArtifact and MergedSweep, its
// cell codec, its compute call and its reducer; the templates below turn it
// into the trait's codec and merge entries. A row is an outcome: its header
// (id, seed, point), then its cells.

struct AnalysisMode {
  using Codec = engine::detail::AnalysisCells;
  static constexpr auto rows = &ShardArtifact::analysis;
  static constexpr auto result = &MergedSweep::analysis;
  static Codec codec(const ShardSpec&) { return {}; }
  static engine::SweepResult run(engine::SweepRunner& r, const ShardSpec& s, engine::IdRange g,
                                 engine::ScenarioCache* c) {
    return r.run(s.spec.sweep, g, c);
  }
  static Table reduce(const MergedSweep& m) {
    return engine::aggregate(m.spec.spec.sweep, m.analysis);
  }
};

struct SimMode {
  using Codec = engine::detail::SimCells;
  static constexpr auto rows = &ShardArtifact::sim;
  static constexpr auto result = &MergedSweep::sim;
  static Codec codec(const ShardSpec&) { return {}; }
  static engine::SimSweepResult run(engine::SweepRunner& r, const ShardSpec& s, engine::IdRange g,
                                    engine::ScenarioCache* c) {
    return r.run_sim(s.spec, g, c);
  }
  static Table reduce(const MergedSweep& m) { return engine::aggregate_sim(m.spec.spec, m.sim); }
};

struct CombinedMode {
  using Codec = engine::detail::CombinedCells;
  static constexpr auto rows = &ShardArtifact::combined;
  static constexpr auto result = &MergedSweep::combined;
  static Codec codec(const ShardSpec& s) { return Codec{s.spec.sim.faults.any()}; }
  static engine::CombinedResult run(engine::SweepRunner& r, const ShardSpec& s, engine::IdRange g,
                                    engine::ScenarioCache* c) {
    return r.run_combined(s.spec, g, c);
  }
  static Table reduce(const MergedSweep& m) {
    return engine::consistency_table(m.spec.spec, m.combined);
  }
};

struct OptimizeMode {
  using Codec = opt::OptimizeCells;
  static constexpr auto rows = &ShardArtifact::optimize;
  static constexpr auto result = &MergedSweep::optimize;
  static Codec codec(const ShardSpec&) { return {}; }
  static opt::OptimizeResult run(engine::SweepRunner& r, const ShardSpec& s, engine::IdRange g,
                                 engine::ScenarioCache* c) {
    return opt::run_optimize(r, opt::OptimizeSpec{s.spec.sweep, s.optimize}, g, c);
  }
  static Table reduce(const MergedSweep& m) {
    return opt::aggregate_optimize(opt::OptimizeSpec{m.spec.spec.sweep, m.spec.optimize},
                                   m.optimize);
  }
};

template <class M>
void execute_rows(engine::SweepRunner& runner, ShardArtifact& art, engine::ScenarioCache* cache) {
  auto result = M::run(runner, art.spec, art.range, cache);
  art.stats = result;
  art.*M::rows = std::move(result.outcomes);
}

template <class M>
std::size_t count_rows(const ShardArtifact& art) {
  return (art.*M::rows).size();
}

/// One artifact row, without its newline: the row header, then one cell per
/// policy.
template <class Codec>
void encode_row(const Codec& codec, const engine::Outcome<typename Codec::Cell>& o,
                std::string& out) {
  out += "o " + std::to_string(o.id) + ' ' + std::to_string(o.seed) + ' ' +
         std::to_string(o.point);
  for (const auto& c : o.cells) codec.put(out, c);
}

template <class M>
void encode_rows(const ShardArtifact& art, std::string& out) {
  const typename M::Codec codec = M::codec(art.spec);
  for (const auto& o : art.*M::rows) {
    encode_row(codec, o, out);
    out += '\n';
  }
}

/// A row is accepted only when its cells agree on the scenario's facts
/// (the codec's agree), and only in the bytes encode_row writes for
/// what it decodes to, like a cache record (engine/detail/record.hpp).
template <class M>
bool decode_row(const std::string& line, ShardArtifact& art) {
  const typename M::Codec codec = M::codec(art.spec);
  auto& o = (art.*M::rows).emplace_back();
  engine::detail::RecordReader r(line);
  if (!r.tag("o") || !r.read(o.id) || !r.read(o.seed) || !r.read(o.point)) return false;
  o.cells.resize(art.spec.spec.sweep.policies.size());
  for (auto& c : o.cells) {
    if (!codec.get(r, c) || !codec.agree(o.cells.front(), c)) return false;
  }
  if (!r.done()) return false;
  std::string again;
  again.reserve(line.size());
  encode_row(codec, o, again);
  return again == line;
}

template <class M>
void append_rows(ShardArtifact& shard, MergedSweep& merged, std::uint64_t total) {
  auto& rows = shard.*M::rows;
  const std::uint64_t spp = shard.spec.spec.sweep.scenarios_per_point;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::uint64_t id = shard.range.begin + i;
    if (rows[i].id != id || rows[i].point != id / spp) {
      throw std::invalid_argument("merge: outcome row for id " + std::to_string(rows[i].id) +
                                  " contradicts its shard's declared range");
    }
  }
  auto& out = (merged.*M::result).outcomes;
  if (out.empty() && rows.size() == total) {
    out = std::move(rows);  // one in-memory artifact: hand its rows over whole
    return;
  }
  out.reserve(static_cast<std::size_t>(total));
  std::move(rows.begin(), rows.end(), std::back_inserter(out));
  rows = {};
}

// ---------------------------------------------------------------- summaries

void appendf(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, std::min(static_cast<std::size_t>(n), sizeof buf - 1));
}

/// Acceptance ratio per point, one column per policy (sweep and simulate).
template <class Curves>
std::string ratio_summary(const ShardSpec&, const Table& table) {
  const Curves& c = std::get<Curves>(table);
  std::string out;
  appendf(out, "\n%-8s", "U");
  for (const std::string& p : c.policies) appendf(out, " %9s", p.c_str());
  out += '\n';
  for (const auto& pt : c.points) {
    appendf(out, "%-8.3f", pt.total_u);
    for (std::size_t p = 0; p < c.policies.size(); ++p) {
      appendf(out, " %8.1f%%", 100.0 * pt.ratio(p));
    }
    out += '\n';
  }
  return out;
}

/// Median breakdown utilization per point and policy — the headline
/// synthesis answer; the full distributions go to --csv/--json.
std::string optimize_summary(const ShardSpec&, const Table& table) {
  const opt::OptimizeTable& t = std::get<opt::OptimizeTable>(table);
  std::string out;
  appendf(out, "\n%-8s", "U");
  for (const std::string& p : t.policies) appendf(out, " %12s", (p + ":bu").c_str());
  out += '\n';
  for (const opt::OptimizePoint& pt : t.points) {
    appendf(out, "%-8.3f", pt.total_u);
    for (const opt::OptimumStats& s : pt.stats) appendf(out, " %12.3f", s.breakdown_u_p50);
    out += '\n';
  }
  return out;
}

/// Analysis-accept vs simulation-miss-free ratios side by side per point,
/// bucketed in one pass over the rows (scenario-major, policy-minor).
std::string combined_summary(const ShardSpec& spec, const Table& table) {
  const engine::ConsistencyTable& t = std::get<engine::ConsistencyTable>(table);
  const engine::SweepSpec& sw = spec.spec.sweep;
  const std::size_t n_pol = sw.policies.size();
  std::vector<std::size_t> accepted(sw.points.size() * n_pol, 0), miss_free(accepted.size(), 0),
      scenarios(sw.points.size(), 0);
  double max_pessimism = 0.0;
  for (std::size_t r = 0; r < t.rows.size(); ++r) {
    const engine::ConsistencyRow& row = t.rows[r];
    const std::size_t pt = static_cast<std::size_t>(row.id) / sw.scenarios_per_point;
    const std::size_t cell = pt * n_pol + r % n_pol;
    if (r % n_pol == 0) ++scenarios[pt];
    if (row.analytic_schedulable) ++accepted[cell];
    if (row.misses == 0 && row.dropped == 0) ++miss_free[cell];
    max_pessimism = std::max(max_pessimism, row.pessimism());
  }
  std::string out;
  appendf(out, "\n%-8s", "U");
  for (const engine::Policy p : sw.policies) {
    const std::string name(engine::to_string(p));
    appendf(out, " %9s:an %9s:sim", name.c_str(), name.c_str());
  }
  out += '\n';
  for (std::size_t pt = 0; pt < sw.points.size(); ++pt) {
    const double n = scenarios[pt] == 0 ? 1.0 : static_cast<double>(scenarios[pt]);
    appendf(out, "%-8.3f", sw.points[pt].total_u);
    for (std::size_t p = 0; p < n_pol; ++p) {
      appendf(out, " %11.1f%% %12.1f%%",
              100.0 * static_cast<double>(accepted[pt * n_pol + p]) / n,
              100.0 * static_cast<double>(miss_free[pt * n_pol + p]) / n);
    }
    out += '\n';
  }
  appendf(out, "\n%zu joined rows; bound violations: %llu; analysis-accepts-but-sim-misses: %zu; "
          "max pessimism %.3f\n", t.rows.size(),
          static_cast<unsigned long long>(t.total_bound_violations()), t.accept_but_miss_count(),
          max_pessimism);
  return out;
}

std::string passes(const Table&) { return {}; }

/// A consistency violation falsifies the corresponding analysis, so a
/// combined run that shows one fails — after writing its outputs.
std::string combined_violation(const Table& table) {
  const engine::ConsistencyTable& t = std::get<engine::ConsistencyTable>(table);
  if (t.accept_but_miss_count() == 0 && t.total_bound_violations() == 0) return {};
  return "bound violations: " + std::to_string(t.total_bound_violations()) +
         "; analysis-accepts-but-sim-misses: " + std::to_string(t.accept_but_miss_count());
}

bool any_policy(engine::Policy) { return true; }

template <class M>
constexpr ModeTrait make_trait(SweepMode mode, const char* word, const char* spec_word,
                               unsigned groups, bool (*admits)(engine::Policy),
                               const char* policy_names,
                               std::string (*summary)(const ShardSpec&, const Table&),
                               std::string (*violation)(const Table&)) {
  return {mode,           word,           spec_word,       groups,
          admits,         policy_names,   &execute_rows<M>, &count_rows<M>,
          &encode_rows<M>, &decode_row<M>, &append_rows<M>, &M::reduce,
          summary,        violation};
}

/// The mode table, in SweepMode order.
constexpr ModeTrait kModes[] = {
    make_trait<AnalysisMode>(SweepMode::Analysis, "sweep", "analysis",
                             kCommonFlags | kAnalysisFlags, &any_policy,
                             "fcfs,dm,edf,opa,token,holistic",
                             &ratio_summary<engine::SweepCurves>, &passes),
    make_trait<SimMode>(SweepMode::Sim, "simulate", "sim", kCommonFlags | kSimFlags,
                        &engine::SimulationEngine::simulable, "fcfs,dm,edf",
                        &ratio_summary<engine::SimCurves>, &passes),
    make_trait<CombinedMode>(SweepMode::Combined, "combined", "combined",
                             kCommonFlags | kAnalysisFlags | kSimFlags,
                             &engine::SimulationEngine::simulable, "fcfs,dm,edf",
                             &combined_summary, &combined_violation),
    make_trait<OptimizeMode>(SweepMode::Optimize, "optimize", "optimize",
                             kCommonFlags | kAnalysisFlags | kBracketFlags, &opt::optimizable,
                             "fcfs,dm,edf,opa", &optimize_summary, &passes),
};

static_assert([] {
  for (std::size_t i = 0; i < std::size(kModes); ++i) {
    if (kModes[i].mode != static_cast<SweepMode>(i)) return false;
  }
  return true;
}());

}  // namespace

const ModeTrait& trait(SweepMode mode) {
  // The one switch over SweepMode: -Wswitch flags a mode added without a
  // trait entry.
  switch (mode) {
    case SweepMode::Analysis:
    case SweepMode::Sim:
    case SweepMode::Combined:
    case SweepMode::Optimize:
      return kModes[static_cast<std::size_t>(mode)];
  }
  throw std::invalid_argument("unknown sweep mode");
}

const ModeTrait* find_mode(std::string_view word, const char* ModeTrait::*vocabulary) {
  for (const ModeTrait& m : kModes) {
    if (word == m.*vocabulary) return &m;
  }
  return nullptr;
}

std::string_view to_string(SweepMode m) { return trait(m).spec_word; }

namespace {

/// Throws, naming `field`, unless lo <= v <= hi (lo < v with `open_lo`). NaN
/// fails both tests.
template <class T>
void check_range(const std::string& field, T v, T lo, T hi, bool open_lo = false) {
  if ((open_lo ? v > lo : v >= lo) && v <= hi) return;
  const auto text = [](T x) {
    if constexpr (std::is_floating_point_v<T>) {
      return engine::detail::fmt_double_exact(x);
    } else {
      return std::to_string(x);
    }
  };
  throw std::invalid_argument("job: " + field + ' ' + text(v) + " is outside " +
                              (open_lo ? "(" : "[") + text(lo) + ", " + text(hi) + ']');
}

}  // namespace

void validate_spec(const ShardSpec& spec) {
  const engine::SweepSpec& sw = spec.spec.sweep;
  const ModeTrait& mode = trait(spec.mode);
  if (sw.points.empty() || sw.scenarios_per_point == 0) {
    throw std::invalid_argument("job: needs >= 1 point and >= 1 scenario per point");
  }
  if (sw.scenarios_per_point > engine::kMaxScenarios || sw.points.size() > engine::kMaxScenarios ||
      sw.total_scenarios() > engine::kMaxScenarios) {
    throw std::invalid_argument("sweep too large (" + std::to_string(sw.points.size()) +
                                " points x " + std::to_string(sw.scenarios_per_point) +
                                " scenarios exceeds " + std::to_string(engine::kMaxScenarios) +
                                "); shrink the grid axes or --scenarios");
  }
  if (sw.policies.empty()) throw std::invalid_argument("job: needs >= 1 policy");
  for (std::size_t p = 0; p < sw.policies.size(); ++p) {
    const std::string name(engine::to_string(sw.policies[p]));
    if (!mode.admits(sw.policies[p])) {
      throw std::invalid_argument("job: policy " + name + " is not available in " + mode.word +
                                  " mode");
    }
    if (std::count(sw.policies.begin(), sw.policies.end(), sw.policies[p]) > 1) {
      throw std::invalid_argument("job: policy " + name + " is listed twice");
    }
  }

  const workload::NetworkParams& b = sw.base;
  check_range<std::size_t>("masters", b.n_masters, 1, engine::kMaxMasters);
  check_range<std::size_t>("streams", b.streams_per_master, 1, engine::kMaxStreams);
  // Every point has u > 0, so generation is utilization-driven and needs a T_TR.
  check_range<Ticks>("ttr", b.ttr, 1, engine::kMaxTtr);
  check_range<Ticks>("base t_max", b.t_max, 1, engine::kMaxPeriod);
  check_range<Ticks>("base t_min", b.t_min, 1, b.t_max);
  check_range("base deadline_hi", b.deadline_hi, 0.0, engine::kMaxDeadlineRatio, true);
  check_range("base deadline_lo", b.deadline_lo, 0.0, b.deadline_hi, true);
  check_range<Ticks>("base request_chars_max", b.request_chars_max, 1, engine::kMaxFrameChars);
  check_range<Ticks>("base request_chars_min", b.request_chars_min, 1, b.request_chars_max);
  check_range<Ticks>("base response_chars_max", b.response_chars_max, 1, engine::kMaxFrameChars);
  check_range<Ticks>("base response_chars_min", b.response_chars_min, 1, b.response_chars_max);
  check_range("base total_u", b.total_u, 0.0, engine::kMaxUtilization);
  for (const engine::SweepPoint& pt : sw.points) {
    check_range("point u", pt.total_u, 0.0, engine::kMaxUtilization, true);
    check_range("point beta_hi", pt.beta_hi, 0.0, engine::kMaxDeadlineRatio, true);
    check_range("point beta_lo", pt.beta_lo, 0.0, pt.beta_hi, true);
    if (pt.n_masters != 0) {
      check_range<std::size_t>("point masters", pt.n_masters, 1, engine::kMaxMasters);
    }
  }

  const engine::SimOptions& so = spec.spec.sim;
  check_range<std::size_t>("replications", spec.spec.replications, 1, engine::kMaxReplications);
  check_range<Ticks>("horizon", so.horizon, 0, engine::kMaxHorizon);
  constexpr double kUnbounded = std::numeric_limits<double>::infinity();
  check_range("horizon_cycles", so.horizon_cycles, 0.0, kUnbounded, true);
  check_range("quantile", so.quantile, 0.0, 1.0, true);
  check_range("min_fraction", so.cycle_model.min_fraction, 0.0, 1.0);
  check_range("slave_fail_prob", so.cycle_model.slave_fail_prob, 0.0, 1.0);
  so.faults.validate();
  check_range<Ticks>("faults recovery", so.faults.token_recovery, 0, engine::kMaxHorizon);
  check_range<Ticks>("faults offline", so.faults.churn_offline, 0, engine::kMaxHorizon);
  check_range<int>("faults retrans", so.faults.max_retransmissions, 0, engine::kMaxRetransmissions);

  if ((mode.flag_groups & kBracketFlags) != 0) {
    const opt::OptimizeOptions& o = spec.optimize;
    const Ticks max_q = static_cast<Ticks>(engine::kMaxBracket) * sensitivity::kScaleOne;
    check_range<Ticks>("optimize scale_hi_q", o.scale_hi_q, 1, max_q);
    check_range<Ticks>("optimize scale_lo_q", o.scale_lo_q, 1, o.scale_hi_q);
    check_range<Ticks>("optimize ttr_cap", o.ttr_cap, 1, engine::kMaxTtr);
    check_range<Ticks>("optimize dratio_hi_q", o.dratio_hi_q, 1, max_q);
    check_range<Ticks>("optimize dratio_lo_q", o.dratio_lo_q, 1, o.dratio_hi_q);
  }
}

Table reduce(std::vector<ShardArtifact>&& artifacts) {
  const obs::Span span(obs::Registry::global().timer("phase.aggregate"));
  const MergedSweep merged = merge_shards(std::move(artifacts));
  return trait(merged.spec.mode).reduce(merged);
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary);
  os << content;
  os.flush();  // surface ENOSPC-style errors now, not in the destructor
  if (!os.good()) throw std::runtime_error("cannot write " + path);
}

void emit(const Job& job, const Table& table) {
  const obs::Span span(obs::Registry::global().timer("phase.write"));
  std::visit(
      [&job](const auto& t) {
        if (!job.csv_path.empty()) write_file(job.csv_path, t.to_csv());
        if (!job.json_path.empty()) write_file(job.json_path, t.to_json());
      },
      table);
}

obs::Manifest manifest(const ShardSpec& spec, std::uint64_t scenarios) {
  obs::Manifest m;
  const std::string text = serialize_spec(spec);
  m.run.config_digest = engine::detail::Fnv1a64().bytes(text.data(), text.size()).digest();
  m.run.scenarios = scenarios;
  m.run.points = spec.spec.sweep.points.size();
  m.run.policies = spec.spec.sweep.policies.size();
  m.run.replications = spec.spec.replications;
  m.metrics = obs::Registry::global().snapshot();
  return m;
}

bool check_destinations(const Job& job, std::string& error) {
  return (job.csv_path.empty() ||
          engine::validate_cli_output_file(job.csv_path, "--csv", error)) &&
         (job.json_path.empty() ||
          engine::validate_cli_output_file(job.json_path, "--json", error)) &&
         (job.metrics_path.empty() ||
          engine::validate_cli_output_file(job.metrics_path, "--metrics", error));
}

// ---------------------------------------------------------------- flags

namespace {

using Apply = std::function<bool(const std::string&, std::string&)>;

template <class T>
Apply count_into(T& dst, std::size_t lo, std::size_t hi) {
  return [&dst, lo, hi](const std::string& v, std::string&) {
    std::size_t n = 0;
    if (!engine::parse_cli_count(v, n, hi) || n < lo) return false;
    dst = static_cast<T>(n);
    return true;
  };
}

Apply store(std::string& dst) {
  return [&dst](const std::string& v, std::string&) {
    dst = v;
    return true;
  };
}

Apply set_true(bool& dst) {
  return [&dst](const std::string&, std::string&) { return dst = true; };
}

/// Fractional bracket → q/1024 fixed point (nearest), at least 1.
Apply q1024_into(Ticks& dst) {
  return [&dst](const std::string& v, std::string&) {
    double x = 0.0;
    if (!engine::parse_cli_nonneg_double(v, x) || x <= 0.0 || x > engine::kMaxBracket) {
      return false;
    }
    dst = static_cast<Ticks>(std::llround(x * sensitivity::kScaleOne));
    return dst >= 1;
  };
}

/// `--faults key=val[,key=val...]`: the whole FaultModel in one flag.
/// Range checks beyond the scalar parse are FaultModel::validate()'s, so the
/// flag and the library reject identically.
bool parse_faults(const std::string& v, profibus::FaultModel& out, std::string& error) {
  const auto fail = [&](const std::string& msg) {
    error = "--faults: " + msg;
    return false;
  };
  std::size_t pos = 0;
  while (pos < v.size()) {
    const std::size_t comma = v.find(',', pos);
    const std::string item = v.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? v.size() : comma + 1;
    // A trailing comma would otherwise fall out of the loop silently.
    if (comma != std::string::npos && pos >= v.size()) return fail("expected key=value, got ''");
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
      return fail("expected key=value, got '" + item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    double d = 0.0;
    std::size_t n = 0;
    if (key == "loss" || key == "corrupt" || key == "churn" || key == "burst") {
      if (!engine::parse_cli_nonneg_double(val, d)) return fail(key + " needs a number in [0, 1]");
      (key == "loss"      ? out.token_loss_prob
       : key == "corrupt" ? out.corruption_prob
       : key == "churn"   ? out.churn_prob
                          : out.burst_correlation) = d;
    } else if (key == "recovery" || key == "offline") {
      if (!engine::parse_cli_count(val, n, engine::kMaxHorizon)) {
        return fail(key + " needs a tick count");
      }
      (key == "recovery" ? out.token_recovery : out.churn_offline) = static_cast<Ticks>(n);
    } else if (key == "retrans") {
      if (!engine::parse_cli_count(val, n, engine::kMaxRetransmissions)) {
        return fail("retrans needs an integer in [0, 1000]");
      }
      out.max_retransmissions = static_cast<int>(n);
    } else {
      return fail("unknown key '" + key +
                  "' (expected loss, recovery, corrupt, retrans, churn, offline, burst)");
    }
  }
  try {
    out.validate();
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  return true;
}

constexpr unsigned kBatch =
    surface_bit(Surface::Sweep) | surface_bit(Surface::Simulate) | surface_bit(Surface::Optimize);
constexpr unsigned kJob = kBatch | surface_bit(Surface::Shard) | surface_bit(Surface::Submit);

constexpr const char* kSurfaceNames[] = {"sweep", "simulate", "optimize",
                                         "shard", "merge",    "submit"};

const char* mode_words() {
  static const std::string words = [] {
    std::string w;
    for (const ModeTrait& m : kModes) w += (w.empty() ? "" : "|") + std::string(m.word);
    return w;
  }();
  return words.c_str();
}

/// The job-flag table (README "Job flags" mirrors it): each flag once, with
/// the surfaces that take it and the flag group that decides its modes.
std::vector<Flag> job_flags(JobArgs& a, engine::GridCliArgs& grid, bool& sharded) {
  engine::SweepSpec& sw = a.job.spec.spec.sweep;
  engine::SimOptions& sim = a.job.spec.spec.sim;
  opt::OptimizeOptions& brackets = a.job.spec.optimize;
  const char* serve_side =
      "--cache/--threads are serve-side flags; pass them to `profisched serve`";
  const char* artifact_only =
      "shard emits one artifact via --out; merge the artifacts to get CSV/JSON";
  return {
      {"--mode", surface_bit(Surface::Shard) | surface_bit(Surface::Submit), kCommonFlags,
       mode_words(),
       [&a](const std::string& v, std::string&) {
         const ModeTrait* m = find_mode(v);
         if (m != nullptr) a.job.spec.mode = m->mode;
         return m != nullptr;
       },
       nullptr, true},
      {"--combined", surface_bit(Surface::Simulate), kCommonFlags, nullptr,
       [&a](const std::string&, std::string&) {
         a.job.spec.mode = SweepMode::Combined;
         return true;
       },
       "--combined is a `simulate` flag; shard and submit spell it --mode combined", true},
      {"--scenarios", kJob, kCommonFlags, "an integer in [1, 1e8]",
       count_into(sw.scenarios_per_point, 1, engine::kMaxScenarios)},
      {"--masters", kJob, kCommonFlags, "a comma list of integers in [1, 4096]",
       store(grid.masters)},
      {"--split", kJob, kCommonFlags, "a comma list of weights", store(grid.split)},
      {"--skew", kJob, kCommonFlags, "a number >= 0", store(grid.skew)},
      {"--streams", kJob, kCommonFlags, "an integer in [1, 4096]",
       count_into(sw.base.streams_per_master, 1, engine::kMaxStreams)},
      {"--u", kJob, kCommonFlags, "LO:HI:STEPS with numeric LO/HI and integer STEPS",
       store(grid.u)},
      {"--beta", kJob, kCommonFlags, "LO:HI:STEPS with numeric LO/HI and integer STEPS",
       store(grid.beta)},
      {"--beta-lo", kJob, kCommonFlags, "a number >= 0", store(grid.beta_lo)},
      {"--beta-hi", kJob, kCommonFlags, "a number >= 0", store(grid.beta_hi)},
      {"--policies", kJob, kCommonFlags, "a comma list of policy names",
       [&a, &sw](const std::string& v, std::string& error) {
         const ModeTrait& m = trait(a.job.spec.mode);
         error = std::string("--policies needs a comma list of distinct names from ") +
                 m.policy_names;
         if (!engine::parse_cli_policies(v, sw.policies)) return false;
         for (const engine::Policy p : sw.policies) {
           if (!m.admits(p)) {
             error = "--policies: " + std::string(engine::to_string(p)) +
                     " is not available in " + m.word + " mode (choose from " + m.policy_names +
                     ")";
             return false;
           }
         }
         return true;
       }},
      {"--seed", kJob, kCommonFlags, "a non-negative integer",
       count_into(sw.seed, 0, std::size_t(-1))},
      {"--ttr", kJob, kCommonFlags, "a tick count >= 1",
       count_into(sw.base.ttr, 1, engine::kMaxTtr)},
      {"--method", kJob, kAnalysisFlags, "paper|refined",
       [&sw](const std::string& v, std::string&) {
         if (v != "paper" && v != "refined") return false;
         sw.engine.method = v == "paper" ? profibus::TcycleMethod::PaperEq13
                                         : profibus::TcycleMethod::PerMasterRefined;
         return true;
       }},
      {"--reps", kJob, kSimFlags, "an integer in [1, 10000]",
       count_into(a.job.spec.spec.replications, 1, engine::kMaxReplications)},
      {"--horizon", kJob, kSimFlags, "a tick count >= 1",
       count_into(sim.horizon, 1, engine::kMaxHorizon)},
      {"--cycles", kJob, kSimFlags, "a number > 0",
       [&sim](const std::string& v, std::string&) {
         return engine::parse_cli_nonneg_double(v, sim.horizon_cycles) && sim.horizon_cycles > 0;
       }},
      {"--model", kJob, kSimFlags, "worst|uniform|frame",
       [&sim](const std::string& v, std::string&) {
         using Kind = sim::CycleModel::Kind;
         if (v != "worst" && v != "uniform" && v != "frame") return false;
         sim.cycle_model.kind = v == "worst"     ? Kind::WorstCase
                                : v == "uniform" ? Kind::UniformFraction
                                                 : Kind::FrameLevel;
         return true;
       }},
      {"--quantile", kJob, kSimFlags, "a percentile in (0, 1]",
       [&sim](const std::string& v, std::string&) {
         return engine::parse_cli_nonneg_double(v, sim.quantile) && sim.quantile > 0.0 &&
                sim.quantile <= 1.0;
       }},
      {"--faults", kJob, kSimFlags,
       "key=value[,key=value...] (keys: loss, recovery, corrupt, retrans, churn, offline, burst)",
       [&sim](const std::string& v, std::string& error) {
         return parse_faults(v, sim.faults, error);
       }},
      {"--lp", kJob, kSimFlags, nullptr, set_true(sim.lp_traffic)},
      {"--scale-lo", kJob, kBracketFlags, "a factor >= 1/1024", q1024_into(brackets.scale_lo_q)},
      {"--scale-hi", kJob, kBracketFlags, "a factor >= 1/1024", q1024_into(brackets.scale_hi_q)},
      {"--ttr-cap", kJob, kBracketFlags, "a tick count >= 1",
       count_into(brackets.ttr_cap, 1, engine::kMaxTtr)},
      {"--dratio-lo", kJob, kBracketFlags, "a ratio >= 1/1024", q1024_into(brackets.dratio_lo_q)},
      {"--dratio-hi", kJob, kBracketFlags, "a ratio >= 1/1024", q1024_into(brackets.dratio_hi_q)},
      {"--threads", kBatch | surface_bit(Surface::Shard), kCommonFlags, "an integer in [0, 1024]",
       count_into(a.threads, 0, 1'024), serve_side},
      {"--cache", kBatch | surface_bit(Surface::Shard), kCommonFlags, "a directory path",
       store(a.cache_dir), serve_side},
      {"--csv", kBatch | surface_bit(Surface::Merge) | surface_bit(Surface::Submit), kCommonFlags,
       "a file path", store(a.job.csv_path), artifact_only},
      {"--json", kBatch | surface_bit(Surface::Merge) | surface_bit(Surface::Submit), kCommonFlags,
       "a file path", store(a.job.json_path), artifact_only},
      {"--metrics", kJob | surface_bit(Surface::Merge), kCommonFlags, "a file path",
       store(a.job.metrics_path)},
      {"--progress", kJob, kCommonFlags, nullptr, set_true(a.job.progress)},
      {"--shard", surface_bit(Surface::Shard), kCommonFlags, "k/K with 1 <= k <= K",
       [&a, &sharded](const std::string& v, std::string&) {
         const std::size_t slash = v.find('/');
         std::size_t k = 0, n = 0;
         if (slash == std::string::npos ||
             !engine::parse_cli_count(v.substr(0, slash), k, 1'000'000) ||
             !engine::parse_cli_count(v.substr(slash + 1), n, 1'000'000) || k == 0 || k > n) {
           return false;
         }
         a.shard_index = k - 1;  // the CLI is 1-based, the plan 0-based
         a.shard_count = n;
         return sharded = true;
       }},
      {"--out", surface_bit(Surface::Shard), kCommonFlags, "a file path", store(a.out_path)},
  };
}

}  // namespace

bool parse_job_args(Surface surface, const std::vector<std::string>& args, JobArgs& out,
                    std::string& error, const std::vector<Flag>& extra) {
  JobArgs a;
  engine::SweepSpec& sw = a.job.spec.spec.sweep;
  sw.base.n_masters = 1;
  sw.base.streams_per_master = 5;
  sw.base.ttr = 3'000;
  sw.scenarios_per_point = 100;
  sw.policies = {engine::Policy::Fcfs, engine::Policy::Dm, engine::Policy::Edf};
  if (surface == Surface::Simulate) a.job.spec.mode = SweepMode::Sim;
  if (surface == Surface::Optimize) a.job.spec.mode = SweepMode::Optimize;
  engine::GridCliArgs grid;
  bool sharded = false;
  std::vector<Flag> table = job_flags(a, grid, sharded);
  table.insert(table.end(), extra.begin(), extra.end());
  const char* here = kSurfaceNames[static_cast<std::size_t>(surface)];
  const auto fail = [&](const std::string& msg) {
    error = msg;
    return false;
  };
  const auto apply = [&](const Flag& row, const std::string& value) {
    error = std::string(row.name) + " needs " + (row.want != nullptr ? row.want : "no value");
    return row.apply(value, error);
  };

  // Pass 1: match every token; the mode selectors apply at once, so pass 2
  // knows the mode whatever the flag order.
  std::vector<std::pair<const Flag*, std::string>> given;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto row = std::find_if(table.begin(), table.end(),
                                  [&](const Flag& f) { return arg == f.name; });
    if (row == table.end()) {
      if (surface == Surface::Merge && arg.rfind("--", 0) != 0) {
        a.inputs.push_back(arg);
        continue;
      }
      return fail("unknown " + std::string(here) + " flag '" + arg + "'");
    }
    if ((row->surfaces & surface_bit(surface)) == 0) {
      return fail(row->hint != nullptr ? row->hint : arg + " is not a " + here + " flag");
    }
    std::string value;
    if (row->want != nullptr && (i + 1 >= args.size() || (value = args[++i]).empty())) {
      return fail(arg + " needs " + row->want);
    }
    if (!row->selects_mode) {
      given.emplace_back(&*row, std::move(value));
    } else if (!apply(*row, value)) {
      return false;
    }
  }

  // Pass 2: every other flag, checked against the mode's flag groups.
  const ModeTrait& mode = trait(a.job.spec.mode);
  for (const auto& [row, value] : given) {
    if ((row->group & mode.flag_groups) == 0) {
      return fail(std::string(row->name) + " does not apply to " + mode.word + " mode");
    }
    if (!apply(*row, value)) return false;
  }

  if (surface == Surface::Merge) {
    if (a.inputs.empty()) return fail("merge needs at least one shard artifact file");
  } else {
    if (!engine::expand_cli_grid(grid, sw.base, sw.points, error)) return false;
    try {
      validate_spec(a.job.spec);
    } catch (const std::exception& e) {
      return fail(e.what());
    }
  }
  if (surface == Surface::Shard) {
    if (!sharded) return fail("--shard k/K is required");
    if (a.out_path.empty()) return fail("--out FILE is required");
  }
  // Doomed destinations fail here, before a single scenario runs.
  if (!check_destinations(a.job, error) ||
      (!a.cache_dir.empty() && !engine::validate_cli_output_dir(a.cache_dir, "--cache", error)) ||
      (!a.out_path.empty() && !engine::validate_cli_output_file(a.out_path, "--out", error))) {
    return false;
  }
  out = std::move(a);
  error.clear();
  return true;
}

}  // namespace profisched::dist
