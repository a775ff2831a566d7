#include "dist/shard.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "dist/job.hpp"
#include "engine/detail/serialize.hpp"
#include "obs/metrics.hpp"

namespace profisched::dist {

namespace {

/// Shard/merge telemetry: row counts in and out of artifacts plus how many
/// cross-shard spec validations the merge performed.
struct DistMetrics {
  obs::Counter rows_written = obs::Registry::global().counter("dist.shard.rows_written");
  obs::Counter artifacts = obs::Registry::global().counter("dist.merge.artifacts");
  obs::Counter spec_validations = obs::Registry::global().counter("dist.merge.spec_validations");
  obs::Counter rows_merged = obs::Registry::global().counter("dist.merge.rows_merged");
};

DistMetrics& dist_metrics() {
  static DistMetrics m;
  return m;
}

}  // namespace

using engine::detail::fmt_double_exact;
using engine::detail::to_double;
using engine::detail::to_ll;
using engine::detail::to_size;

ShardPlan ShardPlan::split(std::uint64_t total, std::uint64_t count) {
  if (count == 0) throw std::invalid_argument("ShardPlan: shard count must be >= 1");
  ShardPlan plan;
  plan.total = total;
  plan.ranges.reserve(static_cast<std::size_t>(count));
  const std::uint64_t base = total / count;
  const std::uint64_t extra = total % count;
  std::uint64_t begin = 0;
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::uint64_t size = base + (k < extra ? 1 : 0);
    plan.ranges.push_back(engine::IdRange{begin, begin + size});
    begin += size;
  }
  return plan;
}

namespace {

/// Bump with any change to the artifact bytes: readers name the format they
/// refuse. v2: rows are `o id seed point` plus one cell-codec cell per policy.
constexpr const char* kMagic = "profisched-shard v2";

[[nodiscard]] const char* method_name(profibus::TcycleMethod m) {
  return m == profibus::TcycleMethod::PaperEq13 ? "paper" : "refined";
}

[[nodiscard]] profibus::TcycleMethod parse_method(const std::string& s) {
  if (s == "paper") return profibus::TcycleMethod::PaperEq13;
  if (s == "refined") return profibus::TcycleMethod::PerMasterRefined;
  throw std::invalid_argument("shard artifact: unknown tcycle method '" + s + "'");
}

[[nodiscard]] const char* formulation_name(Formulation f) {
  return f == Formulation::PaperLiteral ? "literal" : "refined";
}

[[nodiscard]] Formulation parse_formulation(const std::string& s) {
  if (s == "literal") return Formulation::PaperLiteral;
  if (s == "refined") return Formulation::Refined;
  throw std::invalid_argument("shard artifact: unknown formulation '" + s + "'");
}

[[nodiscard]] const char* cycle_kind_name(sim::CycleModel::Kind k) {
  switch (k) {
    case sim::CycleModel::Kind::WorstCase: return "worst";
    case sim::CycleModel::Kind::UniformFraction: return "uniform";
    case sim::CycleModel::Kind::FrameLevel: return "frame";
  }
  return "?";
}

[[nodiscard]] sim::CycleModel::Kind parse_cycle_kind(const std::string& s) {
  if (s == "worst") return sim::CycleModel::Kind::WorstCase;
  if (s == "uniform") return sim::CycleModel::Kind::UniformFraction;
  if (s == "frame") return sim::CycleModel::Kind::FrameLevel;
  throw std::invalid_argument("shard artifact: unknown cycle model '" + s + "'");
}

[[nodiscard]] SweepMode parse_mode(const std::string& s) {
  const ModeTrait* m = find_mode(s, &ModeTrait::spec_word);
  if (m == nullptr) throw std::invalid_argument("shard artifact: unknown mode '" + s + "'");
  return m->mode;
}

[[nodiscard]] engine::Policy parse_policy_name(const std::string& s) {
  for (const engine::Policy p :
       {engine::Policy::Fcfs, engine::Policy::Dm, engine::Policy::Edf, engine::Policy::Opa,
        engine::Policy::TokenRing, engine::Policy::Holistic}) {
    if (s == engine::to_string(p)) return p;
  }
  throw std::invalid_argument("shard artifact: unknown policy '" + s + "'");
}

/// Line-oriented reader over an artifact: each fetch pops one line, checks
/// its leading keyword, and returns the remaining space-separated tokens.
/// peek_keyword() looks at the next line's keyword without consuming it, so
/// optional spec lines (split/skew) parse without a format version bump.
class LineReader {
 public:
  explicit LineReader(const std::string& text) : is_(text) {}

  /// Keyword (first token) of the next line; "" at end of input.
  std::string peek_keyword() {
    if (!fetch()) return "";
    const std::size_t space = pending_.find(' ');
    return pending_.substr(0, space);
  }

  /// Pop the next line, expecting `keyword` and a token count in
  /// [n_tokens, n_tokens_max] (n_tokens_max = 0 means exactly n_tokens;
  /// SIZE_MAX would read as "unbounded" at the call sites).
  std::vector<std::string> line(const char* keyword, std::size_t n_tokens,
                                std::size_t n_tokens_max = 0) {
    if (n_tokens_max == 0) n_tokens_max = n_tokens;
    if (!fetch()) {
      throw std::invalid_argument(std::string("shard artifact: missing '") + keyword + "' line");
    }
    std::vector<std::string> tokens = engine::detail::split(pending_, ' ');
    pending_valid_ = false;
    if (tokens.empty() || tokens[0] != keyword || tokens.size() < n_tokens + 1 ||
        tokens.size() > n_tokens_max + 1) {
      throw std::invalid_argument(std::string("shard artifact: malformed '") + keyword +
                                  "' line: '" + pending_ + "'");
    }
    tokens.erase(tokens.begin());
    return tokens;
  }

  void literal(const char* expected) {
    if (!fetch() || pending_ != expected) {
      throw std::invalid_argument(std::string("shard artifact: expected '") + expected + "'");
    }
    pending_valid_ = false;
  }

  /// Pop the next line whole (an outcome row).
  const std::string& raw(const char* what) {
    if (!fetch()) throw std::invalid_argument(std::string("shard artifact: missing ") + what);
    pending_valid_ = false;
    return pending_;
  }

 private:
  bool fetch() {
    if (!pending_valid_) pending_valid_ = static_cast<bool>(std::getline(is_, pending_));
    return pending_valid_;
  }

  std::istringstream is_;
  std::string pending_;
  bool pending_valid_ = false;
};

[[nodiscard]] std::uint64_t to_u64(const std::string& s) {
  return static_cast<std::uint64_t>(to_size(s));
}

/// An int field, rejected (by name) instead of narrowed when out of range.
[[nodiscard]] int to_int(const std::string& s, const char* field) {
  const long long v = to_ll(s);
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    throw std::invalid_argument(std::string("shard spec: ") + field + " " + s +
                                " does not fit an int");
  }
  return static_cast<int>(v);
}

[[nodiscard]] bool to_bool01(const std::string& s) {
  if (s == "0") return false;
  if (s == "1") return true;
  throw std::invalid_argument("shard artifact: expected 0/1 flag, got '" + s + "'");
}

void append_spec(std::string& out, const ShardSpec& sh) {
  const engine::SweepSpec& sw = sh.spec.sweep;
  const workload::NetworkParams& b = sw.base;
  const engine::SimOptions& so = sh.spec.sim;
  const ModeTrait& mode = trait(sh.mode);
  out += "mode ";
  out += mode.spec_word;
  out += '\n';
  out += "seed " + std::to_string(sw.seed) + '\n';
  out += "scenarios-per-point " + std::to_string(sw.scenarios_per_point) + '\n';
  out += "policies ";
  for (std::size_t p = 0; p < sw.policies.size(); ++p) {
    out += (p == 0 ? "" : ",");
    out += engine::to_string(sw.policies[p]);
  }
  out += '\n';
  out += std::string("engine ") + method_name(sw.engine.method) + ' ' +
         formulation_name(sw.engine.formulation) + ' ' + std::to_string(sw.engine.fuel) + '\n';
  out += "base " + std::to_string(b.n_masters) + ' ' + std::to_string(b.streams_per_master) +
         ' ' + std::to_string(b.t_min) + ' ' + std::to_string(b.t_max) + ' ' +
         fmt_double_exact(b.deadline_lo) + ' ' + fmt_double_exact(b.deadline_hi) + ' ' +
         std::to_string(b.request_chars_min) + ' ' + std::to_string(b.request_chars_max) + ' ' +
         std::to_string(b.response_chars_min) + ' ' + std::to_string(b.response_chars_max) +
         ' ' + (b.low_priority_traffic ? '1' : '0') + ' ' + std::to_string(b.ttr) + ' ' +
         fmt_double_exact(b.total_u) + '\n';
  // Asymmetric-split provenance, emitted only when active: a classic
  // symmetric sweep's spec block stays byte-identical to the pre-multi-axis
  // format (and merge's byte-compare keeps rejecting mixed-split shard sets).
  if (!b.master_split.empty()) {
    out += "split";
    for (const double w : b.master_split) out += ' ' + fmt_double_exact(w);
    out += '\n';
  }
  if (b.master_skew != 0.0) out += "skew " + fmt_double_exact(b.master_skew) + '\n';
  out += "points " + std::to_string(sw.points.size()) + '\n';
  for (const engine::SweepPoint& pt : sw.points) {
    out += "point " + fmt_double_exact(pt.total_u) + ' ' + fmt_double_exact(pt.beta_lo) + ' ' +
           fmt_double_exact(pt.beta_hi);
    // Ring-size axis override carried as an optional 4th token.
    if (pt.n_masters != 0) out += ' ' + std::to_string(pt.n_masters);
    out += '\n';
  }
  out += std::string("sim ") + cycle_kind_name(so.cycle_model.kind) + ' ' +
         fmt_double_exact(so.cycle_model.min_fraction) + ' ' +
         fmt_double_exact(so.cycle_model.slave_fail_prob) + ' ' + std::to_string(so.horizon) +
         ' ' + fmt_double_exact(so.horizon_cycles) + ' ' + std::to_string(so.horizon_cap) + ' ' +
         (so.lp_traffic ? '1' : '0') + ' ' + (so.collect_histograms ? '1' : '0') + ' ' +
         fmt_double_exact(so.quantile) + ' ' + std::to_string(sh.spec.replications) + '\n';
  // Fault-injection knobs, emitted only when any are active: a zero-fault
  // spec block stays byte-identical to the pre-fault format, and merge's
  // spec byte-compare automatically refuses mixed fault/zero-fault shard
  // sets.
  if (so.faults.any()) {
    const profibus::FaultModel& f = so.faults;
    out += "faults " + fmt_double_exact(f.token_loss_prob) + ' ' +
           std::to_string(f.token_recovery) + ' ' + fmt_double_exact(f.corruption_prob) + ' ' +
           std::to_string(f.max_retransmissions) + ' ' + fmt_double_exact(f.churn_prob) + ' ' +
           std::to_string(f.churn_offline) + ' ' + fmt_double_exact(f.burst_correlation) + '\n';
  }
  // Search brackets, emitted only in the mode that takes them so every other
  // mode's spec block stays byte-identical to the pre-optimizer format.
  if ((mode.flag_groups & kBracketFlags) != 0) {
    const opt::OptimizeOptions& oo = sh.optimize;
    out += "optimize " + std::to_string(oo.scale_lo_q) + ' ' + std::to_string(oo.scale_hi_q) +
           ' ' + std::to_string(oo.ttr_cap) + ' ' + std::to_string(oo.dratio_lo_q) + ' ' +
           std::to_string(oo.dratio_hi_q) + '\n';
  }
}

[[nodiscard]] ShardSpec read_spec(LineReader& r) {
  ShardSpec sh;
  sh.mode = parse_mode(r.line("mode", 1)[0]);
  engine::SweepSpec& sw = sh.spec.sweep;
  sw.seed = to_u64(r.line("seed", 1)[0]);
  sw.scenarios_per_point = to_size(r.line("scenarios-per-point", 1)[0]);

  sw.policies.clear();
  for (const std::string& name : engine::detail::split(r.line("policies", 1)[0], ',')) {
    sw.policies.push_back(parse_policy_name(name));
  }
  if (sw.policies.empty()) throw std::invalid_argument("shard artifact: empty policy list");

  const std::vector<std::string> eng = r.line("engine", 3);
  sw.engine.method = parse_method(eng[0]);
  sw.engine.formulation = parse_formulation(eng[1]);
  sw.engine.fuel = to_int(eng[2], "fuel");

  const std::vector<std::string> base = r.line("base", 13);
  workload::NetworkParams& b = sw.base;
  b.n_masters = to_size(base[0]);
  b.streams_per_master = to_size(base[1]);
  b.t_min = to_ll(base[2]);
  b.t_max = to_ll(base[3]);
  b.deadline_lo = to_double(base[4]);
  b.deadline_hi = to_double(base[5]);
  b.request_chars_min = to_ll(base[6]);
  b.request_chars_max = to_ll(base[7]);
  b.response_chars_min = to_ll(base[8]);
  b.response_chars_max = to_ll(base[9]);
  b.low_priority_traffic = to_bool01(base[10]);
  b.ttr = to_ll(base[11]);
  b.total_u = to_double(base[12]);

  if (r.peek_keyword() == "split") {
    const std::vector<std::string> weights = r.line("split", 1, 4'096);
    b.master_split.reserve(weights.size());
    for (const std::string& w : weights) b.master_split.push_back(to_double(w));
  }
  if (r.peek_keyword() == "skew") b.master_skew = to_double(r.line("skew", 1)[0]);

  const std::size_t n_points = to_size(r.line("points", 1)[0]);
  if (n_points > kMaxScenarios) throw std::invalid_argument("shard spec: too many points");
  sw.points.clear();
  for (std::size_t i = 0; i < n_points; ++i) {
    const std::vector<std::string> pt = r.line("point", 3, 4);
    sw.points.push_back(engine::SweepPoint{to_double(pt[0]), to_double(pt[1]), to_double(pt[2]),
                                           pt.size() == 4 ? to_size(pt[3]) : 0});
  }

  const std::vector<std::string> so = r.line("sim", 10);
  engine::SimOptions& o = sh.spec.sim;
  o.cycle_model.kind = parse_cycle_kind(so[0]);
  o.cycle_model.min_fraction = to_double(so[1]);
  o.cycle_model.slave_fail_prob = to_double(so[2]);
  o.horizon = to_ll(so[3]);
  o.horizon_cycles = to_double(so[4]);
  o.horizon_cap = to_ll(so[5]);
  o.lp_traffic = to_bool01(so[6]);
  o.collect_histograms = to_bool01(so[7]);
  o.quantile = to_double(so[8]);
  sh.spec.replications = to_size(so[9]);

  if (r.peek_keyword() == "faults") {
    const std::vector<std::string> f = r.line("faults", 7);
    o.faults.token_loss_prob = to_double(f[0]);
    o.faults.token_recovery = to_ll(f[1]);
    o.faults.corruption_prob = to_double(f[2]);
    o.faults.max_retransmissions = to_int(f[3], "max_retransmissions");
    o.faults.churn_prob = to_double(f[4]);
    o.faults.churn_offline = to_ll(f[5]);
    o.faults.burst_correlation = to_double(f[6]);
    o.faults.validate();
  }

  if ((trait(sh.mode).flag_groups & kBracketFlags) != 0) {
    const std::vector<std::string> oo = r.line("optimize", 5);
    sh.optimize.scale_lo_q = to_ll(oo[0]);
    sh.optimize.scale_hi_q = to_ll(oo[1]);
    sh.optimize.ttr_cap = to_ll(oo[2]);
    sh.optimize.dratio_lo_q = to_ll(oo[3]);
    sh.optimize.dratio_hi_q = to_ll(oo[4]);
  }
  validate_spec(sh);
  return sh;
}

/// Spec blocks are accepted only in the bytes serialize_spec writes for
/// them: `text` must hold those bytes at `at`, followed by `next` (by nothing
/// when `next` is empty). Anything else — trailing bytes in a number, a
/// zero-valued optional line, a non-canonical spelling — would describe the
/// same run in other bytes, and merge's spec byte-compare and the cache keys
/// go by the bytes.
void expect_canonical(const std::string& text, std::size_t at, const ShardSpec& spec,
                      std::string_view next) {
  std::string canonical;
  append_spec(canonical, spec);
  const std::size_t end = at + canonical.size();
  if (text.compare(at, canonical.size(), canonical) != 0 ||
      (next.empty() ? end != text.size() : text.compare(end, next.size(), next) != 0)) {
    throw std::invalid_argument("shard spec: block is not in the form serialize_spec writes");
  }
}

}  // namespace

std::string serialize_spec(const ShardSpec& spec) {
  std::string out;
  append_spec(out, spec);
  return out;
}

ShardSpec parse_spec(const std::string& text) {
  LineReader r(text);
  const ShardSpec spec = read_spec(r);
  // Nothing may follow the block: trailing data means the sender framed it wrong.
  expect_canonical(text, 0, spec, "");
  return spec;
}

std::string ShardArtifact::to_text() const {
  const ModeTrait& mode = trait(spec.mode);
  const std::size_t rows = mode.rows(*this);
  std::string out = kMagic;
  out += '\n';
  append_spec(out, spec);
  out += "shard " + std::to_string(shard_index) + ' ' + std::to_string(shard_count) + '\n';
  out += "range " + std::to_string(range.begin) + ' ' + std::to_string(range.end) + '\n';
  out += "outcomes " + std::to_string(rows) + '\n';
  mode.encode(*this, out);
  out += "end\n";
  dist_metrics().rows_written.add(rows);
  return out;
}

ShardArtifact ShardArtifact::from_text(const std::string& text) {
  const std::string first = text.substr(0, text.find('\n'));
  if (first != kMagic) {
    throw std::invalid_argument(
        first.rfind("profisched-shard ", 0) == 0
            ? "shard artifact: format '" + first + "' is not readable by this build (it reads '" +
                  kMagic + "'); re-run the shard"
            : std::string("shard artifact: not a '") + kMagic + "' file");
  }
  LineReader r(text);
  r.literal(kMagic);
  ShardArtifact art;
  art.spec = read_spec(r);
  expect_canonical(text, first.size() + 1, art.spec, "shard ");

  const std::vector<std::string> sh = r.line("shard", 2);
  art.shard_index = to_u64(sh[0]);
  art.shard_count = to_u64(sh[1]);
  const std::vector<std::string> rg = r.line("range", 2);
  art.range.begin = to_u64(rg[0]);
  art.range.end = to_u64(rg[1]);
  if (art.range.begin > art.range.end || art.range.end > art.spec.total_scenarios()) {
    throw std::invalid_argument("shard artifact: range [" + rg[0] + ", " + rg[1] +
                                ") lies outside the sweep");
  }
  // The row count must match the range before a single row is read.
  const std::size_t n_rows = to_size(r.line("outcomes", 1)[0]);
  if (n_rows != art.range.size()) {
    throw std::invalid_argument("shard artifact: " + std::to_string(n_rows) +
                                " outcome rows for a range of " +
                                std::to_string(art.range.size()) + " ids");
  }
  const ModeTrait& mode = trait(art.spec.mode);
  for (std::size_t i = 0; i < n_rows; ++i) {
    const std::string& line = r.raw("outcome row");
    if (!mode.decode(line, art)) {
      throw std::invalid_argument("shard artifact: malformed outcome row '" + line + "'");
    }
  }
  r.literal("end");
  return art;
}

ShardArtifact ShardRunner::run(const ShardSpec& spec, std::uint64_t index, std::uint64_t count,
                               engine::ScenarioCache* cache) {
  if (index >= count) {
    throw std::invalid_argument("ShardRunner: shard index must be < shard count");
  }
  ShardArtifact art;
  art.spec = spec;
  art.shard_index = index;
  art.shard_count = count;
  art.range =
      ShardPlan::split(spec.total_scenarios(), count).ranges[static_cast<std::size_t>(index)];
  trait(spec.mode).execute(runner_, art, cache);
  return art;
}

MergedSweep merge_shards(const std::vector<ShardArtifact>& shards) {
  return merge_shards(std::vector<ShardArtifact>(shards));
}

MergedSweep merge_shards(std::vector<ShardArtifact>&& shards) {
  if (shards.empty()) throw std::invalid_argument("merge: no shard artifacts");

  const std::string spec_block = serialize_spec(shards[0].spec);
  const std::uint64_t count = shards[0].shard_count;
  const std::uint64_t total = shards[0].spec.total_scenarios();
  if (count == 0) throw std::invalid_argument("merge: shard count 0");
  if (shards.size() != count) {
    throw std::invalid_argument("merge: got " + std::to_string(shards.size()) +
                                " artifacts for a " + std::to_string(count) + "-shard sweep");
  }

  DistMetrics& dm = dist_metrics();
  dm.artifacts.add(shards.size());

  std::vector<ShardArtifact*> by_index(static_cast<std::size_t>(count), nullptr);
  for (ShardArtifact& s : shards) {
    dm.spec_validations.add(1);
    if (serialize_spec(s.spec) != spec_block) {
      throw std::invalid_argument("merge: shard " + std::to_string(s.shard_index) +
                                  " was produced under a different spec");
    }
    if (s.shard_count != count) {
      throw std::invalid_argument("merge: shard counts disagree (" + std::to_string(count) +
                                  " vs " + std::to_string(s.shard_count) + ")");
    }
    if (s.shard_index >= count) {
      throw std::invalid_argument("merge: shard index " + std::to_string(s.shard_index) +
                                  " outside plan of " + std::to_string(count));
    }
    auto*& slot = by_index[static_cast<std::size_t>(s.shard_index)];
    if (slot != nullptr) {
      throw std::invalid_argument("merge: duplicate shard index " +
                                  std::to_string(s.shard_index));
    }
    slot = &s;
  }

  // The planner carves [0, N) contiguously in index order, so the shards
  // must tile it exactly — any gap or overlap means a shard ran under a
  // different plan (or was hand-edited) and the merge would be silently
  // wrong. Row counts are checked here too, before anything is allocated.
  const ModeTrait& mode = trait(shards[0].spec.mode);
  std::uint64_t cursor = 0;
  for (std::uint64_t k = 0; k < count; ++k) {
    const ShardArtifact& s = *by_index[static_cast<std::size_t>(k)];
    if (s.range.begin != cursor) {
      throw std::invalid_argument(
          "merge: shard " + std::to_string(k) + " starts at id " +
          std::to_string(s.range.begin) + ", expected " + std::to_string(cursor) +
          (s.range.begin > cursor ? " (gap)" : " (overlap)"));
    }
    if (s.range.end < s.range.begin || s.range.end > total) {
      throw std::invalid_argument("merge: shard " + std::to_string(k) + " range exceeds sweep");
    }
    if (mode.rows(s) != s.range.size()) {
      throw std::invalid_argument("merge: shard " + std::to_string(k) + " carries " +
                                  std::to_string(mode.rows(s)) + " outcomes for a range of " +
                                  std::to_string(s.range.size()));
    }
    cursor = s.range.end;
  }
  if (cursor != total) {
    throw std::invalid_argument("merge: shards cover [0, " + std::to_string(cursor) +
                                ") but the sweep has " + std::to_string(total) + " scenarios");
  }

  MergedSweep merged;
  merged.spec = shards[0].spec;
  for (ShardArtifact* s : by_index) {
    dm.rows_merged.add(mode.rows(*s));
    mode.append(*s, merged, total);
  }
  return merged;
}

}  // namespace profisched::dist
