#include "engine/sim_aggregate.hpp"

#include <algorithm>

#include "engine/detail/serialize.hpp"

namespace profisched::engine {

using detail::fmt_double;

// ---------------------------------------------------------------- SimCurves

namespace {

bool sim_curves_have_masters(const std::vector<SimCurvePoint>& points) {
  for (const SimCurvePoint& pt : points) {
    if (pt.n_masters != 0) return true;
  }
  return false;
}

}  // namespace

std::string SimCurves::to_csv() const {
  const bool masters = sim_curves_have_masters(points);
  std::string out =
      masters ? "u,beta_lo,beta_hi,masters,scenarios,policy,miss_free,total_misses,"
                "total_dropped,max_observed,quantile_observed,ratio\n"
              : "u,beta_lo,beta_hi,scenarios,policy,miss_free,total_misses,total_dropped,"
                "max_observed,quantile_observed,ratio\n";
  for (const SimCurvePoint& pt : points) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      out += fmt_double(pt.total_u) + ',' + fmt_double(pt.beta_lo) + ',' +
             fmt_double(pt.beta_hi) + ',';
      if (masters) out += std::to_string(pt.n_masters) + ',';
      out += std::to_string(pt.scenarios) + ',' + policies[p] + ',' +
             std::to_string(pt.miss_free[p]) + ',' + std::to_string(pt.total_misses[p]) + ',' +
             std::to_string(pt.total_dropped[p]) + ',' + std::to_string(pt.max_observed[p]) +
             ',' + std::to_string(pt.quantile_observed[p]) + ',' + fmt_double(pt.ratio(p)) +
             '\n';
    }
  }
  return out;
}

std::string SimCurves::to_json() const {
  const bool masters = sim_curves_have_masters(points);
  std::string out = "{\n  \"policies\": [";
  for (std::size_t p = 0; p < policies.size(); ++p) {
    out += (p == 0 ? "" : ", ");
    out += '"' + policies[p] + '"';
  }
  out += "],\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SimCurvePoint& pt = points[i];
    out += "    {\"u\": " + fmt_double(pt.total_u) + ", \"beta_lo\": " + fmt_double(pt.beta_lo) +
           ", \"beta_hi\": " + fmt_double(pt.beta_hi);
    if (masters) out += ", \"masters\": " + std::to_string(pt.n_masters);
    out += ", \"scenarios\": " + std::to_string(pt.scenarios) + ", \"series\": {";
    for (std::size_t p = 0; p < policies.size(); ++p) {
      out += (p == 0 ? "" : ", ");
      out += '"' + policies[p] + "\": [" + std::to_string(pt.miss_free[p]) + ", " +
             std::to_string(pt.total_misses[p]) + ", " + std::to_string(pt.total_dropped[p]) +
             ", " + std::to_string(pt.max_observed[p]) + ", " +
             std::to_string(pt.quantile_observed[p]) + ']';
    }
    out += "}}";
    out += (i + 1 < points.size() ? ",\n" : "\n");
  }
  out += "  ]\n}\n";
  return out;
}

SimCurves aggregate_sim(const SimSweepSpec& spec, const SimSweepResult& result) {
  SimCurves out;
  out.policies.reserve(spec.sweep.policies.size());
  for (const Policy p : spec.sweep.policies) out.policies.emplace_back(to_string(p));

  out.points.resize(spec.sweep.points.size());
  for (std::size_t i = 0; i < spec.sweep.points.size(); ++i) {
    out.points[i].total_u = spec.sweep.points[i].total_u;
    out.points[i].beta_lo = spec.sweep.points[i].beta_lo;
    out.points[i].beta_hi = spec.sweep.points[i].beta_hi;
    out.points[i].n_masters = spec.sweep.points[i].n_masters;
    out.points[i].miss_free.assign(spec.sweep.policies.size(), 0);
    out.points[i].total_misses.assign(spec.sweep.policies.size(), 0);
    out.points[i].total_dropped.assign(spec.sweep.policies.size(), 0);
    out.points[i].max_observed.assign(spec.sweep.policies.size(), 0);
    out.points[i].quantile_observed.assign(spec.sweep.policies.size(), 0);
  }
  for (const SimScenarioOutcome& o : result.outcomes) {
    SimCurvePoint& pt = out.points[o.point];
    ++pt.scenarios;
    for (std::size_t p = 0; p < o.cells.size(); ++p) {
      const SimCell& c = o.cells[p];
      // "Miss-free" demands clean delivery: a dropped (never-completed) cycle
      // disqualifies the scenario just like an observed deadline miss would.
      if (c.misses == 0 && c.dropped == 0) ++pt.miss_free[p];
      pt.total_misses[p] += c.misses;
      pt.total_dropped[p] += c.dropped;
      pt.max_observed[p] = std::max(pt.max_observed[p], c.observed_max);
      pt.quantile_observed[p] = std::max(pt.quantile_observed[p], c.observed_p99);
    }
  }
  return out;
}

// ---------------------------------------------------------- ConsistencyTable

std::string ConsistencyTable::to_csv() const {
  std::string out = "id,seed,u,";
  if (multi_axis) out += "beta_lo,beta_hi,masters,";
  out += "policy,analytic_schedulable,analytic_wcrt,";
  if (fault_axis) out += "degraded_schedulable,degraded_wcrt,";
  out +=
      "observed_max,observed_p99,misses,completed,dropped,bound_violations,"
      "accept_but_miss,pessimism\n";
  for (const ConsistencyRow& r : rows) {
    out += std::to_string(r.id) + ',' + std::to_string(r.seed) + ',' + fmt_double(r.total_u) +
           ',';
    if (multi_axis) {
      out += fmt_double(r.beta_lo) + ',' + fmt_double(r.beta_hi) + ',' +
             std::to_string(r.n_masters) + ',';
    }
    out += r.policy + ',' + (r.analytic_schedulable ? '1' : '0') + ',' +
           std::to_string(r.analytic_wcrt) + ',';
    if (fault_axis) {
      out += std::string(1, r.degraded_schedulable ? '1' : '0') + ',' +
             std::to_string(r.degraded_wcrt) + ',';
    }
    out += std::to_string(r.observed_max) + ',' + std::to_string(r.observed_p99) + ',' +
           std::to_string(r.misses) + ',' + std::to_string(r.completed) + ',' +
           std::to_string(r.dropped) + ',' + std::to_string(r.bound_violations) + ',' +
           (r.accept_but_miss ? '1' : '0') + ',' + fmt_double(r.pessimism()) + '\n';
  }
  return out;
}

std::string ConsistencyTable::to_json() const {
  // Extended tables lead with explicit markers, so the layout is stated even
  // with zero rows (the per-row keys cannot carry it then). Classic tables
  // keep the historical grammar.
  std::string out = "{\n";
  if (multi_axis) out += "  \"multi_axis\": true,\n";
  if (fault_axis) out += "  \"fault_axis\": true,\n";
  out += "  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ConsistencyRow& r = rows[i];
    out += "    {\"id\": " + std::to_string(r.id) + ", \"seed\": " + std::to_string(r.seed) +
           ", \"u\": " + fmt_double(r.total_u);
    if (multi_axis) {
      out += ", \"beta_lo\": " + fmt_double(r.beta_lo) +
             ", \"beta_hi\": " + fmt_double(r.beta_hi) +
             ", \"masters\": " + std::to_string(r.n_masters);
    }
    out += ", \"policy\": \"" + r.policy +
           "\", \"analytic_schedulable\": " + (r.analytic_schedulable ? "true" : "false") +
           ", \"analytic_wcrt\": " + std::to_string(r.analytic_wcrt);
    if (fault_axis) {
      out += std::string(", \"degraded_schedulable\": ") +
             (r.degraded_schedulable ? "true" : "false") +
             ", \"degraded_wcrt\": " + std::to_string(r.degraded_wcrt);
    }
    out += ", \"observed_max\": " + std::to_string(r.observed_max) +
           ", \"observed_p99\": " + std::to_string(r.observed_p99) +
           ", \"misses\": " + std::to_string(r.misses) +
           ", \"completed\": " + std::to_string(r.completed) +
           ", \"dropped\": " + std::to_string(r.dropped) +
           ", \"bound_violations\": " + std::to_string(r.bound_violations) +
           ", \"accept_but_miss\": " + (r.accept_but_miss ? "true" : "false") + "}";
    out += (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out += "  ]\n}\n";
  return out;
}

std::size_t ConsistencyTable::accept_but_miss_count() const noexcept {
  std::size_t n = 0;
  for (const ConsistencyRow& r : rows) n += r.accept_but_miss ? 1 : 0;
  return n;
}

std::uint64_t ConsistencyTable::total_bound_violations() const noexcept {
  std::uint64_t n = 0;
  for (const ConsistencyRow& r : rows) n += r.bound_violations;
  return n;
}

ConsistencyTable consistency_table(const SimSweepSpec& spec, const CombinedResult& result) {
  ConsistencyTable out;
  out.multi_axis = has_multi_axis(spec.sweep.points);
  out.fault_axis = spec.sim.faults.any();
  out.rows.reserve(result.outcomes.size() * spec.sweep.policies.size());
  for (const CombinedOutcome& o : result.outcomes) {
    for (std::size_t p = 0; p < spec.sweep.policies.size(); ++p) {
      const CombinedCell& c = o.cells[p];
      ConsistencyRow r;
      r.id = o.id;
      r.seed = o.seed;
      const SweepPoint& pt = spec.sweep.points[o.point];
      r.total_u = pt.total_u;
      r.beta_lo = pt.beta_lo;
      r.beta_hi = pt.beta_hi;
      // Effective ring size, not the 0 sentinel: a beta-axis-only sweep still
      // switches to the extended columns, and its rows must attribute
      // themselves to the masters count the networks were generated with.
      r.n_masters = pt.n_masters != 0 ? pt.n_masters : spec.sweep.base.n_masters;
      r.policy = std::string(to_string(spec.sweep.policies[p]));
      r.analytic_schedulable = c.analytic_schedulable;
      r.analytic_wcrt = c.analytic_wcrt;
      if (out.fault_axis) {
        r.degraded_schedulable = c.degraded_schedulable;
        r.degraded_wcrt = c.degraded_wcrt;
      }
      r.observed_max = c.sim.observed_max;
      r.observed_p99 = c.sim.observed_p99;
      r.misses = c.sim.misses;
      r.completed = c.sim.completed;
      r.dropped = c.sim.dropped;
      r.bound_violations = c.bound_violations;
      // The verdict the miss check holds: degraded when the sweep ran with faults.
      const bool accepted = out.fault_axis ? c.degraded_schedulable : c.analytic_schedulable;
      r.accept_but_miss = accepted && c.sim.misses > 0;
      out.rows.push_back(std::move(r));
    }
  }
  return out;
}

}  // namespace profisched::engine
