#include "engine/aggregate.hpp"

#include <stdexcept>

#include "engine/detail/serialize.hpp"

namespace profisched::engine {

using detail::fmt_double;

namespace {

/// Masters-axis detection for the serialized layouts: any point with an
/// explicit ring size switches every row to the extended column set.
bool curves_have_masters(const std::vector<CurvePoint>& points) {
  for (const CurvePoint& pt : points) {
    if (pt.n_masters != 0) return true;
  }
  return false;
}

}  // namespace

std::string SweepCurves::to_csv() const {
  const bool masters = curves_have_masters(points);
  std::string out = masters ? "u,beta_lo,beta_hi,masters,scenarios,policy,schedulable,ratio\n"
                            : "u,beta_lo,beta_hi,scenarios,policy,schedulable,ratio\n";
  for (const CurvePoint& pt : points) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      out += fmt_double(pt.total_u) + ',' + fmt_double(pt.beta_lo) + ',' +
             fmt_double(pt.beta_hi) + ',';
      if (masters) out += std::to_string(pt.n_masters) + ',';
      out += std::to_string(pt.scenarios) + ',' + policies[p] + ',' +
             std::to_string(pt.schedulable[p]) + ',' + fmt_double(pt.ratio(p)) + '\n';
    }
  }
  return out;
}

std::string SweepCurves::to_json() const {
  const bool masters = curves_have_masters(points);
  std::string out = "{\n  \"policies\": [";
  for (std::size_t p = 0; p < policies.size(); ++p) {
    out += (p == 0 ? "" : ", ");
    out += '"' + policies[p] + '"';
  }
  out += "],\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const CurvePoint& pt = points[i];
    out += "    {\"u\": " + fmt_double(pt.total_u) + ", \"beta_lo\": " + fmt_double(pt.beta_lo) +
           ", \"beta_hi\": " + fmt_double(pt.beta_hi);
    if (masters) out += ", \"masters\": " + std::to_string(pt.n_masters);
    out += ", \"scenarios\": " + std::to_string(pt.scenarios) + ", \"schedulable\": {";
    for (std::size_t p = 0; p < policies.size(); ++p) {
      out += (p == 0 ? "" : ", ");
      out += '"' + policies[p] + "\": " + std::to_string(pt.schedulable[p]);
    }
    out += "}}";
    out += (i + 1 < points.size() ? ",\n" : "\n");
  }
  out += "  ]\n}\n";
  return out;
}

std::vector<std::size_t> count_exclusive(const SweepSpec& spec, const SweepResult& result,
                                         Policy yes, Policy no) {
  const auto index_of = [&](Policy p) {
    for (std::size_t i = 0; i < spec.policies.size(); ++i) {
      if (spec.policies[i] == p) return i;
    }
    throw std::invalid_argument(std::string("count_exclusive: policy ") +
                                std::string(to_string(p)) + " not in the sweep");
  };
  const std::size_t yi = index_of(yes);
  const std::size_t ni = index_of(no);
  std::vector<std::size_t> out(spec.points.size(), 0);
  for (const ScenarioOutcome& o : result.outcomes) {
    if (o.cells[yi].schedulable && !o.cells[ni].schedulable) ++out[o.point];
  }
  return out;
}

SweepCurves aggregate(const SweepSpec& spec, const SweepResult& result) {
  SweepCurves out;
  out.policies.reserve(spec.policies.size());
  for (const Policy p : spec.policies) out.policies.emplace_back(to_string(p));

  out.points.resize(spec.points.size());
  for (std::size_t i = 0; i < spec.points.size(); ++i) {
    out.points[i].total_u = spec.points[i].total_u;
    out.points[i].beta_lo = spec.points[i].beta_lo;
    out.points[i].beta_hi = spec.points[i].beta_hi;
    out.points[i].n_masters = spec.points[i].n_masters;
    out.points[i].schedulable.assign(spec.policies.size(), 0);
  }
  for (const ScenarioOutcome& o : result.outcomes) {
    CurvePoint& pt = out.points[o.point];
    ++pt.scenarios;
    for (std::size_t p = 0; p < o.cells.size(); ++p) {
      if (o.cells[p].schedulable) ++pt.schedulable[p];
    }
  }
  return out;
}

}  // namespace profisched::engine
