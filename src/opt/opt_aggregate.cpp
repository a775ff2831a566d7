#include "opt/opt_aggregate.hpp"

#include <algorithm>
#include <stdexcept>

#include "engine/detail/serialize.hpp"

namespace profisched::opt {

using engine::detail::fmt_double;

namespace {

bool table_has_masters(const std::vector<OptimizePoint>& points) {
  for (const OptimizePoint& pt : points) {
    if (pt.n_masters != 0) return true;
  }
  return false;
}

std::string stats_csv(const OptimumStats& s) {
  return std::to_string(s.schedulable) + ',' + std::to_string(s.breakdown_feasible) + ',' +
         fmt_double(s.breakdown_u_min) + ',' + fmt_double(s.breakdown_u_p50) + ',' +
         fmt_double(s.breakdown_u_p90) + ',' + fmt_double(s.breakdown_u_max) + ',' +
         std::to_string(s.ttr_feasible) + ',' + std::to_string(s.max_ttr_p50) + ',' +
         std::to_string(s.max_ttr_max) + ',' + std::to_string(s.dratio_feasible) + ',' +
         fmt_double(s.min_dratio_p50) + ',' + fmt_double(s.min_dratio_min);
}

}  // namespace

std::size_t quantile_index(std::size_t n, std::size_t p) {
  // Nearest-rank: ceil(p·n / 100) − 1, clamped into [0, n).
  if (n == 0) return 0;
  const std::size_t rank = (p * n + 99) / 100;
  return rank == 0 ? 0 : std::min(rank - 1, n - 1);
}

std::string OptimizeTable::to_csv() const {
  const bool masters = table_has_masters(points);
  std::string out = masters ? "u,beta_lo,beta_hi,masters," : "u,beta_lo,beta_hi,";
  out +=
      "scenarios,policy,schedulable,breakdown_feasible,breakdown_u_min,breakdown_u_p50,"
      "breakdown_u_p90,breakdown_u_max,ttr_feasible,max_ttr_p50,max_ttr_max,dratio_feasible,"
      "min_dratio_p50,min_dratio_min\n";
  for (const OptimizePoint& pt : points) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      out += fmt_double(pt.total_u) + ',' + fmt_double(pt.beta_lo) + ',' +
             fmt_double(pt.beta_hi) + ',';
      if (masters) out += std::to_string(pt.n_masters) + ',';
      out += std::to_string(pt.scenarios) + ',' + policies[p] + ',' + stats_csv(pt.stats[p]) +
             '\n';
    }
  }
  return out;
}

std::string OptimizeTable::to_json() const {
  const bool masters = table_has_masters(points);
  std::string out = "{\n  \"policies\": [";
  for (std::size_t p = 0; p < policies.size(); ++p) {
    out += (p == 0 ? "" : ", ");
    out += '"' + policies[p] + '"';
  }
  out += "],\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const OptimizePoint& pt = points[i];
    out += "    {\"u\": " + fmt_double(pt.total_u) + ", \"beta_lo\": " + fmt_double(pt.beta_lo) +
           ", \"beta_hi\": " + fmt_double(pt.beta_hi);
    if (masters) out += ", \"masters\": " + std::to_string(pt.n_masters);
    out += ", \"scenarios\": " + std::to_string(pt.scenarios) + ", \"optima\": {";
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const OptimumStats& s = pt.stats[p];
      out += (p == 0 ? "" : ", ");
      out += '"' + policies[p] + "\": {\"schedulable\": " + std::to_string(s.schedulable) +
             ", \"breakdown_feasible\": " + std::to_string(s.breakdown_feasible) +
             ", \"breakdown_u\": [" + fmt_double(s.breakdown_u_min) + ", " +
             fmt_double(s.breakdown_u_p50) + ", " + fmt_double(s.breakdown_u_p90) + ", " +
             fmt_double(s.breakdown_u_max) + "], \"ttr_feasible\": " +
             std::to_string(s.ttr_feasible) + ", \"max_ttr\": [" +
             std::to_string(s.max_ttr_p50) + ", " + std::to_string(s.max_ttr_max) +
             "], \"dratio_feasible\": " + std::to_string(s.dratio_feasible) +
             ", \"min_dratio\": [" + fmt_double(s.min_dratio_p50) + ", " +
             fmt_double(s.min_dratio_min) + "]}";
    }
    out += "}}";
    out += (i + 1 < points.size() ? ",\n" : "\n");
  }
  out += "  ]\n}\n";
  return out;
}

OptimizeTable aggregate_optimize(const OptimizeSpec& spec, const OptimizeResult& result) {
  OptimizeTable out;
  out.policies.reserve(spec.sweep.policies.size());
  for (const engine::Policy p : spec.sweep.policies) {
    out.policies.emplace_back(engine::to_string(p));
  }

  out.points.resize(spec.sweep.points.size());
  // Per-cell distributions, gathered then sorted — sorting makes the
  // aggregation independent of outcome order (threads, shard concatenation).
  std::vector<std::vector<std::vector<double>>> breakdown(spec.sweep.points.size());
  std::vector<std::vector<std::vector<Ticks>>> ttrs(spec.sweep.points.size());
  std::vector<std::vector<std::vector<Ticks>>> dratios(spec.sweep.points.size());
  for (std::size_t i = 0; i < spec.sweep.points.size(); ++i) {
    out.points[i].total_u = spec.sweep.points[i].total_u;
    out.points[i].beta_lo = spec.sweep.points[i].beta_lo;
    out.points[i].beta_hi = spec.sweep.points[i].beta_hi;
    out.points[i].n_masters = spec.sweep.points[i].n_masters;
    out.points[i].stats.assign(spec.sweep.policies.size(), OptimumStats{});
    breakdown[i].resize(spec.sweep.policies.size());
    ttrs[i].resize(spec.sweep.policies.size());
    dratios[i].resize(spec.sweep.policies.size());
  }

  for (const OptimizeOutcome& o : result.outcomes) {
    OptimizePoint& pt = out.points.at(o.point);
    ++pt.scenarios;
    for (std::size_t p = 0; p < o.cells.size(); ++p) {
      const PolicyOptimum& po = o.cells[p];
      if (po.schedulable) ++pt.stats[p].schedulable;
      if (po.breakdown_q > 0) breakdown[o.point][p].push_back(po.breakdown_u);
      if (po.max_ttr > 0) ttrs[o.point][p].push_back(po.max_ttr);
      if (po.min_dratio_q > 0) dratios[o.point][p].push_back(po.min_dratio_q);
    }
  }

  for (std::size_t i = 0; i < out.points.size(); ++i) {
    for (std::size_t p = 0; p < out.policies.size(); ++p) {
      OptimumStats& s = out.points[i].stats[p];
      auto& bu = breakdown[i][p];
      std::sort(bu.begin(), bu.end());
      s.breakdown_feasible = bu.size();
      if (!bu.empty()) {
        s.breakdown_u_min = bu.front();
        s.breakdown_u_p50 = bu[quantile_index(bu.size(), 50)];
        s.breakdown_u_p90 = bu[quantile_index(bu.size(), 90)];
        s.breakdown_u_max = bu.back();
      }
      auto& tt = ttrs[i][p];
      std::sort(tt.begin(), tt.end());
      s.ttr_feasible = tt.size();
      if (!tt.empty()) {
        s.max_ttr_p50 = tt[quantile_index(tt.size(), 50)];
        s.max_ttr_max = tt.back();
      }
      auto& dr = dratios[i][p];
      std::sort(dr.begin(), dr.end());
      s.dratio_feasible = dr.size();
      if (!dr.empty()) {
        s.min_dratio_p50 =
            static_cast<double>(dr[quantile_index(dr.size(), 50)]) / sensitivity::kScaleOne;
        s.min_dratio_min = static_cast<double>(dr.front()) / sensitivity::kScaleOne;
      }
    }
  }
  return out;
}

}  // namespace profisched::opt
