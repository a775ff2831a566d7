#include "profibus/edf_analysis.hpp"

#include <limits>

#include "core/response_time_edf.hpp"

namespace profisched::profibus {

NetworkAnalysis analyze_edf(const Network& net, TcycleMethod method,
                            std::vector<std::vector<EdfStreamDetail>>* detail, int fuel) {
  return analyze_edf(net, compute_timing(net, method), detail, fuel);
}

NetworkAnalysis analyze_edf(const Network& net, const TimingMemo& memo,
                            std::vector<std::vector<EdfStreamDetail>>* detail, int fuel,
                            RtaScratch* scratch) {
  RtaScratch local;
  RtaScratch& s = scratch != nullptr ? *scratch : local;
  const EdfRtaOptions opt{.max_offsets = std::numeric_limits<std::size_t>::max(),
                          .fixed_point_fuel = fuel};
  if (detail) detail->assign(net.n_masters(), {});
  return analyze_masters(net, memo, [&](std::size_t k, MasterAnalysis& ma) {
    const Ticks tcycle = memo.per_master[k];
    const TaskSetView& v = bind_master(s.arena, net.masters[k], tcycle);
    const EdfHorizon h = edf_horizon(v, fuel, s);
    if (detail) (*detail)[k].resize(v.n);
    for (std::size_t i = 0; i < v.n; ++i) {
      const EdfRtaResult r = edf_response_time(v, i, h, opt, s, /*preemptive=*/false,
                                               kMessageModel);
      if (r.converged) ma.streams[i] = {r.response - tcycle, r.response, r.response <= v.D[i]};
      if (detail) (*detail)[k][i] = {r.critical_offset, r.offsets_examined};
    }
  });
}

}  // namespace profisched::profibus
