#include "profibus/edf_analysis.hpp"

#include <algorithm>

#include "core/response_time_edf.hpp"
#include "profibus/priority_assignment.hpp"

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
  if (detail) detail->assign(net.n_masters(), {});
  return analyze_masters(net, memo, [&](std::size_t k, MasterAnalysis& ma) {
    const Ticks tcycle = memo.per_master[k];
    const TaskSetView& v = bind_master(s.arena, net.masters[k], tcycle);
    const BusyPeriod busy = synchronous_busy_period(v, fuel);
    if (detail) (*detail)[k].resize(v.n);
    for (std::size_t i = 0; i < v.n; ++i) {
      const EdfRtaResult r =
          edf_response_time(v, i, busy, s, /*preemptive=*/false, kMessageModel, fuel);
      if (r.converged) ma.streams[i] = {r.response - tcycle, r.response, r.response <= v.D[i]};
      if (detail) (*detail)[k][i] = {r.critical_offset, r.offsets_examined};
    }
  });
}

bool edf_master_schedulable(const Master& master, Ticks tcycle, int fuel, RtaScratch& scratch) {
  const TaskSetView& v = bind_master(scratch.arena, master, tcycle);
  if (v.overloaded()) return false;
  deadline_monotonic_order(master, scratch.order);
  const auto all_meet = [&](const BusyPeriod& busy, Ticks from) {
    return std::ranges::all_of(scratch.order, [&](std::size_t i) {
      return edf_meets_deadline(v, i, busy, scratch, kMessageModel, fuel, from);
    });
  };
  const Ticks prefix_end = v.total_execution();
  return all_meet({.length = prefix_end}, 0) &&
         all_meet(synchronous_busy_period(v, fuel), sat_add(prefix_end, 1));
}

}  // namespace profisched::profibus
