#include "profibus/fcfs_analysis.hpp"

namespace profisched::profibus {

NetworkAnalysis analyze_fcfs(const Network& net, TcycleMethod method) {
  return analyze_fcfs(net, compute_timing(net, method));
}

NetworkAnalysis analyze_fcfs(const Network& net, const TimingMemo& memo) {
  return analyze_masters(net, memo, [&](std::size_t k, MasterAnalysis& ma) {
    const Master& master = net.masters[k];
    const Ticks nh = static_cast<Ticks>(master.nh());
    for (std::size_t i = 0; i < master.nh(); ++i) {
      const MessageStream& s = master.high_streams[i];
      StreamResponse& r = ma.streams[i];
      r.response = sat_mul(nh, memo.per_master[k]);                    // eq. 11
      r.Q = sat_add(r.response, -s.Ch);                                // Q = nh·T_cycle − Ch
      r.meets_deadline = r.response != kNoBound && r.response <= s.D;  // eq. 12
    }
  });
}

bool fcfs_master_schedulable(const Master& master, Ticks tcycle) {
  const Ticks response = sat_mul(static_cast<Ticks>(master.nh()), tcycle);
  return std::ranges::all_of(master.high_streams, [&](const MessageStream& s) {
    return response != kNoBound && response <= s.D;
  });
}

}  // namespace profisched::profibus
