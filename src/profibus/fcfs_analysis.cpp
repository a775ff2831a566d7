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

bool fcfs_schedulable(const Network& net, const TimingMemo& memo) {
  net.validate();
  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    const Master& master = net.masters[k];
    const Ticks response = sat_mul(static_cast<Ticks>(master.nh()), memo.per_master[k]);
    for (const MessageStream& s : master.high_streams) {
      if (response == kNoBound || response > s.D) return false;
    }
  }
  return true;
}

}  // namespace profisched::profibus
