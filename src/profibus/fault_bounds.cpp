#include "profibus/fault_bounds.hpp"

#include "profibus/sensitivity.hpp"

namespace profisched::profibus {

Network degraded_network(const Network& net, const FaultModel& faults) {
  if (faults.corruption_prob <= 0.0 || faults.max_retransmissions == 0) return net;
  const Ticks q = sat_mul(static_cast<Ticks>(1 + faults.max_retransmissions),
                          sensitivity::kScaleOne);
  return with_scaled_frames(net, q);
}

Ticks degraded_dead_time(const Network& net, const FaultModel& faults) {
  const auto n = static_cast<Ticks>(net.n_masters());
  Ticks dead = 0;
  if (faults.token_loss_prob > 0.0) {
    dead = sat_add(dead, sat_mul(n, faults.token_recovery));
  }
  if (faults.churn_prob > 0.0 && n > 1) {
    const Ticks per_skip = sat_add(net.bus.t_sl, token_pass_time(net.bus));
    dead = sat_add(dead, sat_mul(n - 1, per_skip));
  }
  return dead;
}

TimingMemo degraded_timing(const Network& degraded_net, const FaultModel& faults,
                           TcycleMethod method) {
  TimingMemo memo = compute_timing(degraded_net, method);
  const Ticks dead = degraded_dead_time(degraded_net, faults);
  if (dead > 0) {
    memo.tdel = sat_add(memo.tdel, dead);
    memo.tcycle = sat_add(memo.tcycle, dead);
    for (Ticks& t : memo.per_master) t = sat_add(t, dead);
  }
  return memo;
}

}  // namespace profisched::profibus
