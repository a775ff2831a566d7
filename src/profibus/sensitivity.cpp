#include "profibus/sensitivity.hpp"

#include <algorithm>

namespace profisched::profibus {

Ticks scale_cycle(Ticks c, Ticks q1024, Ticks least) {
  return std::max(ceil_div(sat_mul(c, q1024), sensitivity::kScaleOne), least);
}

CycleMaxima scale_cycle_maxima(const CycleMaxima& m, Ticks q1024) {
  return {m.high == 0 ? 0 : scale_cycle(m.high, q1024, 1), scale_cycle(m.low, q1024, 0)};
}

Network with_scaled_frames(const Network& net, Ticks q1024) {
  Network out = net;
  for (Master& m : out.masters) {
    for (MessageStream& s : m.high_streams) s.Ch = scale_cycle(s.Ch, q1024, 1);
    m.longest_low_cycle = scale_cycle(m.longest_low_cycle, q1024, 0);
  }
  return out;
}

Network with_deadline_ratio(const Network& net, Ticks beta_q1024) {
  Network out = net;
  for (Master& m : out.masters) {
    for (MessageStream& s : m.high_streams) {
      s.D = std::max(s.Ch, ceil_div(sat_mul(s.T, beta_q1024), sensitivity::kScaleOne));
    }
  }
  return out;
}

Network with_ttr(const Network& net, Ticks ttr) {
  Network out = net;
  out.ttr = ttr;
  return out;
}

double message_utilization(const Network& net) {
  double u = 0.0;
  for (const Master& m : net.masters) {
    for (const MessageStream& s : m.high_streams) {
      u += static_cast<double>(s.Ch) / static_cast<double>(s.T);
    }
  }
  return u;
}

sensitivity::SensitivityResult stream_deadline_margin(const Network& net,
                                                      const NetworkTest& test,
                                                      std::size_t master, std::size_t stream) {
  const MessageStream& target = net.masters.at(master).high_streams.at(stream);
  const auto with_deadline = [&](Ticks d) {
    Network modified = net;
    modified.masters[master].high_streams[stream].D = d;
    return modified;
  };
  const Ticks cap = sat_mul(target.T, sensitivity::kDefaultDeadlineCapMultiple);
  return sensitivity::min_satisfying(target.Ch, cap,
                                     [&](Ticks d) { return test(with_deadline(d)); });
}

}  // namespace profisched::profibus
