#include "profibus/frame_timing.hpp"

#include <algorithm>

namespace profisched::profibus {

Ticks worst_case_cycle_time(const BusParameters& bus, const MessageCycleSpec& spec) {
  bus.validate();
  spec.validate();
  const Ticks request = frame_time(bus, spec.request_chars);
  const Ticks response = frame_time(bus, spec.response_chars);
  const Ticks failed_attempt = sat_add(request, bus.t_sl);

  // Success after max_retry failed attempts…
  Ticks success_path = sat_add(sat_add(sat_add(request, bus.max_tsdr), response), bus.t_id1);
  for (int r = 0; r < bus.max_retry; ++r) success_path = sat_add(success_path, failed_attempt);
  // …or every attempt (original + max_retry retries) timing out. Whichever is
  // longer bounds the cycle: with a short response frame the all-timeout path
  // can dominate (t_sl > max_tsdr + response).
  Ticks all_fail_path = bus.t_id1;
  for (int r = 0; r < bus.max_retry + 1; ++r)
    all_fail_path = sat_add(all_fail_path, failed_attempt);

  return std::max(success_path, all_fail_path);
}

Ticks best_case_cycle_time(const BusParameters& bus, const MessageCycleSpec& spec) {
  bus.validate();
  spec.validate();
  return sat_add(sat_add(sat_add(frame_time(bus, spec.request_chars), bus.min_tsdr),
                         frame_time(bus, spec.response_chars)),
                 bus.t_id1);
}

Ticks token_pass_time(const BusParameters& bus) {
  return sat_add(frame_time(bus, bus.token_frame_chars), bus.t_id1);
}

}  // namespace profisched::profibus
