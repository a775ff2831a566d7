// frame_timing.hpp — PROFIBUS (DIN 19245) frame and message-cycle timing.
//
// One tick = one bit-time on the bus. PROFIBUS transmits 11-bit UART
// characters (start + 8 data + even parity + stop). A message cycle (§3.1 of
// the paper, footnote 2) is the master's action frame plus the responder's
// immediate acknowledgement/response frame, separated by the slave's station
// delay (turnaround), and followed by the master's idle time before the next
// transmission. If the response does not arrive within the slot time T_SL the
// master retries, up to max_retry times — the paper requires the worst-case
// cycle length Ch to include "request, response, turnaround time and maximum
// allowable retries".
#pragma once

#include <stdexcept>

#include "core/time_types.hpp"

namespace profisched::profibus {

using profisched::Ticks;

/// Physical/link-layer parameters shared by every station on the segment.
/// Defaults follow common DP practice at 500 kbit/s-class segments; all
/// values are in bit-times so they scale with baud rate automatically.
struct BusParameters {
  Ticks bits_per_char = 11;  ///< UART character length on the wire
  Ticks t_id1 = 37;          ///< idle time after an acknowledgement / response
  Ticks t_sl = 100;          ///< slot time: response timeout before a retry
  Ticks max_tsdr = 60;       ///< max responder turnaround (station delay)
  Ticks min_tsdr = 11;       ///< min responder turnaround
  int max_retry = 1;         ///< retries allowed per message cycle
  Ticks token_frame_chars = 3;  ///< SD4 token frame: SD + DA + SA

  void validate() const {
    if (bits_per_char < 1 || t_id1 < 0 || t_sl < 1 || max_tsdr < 0 || min_tsdr < 0 ||
        max_retry < 0 || token_frame_chars < 1) {
      throw std::invalid_argument("BusParameters: negative or zero field");
    }
    if (min_tsdr > max_tsdr) throw std::invalid_argument("BusParameters: min_tsdr > max_tsdr");
    if (t_sl <= max_tsdr) {
      throw std::invalid_argument("BusParameters: slot time must exceed max_tsdr "
                                  "(otherwise every cycle times out)");
    }
  }
};

/// Shape of one request/response exchange, in characters on the wire.
struct MessageCycleSpec {
  Ticks request_chars = 0;   ///< action frame length (header + user data)
  Ticks response_chars = 0;  ///< response frame length

  void validate() const {
    if (request_chars < 1 || response_chars < 1) {
      throw std::invalid_argument("MessageCycleSpec: frames must be at least one char");
    }
  }
};

/// Wire time of a frame of `chars` characters.
[[nodiscard]] constexpr Ticks frame_time(const BusParameters& bus, Ticks chars) {
  return sat_mul(chars, bus.bits_per_char);
}

/// Worst-case message-cycle length Ch (paper §3.2): max_retry failed attempts
/// (request + slot-time timeout each) followed by one successful exchange
/// (request + max turnaround + response), plus the idle time closing the
/// cycle.
[[nodiscard]] Ticks worst_case_cycle_time(const BusParameters& bus, const MessageCycleSpec& spec);

/// Best-case message-cycle length (no retries, minimum turnaround): the low
/// end of the cycle lengths worst_case_cycle_time bounds.
[[nodiscard]] Ticks best_case_cycle_time(const BusParameters& bus, const MessageCycleSpec& spec);

/// Time to pass the token to the ring successor (token frame + idle).
[[nodiscard]] Ticks token_pass_time(const BusParameters& bus);

}  // namespace profisched::profibus
