// network_loader.hpp — build a profibus::Network (plus the frame specs the
// FrameLevel simulation model needs) from an INI description.
//
// File format (see configs/*.ini for complete examples):
//
//   [bus]                       # optional; defaults = BusParameters{}
//   bits_per_char = 11
//   t_id1 = 37
//   t_sl  = 100
//   min_tsdr = 11
//   max_tsdr = 60
//   max_retry = 1
//
//   [network]
//   ticks_per_ms = 500          # time unit for *_ms keys (default 500, >= 1)
//   ttr = auto                  # eq.-15 maximum, or an explicit tick count
//
//   [master]                    # one per station, ring order = file order
//   name = robot
//   low_request_chars = 30      # optional background-traffic frame sizes
//   low_response_chars = 30
//
//   [stream]                    # belongs to the most recent [master]
//   name = e-stop
//   request_chars = 8
//   response_chars = 8
//   period_ms = 50              # or period = <ticks>
//   deadline_ms = 40            # or deadline = <ticks>
//   jitter = 0                  # optional, ticks
#pragma once

#include "config/ini.hpp"
#include "profibus/network.hpp"

namespace profisched::config {

struct LoadedNetwork {
  profibus::Network net;
  std::vector<std::vector<profibus::MessageCycleSpec>> specs;  ///< per master/stream
  Ticks ticks_per_ms = 500;
  bool ttr_auto = false;  ///< true when "ttr = auto" resolved via eq. 15
};

/// Build a network from parsed INI. Throws IniError / std::invalid_argument
/// with actionable messages on inconsistent input.
[[nodiscard]] LoadedNetwork load_network(const IniFile& file);

/// Convenience: parse + load from a path.
[[nodiscard]] LoadedNetwork load_network_file(const std::string& path);

/// A horizon of `milliseconds` in ticks at `ticks_per_ms`, the conversion the
/// loader applies to `*_ms` durations. Throws std::out_of_range when either
/// operand is out of its domain or the product does not fit in Ticks.
[[nodiscard]] Ticks horizon_ticks(Ticks milliseconds, Ticks ticks_per_ms);

}  // namespace profisched::config
