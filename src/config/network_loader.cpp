#include "config/network_loader.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "profibus/ttr_setting.hpp"

namespace profisched::config {

namespace {

using profibus::BusParameters;
using profibus::Master;
using profibus::MessageCycleSpec;
using profibus::MessageStream;

BusParameters load_bus(const IniFile& file) {
  BusParameters bus;
  const IniSection* s = file.find("bus");
  if (s == nullptr) return bus;
  if (auto v = s->get_ticks("bits_per_char")) bus.bits_per_char = *v;
  if (auto v = s->get_ticks("t_id1")) bus.t_id1 = *v;
  if (auto v = s->get_ticks("t_sl")) bus.t_sl = *v;
  if (auto v = s->get_ticks("min_tsdr")) bus.min_tsdr = *v;
  if (auto v = s->get_ticks("max_tsdr")) bus.max_tsdr = *v;
  if (auto v = s->get_ticks("max_retry")) bus.max_retry = static_cast<int>(*v);
  if (auto v = s->get_ticks("token_frame_chars")) bus.token_frame_chars = *v;
  bus.validate();
  return bus;
}

/// Read a duration that may be given in ticks (`key`) or in milliseconds
/// (`key_ms`), exactly one of the two. A millisecond value whose tick count
/// is not finite or does not fit in Ticks is rejected: casting it would be
/// undefined behaviour.
Ticks duration(const IniSection& s, const std::string& key, Ticks ticks_per_ms) {
  const std::string ms_key = key + "_ms";
  const auto ticks = s.get_ticks(key);
  const auto msv = s.get_double(ms_key);
  if (ticks.has_value() == msv.has_value()) {
    throw IniError(s.line, "section [" + s.name + "] needs exactly one of '" + key + "' or '" +
                               ms_key + "'");
  }
  if (ticks.has_value()) return *ticks;
  const double t = *msv * static_cast<double>(ticks_per_ms);
  // ±2^63 are exact doubles, and NaN fails both comparisons.
  constexpr double kLimit = 0x1p63;
  if (!(t >= -kLimit && t < kLimit)) {
    const IniEntry& e = *std::ranges::find(s.entries, ms_key, &IniEntry::key);
    throw IniError(e.line, "'" + ms_key + " = " + e.value + "' is out of range at " +
                               std::to_string(ticks_per_ms) + " ticks/ms");
  }
  return static_cast<Ticks>(t);
}

}  // namespace

Ticks horizon_ticks(Ticks milliseconds, Ticks ticks_per_ms) {
  Ticks ticks = 0;
  if (milliseconds < 0 || ticks_per_ms < 1 ||
      __builtin_mul_overflow(milliseconds, ticks_per_ms, &ticks)) {
    throw std::out_of_range(std::to_string(milliseconds) + " ms is out of range at " +
                            std::to_string(ticks_per_ms) + " ticks/ms");
  }
  return ticks;
}

LoadedNetwork load_network(const IniFile& file) {
  LoadedNetwork out;
  out.net.bus = load_bus(file);

  const IniSection* netsec = file.find("network");
  if (netsec == nullptr) throw std::invalid_argument("missing [network] section");
  if (auto v = netsec->get_ticks("ticks_per_ms")) {
    if (*v < 1) {
      const IniEntry& e = *std::ranges::find(netsec->entries, "ticks_per_ms", &IniEntry::key);
      throw IniError(e.line, "'ticks_per_ms = " + e.value + "' must be >= 1");
    }
    out.ticks_per_ms = *v;
  }

  for (const IniSection& s : file.sections) {
    if (s.name == "master") {
      Master m;
      m.name = s.get("name").value_or("master" + std::to_string(out.net.masters.size()));
      const auto lreq = s.get_ticks("low_request_chars");
      const auto lresp = s.get_ticks("low_response_chars");
      if (lreq.has_value() != lresp.has_value()) {
        throw IniError(s.line, "[master] needs both or neither of low_request_chars / "
                               "low_response_chars");
      }
      if (lreq.has_value()) {
        m.longest_low_cycle =
            profibus::worst_case_cycle_time(out.net.bus, MessageCycleSpec{*lreq, *lresp});
      }
      out.net.masters.push_back(std::move(m));
      out.specs.emplace_back();
    } else if (s.name == "stream") {
      if (out.net.masters.empty()) {
        throw IniError(s.line, "[stream] before any [master]");
      }
      const MessageCycleSpec spec{s.require_ticks("request_chars"),
                                  s.require_ticks("response_chars")};
      MessageStream ms;
      ms.name = s.get("name").value_or("stream");
      ms.Ch = profibus::worst_case_cycle_time(out.net.bus, spec);
      ms.T = duration(s, "period", out.ticks_per_ms);
      ms.D = duration(s, "deadline", out.ticks_per_ms);
      ms.J = s.get_ticks("jitter").value_or(0);
      out.net.masters.back().high_streams.push_back(std::move(ms));
      out.specs.back().push_back(spec);
    }
  }
  if (out.net.masters.empty()) throw std::invalid_argument("no [master] sections");

  const std::string ttr = netsec->require("ttr");
  if (ttr == "auto") {
    out.ttr_auto = true;
    out.net.ttr = 1;
    const auto best = profibus::max_schedulable_ttr(out.net);
    if (best.has_value() && *best >= 1) {
      out.net.ttr = *best;
    } else {
      // FCFS-infeasible: functional fallback (ring latency + longest cycles).
      Ticks fallback = out.net.ring_latency();
      for (const Master& m : out.net.masters) fallback = sat_add(fallback, m.longest_cycle());
      out.net.ttr = fallback;
    }
  } else {
    out.net.ttr = netsec->require_ticks("ttr");
  }

  out.net.validate();
  return out;
}

LoadedNetwork load_network_file(const std::string& path) {
  return load_network(parse_ini_file(path));
}

}  // namespace profisched::config
