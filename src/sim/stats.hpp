// stats.hpp — statistics the simulator collects: per-stream response-time
// aggregates and per-master token behaviour (observed TRR maxima, TTH
// overruns). These are exactly the observables the paper's analysis bounds,
// so the validation benches compare them 1:1 against T_cycle / R_i.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/time_types.hpp"
#include "sim/histogram.hpp"

namespace profisched::sim {

/// Aggregate over the completed message cycles of one stream.
struct StreamStats {
  std::uint64_t released = 0;   ///< requests generated
  std::uint64_t completed = 0;  ///< message cycles finished
  std::uint64_t deadline_misses = 0;
  std::uint64_t dropped = 0;    ///< cycles abandoned after exhausting retries
  Ticks max_response = 0;
  Ticks total_response = 0;     ///< for the mean
  Ticks max_queue_depth_seen = 0;

  void record_completion(Ticks response, Ticks deadline) {
    ++completed;
    max_response = std::max(max_response, response);
    total_response = sat_add(total_response, response);
    if (response > deadline) ++deadline_misses;
  }

  [[nodiscard]] double mean_response() const {
    return completed == 0 ? 0.0
                          : static_cast<double>(total_response) / static_cast<double>(completed);
  }
};

/// Aggregate over one master's token visits.
struct TokenStats {
  std::uint64_t visits = 0;
  std::uint64_t tth_overruns = 0;   ///< cycles started with TTH > 0 that finished after it expired
  std::uint64_t late_tokens = 0;    ///< arrivals with TRR >= TTR
  Ticks max_trr = 0;                ///< largest observed real token rotation time
  Ticks total_hold = 0;             ///< total time holding the token

  void record_arrival(Ticks trr, Ticks ttr) {
    ++visits;
    max_trr = std::max(max_trr, trr);
    if (trr >= ttr) ++late_tokens;
  }
};

/// Network-wide counters of injected faults (see profibus::FaultModel). All
/// zero when no fault knob is active — and a zero-fault run's report is
/// byte-for-byte the pre-fault report, these fields aside.
struct FaultStats {
  std::uint64_t tokens_lost = 0;       ///< token passes that suffered a loss
  std::uint64_t token_skips = 0;       ///< passes re-addressed over offline stations
  std::uint64_t leaves = 0;            ///< stations that left the ring
  std::uint64_t rejoins = 0;           ///< stations that re-entered it
  std::uint64_t corrupted_cycles = 0;  ///< message cycles with >= 1 corruption
  std::uint64_t retransmissions = 0;   ///< total extra transmission attempts
  std::uint64_t churn_dropped = 0;     ///< requests abandoned at/while offline

  [[nodiscard]] std::uint64_t total() const noexcept {
    return tokens_lost + token_skips + leaves + rejoins + corrupted_cycles + retransmissions +
           churn_dropped;
  }
};

/// Full simulation report.
struct SimReport {
  /// hp[k][i] — stream i of master k (same indexing as profibus::Network).
  std::vector<std::vector<StreamStats>> hp;
  std::vector<TokenStats> token;

  /// Per-stream response-time histograms; empty unless
  /// SimConfig::collect_histograms was set. Indexed like `hp`.
  std::vector<std::vector<Histogram>> response_hist;
  FaultStats faults;  ///< injected-fault counters (all zero without faults)
  std::uint64_t lp_cycles_completed = 0;
  std::uint64_t events = 0;
  /// Event-pool slot reuses (telemetry). Only queued events take a slot: a
  /// token arrival fired in place (BasicKernel::fire_in_place) counts in
  /// `events` but never here.
  std::uint64_t pool_recycles = 0;
  Ticks horizon = 0;

  /// Largest observed response across every stream of every master.
  [[nodiscard]] Ticks max_response_overall() const {
    Ticks m = 0;
    for (const auto& master : hp)
      for (const StreamStats& s : master) m = std::max(m, s.max_response);
    return m;
  }

  /// Total deadline misses across the network.
  [[nodiscard]] std::uint64_t total_misses() const {
    std::uint64_t n = 0;
    for (const auto& master : hp)
      for (const StreamStats& s : master) n += s.deadline_misses;
    return n;
  }
};

}  // namespace profisched::sim
