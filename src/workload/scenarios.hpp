// scenarios.hpp — named distributed computer-controlled system (DCCS)
// configurations of the kind the paper's introduction motivates: sensors
// polled at high rates, actuators updated on deadlines tighter than their
// periods, and supervisory traffic in the background. Used by the examples
// and by the benches that need a fixed, meaningful workload rather than a
// random sweep.
//
// All times are in bit-times at 500 kbit/s (1 ms = 500 ticks).
#pragma once

#include "profibus/network.hpp"

namespace profisched::workload::scenarios {

using profisched::Ticks;

/// Ticks per millisecond at the scenario baud rate (500 kbit/s).
inline constexpr Ticks kTicksPerMs = 500;

/// A three-master manufacturing cell:
///  * master 0 — cell controller: 2 supervisory streams, slack deadlines;
///  * master 1 — robot controller: 4 streams incl. a 6 ms-deadline
///    emergency-stop poll and joint-position sensors;
///  * master 2 — conveyor PLC: 3 streams (photo-eye poll, drive setpoint,
///    diagnostics).
/// Every master also carries low-priority parametrisation traffic.
/// T_TR is set to the eq.-15 maximum for the stream set.
[[nodiscard]] profibus::Network factory_cell();

/// A single-master process-monitoring station with n_streams sensor polls of
/// identical frames, periods stepping ×1.5 from `base_period_ms`, and
/// deadlines equal to periods. The simplest non-trivial configuration.
[[nodiscard]] profibus::Network process_monitoring(std::size_t n_streams = 5,
                                                   Ticks base_period_ms = 20);

/// A deadline-inversion stress case: one stream with a deadline barely above
/// T_cycle and several lax streams on the same master. FCFS cannot schedule
/// it (R = nh·T_cycle for everyone); the DM/EDF AP queue can. This is the
/// paper's concluding claim in miniature, and experiment E10's kernel.
[[nodiscard]] profibus::Network tight_deadline_mix();

}  // namespace profisched::workload::scenarios
