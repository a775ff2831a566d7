// sensitivity.hpp (profibus) — the network mutators that walk the margins a
// fieldbus engineer asks about: how much can every frame grow (a firmware
// update adds fields to each PDU), how tight can the deadlines go, how high
// can T_TR be set? The searches over whole-network axes are the optimizer's
// (src/opt/optimizer.hpp: breakdown, max T_TR, min D/T): with_scaled_frames /
// with_deadline_ratio / with_ttr build its reference probes and let callers
// evaluate the configuration a boundary value denotes (e.g. its message
// utilization); scale_cycle_maxima gives it a scaled network's T_cycle
// without building the network. One search stays here, because it has no
// whole-network axis: stream_deadline_margin, the smallest deadline one
// stream can sustain (the paper's per-stream margin claim), an exact binary
// search through core/sensitivity_search.hpp over a caller-supplied
// NetworkTest such as opt::optimize_network_test.
#pragma once

#include <functional>

#include "core/sensitivity_search.hpp"
#include "profibus/dispatching.hpp"

namespace profisched::profibus {

/// A predicate deciding schedulability of a (modified) network.
using NetworkTest = std::function<bool(const Network&)>;

// ---- network mutators (the parameter axes the searches walk) ----------

/// Every message-cycle length — each stream's Ch and each master's Cl —
/// multiplied by q/1024, rounding up (pessimistic), Ch floored at 1 (see
/// scale_cycle). T_del and T_cycle grow along via the analyses.
[[nodiscard]] Network with_scaled_frames(const Network& net, Ticks q1024);

/// with_scaled_frames' rounding of one cycle length: max(⌈c·q/1024⌉, least),
/// saturating, with least 1 for a stream's Ch and 0 for a master's Cl. It is
/// monotone in c.
[[nodiscard]] Ticks scale_cycle(Ticks c, Ticks q1024, Ticks least);

/// A master's CycleMaxima after with_scaled_frames(·, q1024). scale_cycle is
/// monotone, so the longest scaled cycle is the scaled longest one; a master
/// without high-priority streams keeps high = 0.
[[nodiscard]] CycleMaxima scale_cycle_maxima(const CycleMaxima& m, Ticks q1024);

/// Every stream's deadline set to ratio beta = q/1024 of its period:
/// D_i = max(Ch_i, ceil(T_i · q / 1024)). Smaller q = tighter deadlines.
[[nodiscard]] Network with_deadline_ratio(const Network& net, Ticks beta_q1024);

/// The network with its target token rotation time replaced.
[[nodiscard]] Network with_ttr(const Network& net, Ticks ttr);

/// Total high-priority message utilization: sum of Ch/T over every stream of
/// every master (master order, then stream order — deterministic).
[[nodiscard]] double message_utilization(const Network& net);

// ---- per-stream search -------------------------------------------------

/// Smallest deadline stream (master, stream) can sustain, all else fixed —
/// the exact value passing at D_min but failing at D_min − 1. Monotone for
/// all shipped policies (FCFS's bound ignores D except in the verdict; DM
/// reordering is deadline-sustainable; EDF windows shrink with D).
/// Infeasible when even D = 64·T fails; cap_hit when D = Ch already passes.
[[nodiscard]] sensitivity::SensitivityResult stream_deadline_margin(const Network& net,
                                                                    const NetworkTest& test,
                                                                    std::size_t master,
                                                                    std::size_t stream);

}  // namespace profisched::profibus
