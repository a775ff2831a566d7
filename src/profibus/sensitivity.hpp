// sensitivity.hpp (profibus) — network-level sensitivity analysis: the
// margins a fieldbus engineer actually asks about. How much can every frame
// grow (firmware update adds fields to each PDU) before the guarantees
// break? How tight could one stream's deadline go? How high can T_TR be set?
//
// All searches are exact binary searches through the unified core of
// core/sensitivity_search.hpp, driven by a caller-supplied NetworkTest
// predicate — so the same functions serve plain analyze_network verdicts and
// alternative T_cycle methods. The network mutators (with_scaled_frames /
// with_deadline_ratio / with_ttr) are exported for the optimizer's axes
// (src/opt/), and so callers can evaluate the configuration a boundary value
// denotes (e.g. its message utilization); scale_cycle_maxima gives the
// optimizer a scaled network's T_cycle without building it.
#pragma once

#include <functional>

#include "core/sensitivity_search.hpp"
#include "profibus/dispatching.hpp"

namespace profisched::profibus {

/// A predicate deciding schedulability of a (modified) network.
using NetworkTest = std::function<bool(const Network&)>;

/// Standard test for a policy under a T_cycle method, as a reusable predicate.
[[nodiscard]] NetworkTest network_test_for(ApPolicy policy,
                                           TcycleMethod method = TcycleMethod::PaperEq13);

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

// ---- exact searches ---------------------------------------------------

/// Largest frame-scaling factor (q/1024) keeping `test` true. Infeasible when
/// the unscaled network already fails; cap_hit when `max_factor_q1024` still
/// passes. The breakdown utilization is
/// message_utilization(with_scaled_frames(net, result.value)).
[[nodiscard]] sensitivity::SensitivityResult frame_scaling_headroom(
    const Network& net, const NetworkTest& test,
    Ticks max_factor_q1024 = sensitivity::kDefaultMaxScaleQ);

/// Smallest deadline stream (master, stream) can sustain, all else fixed —
/// the exact value passing at D_min but failing at D_min − 1. Monotone for
/// all shipped policies (FCFS's bound ignores D except in the verdict; DM
/// reordering is deadline-sustainable; EDF windows shrink with D).
/// Infeasible when even D = 64·T fails; cap_hit when D = Ch already passes.
[[nodiscard]] sensitivity::SensitivityResult stream_deadline_margin(const Network& net,
                                                                    const NetworkTest& test,
                                                                    std::size_t master,
                                                                    std::size_t stream);

/// Largest T_TR keeping `test` true (the DM/EDF generalization of eq. 15's
/// FCFS-only bound; exact search since no closed form exists for eqs. 16–18).
/// Bracket floor is ring_latency + 1 (below that the token starves).
/// Distinct from ttr_setting.hpp's closed-form max_schedulable_ttr(net): this
/// overload requires the predicate.
[[nodiscard]] sensitivity::SensitivityResult max_schedulable_ttr(
    const Network& net, const NetworkTest& test, Ticks cap = sensitivity::kDefaultTtrCap);

/// Smallest uniform D/T ratio beta = q/1024 (applied via with_deadline_ratio)
/// keeping `test` true — how tight can every deadline go, relative to its
/// period? Infeasible when even beta = hi_q/1024 fails; cap_hit when the
/// floor lo_q already passes.
[[nodiscard]] sensitivity::SensitivityResult min_deadline_ratio(
    const Network& net, const NetworkTest& test, Ticks lo_q1024 = 64,
    Ticks hi_q1024 = sensitivity::kDefaultMaxScaleQ);

}  // namespace profisched::profibus
