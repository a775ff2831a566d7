// token_ring_analysis.hpp — the timed-token cycle-time analysis of §3.3
// (paper eqs. 13–14, after Tovar & Vasques [13,14]).
//
// PROFIBUS gives no per-master synchronous bandwidth: when the token is late
// a master may still transmit one high-priority message cycle, and T_TH is
// only tested at message-cycle *starts*, so a cycle started just before
// expiry overruns it. The worst-case token lateness T_del therefore composes
// one T_TH overrun (the longest cycle of the overrunning master) with one
// message cycle from every following master that received the late token:
//
//     T_del = Σ_{k=1..n} C_M^k,     C_M^k = max{ max_i Ch_i^k, Cl^k }   (13)
//     T_cycle = T_TR + T_del                                            (14)
//
// The PerMasterRefined method implements the per-position sharpening in the
// spirit of [14]: the lateness *as seen by master k* is maximised over which
// master j caused the overrun, counting the full C_M^j for the overrunner but
// only one *high-priority* cycle (Ch-max) for the masters strictly between j
// and k on the ring — those can only have used the late token for their one
// guaranteed HP message.
//
// Both methods read a network only through T_TR and each master's two cycle
// maxima (CycleMaxima), so the optimizer's probes, which change only those,
// derive their T_cycle vectors from the same formula as compute_timing.
#pragma once

#include <span>
#include <vector>

#include "profibus/network.hpp"

namespace profisched::profibus {

enum class TcycleMethod {
  PaperEq13,         ///< uniform bound, eqs. 13–14
  PerMasterRefined,  ///< per-position refinement (see header comment)
};

/// What eqs. 13–14 read of one master: max_i Ch_i^k and Cl^k.
struct CycleMaxima {
  Ticks high = 0;  ///< Master::longest_high_cycle (0 without HP streams)
  Ticks low = 0;   ///< Master::longest_low_cycle
};

/// Every master's CycleMaxima, in ring order.
[[nodiscard]] std::vector<CycleMaxima> cycle_maxima(const Network& net);

/// Worst-case token lateness T_del (eq. 13).
[[nodiscard]] Ticks t_del(const Network& net);

/// Uniform upper bound on consecutive token arrivals at any master
/// (eq. 14): T_cycle = T_TR + T_del.
[[nodiscard]] Ticks t_cycle(const Network& net);

/// Per-master T_cycle of a ring with target rotation time `ttr` and the
/// masters' cycle maxima `maxima` (ring order), into `out`. PaperEq13 gives
/// every master the uniform eq.-14 value; PerMasterRefined a (never larger)
/// position-aware bound.
void t_cycle_per_master(Ticks ttr, std::span<const CycleMaxima> maxima, TcycleMethod method,
                        std::vector<Ticks>& out);

/// The timed-token timing facts every policy analysis needs. All of
/// analyze_fcfs / analyze_dm / analyze_edf / analyze_fixed_priority re-derive
/// T_del and the per-master T_cycle vector from scratch; when one scenario is
/// analysed under several policies (the batch engine's core loop) the memo is
/// computed once and passed to the memo-taking analysis overloads instead.
struct TimingMemo {
  TcycleMethod method = TcycleMethod::PaperEq13;
  Ticks tdel = 0;                 ///< worst-case token lateness (eq. 13)
  Ticks tcycle = 0;               ///< uniform eq.-14 bound T_TR + T_del
  std::vector<Ticks> per_master;  ///< t_cycle_per_master of net.ttr and cycle_maxima(net)
};

/// Compute the memo in one pass over the network.
[[nodiscard]] TimingMemo compute_timing(const Network& net,
                                        TcycleMethod method = TcycleMethod::PaperEq13);

}  // namespace profisched::profibus
