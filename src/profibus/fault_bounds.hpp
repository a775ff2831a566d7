// fault_bounds.hpp — degraded-mode schedulability bounds under a FaultModel.
//
// The timed-token derivation of eqs. 13–14 bounds the gap between consecutive
// token arrivals at a master by T_TR plus the time the ring spends outside
// the rotation budget (one T_TH overrun / guaranteed HP cycle per master,
// eq. 13's T_del). The bounded fault models add exactly two further kinds of
// non-budgeted time per rotation, and stretch message cycles by a known
// factor:
//
//  * token loss    — each of the n token passes of a rotation suffers at most
//                    one loss, recovered after `token_recovery`:
//                        + n · token_recovery  per rotation;
//  * ring churn    — between two consecutive visits to any master, each of
//                    the other n−1 stations is either visited or skipped
//                    once; a skip costs one slot timeout plus the
//                    re-addressed pass:
//                        + (n−1) · (t_sl + token_pass_time)  per rotation
//                    (an offline master only *removes* interference — its
//                    streams stop competing — so charging the full clean
//                    T_del stays conservative);
//  * corruption    — every message cycle is transmitted at most
//                    1 + max_retransmissions times and the last attempt
//                    delivers, so each Ch / Cl inflates to at most
//                    (1 + R) · Ch — which with_scaled_frames applies to the
//                    network, growing both the interference terms and T_del
//                    through the unmodified analyses.
//
// So: degraded analysis = the stock per-policy analysis (the engine's
// analyze_network), run on degraded_network with degraded_timing, whose
// tdel / tcycle / per-master bounds carry the per-rotation dead time. Its
// verdict is a guarantee the *faulted* simulation must not violate — the
// combined sweep's must-never-fire flags check exactly that.
#pragma once

#include "core/formulation.hpp"
#include "profibus/dispatching.hpp"
#include "profibus/fault_model.hpp"

namespace profisched::profibus {

/// The network the degraded analysis runs on: every Ch and Cl scaled by
/// (1 + max_retransmissions) when corruption is enabled, unchanged otherwise.
[[nodiscard]] Network degraded_network(const Network& net, const FaultModel& faults);

/// Worst-case non-budgeted dead time one token rotation can accumulate under
/// `faults` (loss recoveries + churn skip penalties); 0 when neither is on.
[[nodiscard]] Ticks degraded_dead_time(const Network& net, const FaultModel& faults);

/// compute_timing over the degraded network, with degraded_dead_time added to
/// tdel, tcycle and every per-master bound.
[[nodiscard]] TimingMemo degraded_timing(const Network& degraded_net, const FaultModel& faults,
                                         TcycleMethod method = TcycleMethod::PaperEq13);

}  // namespace profisched::profibus
