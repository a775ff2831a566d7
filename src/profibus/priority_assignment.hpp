// priority_assignment.hpp — fixed-priority assignment for the AP-level
// message queue, beyond deadline-monotonic.
//
// Eq. 16 analyses the DM order, but the underlying analysis (non-preemptive,
// blocking-afflicted) is one for which DM is NOT optimal: Audsley's optimal
// priority assignment (OPA) can schedule stream sets DM cannot, because the
// level-i verdict depends only on *which* streams sit above/below, not on
// their relative order — exactly OPA's applicability condition. This module
// generalizes dm_analysis.hpp to an arbitrary priority order and provides the
// OPA search, giving the library the complete fixed-priority story at the
// message level (and bench_e14 the DM-vs-OPA ablation).
#pragma once

#include <optional>
#include <vector>

#include "core/formulation.hpp"
#include "profibus/fcfs_analysis.hpp"

namespace profisched::profibus {

/// Priority order of one master's high-priority streams: a permutation of
/// stream indices, highest priority first.
using StreamOrder = std::vector<std::size_t>;

/// Per-master orders for a whole network (indexed like Network::masters).
using NetworkOrders = std::vector<StreamOrder>;

/// DM orders for every master (ties by index) — what analyze_dm uses.
[[nodiscard]] NetworkOrders deadline_monotonic_orders(const Network& net);

/// One master's DM order, into a reused buffer.
void deadline_monotonic_order(const Master& master, StreamOrder& order);

/// Eq.-16 analysis under an arbitrary fixed priority order per master.
/// `orders[k]` must be a permutation of master k's stream indices.
[[nodiscard]] NetworkAnalysis analyze_fixed_priority(
    const Network& net, const NetworkOrders& orders,
    TcycleMethod method = TcycleMethod::PaperEq13,
    Formulation form = Formulation::PaperLiteral, int fuel = 1 << 16);

/// Memoized form: reuse a precomputed TimingMemo (see compute_timing) and,
/// when non-null, `scratch` (see bind_master).
[[nodiscard]] NetworkAnalysis analyze_fixed_priority(
    const Network& net, const NetworkOrders& orders, const TimingMemo& memo,
    Formulation form = Formulation::PaperLiteral, int fuel = 1 << 16,
    RtaScratch* scratch = nullptr);

/// Audsley's OPA for one master with T_cycle^k = `tcycle`: some priority
/// order under which every stream meets its deadline (eq.-16 analysis),
/// found bottom-up through core's audsley_order, trying streams in ascending
/// index order. Each level test is a verdict, so its fixed point takes D as
/// its bound (see dm_master_schedulable). std::nullopt if no fixed order
/// schedules the master. Success is also the master's OPA verdict: a level
/// test analyses a stream with the same streams above and below it as
/// analyze_fixed_priority does under the returned order, so that analysis
/// accepts every stream.
[[nodiscard]] std::optional<StreamOrder> audsley_master_order(const Master& master, Ticks tcycle,
                                                              Formulation form, int fuel,
                                                              RtaScratch& scratch);

/// audsley_master_order for every master: std::nullopt if some master has
/// no order.
[[nodiscard]] std::optional<NetworkOrders> audsley_stream_orders(
    const Network& net, TcycleMethod method = TcycleMethod::PaperEq13,
    Formulation form = Formulation::PaperLiteral, int fuel = 1 << 16);

/// Memoized form: reuse a precomputed TimingMemo (see compute_timing) and,
/// when non-null, `scratch`.
[[nodiscard]] std::optional<NetworkOrders> audsley_stream_orders(
    const Network& net, const TimingMemo& memo,
    Formulation form = Formulation::PaperLiteral, int fuel = 1 << 16,
    RtaScratch* scratch = nullptr);

}  // namespace profisched::profibus
