#include "profibus/priority_assignment.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/priority_assignment.hpp"
#include "core/response_time_fp.hpp"
#include "profibus/dm_analysis.hpp"

namespace profisched::profibus {

namespace {

/// Eq. 16 for the stream at view position `rank` of a bind_master view:
/// core's NP-FP kernel with blocking T*_cycle, R from AP-queue insertion.
StreamResponse message_response(const TaskSetView& pv, std::size_t rank, Formulation form,
                                int fuel) {
  const RtaResult r = response_time_nonpreemptive(pv, rank, form, fuel, kMessageModel);
  return {r.queueing, r.response,
          r.converged && r.response != kNoBound && r.response <= pv.D[rank]};
}

/// message_response(...).meets_deadline, with D as the fixed point's bound:
/// a miss stops at the first iterate above D − T_cycle.
bool message_meets(const TaskSetView& pv, std::size_t rank, Formulation form, int fuel) {
  return response_time_nonpreemptive(pv, rank, form, fuel, kMessageModel, pv.D[rank])
      .meets(pv.D[rank]);
}

/// Every stream of master k under `order` (highest first).
void analyze_master(const Network& net, std::size_t k, const StreamOrder& order,
                    const TimingMemo& memo, Formulation form, int fuel, RtaScratch& scratch,
                    MasterAnalysis& ma) {
  const Master& master = net.masters[k];
  if (order.size() != master.nh()) {
    throw std::invalid_argument("analyze_fixed_priority: order size mismatch at master " +
                                master.name);
  }
  const TaskSetView& pv = bind_master(scratch.arena, master, memo.per_master[k], order.data());
  for (std::size_t rank = 0; rank < pv.n; ++rank) {
    ma.streams[pv.index[rank]] = message_response(pv, rank, form, fuel);
  }
}

}  // namespace

void deadline_monotonic_order(const Master& master, StreamOrder& order) {
  order.resize(master.nh());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Ties by index make the key total, so an unstable (allocation-free) sort
  // gives the stable order.
  std::ranges::sort(order, [&](std::size_t a, std::size_t b) {
    const Ticks da = master.high_streams[a].D;
    const Ticks db = master.high_streams[b].D;
    return da < db || (da == db && a < b);
  });
}

NetworkOrders deadline_monotonic_orders(const Network& net) {
  NetworkOrders orders(net.n_masters());
  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    deadline_monotonic_order(net.masters[k], orders[k]);
  }
  return orders;
}

NetworkAnalysis analyze_fixed_priority(const Network& net, const NetworkOrders& orders,
                                       TcycleMethod method, Formulation form, int fuel) {
  return analyze_fixed_priority(net, orders, compute_timing(net, method), form, fuel);
}

NetworkAnalysis analyze_fixed_priority(const Network& net, const NetworkOrders& orders,
                                       const TimingMemo& memo, Formulation form, int fuel,
                                       RtaScratch* scratch) {
  if (orders.size() != net.n_masters()) {
    throw std::invalid_argument("analyze_fixed_priority: orders shape mismatch");
  }
  RtaScratch local;
  RtaScratch& s = scratch != nullptr ? *scratch : local;
  return analyze_masters(net, memo, [&](std::size_t k, MasterAnalysis& ma) {
    analyze_master(net, k, orders[k], memo, form, fuel, s, ma);
  });
}

NetworkAnalysis analyze_dm(const Network& net, TcycleMethod method, Formulation form, int fuel) {
  return analyze_dm(net, compute_timing(net, method), form, fuel);
}

NetworkAnalysis analyze_dm(const Network& net, const TimingMemo& memo, Formulation form,
                           int fuel, RtaScratch* scratch) {
  RtaScratch local;
  RtaScratch& s = scratch != nullptr ? *scratch : local;
  return analyze_masters(net, memo, [&](std::size_t k, MasterAnalysis& ma) {
    deadline_monotonic_order(net.masters[k], s.order);
    analyze_master(net, k, s.order, memo, form, fuel, s, ma);
  });
}

bool dm_master_schedulable(const Master& master, Ticks tcycle, Formulation form, int fuel,
                           RtaScratch& scratch) {
  deadline_monotonic_order(master, scratch.order);
  const TaskSetView& pv = bind_master(scratch.arena, master, tcycle, scratch.order.data());
  for (std::size_t rank = 0; rank < pv.n; ++rank) {
    if (!message_meets(pv, rank, form, fuel)) return false;
  }
  return true;
}

std::optional<NetworkOrders> audsley_stream_orders(const Network& net, TcycleMethod method,
                                                   Formulation form, int fuel) {
  return audsley_stream_orders(net, compute_timing(net, method), form, fuel);
}

std::optional<StreamOrder> audsley_master_order(const Master& master, Ticks tcycle,
                                                Formulation form, int fuel, RtaScratch& scratch) {
  // The response at a level depends only on the *set* above it and on
  // whether any stream sits below (blocking), so OPA's optimality applies.
  return audsley_order(master.nh(), [&](std::span<const std::size_t> o, std::size_t r) {
    const TaskSetView& pv = bind_master(scratch.arena, master, tcycle, o.data());
    return message_meets(pv, r, form, fuel);
  });
}

std::optional<NetworkOrders> audsley_stream_orders(const Network& net, const TimingMemo& memo,
                                                   Formulation form, int fuel,
                                                   RtaScratch* scratch) {
  net.validate();
  RtaScratch local;
  RtaScratch& s = scratch != nullptr ? *scratch : local;
  NetworkOrders out(net.n_masters());
  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    auto order = audsley_master_order(net.masters[k], memo.per_master[k], form, fuel, s);
    if (!order.has_value()) return std::nullopt;
    out[k] = std::move(*order);
  }
  return out;
}

}  // namespace profisched::profibus
