// Equivalence oracle for the profibus message analyses. The namespace
// `oracle` below holds the eq.-16 fixed point, the eq.-17/18 busy period,
// offset set and per-offset recurrence, and the message-level OPA search as
// standalone per-master recurrences — the form the library carried before
// its DM, OPA and EDF analyses became adapters over the core NP kernels with
// C_i = T_cycle. The suite runs both on generated networks across both
// TcycleMethods and Formulations, u from 0.3 to 1.05, masters at exactly
// U = 1, streams with T < T_cycle, jitter, far deadlines and fuel-starved
// runs, and demands identical verdicts, Q, responses, meets_deadline, OPA
// orders and EdfStreamDetail — with the SIMD lanes active and forced scalar.
// Every policy's verdict-only path (fcfs_schedulable, dm_schedulable, the
// success of audsley_stream_orders, edf_schedulable) is held to the exact
// verdict on the same networks.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "core/response_time_edf.hpp"
#include "core/simd.hpp"
#include "engine/sweep_runner.hpp"
#include "profibus/dm_analysis.hpp"
#include "profibus/edf_analysis.hpp"
#include "profibus/fcfs_analysis.hpp"
#include "profibus/priority_assignment.hpp"

namespace profisched::profibus {
namespace {
namespace oracle {

/// Response time of the stream at position `rank` of `order` (highest
/// priority first) within `master`, under the eq.-16 model: one T_cycle per
/// service slot, blocking T* = T_cycle unless the stream is the master's
/// lowest-priority one, jitter-inflated interference from higher-priority
/// streams.
StreamResponse fp_stream_response(const Master& master,
                                         const std::vector<std::size_t>& order,
                                         std::size_t rank, Ticks tcycle, Formulation form,
                                         int fuel) {
  StreamResponse out;
  const MessageStream& si = master.high_streams[order[rank]];

  const bool has_lower = rank + 1 < order.size();
  const Ticks blocking = has_lower ? tcycle : 0;

  Ticks w = sat_add(blocking, sat_mul(static_cast<Ticks>(rank), tcycle));
  for (int it = 0; it < fuel; ++it) {
    Ticks next = blocking;
    for (std::size_t p = 0; p < rank; ++p) {
      const MessageStream& sj = master.high_streams[order[p]];
      const Ticks arg = sat_add(w, sj.J);
      const Ticks jobs = (form == Formulation::PaperLiteral) ? ceil_div_plus(arg, sj.T)
                                                             : floor_div_plus1(arg, sj.T);
      next = sat_add(next, sat_mul(jobs, tcycle));
    }
    if (next == w) {
      out.Q = w;
      out.response = sat_add(w, tcycle);
      out.meets_deadline = out.response != kNoBound && out.response <= si.D;
      return out;
    }
    if (next == kNoBound) break;
    w = next;
  }
  return out;  // diverged
}

NetworkAnalysis analyze_dm(const Network& net, const TimingMemo& memo, Formulation form,
                           int fuel) {
  net.validate();
  NetworkAnalysis out;
  out.tcycle = memo.tcycle;
  out.schedulable = true;

  const std::vector<Ticks>& tc = memo.per_master;
  out.masters.resize(net.n_masters());

  std::vector<std::size_t> by_deadline;

  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    const Master& master = net.masters[k];
    MasterAnalysis& ma = out.masters[k];
    ma.schedulable = true;
    ma.streams.resize(master.nh());

    by_deadline.resize(master.nh());
    std::iota(by_deadline.begin(), by_deadline.end(), std::size_t{0});
    std::ranges::stable_sort(by_deadline, [&](std::size_t a, std::size_t b) {
      return master.high_streams[a].D < master.high_streams[b].D;
    });

    for (std::size_t rank = 0; rank < by_deadline.size(); ++rank) {
      const std::size_t i = by_deadline[rank];
      ma.streams[i] = fp_stream_response(master, by_deadline, rank, tc[k], form, fuel);
      if (!ma.streams[i].meets_deadline) ma.schedulable = false;
    }
    if (!ma.schedulable) out.schedulable = false;
  }
  return out;
}

NetworkAnalysis analyze_fixed_priority(const Network& net, const NetworkOrders& orders,
                                       const TimingMemo& memo, Formulation form, int fuel) {
  net.validate();
  if (orders.size() != net.n_masters()) {
    throw std::invalid_argument("analyze_fixed_priority: orders shape mismatch");
  }
  NetworkAnalysis out;
  out.tcycle = memo.tcycle;
  out.schedulable = true;

  const std::vector<Ticks>& tc = memo.per_master;
  out.masters.resize(net.n_masters());

  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    const Master& master = net.masters[k];
    if (orders[k].size() != master.nh()) {
      throw std::invalid_argument("analyze_fixed_priority: order size mismatch at master " +
                                  master.name);
    }
    MasterAnalysis& ma = out.masters[k];
    ma.schedulable = true;
    ma.streams.resize(master.nh());
    for (std::size_t rank = 0; rank < orders[k].size(); ++rank) {
      const std::size_t i = orders[k][rank];
      ma.streams[i] = fp_stream_response(master, orders[k], rank, tc[k], form, fuel);
      if (!ma.streams[i].meets_deadline) ma.schedulable = false;
    }
    if (!ma.schedulable) out.schedulable = false;
  }
  return out;
}

/// OPA for one master: fill priority levels bottom-up. A stream is feasible
/// at the lowest remaining level iff its eq.-16 response — with all other
/// unassigned streams above it — meets its deadline. The response at a level
/// depends only on the *set* of higher-priority streams (the interference
/// sum is order-independent) and on whether lower-priority streams exist
/// (they do, except at the very bottom), so OPA's optimality applies.
std::optional<StreamOrder> opa_master(const Master& master, Ticks tcycle, Formulation form,
                                      int fuel) {
  std::vector<std::size_t> unassigned(master.nh());
  std::iota(unassigned.begin(), unassigned.end(), std::size_t{0});
  StreamOrder reversed;  // lowest level first

  while (!unassigned.empty()) {
    bool placed = false;
    for (std::size_t pos = 0; pos < unassigned.size(); ++pos) {
      // Evaluate candidate at the lowest remaining level: higher-priority
      // set = all other unassigned; lower-priority = already placed.
      std::vector<std::size_t> order = unassigned;
      std::rotate(order.begin() + static_cast<std::ptrdiff_t>(pos),
                  order.begin() + static_cast<std::ptrdiff_t>(pos) + 1, order.end());
      // `order` now has the candidate last among the unassigned; append the
      // already-placed (lower) streams below it so blocking applies.
      for (auto it = reversed.rbegin(); it != reversed.rend(); ++it) order.push_back(*it);
      const std::size_t rank = unassigned.size() - 1;
      const StreamResponse r = fp_stream_response(master, order, rank, tcycle, form, fuel);
      if (r.meets_deadline) {
        reversed.push_back(order[rank]);
        unassigned.erase(std::ranges::find(unassigned, order[rank]));
        placed = true;
        break;
      }
    }
    if (!placed) return std::nullopt;
  }
  std::ranges::reverse(reversed);
  return reversed;
}

std::optional<NetworkOrders> audsley_stream_orders(const Network& net, const TimingMemo& memo,
                                                   Formulation form, int fuel) {
  net.validate();
  const std::vector<Ticks>& tc = memo.per_master;
  NetworkOrders out(net.n_masters());
  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    auto order = opa_master(net.masters[k], tc[k], form, fuel);
    if (!order.has_value()) return std::nullopt;
    out[k] = std::move(*order);
  }
  return out;
}

namespace {

/// Busy period of a master under one-T_cycle-per-request service:
/// L = Σ_i ⌈(L + J_i)/T_i⌉ · T_cycle from L⁰ = nh·T_cycle.
/// Returns kNoBound when the iteration diverges (token supply < demand).
Ticks master_busy_period(const Master& master, Ticks tcycle, int fuel) {
  Ticks L = sat_mul(static_cast<Ticks>(master.nh()), tcycle);
  for (int it = 0; it < fuel; ++it) {
    Ticks next = 0;
    for (const MessageStream& s : master.high_streams) {
      next = sat_add(next, sat_mul(ceil_div_plus(sat_add(L, s.J), s.T), tcycle));
    }
    if (next == L) return L;
    if (next == kNoBound) return kNoBound;
    L = next;
  }
  return kNoBound;
}

/// Candidate offsets a (paper eq. 10, jitter-shifted) within [0, horizon],
/// into a reused buffer.
void candidate_offsets(const Master& master, std::size_t i, Ticks horizon,
                       std::vector<Ticks>& offsets) {
  offsets.clear();
  offsets.push_back(0);
  const Ticks di = master.high_streams[i].D;
  for (const MessageStream& sj : master.high_streams) {
    const Ticks base = sj.D - sj.J - di;
    const Ticks k0 = base >= 0 ? 0 : ceil_div(-base, sj.T);
    for (Ticks k = k0;; ++k) {
      const Ticks a = sat_add(sat_mul(k, sj.T), base);
      if (a > horizon || a == kNoBound) break;
      offsets.push_back(a);
    }
  }
  std::ranges::sort(offsets);
  const auto dup = std::ranges::unique(offsets);
  offsets.erase(dup.begin(), dup.end());
}

struct OffsetOutcome {
  bool converged = false;
  Ticks response = kNoBound;
};

/// R_i(a) per eqs. 17–18.
OffsetOutcome response_at_offset(const Master& master, std::size_t i, Ticks a, Ticks tcycle,
                                 int fuel) {
  const MessageStream& si = master.high_streams[i];
  const Ticks abs_deadline = sat_add(a, si.D);

  // T*_cycle(a): a later-deadline request from another stream may already
  // occupy the one-deep stack queue.
  Ticks blocking = 0;
  for (std::size_t j = 0; j < master.nh(); ++j) {
    if (j == i) continue;
    const MessageStream& sj = master.high_streams[j];
    if (sj.D - sj.J > abs_deadline) {
      blocking = tcycle;
      break;
    }
  }

  const Ticks own_prior = sat_mul(floor_div(a, si.T), tcycle);

  Ticks L = 0;
  for (int it = 0; it < fuel; ++it) {
    Ticks next = sat_add(blocking, own_prior);
    for (std::size_t j = 0; j < master.nh(); ++j) {
      if (j == i) continue;
      const MessageStream& sj = master.high_streams[j];
      if (sj.D - sj.J > abs_deadline) continue;  // later deadline: lower priority
      const Ticks by_time = floor_div_plus1(sat_add(L, sj.J), sj.T);
      const Ticks by_deadline = floor_div_plus1(abs_deadline - sj.D + sj.J, sj.T);
      next = sat_add(next, sat_mul(std::min(by_time, by_deadline), tcycle));
    }
    if (next == L) return {true, sat_add(tcycle, std::max<Ticks>(0, L - a))};
    if (next == kNoBound) return {};
    L = next;
  }
  return {};
}

}  // namespace

NetworkAnalysis analyze_edf(const Network& net, const TimingMemo& memo,
                            std::vector<std::vector<EdfStreamDetail>>* detail, int fuel) {
  net.validate();
  NetworkAnalysis out;
  out.tcycle = memo.tcycle;
  out.schedulable = true;

  std::vector<Ticks> offsets;

  const std::vector<Ticks>& tc = memo.per_master;
  out.masters.resize(net.n_masters());
  if (detail) detail->assign(net.n_masters(), {});

  for (std::size_t k = 0; k < net.n_masters(); ++k) {
    const Master& master = net.masters[k];
    MasterAnalysis& ma = out.masters[k];
    ma.schedulable = true;
    ma.streams.resize(master.nh());
    if (detail) (*detail)[k].resize(master.nh());

    const Ticks horizon = master_busy_period(master, tc[k], fuel);
    for (std::size_t i = 0; i < master.nh(); ++i) {
      StreamResponse& r = ma.streams[i];
      if (horizon == kNoBound) {
        ma.schedulable = false;
        continue;  // r stays kNoBound / not schedulable
      }
      Ticks best = 0;
      Ticks best_a = 0;
      std::size_t examined = 0;
      bool ok = true;
      candidate_offsets(master, i, horizon, offsets);
      for (const Ticks a : offsets) {
        ++examined;
        const OffsetOutcome o = response_at_offset(master, i, a, tc[k], fuel);
        if (!o.converged) {
          ok = false;
          break;
        }
        if (o.response > best) {
          best = o.response;
          best_a = a;
        }
      }
      if (ok) {
        r.response = best;
        r.Q = best - tc[k];
        r.meets_deadline = r.response <= master.high_streams[i].D;
      }
      if (detail) (*detail)[k][i] = {best_a, examined};
      if (!r.meets_deadline) ma.schedulable = false;
    }
    if (!ma.schedulable) out.schedulable = false;
  }
  return out;
}

}  // namespace oracle

// ------------------------------------------------------------- the suite

/// Generated networks: 3 masters x 5 streams from the sweep generator (the
/// CLI's defaults otherwise), one u-grid point per scenario block, each
/// scenario then reshaped by one of six variants (see make_case). The
/// generated u = 1.0 point is the EDF cliff (seconds per network); it gets
/// its own, smaller test below.
constexpr double kUGrid[] = {0.3, 0.45, 0.6, 0.75, 0.85, 0.9, 0.95, 0.98, 1.02, 1.05};
constexpr std::size_t kPerPoint = 54;
constexpr int kFuel = 1 << 16;

engine::SweepSpec grid() {
  engine::SweepSpec spec;
  spec.base.n_masters = 3;
  spec.base.streams_per_master = 5;
  spec.base.ttr = 3'000;
  for (const double u : kUGrid) spec.points.push_back({.total_u = u});
  spec.scenarios_per_point = kPerPoint;
  spec.seed = 14;
  return spec;
}

struct Case {
  Network net;
  int fuel = kFuel;
};

/// Scenario `id`, reshaped by variant id % 6: 0 as generated; 1 jitter on
/// every stream; 2 one stream per master with T < T_cycle; 3 master 0 at
/// exactly U = 1 (T_i = k_i·T_cycle, Σ 1/k_i = 1); 4 deadlines far past the
/// busy period (D = 64·T) on two streams per master; 5 a fuel too small for
/// most fixed points to converge. T_cycle does not depend on T, D or J, so
/// the reshaping keeps each master's T_cycle.
Case make_case(const engine::SweepSpec& spec, std::uint64_t id) {
  Case c;
  c.net = engine::SweepRunner::make_scenario(spec, id).net;
  const TimingMemo memo = compute_timing(c.net);
  for (std::size_t k = 0; k < c.net.n_masters(); ++k) {
    std::vector<MessageStream>& ss = c.net.masters[k].high_streams;
    const Ticks tc = memo.per_master[k];
    for (std::size_t i = 0; i < ss.size(); ++i) {
      MessageStream& s = ss[i];
      switch (id % 6) {
        case 1: s.J = static_cast<Ticks>(i + 1) * s.T / 9; break;
        case 2:
          if (i == 0) s.T = s.D = std::max<Ticks>(1, tc / 2);
          break;
        case 3:
          if (k == 0) {
            constexpr Ticks kThirds[] = {3, 3, 6, 12, 12};
            constexpr Ticks kHalves[] = {2, 4, 8, 16, 16};
            s.T = tc * ((id / 6) % 2 == 0 ? kThirds[i % 5] : kHalves[i % 5]);
            s.D = i % 2 == 0 ? s.T : s.T / 2 + tc;
          }
          break;
        case 4:
          if (i % 2 == 1) s.D = 64 * s.T;
          break;
        default: break;
      }
    }
  }
  if (id % 6 == 5) c.fuel = 3;
  return c;
}

void expect_same(const NetworkAnalysis& want, const NetworkAnalysis& got, const char* what,
                 std::uint64_t id) {
  ASSERT_EQ(want.masters.size(), got.masters.size()) << what << " id " << id;
  EXPECT_EQ(want.schedulable, got.schedulable) << what << " id " << id;
  EXPECT_EQ(want.tcycle, got.tcycle) << what << " id " << id;
  for (std::size_t k = 0; k < want.masters.size(); ++k) {
    const MasterAnalysis& a = want.masters[k];
    const MasterAnalysis& b = got.masters[k];
    EXPECT_EQ(a.schedulable, b.schedulable) << what << " id " << id << " master " << k;
    ASSERT_EQ(a.streams.size(), b.streams.size());
    for (std::size_t i = 0; i < a.streams.size(); ++i) {
      EXPECT_EQ(a.streams[i].Q, b.streams[i].Q) << what << " id " << id << " " << k << "/" << i;
      EXPECT_EQ(a.streams[i].response, b.streams[i].response)
          << what << " id " << id << " " << k << "/" << i;
      EXPECT_EQ(a.streams[i].meets_deadline, b.streams[i].meets_deadline)
          << what << " id " << id << " " << k << "/" << i;
    }
  }
}

/// Per-policy coverage counters, so the suite proves its own axes.
struct Coverage {
  std::size_t networks = 0, schedulable = 0, exact_u1 = 0, unconverged = 0;
};

class MessageOracle : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { simd::force_scalar(GetParam()); }
  void TearDown() override { simd::force_scalar(false); }
};

constexpr TcycleMethod kMethods[] = {TcycleMethod::PaperEq13, TcycleMethod::PerMasterRefined};
constexpr Formulation kForms[] = {Formulation::PaperLiteral, Formulation::Refined};

TEST_P(MessageOracle, DeadlineMonotonic) {
  const engine::SweepSpec spec = grid();
  RtaScratch scratch;  // reused across networks, as the engine does
  Coverage cov;
  for (std::uint64_t id = 0; id < spec.total_scenarios(); ++id) {
    const Case c = make_case(spec, id);
    ++cov.networks;
    for (const TcycleMethod method : kMethods) {
      const TimingMemo memo = compute_timing(c.net, method);
      for (const Formulation form : kForms) {
        const NetworkAnalysis want = oracle::analyze_dm(c.net, memo, form, c.fuel);
        expect_same(want, analyze_dm(c.net, memo, form, c.fuel, &scratch), "dm", id);
        expect_same(want, analyze_dm(c.net, method, form, c.fuel), "dm (own scratch)", id);
        EXPECT_EQ(dm_schedulable(c.net, memo, form, c.fuel, scratch), want.schedulable)
            << "dm verdict id " << id;
        cov.schedulable += want.schedulable;
        for (const MasterAnalysis& ma : want.masters) {
          for (const StreamResponse& s : ma.streams) cov.unconverged += s.response == kNoBound;
        }
      }
    }
  }
  EXPECT_GE(cov.networks, 500u);
  EXPECT_GT(cov.schedulable, 0u);
  EXPECT_GT(cov.unconverged, 0u);
}

TEST_P(MessageOracle, OptimalPriorityAssignment) {
  const engine::SweepSpec spec = grid();
  RtaScratch scratch;
  Coverage cov;
  for (std::uint64_t id = 0; id < spec.total_scenarios(); ++id) {
    const Case c = make_case(spec, id);
    ++cov.networks;
    for (const TcycleMethod method : kMethods) {
      const TimingMemo memo = compute_timing(c.net, method);
      for (const Formulation form : kForms) {
        const auto want = oracle::audsley_stream_orders(c.net, memo, form, c.fuel);
        const auto got = audsley_stream_orders(c.net, memo, form, c.fuel, &scratch);
        ASSERT_EQ(want.has_value(), got.has_value()) << "opa id " << id;
        if (!want) continue;
        ++cov.schedulable;
        EXPECT_EQ(*want, *got) << "opa id " << id;
        const NetworkAnalysis final_fp =
            oracle::analyze_fixed_priority(c.net, *want, memo, form, c.fuel);
        expect_same(final_fp, analyze_fixed_priority(c.net, *got, memo, form, c.fuel, &scratch),
                    "fp", id);
        // The OPA verdict is Audsley's success: the final analysis accepts.
        EXPECT_TRUE(final_fp.schedulable) << "opa verdict id " << id;
      }
    }
    // Arbitrary (reversed-DM) orders through the same adapter.
    NetworkOrders reversed = deadline_monotonic_orders(c.net);
    for (StreamOrder& o : reversed) std::ranges::reverse(o);
    const TimingMemo memo = compute_timing(c.net);
    expect_same(oracle::analyze_fixed_priority(c.net, reversed, memo, Formulation::Refined, c.fuel),
                analyze_fixed_priority(c.net, reversed, memo, Formulation::Refined, c.fuel,
                                       &scratch),
                "fp reversed", id);
  }
  EXPECT_GE(cov.networks, 500u);
  EXPECT_GT(cov.schedulable, 0u);
}

TEST_P(MessageOracle, FirstComeFirstServedVerdict) {
  const engine::SweepSpec spec = grid();
  Coverage cov;
  for (std::uint64_t id = 0; id < spec.total_scenarios(); ++id) {
    const Case c = make_case(spec, id);
    ++cov.networks;
    for (const TcycleMethod method : kMethods) {
      const TimingMemo memo = compute_timing(c.net, method);
      const bool want = analyze_fcfs(c.net, memo).schedulable;
      EXPECT_EQ(fcfs_schedulable(c.net, memo), want) << "fcfs verdict id " << id;
      cov.schedulable += want;
    }
  }
  EXPECT_GE(cov.networks, 500u);
  EXPECT_GT(cov.schedulable, 0u);
  EXPECT_LT(cov.schedulable, 2 * cov.networks);
}

TEST_P(MessageOracle, EarliestDeadlineFirst) {
  const engine::SweepSpec spec = grid();
  RtaScratch scratch;
  Coverage cov;
  for (std::uint64_t id = 0; id < spec.total_scenarios(); ++id) {
    const Case c = make_case(spec, id);
    ++cov.networks;
    cov.exact_u1 += id % 6 == 3;
    for (const TcycleMethod method : kMethods) {
      const TimingMemo memo = compute_timing(c.net, method);
      std::vector<std::vector<EdfStreamDetail>> want_detail, got_detail;
      const NetworkAnalysis want = oracle::analyze_edf(c.net, memo, &want_detail, c.fuel);
      expect_same(want, analyze_edf(c.net, memo, &got_detail, c.fuel, &scratch), "edf", id);
      EXPECT_EQ(edf_schedulable(c.net, memo, c.fuel, scratch), want.schedulable) << "id " << id;
      ASSERT_EQ(want_detail.size(), got_detail.size());
      for (std::size_t k = 0; k < want_detail.size(); ++k) {
        ASSERT_EQ(want_detail[k].size(), got_detail[k].size());
        for (std::size_t i = 0; i < want_detail[k].size(); ++i) {
          EXPECT_EQ(want_detail[k][i].critical_offset, got_detail[k][i].critical_offset)
              << "edf id " << id << " " << k << "/" << i;
          EXPECT_EQ(want_detail[k][i].offsets_examined, got_detail[k][i].offsets_examined)
              << "edf id " << id << " " << k << "/" << i;
          cov.unconverged += want.masters[k].streams[i].response == kNoBound &&
                             want_detail[k][i].offsets_examined > 0;
        }
      }
      cov.schedulable += want.schedulable;
    }
  }
  EXPECT_GE(cov.networks, 500u);
  EXPECT_GT(cov.exact_u1, 0u);
  EXPECT_GT(cov.schedulable, 0u);
  EXPECT_GT(cov.unconverged, 0u);  // an offset ran out of fuel mid-scan
}

/// The DM, OPA and FCFS verdict paths against the exact analyses (the
/// oracle's for DM and OPA), under both formulations.
void expect_fixed_priority_verdicts(const Network& net, const TimingMemo& memo, int fuel,
                                    RtaScratch& scratch, const char* what) {
  EXPECT_EQ(fcfs_schedulable(net, memo), analyze_fcfs(net, memo).schedulable) << what;
  for (const Formulation form : kForms) {
    EXPECT_EQ(dm_schedulable(net, memo, form, fuel, scratch),
              oracle::analyze_dm(net, memo, form, fuel).schedulable)
        << what;
    const auto orders = oracle::audsley_stream_orders(net, memo, form, fuel);
    const bool opa =
        orders && oracle::analyze_fixed_priority(net, *orders, memo, form, fuel).schedulable;
    EXPECT_EQ(audsley_stream_orders(net, memo, form, fuel, &scratch).has_value(), opa) << what;
  }
}

TEST(MessageOracleU1, RoundingAboveOneKeepsTheVerdict) {
  // T_cycle/T = 9/14 + 9/28 + 9/252 is exactly 1, but its double sum rounds
  // to 1.0000000000000002. The busy period is bounded (the hyperperiod), so
  // the overload pre-check must let the master through.
  Network net;
  net.ttr = 2'000;
  Master m;
  m.name = "m";
  m.high_streams.assign(3, MessageStream{.Ch = 300, .D = 1, .T = 1, .J = 0, .name = ""});
  net.masters = {m};
  net.ttr += (9 - compute_timing(net).per_master[0] % 9) % 9;  // T_cycle = 9·q
  const TimingMemo memo = compute_timing(net);
  const Ticks q = memo.per_master[0] / 9;
  ASSERT_EQ(memo.per_master[0], 9 * q);
  const Ticks periods[] = {14 * q, 28 * q, 252 * q};
  for (const Ticks d_scale : {Ticks{1}, Ticks{2}}) {
    for (std::size_t i = 0; i < 3; ++i) {
      net.masters[0].high_streams[i].T = periods[i];
      net.masters[0].high_streams[i].D = periods[i] / d_scale;
    }
    RtaScratch scratch;
    const TaskSetView& v = bind_master(scratch.arena, net.masters[0], memo.per_master[0]);
    ASSERT_GT(v.utilization(), 1.0);  // the rounding this case is about
    ASSERT_FALSE(v.overloaded());

    std::vector<std::vector<EdfStreamDetail>> want_detail, got_detail;
    const NetworkAnalysis want = oracle::analyze_edf(net, memo, &want_detail, kFuel);
    const NetworkAnalysis got = analyze_edf(net, memo, &got_detail, kFuel, &scratch);
    expect_same(want, got, "edf u=1", static_cast<std::uint64_t>(d_scale));
    EXPECT_EQ(edf_schedulable(net, memo, kFuel, scratch), want.schedulable) << d_scale;
    expect_fixed_priority_verdicts(net, memo, kFuel, scratch, "u=1");
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_GT(want_detail[0][i].offsets_examined, 0u);  // busy period bounded
      EXPECT_EQ(want_detail[0][i].offsets_examined, got_detail[0][i].offsets_examined);
      EXPECT_EQ(want_detail[0][i].critical_offset, got_detail[0][i].critical_offset);
    }
  }
}

TEST(MessageOracleCliff, EdfAtUtilizationOne) {
  // The u = 1.0 networks of tests/golden/combined_cliff.csv (seed 338, one
  // master): their EDF rows mix finite WCRTs with exhausted busy periods,
  // decided by the fuel, the uncapped offset scan and the overload
  // pre-check. Seconds of EDF each, so this runs once, on the active
  // dispatch (the forced-scalar CI job covers the scalar one).
  engine::SweepSpec spec;
  spec.base.n_masters = 1;
  spec.base.streams_per_master = 5;
  spec.base.ttr = 3'000;
  spec.points = {{.total_u = 0.95}, {.total_u = 1.0}};
  spec.scenarios_per_point = 6;
  spec.seed = 338;
  RtaScratch scratch;
  std::size_t bounded = 0, unbounded = 0;
  for (std::uint64_t id = 6; id < spec.total_scenarios(); ++id) {
    const Network net = engine::SweepRunner::make_scenario(spec, id).net;
    const TimingMemo memo = compute_timing(net);
    std::vector<std::vector<EdfStreamDetail>> want_detail, got_detail;
    const NetworkAnalysis want = oracle::analyze_edf(net, memo, &want_detail, kFuel);
    expect_same(want, analyze_edf(net, memo, &got_detail, kFuel, &scratch), "edf cliff", id);
    EXPECT_EQ(edf_schedulable(net, memo, kFuel, scratch), want.schedulable) << "id " << id;
    for (std::size_t i = 0; i < want_detail[0].size(); ++i) {
      EXPECT_EQ(want_detail[0][i].critical_offset, got_detail[0][i].critical_offset);
      EXPECT_EQ(want_detail[0][i].offsets_examined, got_detail[0][i].offsets_examined);
      (want.masters[0].streams[i].response == kNoBound ? unbounded : bounded) += 1;
    }
  }
  EXPECT_GT(bounded, 0u);
  EXPECT_GT(unbounded, 0u);
}

TEST_P(MessageOracle, EdfVerdictOnLaneSizedMasters) {
  // Masters of 8 and 12 streams reach simd::kMinLaneTasks: with the lanes
  // active, edf_schedulable's bounded scans run the lane kernel, each fixed
  // point stopped at its limit, and stop after the offset that crosses D_i.
  // Deadlines in [T/2, T] put misses below the cliff; exact scans of such
  // masters at u = 1.0 take seconds.
  RtaScratch scratch;
  std::size_t networks = 0, schedulable = 0, lane_masters = 0;
  for (const std::size_t streams : {8, 12}) {
    engine::SweepSpec spec;
    spec.base.n_masters = 2;
    spec.base.streams_per_master = streams;
    spec.base.ttr = 3'000;
    for (const double u : {0.8, 0.9, 0.95, 0.98}) {
      spec.points.push_back({.total_u = u, .beta_lo = 0.5, .beta_hi = 1.0});
    }
    spec.scenarios_per_point = 8;
    spec.seed = 16;
    for (std::uint64_t id = 0; id < spec.total_scenarios(); ++id) {
      const Network net = engine::SweepRunner::make_scenario(spec, id).net;
      for (const TcycleMethod method : kMethods) {
        const TimingMemo memo = compute_timing(net, method);
        const NetworkAnalysis want = oracle::analyze_edf(net, memo, nullptr, kFuel);
        expect_same(want, analyze_edf(net, memo, nullptr, kFuel, &scratch), "edf lanes", id);
        EXPECT_EQ(edf_schedulable(net, memo, kFuel, scratch), want.schedulable)
            << streams << " streams, id " << id;
        expect_fixed_priority_verdicts(net, memo, kFuel, scratch, "lanes");
        ++networks;
        schedulable += want.schedulable;
        const TaskSetView& v = bind_master(scratch.arena, net.masters[0], memo.per_master[0]);
        lane_masters += v.simd_ok && v.n >= simd::kMinLaneTasks;
      }
    }
  }
  EXPECT_GT(schedulable, 0u);
  EXPECT_LT(schedulable, networks);
  EXPECT_EQ(lane_masters, networks);  // every master reaches the lane kernel
}

/// Hand-built masters for edf_schedulable's per-master loop, as (T, D)
/// pairs in half T_cycles with no jitter:
///  * kMeets: three lax streams, T = D = 40·T_cycle;
///  * kEmpty: no high-priority streams;
///  * kMissesEarly: three streams at U = 1 (T = 3·T_cycle) with D = 2·T_cycle;
///    the third request served misses at offset 0;
///  * kMissesLate: T = D = 5/2, 3, 4 and 100 T_cycles (U ≈ 0.99). Every
///    stream meets its deadline at the offsets within [0, Σ_j C_j], so only
///    the scan over the whole busy period finds the miss.
enum class Shape { kMeets, kEmpty, kMissesEarly, kMissesLate };

Network edge_network(const std::vector<Shape>& shapes) {
  using Pairs = std::vector<std::pair<Ticks, Ticks>>;
  const auto pairs = [](Shape shape) -> Pairs {
    switch (shape) {
      case Shape::kMeets: return {{80, 80}, {80, 80}, {80, 80}};
      case Shape::kEmpty: return {};
      case Shape::kMissesEarly: return {{6, 4}, {6, 4}, {6, 4}};
      case Shape::kMissesLate: return {{5, 5}, {6, 6}, {8, 8}, {200, 200}};
    }
    return {};
  };
  Network net;
  net.ttr = 2'000;
  for (const Shape shape : shapes) {
    Master m;
    m.name = "m" + std::to_string(net.n_masters());
    m.high_streams.assign(pairs(shape).size(),
                          MessageStream{.Ch = 300, .D = 1, .T = 1, .J = 0, .name = ""});
    net.masters.push_back(std::move(m));
  }
  // Even T_cycles keep the half units exact; T_cycle does not depend on T or D.
  const auto odd = [](Ticks tc) { return tc % 2 != 0; };
  while (std::ranges::any_of(compute_timing(net).per_master, odd)) ++net.ttr;
  const TimingMemo memo = compute_timing(net);
  for (std::size_t k = 0; k < shapes.size(); ++k) {
    const Pairs td = pairs(shapes[k]);
    const Ticks half = memo.per_master[k] / 2;
    for (std::size_t i = 0; i < td.size(); ++i) {
      net.masters[k].high_streams[i].T = td[i].first * half;
      net.masters[k].high_streams[i].D = td[i].second * half;
    }
  }
  return net;
}

TEST(MessageOracleEdges, VerdictVisitsEveryMaster) {
  using enum Shape;
  const std::pair<std::vector<Shape>, bool> cases[] = {
      {{kMeets}, true},
      {{kEmpty}, true},
      {{kMeets, kEmpty}, true},
      {{kEmpty, kMeets}, true},
      {{kMissesEarly}, false},
      {{kMissesLate}, false},
      {{kMeets, kMissesEarly}, false},
      {{kMeets, kEmpty, kMissesLate}, false},
  };
  RtaScratch scratch;
  for (std::uint64_t id = 0; id < std::size(cases); ++id) {
    const auto& [shapes, schedulable] = cases[id];
    const Network net = edge_network(shapes);
    const TimingMemo memo = compute_timing(net);
    const NetworkAnalysis want = oracle::analyze_edf(net, memo, nullptr, kFuel);
    EXPECT_EQ(want.schedulable, schedulable) << "case " << id;
    expect_same(want, analyze_edf(net, memo, nullptr, kFuel, &scratch), "edf edges", id);
    EXPECT_EQ(edf_schedulable(net, memo, kFuel, scratch), schedulable) << "case " << id;
  }

  // kMissesLate passes edf_schedulable's [0, Σ_j C_j] pass: its miss needs
  // the full scan.
  const Network late = edge_network({kMissesLate});
  const TimingMemo memo = compute_timing(late);
  const TaskSetView& v = bind_master(scratch.arena, late.masters[0], memo.per_master[0]);
  const BusyPeriod prefix{.length = v.total_execution()};
  for (std::size_t i = 0; i < v.n; ++i) {
    const EdfRtaResult r =
        edf_response_time(v, i, prefix, scratch, /*preemptive=*/false, kMessageModel, kFuel);
    EXPECT_TRUE(r.meets(v.D[i])) << "stream " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Dispatch, MessageOracle, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "ForcedScalar" : "Active";
                         });

}  // namespace
}  // namespace profisched::profibus
