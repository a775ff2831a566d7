#include "sim/network_sim.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

namespace profisched::sim {

namespace {

using profibus::ApPolicy;
using profibus::Master;
using profibus::MessageStream;

/// The most policies one run can hold: a group's policies are distinct.
constexpr std::size_t kMaxGroup = 3;

/// Per-master run-time state.
struct MasterState {
  /// One dispatcher per policy of the run's group, in group order. They get
  /// the same releases and, until the run forks, hold the same requests and
  /// the same head, so the protocol reads dispatchers[0] alone.
  std::array<Dispatcher, kMaxGroup> dispatchers;
  std::deque<Ticks> lp_queue;  ///< pending low-priority cycle lengths (FCFS)
  Ticks last_token_arrival = 0;  ///< T_RR timer start (pseudocode init: 0)
  bool online = true;            ///< false while churned off the ring
  TokenStats token;
  std::vector<StreamStats> streams;
  std::vector<Histogram> hist;  ///< sized only when histograms requested
};

// Phases of one token visit (see network_sim.hpp header comment).
enum class Phase : std::uint8_t { GuaranteedHp, HpWhile, LpWhile };

/// The simulator's pooled event representation: a tag plus a small payload,
/// stored by value in the kernel's slot pool — no allocation per event. The
/// kinds mirror exactly the continuations the seed-era simulator captured in
/// per-event std::functions; the dispatch switch in Simulation::handle()
/// replays the same bodies, so schedule order, event order and RNG draw
/// order are unchanged and traces stay byte-identical (regression:
/// tests/sim/test_event_pool.cpp). Token arrivals fired in place
/// (BasicKernel::fire_in_place) never become a SimEvent at all.
struct SimEvent {
  enum class Kind : std::uint8_t {
    TokenArrival,  ///< token reaches `master`
    HpGenStep,     ///< release generator of (master, stream) at nominal t0
    HpRelease,     ///< jitter-delayed release of (master, stream)
    LpRelease,     ///< LP generator of master, lp-config index `stream`, at t0
    HpCycleEnd,    ///< HP cycle of `req` completes; t0 = tth_expiry, t1 = visit_start
    LpCycleEnd,    ///< LP cycle completes; t0 = tth_expiry, t1 = visit_start
    Rejoin,        ///< churned `master` re-enters the ring
  };

  Kind kind = Kind::TokenArrival;
  Phase phase = Phase::GuaranteedHp;  ///< HpCycleEnd: phase to resume
  bool dropped = false;               ///< HpCycleEnd: cycle lost to retries
  std::uint32_t master = 0;
  std::uint32_t stream = 0;
  Ticks t0 = 0;
  Ticks t1 = 0;
  PendingRequest req{};  ///< HpCycleEnd only
};

/// The whole simulation; wires the kernel, the masters and the generators.
/// Seed of the dedicated fault RNG stream: derived from the run seed, but a
/// stream of its own so enabling faults never perturbs the main sequence of
/// cycle-duration / jitter draws (and disabling them never consumes a draw).
std::uint64_t fault_stream_seed(std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x8bb84b93962eacc9ULL;
  return splitmix64(state);
}

/// The token-passing procedure's result when no token arrival fired in place.
constexpr std::size_t kNoArrival = std::numeric_limits<std::size_t>::max();

/// next_head()'s choice when no other request waits.
constexpr std::uint64_t kNoRefill = std::numeric_limits<std::uint64_t>::max();

class Simulation {
 public:
  /// Reads `cfg` in place; it must outlive the Simulation. Simulates
  /// `policies` as one group (validated by the caller); the copies it makes
  /// where they dispatch differently wait in `forks`.
  Simulation(const SimConfig& cfg, std::span<const ApPolicy> policies,
             std::vector<Simulation>& forks)
      : cfg_(cfg),
        rng_(cfg.seed),
        frng_(fault_stream_seed(cfg.seed)),
        pass_time_(profibus::token_pass_time(cfg.net.bus)),
        forks_(&forks),
        group_size_(policies.size()) {
    cfg_.net.validate();
    cfg_.faults.validate();
    if (cfg_.horizon < 1) throw std::invalid_argument("SimConfig: horizon must be >= 1");
    const std::size_t n = cfg_.net.n_masters();
    if (!cfg_.hp_traffic.empty() && cfg_.hp_traffic.size() != n) {
      throw std::invalid_argument("SimConfig: hp_traffic shape mismatch");
    }
    if (!cfg_.lp_traffic.empty() && cfg_.lp_traffic.size() != n) {
      throw std::invalid_argument("SimConfig: lp_traffic shape mismatch");
    }
    if (cfg_.cycle_model.kind == CycleModel::Kind::FrameLevel && cfg_.frame_specs.size() != n) {
      throw std::invalid_argument("SimConfig: FrameLevel cycle model needs frame_specs");
    }
    for (std::size_t j = 0; j < group_size_; ++j) slots_[j] = j;
    masters_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      MasterState& m = masters_[k];
      for (std::size_t j = 0; j < group_size_; ++j) m.dispatchers[j] = Dispatcher(policies[j]);
      m.streams.resize(cfg_.net.masters[k].nh());
      if (cfg_.collect_histograms) m.hist.resize(cfg_.net.masters[k].nh());
    }
  }

  /// Run to the horizon (a fork first finishes the event it split at), then
  /// write the group's reports into `out`.
  void run(GroupReport& out) {
    if (resume_) {
      handle(*resume_);
    } else {
      arm_generators();
      kernel_.at(0, SimEvent{.kind = SimEvent::Kind::TokenArrival, .master = 0});
    }
    kernel_.run_until(cfg_.horizon, [this](SimEvent& e) { handle(e); });
    out.events_executed += kernel_.events_processed() - first_event_;
    collect(out.reports);
  }

 private:
  /// The tag dispatch: each case is the body of the lambda the seed-era
  /// simulator would have captured for this continuation, verbatim, except
  /// that token arrivals run in the loop at the end.
  void handle(const SimEvent& e) {
    const std::size_t k = e.master;
    std::size_t arrival = kNoArrival;  // master the token reaches now, if any
    switch (e.kind) {
      case SimEvent::Kind::TokenArrival:
        arrival = k;
        break;
      case SimEvent::Kind::HpGenStep: {
        const Ticks nominal = e.t0;
        const ReleaseProcess::Step step = procs_[k][e.stream].step(nominal, rng_);
        if (step.release <= kernel_.now()) {
          // No jitter delay: release inline so a request released at the same
          // instant as a token arrival is visible to that very token visit.
          do_release(k, e.stream);
        } else {
          kernel_.at(step.release, SimEvent{.kind = SimEvent::Kind::HpRelease,
                                            .master = e.master,
                                            .stream = e.stream});
        }
        schedule_hp_release(e.master, e.stream, step.next_nominal);
        break;
      }
      case SimEvent::Kind::HpRelease:
        do_release(k, e.stream);
        break;
      case SimEvent::Kind::LpRelease: {
        const LpTraffic& lp = cfg_.lp_traffic[k][e.stream];
        masters_[k].lp_queue.push_back(lp.cycle_len);
        schedule_lp_release(e.master, e.stream, sat_add(e.t0, lp.period));
        break;
      }
      case SimEvent::Kind::HpCycleEnd: {
        if (group_size_ > 1) fork_where_refills_differ(k, e);
        MasterState& mm = masters_[k];
        StreamStats& st = mm.streams[e.req.stream];
        if (e.dropped) {
          ++st.dropped;
          trace(TraceKind::CycleDropped, k, e.req.stream, 0);
        } else {
          const Ticks response = kernel_.now() - e.req.release;
          st.record_completion(response, cfg_.net.masters[k].high_streams[e.req.stream].D);
          if (!mm.hist.empty()) mm.hist[e.req.stream].add(response);
          trace(TraceKind::CycleEnd, k, e.req.stream, response);
        }
        for (std::size_t j = 0; j < group_size_; ++j) mm.dispatchers[j].complete_head();
        arrival = token_phase(k, e.t0, e.phase, e.t1);
        break;
      }
      case SimEvent::Kind::LpCycleEnd:
        masters_[k].lp_queue.pop_front();
        ++lp_completed_;
        trace(TraceKind::LpCycleEnd, k, SIZE_MAX, 0);
        arrival = token_phase(k, e.t0, Phase::LpWhile, e.t1);
        break;
      case SimEvent::Kind::Rejoin: {
        MasterState& m = masters_[k];
        m.online = true;
        // A rejoining station initializes its T_RR timer on ring entry, as on
        // the pseudocode's start-up: the first visit is not astronomically
        // "late" from its own perspective.
        m.last_token_arrival = kernel_.now();
        ++faults_.rejoins;
        trace(TraceKind::StationRejoin, k, SIZE_MAX, 0);
        notify(FaultKind::StationRejoined, k, SIZE_MAX, 0);
        break;
      }
    }
    // Token arrivals pass_token fired in place run here, in a loop rather
    // than by recursion: an idle stretch of the ring is thousands of passes.
    while (arrival != kNoArrival) arrival = on_token_arrival(arrival);
  }

  // ---- policy groups ---------------------------------------------------

  /// Before the HpCycleEnd `e` of master k runs: compare the request each of
  /// the group's dispatchers would put at the head next. The policies that
  /// agree with the first go on here; every other distinct choice gets a copy
  /// of the whole simulation, which finishes `e` first when its turn comes.
  /// Until now every policy ran the same events, so each copy is exactly the
  /// state its policies' own runs would have reached.
  void fork_where_refills_differ(std::size_t k, const SimEvent& e) {
    const std::array<Dispatcher, kMaxGroup>& ds = masters_[k].dispatchers;
    std::array<std::uint64_t, kMaxGroup> choice{};
    for (std::size_t j = 0; j < group_size_; ++j) {
      const PendingRequest* next = ds[j].next_head();
      choice[j] = next != nullptr ? next->seq : kNoRefill;
    }
    for (std::size_t j = 1; j < group_size_; ++j) {
      const auto first = choice.begin();
      if (std::find(first, first + j, choice[j]) != first + j) continue;  // has its copy
      Simulation fork = *this;
      fork.keep(choice, choice[j]);
      fork.resume_ = e;
      fork.first_event_ = kernel_.events_processed();
      forks_->push_back(std::move(fork));
    }
    keep(choice, choice[0]);
  }

  /// Narrow the group to the policies whose choice is `which`.
  void keep(const std::array<std::uint64_t, kMaxGroup>& choice, std::uint64_t which) {
    std::size_t n = 0;
    for (std::size_t j = 0; j < group_size_; ++j) {
      if (choice[j] != which) continue;
      if (n != j) {
        slots_[n] = slots_[j];
        for (MasterState& m : masters_) m.dispatchers[n] = std::move(m.dispatchers[j]);
      }
      ++n;
    }
    group_size_ = n;
  }

  // ---- traffic --------------------------------------------------------

  void arm_generators() {
    procs_.resize(masters_.size());
    for (std::size_t k = 0; k < masters_.size(); ++k) {
      const Master& master = cfg_.net.masters[k];
      procs_[k].reserve(master.nh());
      for (std::size_t i = 0; i < master.nh(); ++i) {
        const TrafficConfig tc =
            cfg_.hp_traffic.empty() ? TrafficConfig{} : cfg_.hp_traffic[k][i];
        procs_[k].emplace_back(tc, master.high_streams[i].T);
        schedule_hp_release(static_cast<std::uint32_t>(k), static_cast<std::uint32_t>(i),
                            tc.phase);
      }
      if (!cfg_.lp_traffic.empty()) {
        for (std::size_t l = 0; l < cfg_.lp_traffic[k].size(); ++l) {
          schedule_lp_release(static_cast<std::uint32_t>(k), static_cast<std::uint32_t>(l),
                              cfg_.lp_traffic[k][l].phase);
        }
      }
    }
  }

  void schedule_hp_release(std::uint32_t k, std::uint32_t i, Ticks nominal) {
    if (nominal > cfg_.horizon) return;
    kernel_.at(nominal, SimEvent{.kind = SimEvent::Kind::HpGenStep,
                                 .master = k,
                                 .stream = i,
                                 .t0 = nominal});
  }

  void do_release(std::size_t k, std::size_t i) {
    const MessageStream& s = cfg_.net.masters[k].high_streams[i];
    StreamStats& st = masters_[k].streams[i];
    ++st.released;
    if (!masters_[k].online) {
      // The station is off the ring: the request has no queue to enter.
      // Counted as dropped (never a miss — it records no response time), the
      // same disqualifying effect dropped FrameLevel cycles already have on
      // the miss-free aggregates.
      ++st.dropped;
      ++faults_.churn_dropped;
      trace(TraceKind::ChurnDrop, k, i, 0);
      notify(FaultKind::ChurnDrop, k, i, 0);
      return;
    }
    trace(TraceKind::Release, k, i, 0);
    const PendingRequest req{
        .stream = i,
        .release = kernel_.now(),
        .abs_deadline = sat_add(kernel_.now(), s.D),
        .rel_deadline = s.D,
        .seq = next_seq_++,
    };
    MasterState& m = masters_[k];
    for (std::size_t j = 0; j < group_size_; ++j) m.dispatchers[j].release(req);
    st.max_queue_depth_seen =
        std::max(st.max_queue_depth_seen, static_cast<Ticks>(m.dispatchers[0].pending()));
  }

  void schedule_lp_release(std::uint32_t k, std::uint32_t lp_index, Ticks at) {
    if (at > cfg_.horizon || cfg_.lp_traffic[k][lp_index].period < 1) return;
    kernel_.at(at, SimEvent{.kind = SimEvent::Kind::LpRelease,
                            .master = k,
                            .stream = lp_index,
                            .t0 = at});
  }

  // ---- the token-passing procedure (paper §3.1) -----------------------
  //
  // on_token_arrival, token_phase and pass_token return the master whose
  // next token arrival pass_token fired in place (kNoArrival when a message
  // cycle started or the arrival was queued); handle() runs it.

  std::size_t on_token_arrival(std::size_t k) {
    MasterState& m = masters_[k];
    const Ticks now = kernel_.now();
    const Ticks trr = now - m.last_token_arrival;
    m.last_token_arrival = now;
    m.token.record_arrival(trr, cfg_.net.ttr);
    trace(TraceKind::TokenArrival, k, SIZE_MAX, trr);

    const Ticks tth = cfg_.net.ttr - trr;  // may be <= 0 (late token)
    const Ticks tth_expiry = sat_add(now, std::max<Ticks>(tth, 0));
    return token_phase(k, tth_expiry, Phase::GuaranteedHp, now);
  }

  std::size_t token_phase(std::size_t k, Ticks tth_expiry, Phase phase, Ticks visit_start) {
    MasterState& m = masters_[k];
    const Ticks now = kernel_.now();
    const bool budget = now < tth_expiry;  // "T_TH > 0", tested at cycle start

    switch (phase) {
      case Phase::GuaranteedHp:
        // One high-priority cycle per visit regardless of token lateness.
        if (m.dispatchers[0].has_pending()) {
          start_hp_cycle(k, tth_expiry, Phase::HpWhile, visit_start);
          return kNoArrival;
        }
        [[fallthrough]];
      case Phase::HpWhile:
        if (budget && m.dispatchers[0].has_pending()) {
          start_hp_cycle(k, tth_expiry, Phase::HpWhile, visit_start);
          return kNoArrival;
        }
        [[fallthrough]];
      case Phase::LpWhile:
        // Prose rule: LP only when no HP pending; an HP arrival during the LP
        // phase is served first (never hurts HP response times).
        if (budget && m.dispatchers[0].has_pending()) {
          start_hp_cycle(k, tth_expiry, Phase::LpWhile, visit_start);
          return kNoArrival;
        }
        if (budget && !m.lp_queue.empty()) {
          start_lp_cycle(k, tth_expiry, visit_start);
          return kNoArrival;
        }
        break;
    }
    return pass_token(k, visit_start);
  }

  void start_hp_cycle(std::size_t k, Ticks tth_expiry, Phase next_phase, Ticks visit_start) {
    MasterState& m = masters_[k];
    const PendingRequest req = m.dispatchers[0].head();
    const MessageStream& s = cfg_.net.masters[k].high_streams[req.stream];

    bool dropped = false;
    const Ticks dur = corrupted_duration(k, req.stream, sample_hp_duration(k, req.stream, s, dropped));
    trace(TraceKind::CycleStart, k, req.stream, dur);
    note_overrun(m, k, tth_expiry, dur);

    kernel_.after(dur, SimEvent{.kind = SimEvent::Kind::HpCycleEnd,
                                .phase = next_phase,
                                .dropped = dropped,
                                .master = static_cast<std::uint32_t>(k),
                                .t0 = tth_expiry,
                                .t1 = visit_start,
                                .req = req});
  }

  void start_lp_cycle(std::size_t k, Ticks tth_expiry, Ticks visit_start) {
    MasterState& m = masters_[k];
    const Ticks dur = corrupted_duration(k, SIZE_MAX, m.lp_queue.front());
    trace(TraceKind::LpCycleStart, k, SIZE_MAX, dur);
    note_overrun(m, k, tth_expiry, dur);
    kernel_.after(dur, SimEvent{.kind = SimEvent::Kind::LpCycleEnd,
                                .master = static_cast<std::uint32_t>(k),
                                .t0 = tth_expiry,
                                .t1 = visit_start});
  }

  void note_overrun(MasterState& m, std::size_t k, Ticks tth_expiry, Ticks dur) {
    // sat_add, not raw +: a saturated cycle length (kNoBound from the
    // FrameLevel retry path under extreme bus parameters) must compare as
    // "past the expiry", not wrap negative and read as within budget.
    const Ticks now = kernel_.now();
    const Ticks end = sat_add(now, dur);
    if (now < tth_expiry && end > tth_expiry) {
      ++m.token.tth_overruns;
      trace(TraceKind::TthOverrun, k, SIZE_MAX, end - tth_expiry);
    }
  }

  /// Pass the token on. This is the last action of every handler that
  /// reaches it (TokenArrival, HpCycleEnd, LpCycleEnd): when the next arrival
  /// fires in place the clock has already moved to it, so nothing of the
  /// current event may run after this call.
  std::size_t pass_token(std::size_t k, Ticks visit_start) {
    MasterState& m = masters_[k];
    m.token.total_hold = sat_add(m.token.total_hold, kernel_.now() - visit_start);
    trace(TraceKind::TokenPass, k, SIZE_MAX, 0);

    // Churn: after completing a visit, a master other than 0 may drop off
    // the ring (master 0 stays, so there is always a token holder).
    if (cfg_.faults.churn_prob > 0 && k != 0 && masters_[k].online &&
        frng_.chance(cfg_.faults.churn_prob)) {
      leave_ring(k);
    }

    Ticks dur = pass_time_;
    std::size_t next = successor(k);
    while (!masters_[next].online) {
      // Offline successor: the pass times out after one slot time and the
      // token is re-addressed to the following station.
      dur = sat_add(dur, sat_add(cfg_.net.bus.t_sl, pass_time_));
      ++faults_.token_skips;
      trace(TraceKind::TokenSkip, next, SIZE_MAX, 0);
      notify(FaultKind::TokenSkip, next, SIZE_MAX, 0);
      next = successor(next);
    }

    // Token loss: the pass fails and the ring recovers the token out-of-band
    // after a bounded delay — at most one recovery per pass, so a rotation
    // accumulates at most n · token_recovery of loss dead time (the term
    // fault_bounds.hpp charges).
    if (cfg_.faults.token_loss_prob > 0 && frng_.chance(cfg_.faults.token_loss_prob)) {
      ++faults_.tokens_lost;
      trace(TraceKind::TokenLost, k, SIZE_MAX, cfg_.faults.token_recovery);
      notify(FaultKind::TokenLost, k, SIZE_MAX, cfg_.faults.token_recovery);
      dur = sat_add(dur, cfg_.faults.token_recovery);
    }

    // The arrival is usually the very next event; then it skips the queue.
    const Ticks arrival = sat_add(kernel_.now(), dur);
    if (kernel_.fire_in_place(arrival, cfg_.horizon)) return next;
    kernel_.at(arrival, SimEvent{.kind = SimEvent::Kind::TokenArrival,
                                 .master = static_cast<std::uint32_t>(next)});
    return kNoArrival;
  }

  /// Station k+1 (mod n) of the logical ring.
  [[nodiscard]] std::size_t successor(std::size_t k) const noexcept {
    return k + 1 == masters_.size() ? 0 : k + 1;
  }

  void leave_ring(std::size_t k) {
    MasterState& m = masters_[k];
    m.online = false;
    ++faults_.leaves;
    trace(TraceKind::StationLeave, k, SIZE_MAX, cfg_.faults.churn_offline);
    notify(FaultKind::StationLeft, k, SIZE_MAX, cfg_.faults.churn_offline);
    // A station off the ring loses its outgoing queues: every pending request
    // is abandoned (dropped, never missed — it records no response time). The
    // group's dispatchers hold the same requests, so the first one counts them.
    m.dispatchers[0].drain([&](const PendingRequest& req) {
      ++m.streams[req.stream].dropped;
      ++faults_.churn_dropped;
      trace(TraceKind::ChurnDrop, k, req.stream, 0);
      notify(FaultKind::ChurnDrop, k, req.stream, 0);
    });
    for (std::size_t j = 1; j < group_size_; ++j) {
      m.dispatchers[j].drain([](const PendingRequest&) {});
    }
    m.lp_queue.clear();
    kernel_.after(cfg_.faults.churn_offline,
                  SimEvent{.kind = SimEvent::Kind::Rejoin,
                           .master = static_cast<std::uint32_t>(k)});
  }

  /// Frame corruption: each transmission attempt of a message cycle is
  /// corrupted with corruption_prob, retransmitted at most max_retransmissions
  /// times, and the final attempt always delivers — so corruption stretches a
  /// cycle to at most (1 + R) x its sampled length but never drops it.
  Ticks corrupted_duration(std::size_t k, std::size_t stream, Ticks base) {
    if (cfg_.faults.corruption_prob <= 0) return base;
    int extra = 0;
    while (extra < cfg_.faults.max_retransmissions &&
           frng_.chance(cfg_.faults.corruption_prob)) {
      ++extra;
    }
    if (extra == 0) return base;
    ++faults_.corrupted_cycles;
    faults_.retransmissions += static_cast<std::uint64_t>(extra);
    trace(TraceKind::FrameCorrupted, k, stream, extra);
    notify(FaultKind::FrameCorrupted, k, stream, extra);
    return sat_mul(static_cast<Ticks>(1 + extra), base);
  }

  // ---- message-cycle duration models ----------------------------------

  Ticks sample_hp_duration(std::size_t k, std::size_t i, const MessageStream& s, bool& dropped) {
    dropped = false;
    switch (cfg_.cycle_model.kind) {
      case CycleModel::Kind::WorstCase:
        return s.Ch;
      case CycleModel::Kind::UniformFraction: {
        const auto lo = static_cast<Ticks>(
            std::ceil(cfg_.cycle_model.min_fraction * static_cast<double>(s.Ch)));
        return rng_.uniform(std::max<Ticks>(lo, 1), s.Ch);
      }
      case CycleModel::Kind::FrameLevel:
        return frame_level_duration(cfg_.frame_specs[k][i], dropped);
    }
    return s.Ch;
  }

  Ticks frame_level_duration(const profibus::MessageCycleSpec& spec, bool& dropped) {
    const profibus::BusParameters& bus = cfg_.net.bus;
    const Ticks request = profibus::frame_time(bus, spec.request_chars);
    const Ticks response = profibus::frame_time(bus, spec.response_chars);

    int fails = 0;
    while (fails <= bus.max_retry && rng_.chance(cfg_.cycle_model.slave_fail_prob)) ++fails;

    if (fails > bus.max_retry) {  // original attempt + every retry timed out
      dropped = true;
      return sat_add(sat_mul(fails, sat_add(request, bus.t_sl)), bus.t_id1);
    }
    const Ticks turnaround = rng_.uniform(bus.min_tsdr, bus.max_tsdr);
    Ticks dur = sat_add(sat_add(sat_add(request, turnaround), response), bus.t_id1);
    for (int f = 0; f < fails; ++f) dur = sat_add(dur, sat_add(request, bus.t_sl));
    return dur;
  }

  // ---- reporting -------------------------------------------------------

  void trace(TraceKind kind, std::size_t master, std::size_t stream, Ticks detail) {
    if (cfg_.trace != nullptr) {
      cfg_.trace->record(TraceEvent{kernel_.now(), kind, master, stream, detail});
    }
  }

  void notify(FaultKind kind, std::size_t master, std::size_t stream, Ticks detail) {
    if (cfg_.listener != nullptr) {
      cfg_.listener->on_fault(FaultEvent{kernel_.now(), kind, master, stream, detail});
    }
  }

  /// One report serves every policy still in the group: their runs were one.
  void collect(std::vector<SimReport>& reports) {
    SimReport r;
    r.horizon = cfg_.horizon;
    r.events = kernel_.events_processed();
    r.pool_recycles = kernel_.pool_recycles();
    r.faults = faults_;
    r.lp_cycles_completed = lp_completed_;
    r.hp.reserve(masters_.size());
    r.token.reserve(masters_.size());
    for (MasterState& m : masters_) {
      r.hp.push_back(std::move(m.streams));
      r.token.push_back(m.token);
      if (cfg_.collect_histograms) r.response_hist.push_back(std::move(m.hist));
    }
    for (std::size_t j = 0; j + 1 < group_size_; ++j) reports[slots_[j]] = r;
    reports[slots_[group_size_ - 1]] = std::move(r);
  }

  const SimConfig& cfg_;
  Rng rng_;
  /// Dedicated fault stream: consulted only behind per-knob `> 0` gates, so
  /// disabling faults never perturbs rng_'s draw sequence (zero-fault runs
  /// stay byte-identical) and enabling one knob never shifts another's draws
  /// relative to the main traffic.
  Rng frng_;
  const Ticks pass_time_;  ///< token_pass_time(bus), fixed for the run
  FaultStats faults_;
  BasicKernel<SimEvent> kernel_;
  std::vector<MasterState> masters_;
  /// Release processes per (master, stream): immutable after arming, so the
  /// generator events carry only (master, stream, nominal) instead of a
  /// per-event copy.
  std::vector<std::vector<ReleaseProcess>> procs_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t lp_completed_ = 0;

  /// Where this run's forks wait their turn (owned by the group run).
  std::vector<Simulation>* forks_;
  /// The group: dispatchers [0, group_size_) of every master serve it, and
  /// slots_[j] is where dispatcher j's policy's report goes.
  std::size_t group_size_;
  std::array<std::size_t, kMaxGroup> slots_{};
  /// A fork's first event: the HpCycleEnd it split at, popped and counted
  /// before the copy was made.
  std::optional<SimEvent> resume_;
  std::uint64_t first_event_ = 0;  ///< events_processed() when this run began
};

}  // namespace

GroupReport simulate(const SimConfig& cfg, std::span<const ApPolicy> policies) {
  if (policies.empty()) throw std::invalid_argument("simulate: needs >= 1 policy");
  for (std::size_t j = 0; j < policies.size(); ++j) {
    if (std::find(policies.begin(), policies.begin() + j, policies[j]) != policies.begin() + j) {
      throw std::invalid_argument("simulate: policy " + std::string(to_string(policies[j])) +
                                  " named twice");
    }
  }
  if (policies.size() > 1 && (cfg.trace != nullptr || cfg.listener != nullptr)) {
    throw std::invalid_argument(
        "simulate: a group of policies takes no trace sink or listener (drain callbacks would "
        "come in per-policy order)");
  }
  GroupReport out;
  out.reports.resize(policies.size());
  std::vector<Simulation> forks;
  Simulation(cfg, policies, forks).run(out);
  while (!forks.empty()) {
    Simulation fork = std::move(forks.back());
    forks.pop_back();
    ++out.splits;
    fork.run(out);
  }
  return out;
}

SimReport simulate(const SimConfig& cfg) {
  return std::move(simulate(cfg, std::span(&cfg.policy, 1)).reports.front());
}

}  // namespace profisched::sim
