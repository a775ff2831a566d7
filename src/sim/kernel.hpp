// kernel.hpp — minimal discrete-event simulation kernel: a clock plus the
// event queue. Components schedule continuations against the kernel; the
// kernel advances time to each event in order until the horizon.
//
// BasicKernel<Payload> is the pooled, tag-dispatched form: events are plain
// values and run_until takes the handler that interprets them — no
// allocation per event. A handler may also fire the next event in place
// (fire_in_place), skipping the queue when that event provably comes next.
// Kernel is the generic std::function surface the tests and ad-hoc users
// keep.
#pragma once

#include <stdexcept>
#include <utility>

#include "sim/event_queue.hpp"

namespace profisched::sim {

template <class Payload>
class BasicKernel {
 public:
  [[nodiscard]] Ticks now() const noexcept { return now_; }
  [[nodiscard]] std::uint64_t events_processed() const noexcept { return processed_; }
  [[nodiscard]] std::uint64_t pool_recycles() const noexcept { return queue_.recycled(); }
  [[nodiscard]] std::size_t pool_high_water() const noexcept { return queue_.pool_high_water(); }

  /// Schedule `payload` `delay` ticks from now. Throws std::invalid_argument
  /// on a negative delay — always, not just in Debug builds: run_until sets
  /// now_ = event.time, so a past-time schedule would silently rewind the
  /// clock and corrupt event ordering for the rest of the run.
  void after(Ticks delay, Payload payload) {
    if (delay < 0) throw std::invalid_argument("BasicKernel::after: negative delay");
    queue_.schedule(sat_add(now_, delay), std::move(payload));
  }

  /// Schedule at an absolute time. Throws std::invalid_argument when `time`
  /// precedes now() (same always-on guard as after()). A saturated time
  /// (kNoBound) is legal: the event simply never fires under a finite
  /// horizon and cannot starve earlier events (the queue orders by time).
  void at(Ticks time, Payload payload) {
    if (time < now_) throw std::invalid_argument("BasicKernel::at: time precedes now()");
    queue_.schedule(time, std::move(payload));
  }

  /// Fire an event at `t` in place: when it is provably the next event of a
  /// run_until(horizon) — now() <= t <= horizon and t strictly before every
  /// pending event — advance the clock to `t`, count the event as processed
  /// and return true; the caller then runs its handler. Otherwise change
  /// nothing and return false; the caller schedules it with at(t) instead.
  /// Call it as the last action of a handler run by run_until(horizon).
  ///
  /// Why this is exact: had the event been queued at `t` with sequence number
  /// s, the heap would pop it next, since every pending event is strictly
  /// later (the test is strict: a pending event at `t` itself was scheduled
  /// earlier, has the lower sequence number and must fire first). Firing it
  /// in place skips only s. Sequence numbers break ties between equal times
  /// and nothing else, every pending event's is below s, and every later
  /// event's shifts down by one alike, so the relative order of all
  /// remaining events is unchanged.
  [[nodiscard]] bool fire_in_place(Ticks t, Ticks horizon) noexcept {
    if (t < now_ || t > horizon || t >= queue_.next_time()) return false;
    now_ = t;
    ++processed_;
    return true;
  }

  /// Run events until the queue empties or the next event is after `horizon`,
  /// passing each payload to `handle`. Events exactly at the horizon still
  /// fire. Returns events processed by this call, including those its
  /// handlers fired in place.
  template <class Handler>
  std::uint64_t run_until(Ticks horizon, Handler&& handle) {
    const std::uint64_t before = processed_;
    while (!queue_.empty() && queue_.next_time() <= horizon) {
      BasicEvent<Payload> e = queue_.pop();
      now_ = e.time;
      ++processed_;
      handle(e.payload);
    }
    return processed_ - before;
  }

 private:
  Ticks now_ = 0;
  std::uint64_t processed_ = 0;
  BasicEventQueue<Payload> queue_;
};

/// Generic kernel: callback payloads, invoked directly.
class Kernel : public BasicKernel<std::function<void()>> {
 public:
  std::uint64_t run_until(Ticks horizon) {
    return BasicKernel::run_until(horizon, [](std::function<void()>& action) { action(); });
  }
};

}  // namespace profisched::sim
