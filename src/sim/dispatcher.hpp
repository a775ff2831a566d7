// dispatcher.hpp — the outgoing-queue architecture of one master, in the two
// shapes the paper compares (§1, §4):
//
//  * FCFS: the stock PROFIBUS high-priority outgoing queue. Requests go
//    straight into an unbounded FIFO in the communication stack.
//  * DM/EDF: a priority-ordered queue at the application-process level; the
//    communication-stack FCFS queue is limited to ONE pending request (the
//    paper: "this length control ... can be trivially achieved by the proper
//    use of a local management service"). The stack slot refills from the AP
//    queue head each time a message cycle completes — which is what creates
//    the bounded, one-T_cycle priority inversion the analyses charge as
//    T*_cycle: a just-queued lax request may sit in the slot when an urgent
//    one arrives, and the slot is never revoked.
//
// DM orders by the stream's relative deadline, EDF by the request's absolute
// deadline; ties resolve FIFO via the release sequence number, so behaviour
// is deterministic.
//
// Given the same releases, the three shapes hold the same requests and agree
// on the head until a refill picks differently; next_head() names that pick,
// which is where a group run (network_sim.hpp) forks.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <optional>
#include <set>

#include "core/time_types.hpp"
#include "profibus/dispatching.hpp"

namespace profisched::sim {

/// One pending high-priority request.
struct PendingRequest {
  std::size_t stream = 0;      ///< index into the master's high_streams
  Ticks release = 0;           ///< AP-queue insertion instant
  Ticks abs_deadline = 0;      ///< release + D
  Ticks rel_deadline = 0;      ///< the stream's D (DM key)
  std::uint64_t seq = 0;       ///< global release counter (FIFO tie-break)
};

/// Outgoing-queue state of one master.
class Dispatcher {
 public:
  Dispatcher() = default;  ///< FCFS
  explicit Dispatcher(profibus::ApPolicy policy) : policy_(policy) {}

  [[nodiscard]] profibus::ApPolicy policy() const noexcept { return policy_; }

  /// A new request enters the architecture.
  void release(const PendingRequest& req) {
    if (policy_ == profibus::ApPolicy::Fcfs) {
      stack_.push_back(req);
      return;
    }
    if (stack_.empty()) {
      stack_.push_back(req);  // the one-deep stack slot was free
    } else {
      ap_.insert(Keyed{key_of(req), req});
    }
  }

  /// Is any high-priority request ready for transmission?
  [[nodiscard]] bool has_pending() const noexcept { return !stack_.empty(); }

  /// The request the MAC layer would transmit next. Precondition: has_pending().
  [[nodiscard]] const PendingRequest& head() const {
    assert(!stack_.empty());
    return stack_.front();
  }

  /// The request complete_head() would put at the head next, or nullptr when
  /// no other request waits.
  [[nodiscard]] const PendingRequest* next_head() const {
    if (policy_ == profibus::ApPolicy::Fcfs) return stack_.size() > 1 ? &stack_[1] : nullptr;
    return ap_.empty() ? nullptr : &ap_.begin()->req;
  }

  /// Message cycle of head() completed: free the stack slot and, under a
  /// priority policy, refill it from the AP queue.
  void complete_head() {
    assert(!stack_.empty());
    stack_.pop_front();
    if (policy_ != profibus::ApPolicy::Fcfs && stack_.empty() && !ap_.empty()) {
      stack_.push_back(ap_.begin()->req);
      ap_.erase(ap_.begin());
    }
  }

  /// Total requests waiting anywhere in the architecture.
  [[nodiscard]] std::size_t pending() const noexcept { return stack_.size() + ap_.size(); }

  /// Abandon every pending request (the station left the ring), invoking
  /// `fn(req)` on each — stack slot first, then the AP queue in priority
  /// order, so the callback sequence is deterministic.
  template <class Fn>
  void drain(Fn&& fn) {
    for (const PendingRequest& r : stack_) fn(r);
    stack_.clear();
    for (const Keyed& kv : ap_) fn(kv.req);
    ap_.clear();
  }

 private:
  struct Key {
    Ticks primary;       ///< D (DM) or absolute deadline (EDF)
    std::uint64_t seq;   ///< FIFO among equals
    auto operator<=>(const Key&) const = default;
  };
  struct Keyed {
    Key key;
    PendingRequest req;
    bool operator<(const Keyed& o) const noexcept { return key < o.key; }
  };

  [[nodiscard]] Key key_of(const PendingRequest& r) const noexcept {
    return policy_ == profibus::ApPolicy::Dm ? Key{r.rel_deadline, r.seq}
                                             : Key{r.abs_deadline, r.seq};
  }

  profibus::ApPolicy policy_ = profibus::ApPolicy::Fcfs;
  std::deque<PendingRequest> stack_;  ///< communication-stack FCFS queue
  std::multiset<Keyed> ap_;           ///< AP-level priority queue (empty for FCFS)
};

}  // namespace profisched::sim
