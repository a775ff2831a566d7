// Unit tests for the simulation kernel.
#include "sim/kernel.hpp"

#include <gtest/gtest.h>

namespace profisched::sim {
namespace {

TEST(Kernel, ClockStartsAtZero) {
  Kernel k;
  EXPECT_EQ(k.now(), 0);
  EXPECT_EQ(k.events_processed(), 0u);
}

TEST(Kernel, AdvancesToEventTimes) {
  Kernel k;
  std::vector<Ticks> seen;
  k.at(10, [&] { seen.push_back(k.now()); });
  k.at(25, [&] { seen.push_back(k.now()); });
  k.run_until(100);
  EXPECT_EQ(seen, (std::vector<Ticks>{10, 25}));
  EXPECT_EQ(k.now(), 25);
}

TEST(Kernel, AfterIsRelativeToNow) {
  Kernel k;
  Ticks completion = -1;
  k.at(10, [&] { k.after(5, [&] { completion = k.now(); }); });
  k.run_until(100);
  EXPECT_EQ(completion, 15);
}

TEST(Kernel, HorizonIsInclusive) {
  Kernel k;
  bool at_horizon = false, past_horizon = false;
  k.at(50, [&] { at_horizon = true; });
  k.at(51, [&] { past_horizon = true; });
  k.run_until(50);
  EXPECT_TRUE(at_horizon);
  EXPECT_FALSE(past_horizon);
}

TEST(Kernel, ReturnsEventsProcessed) {
  Kernel k;
  for (Ticks t = 1; t <= 5; ++t) k.at(t, [] {});
  EXPECT_EQ(k.run_until(3), 3u);
  EXPECT_EQ(k.run_until(10), 2u);
  EXPECT_EQ(k.events_processed(), 5u);
}

TEST(Kernel, EventsCanCascade) {
  Kernel k;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) k.after(1, recurse);
  };
  k.at(0, recurse);
  k.run_until(1000);
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(k.now(), 99);
}

TEST(Kernel, SecondRunContinuesWhereFirstStopped) {
  Kernel k;
  std::vector<Ticks> seen;
  for (Ticks t : {10, 20, 30}) k.at(t, [&k, &seen] { seen.push_back(k.now()); });
  k.run_until(15);
  EXPECT_EQ(seen.size(), 1u);
  k.run_until(100);
  EXPECT_EQ(seen, (std::vector<Ticks>{10, 20, 30}));
}

// The past-time guards must hold in EVERY build configuration — they were
// once plain assert()s, which Release (NDEBUG) compiled away, letting a
// negative delay or stale absolute time silently rewind the clock and
// corrupt event ordering for the rest of the run.
TEST(Kernel, RejectsPastTimeSchedulingInAllBuildConfigurations) {
  Kernel k;
  k.at(10, [] {});
  k.run_until(10);
  ASSERT_EQ(k.now(), 10);
  EXPECT_THROW(k.after(-1, [] {}), std::invalid_argument);
  EXPECT_THROW(k.at(9, [] {}), std::invalid_argument);
  // The guard must not over-reject the boundary: now() itself is legal.
  bool fired = false;
  EXPECT_NO_THROW(k.at(10, [&] { fired = true; }));
  EXPECT_NO_THROW(k.after(0, [] {}));
  k.run_until(10);
  EXPECT_TRUE(fired);
  EXPECT_EQ(k.now(), 10);  // clock never rewound
}

// Saturated times are legal and inert: an event at kNoBound never fires
// under a finite horizon, and a saturating after() from a late clock must
// not wrap negative (which the guard would then misreport as a rewind).
TEST(Kernel, SaturatedTimesNeverFireOrWrap) {
  Kernel k;
  bool fired = false;
  k.at(kNoBound, [&] { fired = true; });
  k.at(5, [] {});
  k.run_until(1'000'000);
  EXPECT_EQ(k.now(), 5);
  EXPECT_FALSE(fired);
  // after() saturates instead of overflowing past kNoBound.
  EXPECT_NO_THROW(k.after(kNoBound, [&] { fired = true; }));
  k.run_until(kNoBound - 1);
  EXPECT_FALSE(fired);
}

// ---- fire_in_place: the next event skips the queue only when provably next

TEST(Kernel, FiresInPlaceWhenStrictlyBeforeEveryPendingEvent) {
  Kernel k;
  std::vector<Ticks> seen;
  k.at(10, [&] {
    ASSERT_TRUE(k.fire_in_place(15, 100));
    EXPECT_EQ(k.now(), 15);
    seen.push_back(k.now());
  });
  k.at(20, [&] { seen.push_back(k.now()); });
  k.run_until(100);
  EXPECT_EQ(seen, (std::vector<Ticks>{15, 20}));
}

TEST(Kernel, SameInstantAsAPendingEventIsQueuedBehindIt) {
  Kernel k;
  std::vector<char> order;
  k.at(10, [&] {
    // 'a' is already queued at 20 with the lower sequence number, so it must
    // fire first: the in-place firing is refused and 'b' queues behind it.
    EXPECT_FALSE(k.fire_in_place(20, 100));
    EXPECT_EQ(k.now(), 10);
    k.at(20, [&] { order.push_back('b'); });
  });
  k.at(20, [&] { order.push_back('a'); });
  k.run_until(100);
  EXPECT_EQ(order, (std::vector<char>{'a', 'b'}));
}

TEST(Kernel, FireInPlaceRefusesPastTheHorizonOrBeforeNow) {
  Kernel k;
  k.at(10, [] {});
  k.run_until(10);
  ASSERT_EQ(k.now(), 10);
  EXPECT_FALSE(k.fire_in_place(51, 50));
  EXPECT_FALSE(k.fire_in_place(9, 50));
  EXPECT_EQ(k.now(), 10);
  EXPECT_EQ(k.events_processed(), 1u);
  EXPECT_THROW(k.after(-1, [] {}), std::invalid_argument);
  // The horizon itself is inclusive, as in run_until, and so is now().
  EXPECT_TRUE(k.fire_in_place(10, 50));
  EXPECT_TRUE(k.fire_in_place(50, 50));
  EXPECT_EQ(k.now(), 50);
}

TEST(Kernel, EmptyQueueWithinTheHorizonFiresInPlace) {
  Kernel k;
  int fired = 0;
  k.at(5, [&] {
    if (k.fire_in_place(30, 40)) ++fired;
  });
  k.run_until(40);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(k.now(), 30);
}

TEST(Kernel, InPlaceEventsCountAsProcessed) {
  Kernel k;
  int in_place = 0;
  k.at(1, [&] {
    // Three arrivals chained in place, as the simulator's token passes are.
    for (Ticks t = 2; t <= 4; ++t) in_place += k.fire_in_place(t, 10) ? 1 : 0;
  });
  k.at(8, [] {});
  EXPECT_EQ(k.run_until(10), 5u);
  EXPECT_EQ(in_place, 3);
  EXPECT_EQ(k.events_processed(), 5u);
}

}  // namespace
}  // namespace profisched::sim
