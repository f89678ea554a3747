#include "simcore/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "simcore/event_scope.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"

namespace asman::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Cycles{30}, [&] { order.push_back(3); });
  q.schedule(Cycles{10}, [&] { order.push_back(1); });
  q.schedule(Cycles{20}, [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    q.schedule(Cycles{5}, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, CancelPendingReturnsTrueAndSkips) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(Cycles{5}, [&] { fired = true; });
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
  EXPECT_FALSE(q.cancel(id));  // double cancel
}

TEST(EventQueue, CancelFiredReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(Cycles{5}, [] {});
  q.pop_and_run();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelInvalidIdIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{}));
  EXPECT_FALSE(q.cancel(EventId{999}));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(Cycles{5}, [] {});
  q.schedule(Cycles{9}, [] {});
  EXPECT_EQ(q.next_time(), Cycles{5});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), Cycles{9});
}

TEST(EventQueue, EmptyNextTimeIsMax) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), Cycles::max());
}

TEST(EventQueue, ReentrantScheduleFromCallback) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Cycles{1}, [&] {
    order.push_back(1);
    q.schedule(Cycles{2}, [&] { order.push_back(2); });
  });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(Cycles{1}, [] {});
  q.schedule(Cycles{2}, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop_and_run();
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, StaleIdAfterSlotReuseIsInert) {
  EventQueue q;
  const EventId old = q.schedule(Cycles{5}, [] {});
  ASSERT_TRUE(q.cancel(old));
  bool fired = false;
  const EventId fresh = q.schedule(Cycles{7}, [&] { fired = true; });
  ASSERT_EQ(fresh.slot, old.slot) << "the freed slot should be reused";
  EXPECT_EQ(fresh.seq, old.seq + 1);  // seq stays dense
  EXPECT_FALSE(q.pending(old));
  EXPECT_FALSE(q.cancel(old));
  EXPECT_TRUE(q.pending(fresh));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop_and_run(), Cycles{7});
  EXPECT_TRUE(fired);
}

TEST(EventQueue, ScopeCancelAllWithStaleIdSparesTheSlotsNewEvent) {
  Simulator s;
  EventScope scope;
  const EventId old = scope.after(s, Cycles{5}, [] {});
  ASSERT_TRUE(s.cancel(old));
  bool fired = false;
  const EventId fresh = s.after(Cycles{6}, [&] { fired = true; });
  ASSERT_EQ(fresh.slot, old.slot);
  EXPECT_EQ(scope.cancel_all(s), 0u);
  EXPECT_TRUE(s.pending(fresh));
  s.run_all();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, CancelReleasesTheCallbackAtOnce) {
  EventQueue q;
  const auto token = std::make_shared<int>(0);
  const EventId id = q.schedule(Cycles{5}, [token] { ++*token; });
  q.schedule(Cycles{9}, [] {});
  EXPECT_EQ(token.use_count(), 2);
  ASSERT_TRUE(q.cancel(id));
  // Freed at cancel time, not when the stale key is popped.
  EXPECT_EQ(token.use_count(), 1);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(*token, 0);
}

TEST(EventQueue, FiredCallbackIsDestroyedAfterItRuns) {
  EventQueue q;
  const auto token = std::make_shared<int>(0);
  q.schedule(Cycles{1}, [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 2);
  q.pop_and_run();
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 1);
}

/// A callable whose copy constructor throws.
struct ThrowOnCopy {
  ThrowOnCopy() = default;
  ThrowOnCopy(const ThrowOnCopy&) { throw std::runtime_error("copy"); }
  ThrowOnCopy(ThrowOnCopy&&) noexcept = default;
  ThrowOnCopy& operator=(const ThrowOnCopy&) = delete;
  ThrowOnCopy& operator=(ThrowOnCopy&&) = delete;
  ~ThrowOnCopy() = default;
  void operator()() const {}
};

TEST(EventQueue, ThrowingCallableLeavesTheQueueAsItWas) {
  EventQueue q;
  std::vector<int> order;
  const ThrowOnCopy bad;
  // Out of free slots: the failed schedule must leave the slot it grew
  // free and use no seq.
  const EventId first = q.schedule(Cycles{5}, [&] { order.push_back(1); });
  EXPECT_THROW(q.schedule(Cycles{6}, bad), std::runtime_error);
  EXPECT_EQ(q.size(), 1u);
  const EventId second = q.schedule(Cycles{7}, [&] { order.push_back(2); });
  EXPECT_EQ(second.seq, first.seq + 1);
  EXPECT_EQ(second.slot, first.slot + 1);
  // A slot off the free list: it must go back there.
  const EventId doomed = q.schedule(Cycles{8}, [] {});
  ASSERT_TRUE(q.cancel(doomed));
  EXPECT_THROW(q.schedule(Cycles{9}, bad), std::runtime_error);
  EXPECT_EQ(q.size(), 2u);
  const EventId third = q.schedule(Cycles{9}, [&] { order.push_back(3); });
  EXPECT_EQ(third.seq, doomed.seq + 1);
  EXPECT_EQ(third.slot, doomed.slot);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

/// Bumps a shared counter on every move construction.
struct MoveCounter {
  explicit MoveCounter(int* moves) : moves_(moves) {}
  MoveCounter(MoveCounter&& o) noexcept : moves_(o.moves_) { ++*moves_; }
  MoveCounter(const MoveCounter&) = delete;
  MoveCounter& operator=(const MoveCounter&) = delete;
  MoveCounter& operator=(MoveCounter&&) = delete;
  ~MoveCounter() = default;
  int* moves_;
};

TEST(EventQueue, AfterBuildsTheClosureInItsSlot) {
  Simulator s;
  int moves = 0;
  int moves_when_run = -1;
  s.after(Cycles{5}, [c = MoveCounter(&moves), &moves_when_run] {
    moves_when_run = *c.moves_;
  });
  // Into the slot, and nowhere on the way there.
  EXPECT_LE(moves, 1);
  // Growing the table moves no slot.
  for (std::uint32_t i = 0; i < EventQueue::kChunkSlots; ++i)
    s.after(Cycles{1}, [] {});
  s.run_all();
  // It runs where it was built.
  ASSERT_GE(moves_when_run, 0) << "the closure did not run";
  EXPECT_LE(moves_when_run, 1);
}

TEST(EventQueue, CallbackGrowsTheTableAndStillReadsItsCaptures) {
  EventQueue q;
  const std::array<std::uint64_t, 6> captured{3, 1, 4, 1, 5, 9};
  std::vector<std::uint64_t> seen;
  auto grow = [&q, &seen, captured] {
    // Three chunks' worth of new slots while this closure runs in its own;
    // a table that moved would leave the reads below on freed memory.
    for (std::uint32_t i = 0; i < 3 * EventQueue::kChunkSlots; ++i)
      q.schedule(Cycles{2}, [] {});
    seen.assign(captured.begin(), captured.end());
  };
  static_assert(fits_inline<decltype(grow)>, "must live in its slot");
  q.schedule(Cycles{1}, std::move(grow));
  EXPECT_EQ(q.pop_and_run(), Cycles{1});
  EXPECT_EQ(seen,
            std::vector<std::uint64_t>(captured.begin(), captured.end()));
  EXPECT_EQ(q.size(), 3 * EventQueue::kChunkSlots);
  while (!q.empty()) q.pop_and_run();
}

TEST(EventQueue, WithdrawReturnsThePendingCallbackUnrun) {
  EventQueue q;
  const auto fired = std::make_shared<int>(0);
  q.schedule(Cycles{3}, [] {});
  const EventId id = q.schedule(Cycles{5}, [fired] { ++*fired; });
  EXPECT_EQ(q.size(), 2u);
  EventQueue::Callback cb = q.withdraw(id);
  ASSERT_TRUE(cb);
  EXPECT_EQ(*fired, 0);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.pending(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(fired.use_count(), 2) << "the callback left the queue whole";
  // It used no sequence number.
  const EventId next = q.schedule(Cycles{9}, [] {});
  EXPECT_EQ(next.seq, id.seq + 1);
  // Scheduled again, it fires once.
  const EventId again = q.schedule(Cycles{7}, std::move(cb));
  EXPECT_FALSE(cb);
  EXPECT_TRUE(q.pending(again));
  EXPECT_EQ(q.size(), 3u);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(*fired, 1);
  EXPECT_EQ(fired.use_count(), 1);
}

TEST(EventQueue, WithdrawOfAnIdNotPendingIsEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.withdraw(EventId{}));
  const EventId fired = q.schedule(Cycles{1}, [] {});
  q.pop_and_run();
  EXPECT_FALSE(q.withdraw(fired));
  const EventId cancelled = q.schedule(Cycles{2}, [] {});
  ASSERT_TRUE(q.cancel(cancelled));
  EXPECT_FALSE(q.withdraw(cancelled));
  // The running event is no longer pending: it can neither withdraw nor
  // cancel itself.
  EventId running;
  bool pending = true;
  bool withdrew = true;
  bool cancelled_itself = true;
  running = q.schedule(Cycles{3}, [&] {
    pending = q.pending(running);
    withdrew = static_cast<bool>(q.withdraw(running));
    cancelled_itself = q.cancel(running);
  });
  EXPECT_EQ(q.pop_and_run(), Cycles{3});
  EXPECT_FALSE(pending);
  EXPECT_FALSE(withdrew);
  EXPECT_FALSE(cancelled_itself);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ThrowingCallbackStillFreesItsSlot) {
  EventQueue q;
  const auto token = std::make_shared<int>(7);
  const EventId id = q.schedule(Cycles{1}, [token] {
    throw std::runtime_error(std::to_string(*token));
  });
  EXPECT_THROW(q.pop_and_run(), std::runtime_error);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pending(id));
  EXPECT_EQ(token.use_count(), 1) << "the callback was not destroyed";
  // The slot is back on the free list, and the queue runs on.
  bool fired = false;
  const EventId next = q.schedule(Cycles{2}, [&fired] { fired = true; });
  EXPECT_EQ(next.slot, id.slot);
  EXPECT_EQ(q.pop_and_run(), Cycles{2});
  EXPECT_TRUE(fired);
}

TEST(EventQueueLanes, LaneAndHeapKeysAtOneTimeFireInSeqOrder) {
  Simulator s;
  const Lane lane = s.lane(Cycles{10});
  std::vector<int> order;
  // All four come due at t = 10; a lane's front competes with the heap's
  // keys by (at, seq), so they fire in arming order.
  s.after(lane, [&] { order.push_back(1); });
  s.after(Cycles{10}, [&] { order.push_back(2); });
  s.after(lane, [&] { order.push_back(3); });
  s.at(Cycles{10}, [&] { order.push_back(4); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueLanes, OwnersOfOneDelayShareItsLane) {
  Simulator s;
  const Lane first_owner = s.lane(Cycles{30});
  const Lane second_owner = s.lane(Cycles{30});
  const Lane other = s.lane(Cycles{40});
  EXPECT_EQ(first_owner, second_owner);
  EXPECT_NE(first_owner, other);
  std::vector<Cycles> fired;
  s.after(first_owner, [&] { fired.push_back(s.now()); });
  s.after(Cycles{5}, [&] {
    s.after(second_owner, [&] { fired.push_back(s.now()); });
  });
  s.after(other, [&] { fired.push_back(s.now()); });
  s.run_all();
  EXPECT_EQ(fired, (std::vector<Cycles>{Cycles{30}, Cycles{35}, Cycles{40}}));
}

TEST(EventQueueLanes, CancelledLaneFrontLetsItsSuccessorSurface) {
  EventQueue q;
  const Lane lane = q.lane(Cycles{5});
  std::vector<int> order;
  const EventId front = q.schedule(lane, Cycles{5}, [&] { order.push_back(1); });
  const EventId next = q.schedule(lane, Cycles{6}, [&] { order.push_back(2); });
  const EventId last = q.schedule(lane, Cycles{8}, [&] { order.push_back(3); });
  q.schedule(Cycles{7}, [&] { order.push_back(4); });
  ASSERT_TRUE(q.cancel(front));
  EXPECT_FALSE(q.pending(front));
  EXPECT_TRUE(q.pending(next));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.next_time(), Cycles{6});
  EXPECT_EQ(q.pop_and_run(), Cycles{6});
  EXPECT_FALSE(q.pending(next));
  EXPECT_TRUE(q.pending(last));
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{2, 4, 3}));
  EXPECT_EQ(q.next_time(), Cycles::max());
}

#ifndef NDEBUG
TEST(EventQueueLanesDeathTest, KeyDueBeforeTheLanesLastIsAsserted) {
  EventQueue q;
  const Lane lane = q.lane(Cycles{5});
  q.schedule(lane, Cycles{9}, [] {});
  EXPECT_DEATH(q.schedule(lane, Cycles{8}, [] {}), "order they were armed");
}
#endif

/// One firing of a periodic-timer twin: when, which event, and the
/// queue's size() as the callback ran.
struct Firing {
  Cycles at;
  int tag;
  std::size_t size;
  friend bool operator==(const Firing&, const Firing&) = default;
};

/// A heap event that logs its firing as `tag`.
auto logger(Simulator* s, std::vector<Firing>* log, int tag) {
  return [s, log, tag] { log->push_back({s->now(), tag, s->pending_events()}); };
}

/// A timer of period 10 that fires six times. Before it re-arms, each
/// firing schedules a heap event (tag 2) for the timer's next instant;
/// after, another (tag 3). kInPlace re-arms the running closure with
/// rearm(lane); otherwise the timer schedules a copy of itself with
/// after(lane, cb), as periodic timers did before rearm().
template <bool kInPlace>
struct TwinTick {
  Simulator* s;
  Lane lane;
  std::vector<Firing>* log;
  int* left;
  void operator()() const {
    log->push_back({s->now(), 1, s->pending_events()});
    if (--*left == 0) return;
    s->after(Cycles{10}, logger(s, log, 2));
    if constexpr (kInPlace)
      s->rearm(lane);
    else
      s->after(lane, *this);
    s->after(Cycles{10}, logger(s, log, 3));
  }
};

template <bool kInPlace>
std::vector<Firing> run_twin() {
  Simulator s;
  const Lane lane = s.lane(Cycles{10});
  std::vector<Firing> log;
  int left = 6;
  s.after(lane, TwinTick<kInPlace>{&s, lane, &log, &left});
  // Heap keys armed at t = 0 for every instant the timer fires at: they
  // precede its key at each instant but the first.
  for (std::uint64_t k = 1; k <= 6; ++k)
    s.at(Cycles{10} * k, logger(&s, &log, 0));
  s.run_all();
  return log;
}

TEST(EventQueueRearm, LaneRearmFiresLikeAnAfterLaneTwin) {
  const std::vector<Firing> in_place = run_twin<true>();
  const std::vector<Firing> copied = run_twin<false>();
  EXPECT_EQ(in_place, copied);
  ASSERT_EQ(in_place.size(), 6u + 6u + 2u * 5u);
  // At t = 10 the timer's key was armed first; from t = 20 on, the key
  // armed at t = 0 precedes the heap event armed before the re-arm, which
  // precedes the timer, which precedes the heap event armed after it.
  EXPECT_EQ(in_place[0], (Firing{Cycles{10}, 1, 6}));
  EXPECT_EQ(in_place[1].tag, 0);
  const std::vector<int> at20{in_place[2].tag, in_place[3].tag,
                              in_place[4].tag, in_place[5].tag};
  EXPECT_EQ(at20, (std::vector<int>{0, 2, 1, 3}));
  EXPECT_EQ(in_place[4].at, Cycles{20});
}

/// Counts the constructions and destructions of a periodic timer's closure.
struct Lifetimes {
  int built{0};
  int destroyed{0};
};

/// Fires `n` times, re-arming itself in place 10 cycles on, and records
/// each re-armed EventId and the closure counts it saw while it ran.
struct CountedTick {
  Simulator* s;
  Lifetimes* life;
  std::vector<EventId>* ids;
  std::vector<Lifetimes>* seen;
  int n;
  CountedTick(Simulator* sim, Lifetimes* l, std::vector<EventId>* i,
              std::vector<Lifetimes>* v, int count)
      : s(sim), life(l), ids(i), seen(v), n(count) {
    ++life->built;
  }
  CountedTick(const CountedTick& o)
      : s(o.s), life(o.life), ids(o.ids), seen(o.seen), n(o.n) {
    ++life->built;
  }
  CountedTick(CountedTick&& o) noexcept
      : s(o.s), life(o.life), ids(o.ids), seen(o.seen), n(o.n) {
    ++life->built;
  }
  CountedTick& operator=(const CountedTick&) = delete;
  CountedTick& operator=(CountedTick&&) = delete;
  ~CountedTick() { ++life->destroyed; }
  void operator()() const {
    seen->push_back(*life);
    if (static_cast<int>(seen->size()) < n) ids->push_back(s->rearm(Cycles{10}));
  }
};

TEST(EventQueueRearm, ReArmedClosureIsBuiltOnceAndDestroyedOnce) {
  constexpr int kFirings = 50;
  Simulator s;
  Lifetimes life;
  std::vector<EventId> ids;
  std::vector<Lifetimes> seen;
  const EventId first =
      s.after(Cycles{10}, CountedTick(&s, &life, &ids, &seen, kFirings));
  // The temporary is gone; its move built the one closure in the slot.
  ASSERT_EQ(life.built - life.destroyed, 1);
  const Lifetimes scheduled = life;
  s.run_all();
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kFirings));
  for (const Lifetimes& l : seen) {
    EXPECT_EQ(l.built, scheduled.built) << "a re-arm built a closure";
    EXPECT_EQ(l.destroyed, scheduled.destroyed) << "a re-arm destroyed one";
  }
  EXPECT_EQ(life.built, scheduled.built);
  EXPECT_EQ(life.destroyed, scheduled.destroyed + 1)
      << "destroyed once, after its last run";
  // One slot for the whole run, and a fresh seq at each re-arm.
  ASSERT_EQ(ids.size(), static_cast<std::size_t>(kFirings - 1));
  std::uint64_t seq = first.seq;
  for (const EventId id : ids) {
    EXPECT_EQ(id.slot, first.slot);
    EXPECT_GT(id.seq, seq);
    seq = id.seq;
  }
  EXPECT_EQ(s.now(), Cycles{10} * static_cast<std::uint64_t>(kFirings));
}

TEST(EventQueueRearm, CancelInsideItsOwnCallbackDefersTheDestruction) {
  Simulator s;
  const auto token = std::make_shared<int>(0);
  const std::array<std::uint64_t, 6> captured{2, 7, 1, 8, 2, 8};
  std::vector<std::uint64_t> seen;
  long uses_after_cancel = 0;
  int fires = 0;
  EventId again;
  EventId other;
  const EventId first = s.after(Cycles{5}, [&, token, captured] {
    ++fires;
    again = s.rearm(Cycles{5});
    EXPECT_TRUE(s.pending(again));
    EXPECT_EQ(s.pending_events(), 1u);
    EXPECT_TRUE(s.cancel(again));
    EXPECT_FALSE(s.pending(again));
    EXPECT_FALSE(s.cancel(again));
    EXPECT_EQ(s.pending_events(), 0u);
    // The slot still holds this closure: a new event must not take it.
    other = s.after(Cycles{1}, [] {});
    seen.assign(captured.begin(), captured.end());
    uses_after_cancel = token.use_count();
  });
  EXPECT_EQ(s.run_until(Cycles{5}), 1u);
  EXPECT_EQ(again.slot, first.slot);
  EXPECT_NE(other.slot, first.slot);
  EXPECT_EQ(seen, std::vector<std::uint64_t>(captured.begin(), captured.end()));
  EXPECT_EQ(uses_after_cancel, 2) << "destroyed before it returned";
  EXPECT_EQ(token.use_count(), 1) << "not destroyed once it returned";
  EXPECT_EQ(s.pending_events(), 1u);  // `other` alone
  // The slot was freed once the callback returned.
  EXPECT_EQ(s.after(Cycles{1}, [] {}).slot, first.slot);
  s.run_all();
  EXPECT_EQ(fires, 1) << "the cancelled re-arm fired";
}

TEST(EventQueueRearm, ReArmedThenThrowingCallbackStaysPending) {
  EventQueue q;
  const auto token = std::make_shared<int>(0);
  int fires = 0;
  EventId again;
  q.schedule(Cycles{1}, [&, token] {
    ++fires;
    if (fires < 3) again = q.rearm(Cycles{1 + static_cast<std::uint64_t>(fires)});
    if (fires == 1) throw std::runtime_error("after the re-arm");
  });
  EXPECT_THROW(q.pop_and_run(), std::runtime_error);
  EXPECT_TRUE(q.pending(again));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(token.use_count(), 2) << "a pending event's closure was destroyed";
  EXPECT_EQ(q.pop_and_run(), Cycles{2});
  EXPECT_EQ(fires, 2);
  // No callback runs now: a cancel frees the slot at once.
  ASSERT_TRUE(q.pending(again));
  EXPECT_TRUE(q.cancel(again));
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_TRUE(q.empty());
}

#ifndef NDEBUG
TEST(EventQueueRearmDeathTest, RearmOutsideACallbackIsAsserted) {
  EventQueue q;
  q.schedule(Cycles{1}, [] {});
  EXPECT_DEATH(q.rearm(Cycles{2}), "at most once per run");
}

TEST(EventQueueRearmDeathTest, SecondRearmInOneRunIsAsserted) {
  EventQueue q;
  const Lane lane = q.lane(Cycles{4});
  q.schedule(Cycles{1}, [&q, lane] {
    q.rearm(lane, Cycles{5});
    q.rearm(Cycles{6});
  });
  EXPECT_DEATH(q.pop_and_run(), "at most once per run");
}

TEST(EventQueueRearmDeathTest, WithdrawOfTheRunningReArmedEventIsAsserted) {
  EventQueue q;
  q.schedule(Cycles{1}, [&q] { (void)q.withdraw(q.rearm(Cycles{2})); });
  EXPECT_DEATH(q.pop_and_run(), "cannot be withdrawn");
}
#endif

class EventQueueRandomized : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(EventQueueRandomized, MonotonicDeliveryUnderRandomLoad) {
  Rng rng(GetParam());
  EventQueue q;
  std::vector<Cycles> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 2000; ++i) {
    const Cycles t{rng.next_below(100'000)};
    ids.push_back(q.schedule(t, [&fired, t] { fired.push_back(t); }));
  }
  // Cancel a random third.
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < ids.size(); i += 3)
    cancelled += q.cancel(ids[i]) ? 1u : 0u;
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(fired.size(), 2000u - cancelled);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueRandomized,
                         ::testing::Values(1, 7, 99, 12345));

}  // namespace
}  // namespace asman::sim
