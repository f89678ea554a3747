// Model-checking fuzz for the event queue: random interleavings of
// schedule/cancel/pop are compared against a trivially-correct reference
// (ordered multimap). Fired callbacks act too: they schedule, cancel and call
// next_time() from inside the pop, while the heap's top entry is vacant,
// and the reference mirrors each action.
//
// Cases with delay lanes add lane traffic: events armed in one to three
// lanes (delay 0 among them, and delays whose keys tie with heap keys),
// cancels of lane fronts and of keys in the middle of a ring, lanes
// drained to empty and refilled, rings grown well past their first
// capacity while wrapping, and lane callbacks that re-arm in their own
// lane. The reference knows nothing of lanes: a lane event is an event at
// now + delay.
//
// Every case also has callbacks that re-arm their own event in place
// (EventQueue::rearm), in their lane or in the heap, and some of them then
// cancel the re-armed event while they still run. The reference sees a
// re-arm as a fresh event at now + delay; the closure keeps its seq in a
// capture that the re-arm updates, so a closure that was rebuilt or
// destroyed on the way would fail the seq check when it fires again.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <ostream>
#include <set>
#include <utility>
#include <vector>

#include "simcore/event_queue.h"
#include "simcore/rng.h"

namespace asman::sim {
namespace {

class Reference {
 public:
  std::uint64_t schedule(Cycles at) {
    const std::uint64_t id = next_++;
    items_.emplace(std::pair{at.v, id}, id);
    return id;
  }
  bool cancel(std::uint64_t id) {
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (it->second == id) {
        items_.erase(it);
        return true;
      }
    }
    return false;
  }
  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  Cycles next_time() const {
    return empty() ? Cycles::max() : Cycles{items_.begin()->first.first};
  }
  std::uint64_t pop() {
    const auto it = items_.begin();
    const std::uint64_t id = it->second;
    items_.erase(it);
    return id;
  }
  std::size_t distinct_times() const {
    std::set<std::uint64_t> times;
    for (const auto& item : items_) times.insert(item.first.first);
    return times.size();
  }
  bool contains(std::uint64_t id) const {
    return std::any_of(items_.begin(), items_.end(),
                       [id](const auto& item) { return item.second == id; });
  }

 private:
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> items_;
  std::uint64_t next_{1};
};

/// What the traffic of one run reached; each case checks that the fuzz
/// hit every path it is there for.
struct Coverage {
  std::size_t armed{0};          // lane events armed
  std::size_t max_depth{0};      // most pending events in one lane
  std::size_t refills{0};        // lanes armed again after draining to empty
  std::size_t front_cancels{0};  // cancels of a lane's earliest event
  std::size_t middle_cancels{0};  // cancels behind a lane's front
  std::size_t self_rearms{0};    // lane callbacks arming a copy in their lane
  std::size_t heap_rearms{0};    // callbacks re-armed in place in the heap
  std::size_t lane_rearms{0};    // callbacks re-armed in place in a lane
  std::size_t running_cancels{0};  // re-armed events cancelled by their run
};

/// Drives an EventQueue and the reference in lockstep. EventQueue seq
/// numbers match the reference's ids because both allocate densely from 1
/// in the same order.
class Harness {
 public:
  Harness(std::uint64_t seed, std::uint64_t horizon,
          const std::vector<std::uint64_t>& lane_delays)
      : rng_(seed), horizon_(horizon) {
    for (const std::uint64_t d : lane_delays)
      lanes_.push_back({q_.lane(Cycles{d}), d, {}, false});
  }

  Rng& rng() { return rng_; }
  bool empty() const { return ref_.empty(); }
  std::size_t pending() const { return ref_.size(); }
  std::size_t distinct_times() const { return ref_.distinct_times(); }
  std::size_t lanes() const { return lanes_.size(); }
  const Coverage& coverage() const { return cov_; }

  /// Schedule one event in [now, now + horizon) on both.
  void schedule() {
    const Cycles at{now_.v + rng_.next_below(horizon_)};
    const std::uint64_t n = ref_.schedule(at);
    const EventId id =
        q_.schedule(at, [this, seq = n]() mutable { fired(seq, kNoLane); });
    EXPECT_EQ(id.seq, n);
    live_.push_back(id);
  }

  /// Schedule one event at now + delay in lane `li` on the queue, and at
  /// the same time on the reference.
  void schedule_in_lane(std::size_t li) { arm_in_lane(li, false); }

  /// Schedule on the heap or in a random lane; with no lanes it draws
  /// nothing, so the heap-only cases replay their pre-lane streams.
  void schedule_random() {
    const auto r = lanes_.empty() ? 0 : rng_.next_below(lanes_.size() + 1);
    if (r == lanes_.size())
      schedule();
    else
      schedule_in_lane(r);
  }

  void cancel_random() {
    if (live_.empty()) return;
    cancel_at(rng_.next_below(live_.size()));
  }

  /// Cancel lane `li`'s earliest pending event.
  void cancel_lane_front(std::size_t li) {
    if (depth(li) == 0) return;
    ++cov_.front_cancels;
    cancel_id(lanes_[li].armed.front());
  }

  /// Cancel a pending event of lane `li` other than its earliest.
  void cancel_lane_middle(std::size_t li) {
    if (depth(li) < 2) return;
    const std::vector<EventId>& armed = lanes_[li].armed;
    ++cov_.middle_cancels;
    cancel_id(armed[1 + rng_.next_below(armed.size() - 1)]);
  }

  void check_counts() const {
    EXPECT_EQ(q_.size(), ref_.size());
    EXPECT_EQ(q_.empty(), ref_.empty());
  }
  /// Settles the heap (fills a vacant top), so a caller that skips it
  /// leaves the vacancy to the next schedule or pop.
  void check_next_time() const {
    EXPECT_EQ(q_.next_time(), ref_.next_time());
  }

  /// Pop the earliest event from both; its callback checks that it is the
  /// one the reference popped.
  void pop() {
    now_ = ref_.next_time();
    expected_ = ref_.pop();
    for (auto it = live_.begin(); it != live_.end(); ++it) {
      if (it->seq == expected_) {
        live_.erase(it);
        break;
      }
    }
    fired_ = 0;
    EXPECT_EQ(q_.pop_and_run(), now_);
    EXPECT_EQ(fired_, expected_);
    running_rearm_ = {};
  }

 private:
  static constexpr std::size_t kNoLane = ~std::size_t{0};

  struct LaneTraffic {
    Lane lane;
    std::uint64_t delay;
    std::vector<EventId> armed;  // pending events in arming order, pruned
    bool used;                   // armed at least once
  };

  /// Arm an event at now + delay in lane `li`: a new one, or with
  /// `in_place` the running event again.
  EventId arm_in_lane(std::size_t li, bool in_place) {
    LaneTraffic& l = lanes_[li];
    if (depth(li) == 0 && l.used) ++cov_.refills;
    l.used = true;
    const Cycles at{now_.v + l.delay};
    const std::uint64_t n = ref_.schedule(at);
    const EventId id =
        in_place ? q_.rearm(l.lane, at)
                 : q_.schedule(l.lane, at,
                               [this, seq = n, li]() mutable {
                                 fired(seq, li);
                               });
    EXPECT_EQ(id.seq, n);
    live_.push_back(id);
    l.armed.push_back(id);
    ++cov_.armed;
    cov_.max_depth = std::max(cov_.max_depth, depth(li));
    return id;
  }

  /// Re-arm the running event in place: in its lane `li` on a coin flip,
  /// else in the heap at now + [0, horizon). Returns its new seq.
  std::uint64_t rearm(std::size_t li) {
    if (li != kNoLane && rng_.next_below(2) == 0) {
      ++cov_.lane_rearms;
      running_rearm_ = arm_in_lane(li, true);
      return running_rearm_.seq;
    }
    ++cov_.heap_rearms;
    const Cycles at{now_.v + rng_.next_below(horizon_)};
    const std::uint64_t n = ref_.schedule(at);
    running_rearm_ = q_.rearm(at);
    EXPECT_EQ(running_rearm_.seq, n);
    live_.push_back(running_rearm_);
    return n;
  }

  /// Pending events of lane `li`, after dropping fired and cancelled ones.
  std::size_t depth(std::size_t li) {
    std::vector<EventId>& armed = lanes_[li].armed;
    armed.erase(std::remove_if(armed.begin(), armed.end(),
                               [this](EventId id) {
                                 return !ref_.contains(id.seq);
                               }),
                armed.end());
    return armed.size();
  }

  void cancel_at(std::size_t idx) {
    const EventId id = live_[idx];
    if (id == running_rearm_) ++cov_.running_cancels;
    EXPECT_EQ(q_.cancel(id), ref_.cancel(id.seq));
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(idx));
  }
  void cancel_id(EventId id) {
    const auto it = std::find(live_.begin(), live_.end(), id);
    ASSERT_NE(it, live_.end());
    cancel_at(static_cast<std::size_t>(it - live_.begin()));
  }

  /// A callback: up to four actions, at most two of them schedules. One
  /// may re-arm the running event in place; a later one of that kind
  /// cancels the re-armed event while the callback still runs. A lane
  /// event may also arm a copy of itself in its own lane, as a periodic
  /// timer did before it could re-arm. `n`, the event's seq, lives in the
  /// closure, and a re-arm updates it.
  void fired(std::uint64_t& n, std::size_t li) {
    EXPECT_EQ(n, expected_);
    fired_ = n;
    running_rearm_ = {};
    int schedules = 0;
    for (auto k = rng_.next_below(5); k > 0; --k) {
      switch (rng_.next_below(4)) {
        case 0:
          if (schedules < 2) {
            ++schedules;
            schedule_random();
          }
          break;
        case 1:
          cancel_random();
          break;
        case 2:
          if (!running_rearm_.valid())
            n = rearm(li);
          else if (q_.pending(running_rearm_))
            cancel_id(running_rearm_);
          break;
        default:
          check_counts();
          check_next_time();
          break;
      }
    }
    if (li != kNoLane && rng_.next_below(2) == 0) {
      ++cov_.self_rearms;
      schedule_in_lane(li);
    }
  }

  Rng rng_;
  std::uint64_t horizon_;
  EventQueue q_;
  Reference ref_;
  std::vector<EventId> live_;
  std::vector<LaneTraffic> lanes_;
  Coverage cov_;
  /// The running event's id once the callback re-armed it; none before.
  EventId running_rearm_;
  Cycles now_{0};
  std::uint64_t expected_{0};
  std::uint64_t fired_{0};
};

struct ModelCase {
  std::uint64_t seed;
  std::uint64_t horizon;  // new events land in [now, now + horizon)
  std::size_t fill;       // events scheduled before the random operations
  std::vector<std::uint64_t> lane_delays{};  // one lane per delay
};

// Names each case by its seed alone; ctest lists the cases by these names.
std::ostream& operator<<(std::ostream& os, const ModelCase& c) {
  return os << c.seed;
}

class EventQueueModel : public ::testing::TestWithParam<ModelCase> {};

TEST_P(EventQueueModel, MatchesReferenceUnderRandomOps) {
  const ModelCase& c = GetParam();
  Harness h(c.seed, c.horizon, c.lane_delays);
  for (std::size_t i = 0; i < c.fill; ++i) h.schedule();
  if (c.fill > 0) {
    // Every pending event lies in [now, now + horizon), so the heap stays
    // this deep with this few distinct timestamps, tied apart by seq.
    EXPECT_EQ(h.pending(), c.fill);
    EXPECT_LE(h.distinct_times(), c.horizon);
  }
  for (int step = 0; step < 5000 && !HasFailure(); ++step) {
    const auto r = h.rng().next_below(100);
    if (h.lanes() == 0) {
      if (r < 55) {
        h.schedule();
      } else if (r < 80) {
        h.cancel_random();
      } else if (!h.empty()) {
        h.pop();
      }
    } else {
      // Phases of 400 steps alternate between filling (pops are rare) and
      // draining (pops outnumber schedules), so that lanes run dry, refill
      // and grow their rings while earlier keys leave them.
      const bool draining = (step / 400) % 2 == 1;
      const std::size_t li = h.rng().next_below(h.lanes());
      if (r < 20) {
        h.schedule();
      } else if (r < (draining ? 30u : 55u)) {
        h.schedule_in_lane(li);
      } else if (r < 62) {
        h.cancel_random();
      } else if (r < 68) {
        h.cancel_lane_front(li);
      } else if (r < 72) {
        h.cancel_lane_middle(li);
      } else if (!h.empty() && (draining || r < 80)) {
        h.pop();
      }
    }
    h.check_counts();
    if (h.rng().next_below(2) == 0) h.check_next_time();
  }
  // Drain and compare the tails.
  while (!h.empty() && !HasFailure()) h.pop();
  h.check_counts();
  h.check_next_time();
  const Coverage& cov = h.coverage();
  EXPECT_GT(cov.heap_rearms, 0u);
  EXPECT_GT(cov.running_cancels, 0u);
  if (h.lanes() > 0) {
    EXPECT_GT(cov.lane_rearms, 0u);
    EXPECT_GT(cov.refills, 0u);
    EXPECT_GT(cov.front_cancels, 0u);
    EXPECT_GT(cov.middle_cancels, 0u);
    EXPECT_GT(cov.self_rearms, 0u);
    // Well past a ring's first capacity, and over many times its largest
    // capacity, so the ring grew while its keys wrapped around.
    EXPECT_GT(cov.max_depth, 64u);
    EXPECT_GT(cov.armed, 8 * cov.max_depth);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EventQueueModel,
    ::testing::Values(ModelCase{1, 1000, 0}, ModelCase{2, 1000, 0},
                      ModelCase{3, 1000, 0}, ModelCase{5, 1000, 0},
                      ModelCase{8, 1000, 0}, ModelCase{13, 1000, 0},
                      ModelCase{21, 1000, 0}, ModelCase{34, 1000, 0},
                      // A deep heap of seq ties: 1,200+ events on at most
                      // 16 distinct timestamps.
                      ModelCase{55, 16, 1200},
                      // Lane traffic. One lane of delay 0: every key ties
                      // with the event that armed it.
                      ModelCase{89, 1000, 0, {0}},
                      // Lane keys tie with heap keys at equal times.
                      ModelCase{144, 16, 0, {0, 7}},
                      ModelCase{233, 1000, 0, {0, 250, 5000}},
                      ModelCase{377, 64, 300, {3, 40, 64}}));

}  // namespace
}  // namespace asman::sim
