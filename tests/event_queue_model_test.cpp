// Model-checking fuzz for the event queue: random interleavings of
// schedule/cancel/pop are compared against a trivially-correct reference
// (ordered multimap). Fired callbacks act too: they schedule, cancel and call
// next_time() from inside the pop, while the heap's top entry is vacant,
// and the reference mirrors each action.
#include <gtest/gtest.h>

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

 private:
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> items_;
  std::uint64_t next_{1};
};

/// Drives an EventQueue and the reference in lockstep. EventQueue seq
/// numbers match the reference's ids because both allocate densely from 1
/// in the same order.
class Harness {
 public:
  Harness(std::uint64_t seed, std::uint64_t horizon)
      : rng_(seed), horizon_(horizon) {}

  Rng& rng() { return rng_; }
  bool empty() const { return ref_.empty(); }
  std::size_t pending() const { return ref_.size(); }
  std::size_t distinct_times() const { return ref_.distinct_times(); }

  /// Schedule one event in [now, now + horizon) on both.
  void schedule() {
    const Cycles at{now_.v + rng_.next_below(horizon_)};
    const std::uint64_t n = ref_.schedule(at);
    const EventId id = q_.schedule(at, [this, n] { fired(n); });
    EXPECT_EQ(id.seq, n);
    live_.push_back(id);
  }

  void cancel_random() {
    if (live_.empty()) return;
    const auto idx = rng_.next_below(live_.size());
    const EventId id = live_[idx];
    EXPECT_EQ(q_.cancel(id), ref_.cancel(id.seq));
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(idx));
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
  }

 private:
  /// A callback: up to four actions, at most two of them schedules.
  void fired(std::uint64_t n) {
    EXPECT_EQ(n, expected_);
    fired_ = n;
    int schedules = 0;
    for (auto k = rng_.next_below(5); k > 0; --k) {
      switch (rng_.next_below(3)) {
        case 0:
          if (schedules < 2) {
            ++schedules;
            schedule();
          }
          break;
        case 1:
          cancel_random();
          break;
        default:
          check_counts();
          check_next_time();
          break;
      }
    }
  }

  Rng rng_;
  std::uint64_t horizon_;
  EventQueue q_;
  Reference ref_;
  std::vector<EventId> live_;
  Cycles now_{0};
  std::uint64_t expected_{0};
  std::uint64_t fired_{0};
};

struct ModelCase {
  std::uint64_t seed;
  std::uint64_t horizon;  // new events land in [now, now + horizon)
  std::size_t fill;       // events scheduled before the random operations
};

// Names each case by its seed alone; ctest lists the cases by these names.
std::ostream& operator<<(std::ostream& os, const ModelCase& c) {
  return os << c.seed;
}

class EventQueueModel : public ::testing::TestWithParam<ModelCase> {};

TEST_P(EventQueueModel, MatchesReferenceUnderRandomOps) {
  const ModelCase c = GetParam();
  Harness h(c.seed, c.horizon);
  for (std::size_t i = 0; i < c.fill; ++i) h.schedule();
  if (c.fill > 0) {
    // Every pending event lies in [now, now + horizon), so the heap stays
    // this deep with this few distinct timestamps, tied apart by seq.
    EXPECT_EQ(h.pending(), c.fill);
    EXPECT_LE(h.distinct_times(), c.horizon);
  }
  for (int step = 0; step < 5000 && !HasFailure(); ++step) {
    const auto r = h.rng().next_below(100);
    if (r < 55) {
      h.schedule();
    } else if (r < 80) {
      h.cancel_random();
    } else if (!h.empty()) {
      h.pop();
    }
    h.check_counts();
    if (h.rng().next_below(2) == 0) h.check_next_time();
  }
  // Drain and compare the tails.
  while (!h.empty() && !HasFailure()) h.pop();
  h.check_counts();
  h.check_next_time();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EventQueueModel,
    ::testing::Values(ModelCase{1, 1000, 0}, ModelCase{2, 1000, 0},
                      ModelCase{3, 1000, 0}, ModelCase{5, 1000, 0},
                      ModelCase{8, 1000, 0}, ModelCase{13, 1000, 0},
                      ModelCase{21, 1000, 0}, ModelCase{34, 1000, 0},
                      // A deep heap of seq ties: 1,200+ events on at most
                      // 16 distinct timestamps.
                      ModelCase{55, 16, 1200}));

}  // namespace
}  // namespace asman::sim
