#include "simcore/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace asman::sim {

namespace {

struct Later {
  template <typename K>
  bool operator()(const K& a, const K& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

}  // namespace

EventId EventQueue::schedule(Cycles at, Callback cb) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const EventId id{next_seq_++, slot};
  slots_[slot].seq = id.seq;
  slots_[slot].cb = std::move(cb);
  heap_.push_back(Key{at, id.seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_count_;
  return id;
}

void EventQueue::release(std::uint32_t slot) {
  slots_[slot].seq = 0;
  slots_[slot].cb = nullptr;
  free_slots_.push_back(slot);
}

bool EventQueue::cancel(EventId id) {
  if (!pending(id)) return false;
  release(id.slot);
  --live_count_;
  return true;
}

void EventQueue::drop_stale() const {
  while (!heap_.empty() &&
         slots_[heap_.front().slot].seq != heap_.front().seq) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

Cycles EventQueue::next_time() const {
  drop_stale();
  return heap_.empty() ? Cycles::max() : heap_.front().at;
}

Cycles EventQueue::pop_and_run() {
  drop_stale();
  assert(!heap_.empty());
  const Key top = heap_.front();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
  // Move the callback out and free the slot before running it: the
  // callback may schedule (growing slots_) or cancel its own stale id.
  Callback cb = std::move(slots_[top.slot].cb);
  release(top.slot);
  --live_count_;
  cb();
  return top.at;
}

}  // namespace asman::sim
