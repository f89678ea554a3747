#include "simcore/event_queue.h"

#include <cassert>
#include <utility>

namespace asman::sim {

namespace {

/// A key's (at, seq) as one number: comparing two is one branch-free
/// 128-bit compare, and seq is unique, so no two keys tie.
using Order = unsigned __int128;

template <typename K>
Order order(const K& k) {
  return (Order{k.at.v} << 64) | k.seq;
}

/// Move parents down into `hole` while they are later than `k`, then
/// store `k` there.
template <typename K>
void sift_up(K* h, std::size_t hole, const K& k) {
  const Order ko = order(k);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (order(h[parent]) < ko) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = k;
}

/// Fill the vacant root of the n-entry heap `h` with `k` top-down: move
/// the earlier child up while it precedes `k`. A key that is due soon
/// stops near the root. Forced inline: a call per pop/push fusion costs
/// more than the loop when the key stops at the root.
template <typename K>
[[gnu::always_inline]] inline void fill_root_top_down(K* h, std::size_t n,
                                                      const K& k) {
  const Order ko = order(k);
  std::size_t hole = 0;
  for (std::size_t c = 1; c < n; c = 2 * hole + 1) {
    if (c + 1 < n)
      c += static_cast<std::size_t>(order(h[c + 1]) < order(h[c]));
    if (ko < order(h[c])) break;
    h[hole] = h[c];
    hole = c;
  }
  h[hole] = k;
}

/// Drop the root (vacant or stale) and fill it with the last key, Floyd's
/// way: walk the hole down to a leaf along earlier children with one
/// compare per level, then sift the last key up from there. The last key
/// usually belongs near the bottom, so this beats a top-down fill.
template <typename K>
void fill_root_from_back(std::vector<K>& heap) {
  const K k = heap.back();
  heap.pop_back();
  const std::size_t n = heap.size();
  if (n == 0) return;
  K* const h = heap.data();
  std::size_t hole = 0;
  std::size_t c = 1;
  for (; c + 1 < n; c = 2 * hole + 1) {
    c += static_cast<std::size_t>(order(h[c + 1]) < order(h[c]));
    h[hole] = h[c];
    hole = c;
  }
  if (c < n) {  // a lone last child
    h[hole] = h[c];
    hole = c;
  }
  sift_up(h, hole, k);
}

}  // namespace

void EventQueue::grow_slots() {
  if (slot_count_ % kChunkSlots == 0)
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  free_head_ = slot_count_++;
}

void EventQueue::Ring::grow() {
  std::vector<Key> keys(keys_.empty() ? 16 : 2 * keys_.size());
  for (std::size_t i = 0; i < count_; ++i)
    keys[i] = keys_[(head_ + i) & mask()];
  keys_.swap(keys);
  head_ = 0;
}

Lane EventQueue::lane(Cycles delay) {
  std::size_t i = 0;
  while (i < lanes_.size() && lanes_[i].delay != delay) ++i;
  if (i == lanes_.size()) lanes_.push_back({delay, Ring{}});
  return Lane{static_cast<std::uint32_t>(i + 1)};
}

inline EventQueue::Key EventQueue::claim(Cycles at, std::uint32_t slot,
                                         std::uint32_t lane) {
  const Key k{at, next_seq_++, slot, lane};
  slot_at(slot).seq = k.seq;
  ++live_count_;
  return k;
}

inline void EventQueue::push_key(const Key& k) {
  if (top_vacant_) {
    top_vacant_ = false;
    fill_root_top_down(heap_.data(), heap_.size(), k);
  } else {
    heap_.push_back(k);
    sift_up(heap_.data(), heap_.size() - 1, k);
  }
}

EventId EventQueue::enqueue(Cycles at, std::uint32_t slot) {
  const Key k = claim(at, slot, 0);
  push_key(k);
  return {k.seq, slot};
}

EventId EventQueue::enqueue(Lane lane, Cycles at, std::uint32_t slot) {
  Ring& ring = lanes_[lane.tag_ - 1].ring;
  assert((ring.empty() || ring.back().at <= at) &&
         "a lane's keys must come due in the order they were armed");
  const Key k = claim(at, slot, lane.tag_);
  // Only the lane's front competes in the heap; a later key waits its
  // turn in the ring.
  if (ring.empty()) push_key(k);
  ring.push_back(k);
  return {k.seq, slot};
}

std::uint32_t EventQueue::rearm_slot() {
  assert(running_ != kNoSlot && slot_at(running_).seq == 0 &&
         "rearm() is called from a running callback, at most once per run");
  return running_;
}

EventId EventQueue::rearm(Cycles at) { return enqueue(at, rearm_slot()); }

EventId EventQueue::rearm(Lane lane, Cycles at) {
  return enqueue(lane, at, rearm_slot());
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slot_at(slot);
  s.seq = 0;
  s.cb = nullptr;
  s.next_free = free_head_;
  free_head_ = slot;
}

bool EventQueue::cancel(EventId id) {
  if (!pending(id)) return false;
  // A running callback that re-armed its event is still on the stack:
  // only the event stops being pending, and pop_and_run frees the slot.
  if (id.slot == running_)
    slot_at(id.slot).seq = 0;
  else
    release(id.slot);
  --live_count_;
  return true;
}

EventQueue::Callback EventQueue::withdraw(EventId id) {
  if (!pending(id)) return {};
  assert(id.slot != running_ && "a running callback cannot be withdrawn");
  Callback cb = std::move(slot_at(id.slot).cb);
  release(id.slot);
  --live_count_;
  return cb;
}

bool EventQueue::advance_lane(std::uint32_t lane) const {
  Ring& ring = lanes_[lane - 1].ring;
  ring.pop_front();
  if (ring.empty()) return false;
  fill_root_top_down(heap_.data(), heap_.size(), ring.front());
  return true;
}

void EventQueue::drop_top() const {
  const std::uint32_t lane = heap_.front().lane;
  if (lane == 0 || !advance_lane(lane)) fill_root_from_back(heap_);
}

void EventQueue::settle() const {
  if (top_vacant_) {
    top_vacant_ = false;
    fill_root_from_back(heap_);
  }
  while (!heap_.empty() &&
         slot_at(heap_.front().slot).seq != heap_.front().seq)
    drop_top();
}

Cycles EventQueue::next_time() const {
  settle();
  return heap_.empty() ? Cycles::max() : heap_.front().at;
}

Cycles EventQueue::pop_and_run() {
  settle();
  assert(!heap_.empty());
  const Key top = heap_.front();
  // The top stays vacant for the next key scheduled, unless the popped key
  // was a lane's front and the lane's next key takes the top at once.
  top_vacant_ = true;
  if (top.lane != 0) top_vacant_ = !advance_lane(top.lane);
  // Run the callback in its slot. Its event stops being pending first, so
  // that the callback cannot cancel or withdraw itself, and the slot stays
  // off the free list until the callback has returned or thrown. It is
  // freed then unless the callback re-armed the event, which is pending
  // again. The outer run is restored, in case this pop runs inside one.
  Slot& s = slot_at(top.slot);
  s.seq = 0;
  --live_count_;
  struct FinishRun {
    EventQueue& q;
    const Slot& s;
    std::uint32_t slot;
    std::uint32_t outer;
    ~FinishRun() {
      q.running_ = outer;
      if (s.seq == 0) q.release(slot);
    }
  } const finish{*this, s, top.slot, running_};
  running_ = top.slot;
  s.cb();
  return top.at;
}

}  // namespace asman::sim
