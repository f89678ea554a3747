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
/// stops near the root.
template <typename K>
void fill_root_top_down(K* h, std::size_t n, const K& k) {
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
  slots_.emplace_back();
  free_slots_.push_back(static_cast<std::uint32_t>(slots_.size() - 1));
}

EventId EventQueue::enqueue(Cycles at, std::uint32_t slot) {
  const EventId id{next_seq_++, slot};
  slots_[slot].seq = id.seq;
  const Key k{at, id.seq, slot};
  if (top_vacant_) {
    top_vacant_ = false;
    fill_root_top_down(heap_.data(), heap_.size(), k);
  } else {
    heap_.push_back(k);
    sift_up(heap_.data(), heap_.size() - 1, k);
  }
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

void EventQueue::settle() const {
  if (top_vacant_) {
    top_vacant_ = false;
    fill_root_from_back(heap_);
  }
  while (!heap_.empty() &&
         slots_[heap_.front().slot].seq != heap_.front().seq)
    fill_root_from_back(heap_);
}

Cycles EventQueue::next_time() const {
  settle();
  return heap_.empty() ? Cycles::max() : heap_.front().at;
}

Cycles EventQueue::pop_and_run() {
  settle();
  assert(!heap_.empty());
  const Key top = heap_.front();
  top_vacant_ = true;
  // Move the callback out and free the slot before running it: the
  // callback may schedule (growing slots_) or cancel its own stale id.
  Callback cb = std::move(slots_[top.slot].cb);
  release(top.slot);
  --live_count_;
  cb();
  return top.at;
}

}  // namespace asman::sim
