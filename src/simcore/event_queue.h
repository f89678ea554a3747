// Cancellable discrete-event queue with deterministic ordering.
//
// Events at equal timestamps fire in insertion order (a monotonically
// increasing sequence number breaks ties), which makes whole simulations
// bit-reproducible regardless of heap internals.
//
// A slot table owns the callbacks, and a binary min-heap orders 24-byte
// (at, seq, slot) keys into it. An EventId names both the sequence number
// and the slot, and each slot records the seq of the event it holds (0 when
// free), so pending() and cancel() are one comparison. cancel() frees the
// slot and destroys the callback at once; the cancelled event's key stays
// in the heap and is dropped when it surfaces, because its seq no longer
// matches the slot's (a later event may already reuse the slot). schedule()
// and pop are O(log n), cancel() is O(1), and once the tables have grown to
// the run's peak none of them hashes or allocates.
//
// The per-event path copies no closure it does not have to. schedule()
// builds the callable directly in its slot; pop_and_run() moves it out
// once, because the callback may grow the slot table while it runs. A pop
// and the next push share one sift: pop_and_run() leaves the heap's top
// entry vacant while the callback runs, and the first key scheduled after
// it fills that vacancy with one top-down sift, which stops as soon as the
// key is no later than both children. When nothing is scheduled before
// the next next_time() or pop, the last key fills it with Floyd's
// bottom-up sift instead, as std::pop_heap does. Keys compare as one
// 128-bit (at, seq) number, so choosing the earlier child is branch-free.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "simcore/inline_function.h"
#include "simcore/time.h"

namespace asman::sim {

/// Opaque handle identifying a scheduled event; may be used to cancel it.
/// `seq` is dense from 1 in scheduling order; `slot` locates the callback.
struct EventId {
  std::uint64_t seq{0};
  std::uint32_t slot{0};
  constexpr bool valid() const { return seq != 0; }
  friend constexpr bool operator==(EventId, EventId) = default;
};

class EventQueue {
 public:
  using Callback = InlineFunction<void()>;

  /// Schedule `cb` to fire at absolute time `at`; the callable is built in
  /// its slot. If building it throws, the queue is left as it was: the
  /// slot stays free and no sequence number is used. `at` must not precede
  /// the last popped event time (checked by the Simulator layer).
  template <typename F>
  EventId schedule(Cycles at, F&& cb) {
    if (free_slots_.empty()) grow_slots();
    const std::uint32_t slot = free_slots_.back();
    slots_[slot].cb = std::forward<F>(cb);
    free_slots_.pop_back();
    return enqueue(at, slot);
  }

  /// Cancel a previously scheduled event and destroy its callback. Returns
  /// true if the event was still pending (false if already fired or
  /// cancelled).
  bool cancel(EventId id);

  /// True while `id` is scheduled and neither fired nor cancelled.
  bool pending(EventId id) const {
    return id.valid() && id.slot < slots_.size() &&
           slots_[id.slot].seq == id.seq;
  }

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  /// Timestamp of the earliest pending event; Cycles::max() when empty.
  Cycles next_time() const;

  /// Pop and run the earliest pending event. Returns its timestamp.
  /// Precondition: !empty().
  Cycles pop_and_run();

 private:
  struct Key {
    Cycles at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    std::uint64_t seq{0};  // seq of the pending event held; 0 when free
    Callback cb;
  };

  /// Append one free slot to the table.
  void grow_slots();
  /// Claim `slot`, whose callback is built, for a new event at `at`.
  EventId enqueue(Cycles at, std::uint32_t slot);
  void release(std::uint32_t slot);
  /// Fill a vacant top, then pop keys of fired or cancelled events off it,
  /// so that heap_.front() is the earliest pending event (if any).
  void settle() const;

  mutable std::vector<Key> heap_;
  /// heap_.front() holds no key: its event was popped and no key has
  /// filled the entry since.
  mutable bool top_vacant_{false};
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_{1};
  std::size_t live_count_{0};
};

}  // namespace asman::sim
