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
// The per-event path copies no closure. schedule() builds the callable
// directly in its slot and pop_and_run() runs it there: the slot table is
// made of fixed chunks that never move, so a callback may schedule, and
// grow the table, while it runs. The running event is no longer pending,
// and its slot is freed only once the callback returns or throws.
// withdraw() cancels a pending event and hands its callback back unrun,
// to be scheduled again later.
//
// A periodic timer owns one slot and one closure for the whole run: from
// inside its run, at most once, a callback may rearm() its own event, in
// the heap or in a lane. That draws a fresh seq where a schedule() would,
// and leaves the closure in its slot, which pop_and_run() then does not
// free. A cancel() of the re-armed event while the callback still runs
// only marks it not pending, and pop_and_run() frees the slot once the
// callback returns; withdraw() of it is a precondition violation.
//
// A pop and the next push share one sift:
// pop_and_run() leaves the heap's top entry vacant while the callback
// runs, and the first key scheduled after it fills that vacancy with one
// top-down sift, which stops as soon as the key is no later than both
// children. When nothing is scheduled before the next next_time() or pop,
// the last key fills it with Floyd's bottom-up sift instead, as
// std::pop_heap does. Keys compare as one 128-bit (at, seq) number, so
// choosing the earlier child is branch-free.
//
// Periodic timers skip the heap. Events armed with one fixed delay from a
// clock that never runs backwards come due in the order they were armed,
// so a lane, a FIFO ring of keys for one delay, holds them in (at, seq)
// order already. Only a lane's front competes in the heap, tagged with its
// lane: popping it puts the lane's next key into the vacated top at once
// (it is due soon, so the top-down fill stops near the root), and the
// timer's rearm() appends to the lane's tail in O(1), with no sift. A
// cancelled lane key stays in its ring and is dropped when it surfaces as
// the lane's front. Lanes are explicit: lane(d) finds or makes the lane
// for delay d, and only schedule(Lane, ...) and rearm(Lane, ...) arm in
// one.
#pragma once

#include <cstdint>
#include <memory>
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

/// Names one delay lane of an EventQueue. Only EventQueue::lane() makes a
/// valid one, so no delay or integer can be mistaken for a lane.
class Lane {
 public:
  constexpr Lane() = default;  // names no lane
  friend constexpr bool operator==(Lane, Lane) = default;

 private:
  friend class EventQueue;
  constexpr explicit Lane(std::uint32_t tag) : tag_(tag) {}
  std::uint32_t tag_{0};  // 1 + the lane's index; 0 for none
};

class EventQueue {
 public:
  using Callback = InlineFunction<void()>;
  /// Slots per chunk of the slot table, which grows a chunk at a time; a
  /// power of two, so that finding a slot's chunk is a shift.
  static constexpr std::uint32_t kChunkSlots = 64;

  /// Schedule `cb` to fire at absolute time `at`; the callable is built in
  /// its slot. If building it throws, the queue is left as it was: the
  /// slot stays free and no sequence number is used. `at` must not precede
  /// the last popped event time (checked by the Simulator layer).
  template <typename F>
  EventId schedule(Cycles at, F&& cb) {
    return enqueue(at, claim_slot(std::forward<F>(cb)));
  }

  /// The lane for events armed `delay` after the clock, made on first
  /// use. Every caller that passes the same delay gets the same lane.
  Lane lane(Cycles delay);
  /// The delay `lane` was made for.
  Cycles delay(Lane lane) const { return lanes_[lane.tag_ - 1].delay; }

  /// As schedule(at, cb), but queued in `lane`. Precondition (asserted):
  /// `at` is no earlier than that of the lane's last pending key, which
  /// holds when every key is the clock plus the lane's delay.
  template <typename F>
  EventId schedule(Lane lane, Cycles at, F&& cb) {
    return enqueue(lane, at, claim_slot(std::forward<F>(cb)));
  }

  /// From inside a running callback, at most once per run: schedule that
  /// same callback again at `at`, in the heap or in `lane`, with the same
  /// preconditions as schedule(). The closure stays in its slot; the seq
  /// is drawn here, as schedule() would draw it. Asserted by checking that
  /// the event is not pending, so a second call passes only after a
  /// cancel() of the first.
  EventId rearm(Cycles at);
  EventId rearm(Lane lane, Cycles at);

  /// Cancel a previously scheduled event and destroy its callback. Returns
  /// true if the event was still pending (false if already fired, running
  /// or cancelled). A re-armed event whose callback still runs is only
  /// marked not pending; pop_and_run destroys it once the callback returns.
  bool cancel(EventId id);

  /// Cancel a pending event and return its callback unrun; it uses no
  /// sequence number. Returns an empty callback when `id` is not pending
  /// (fired, running or cancelled). Precondition (asserted): `id` is not
  /// a re-armed event whose callback still runs.
  Callback withdraw(EventId id);

  /// True while `id` is scheduled and neither fired nor cancelled.
  bool pending(EventId id) const {
    return id.valid() && id.slot < slot_count_ &&
           slot_at(id.slot).seq == id.seq;
  }

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  /// Timestamp of the earliest pending event; Cycles::max() when empty.
  Cycles next_time() const;

  /// Pop and run the earliest pending event in its slot, then free the
  /// slot (also when the callback throws) unless the callback re-armed it
  /// and it is still pending. Returns its timestamp. Precondition:
  /// !empty().
  Cycles pop_and_run();

 private:
  struct Key {
    Cycles at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t lane{0};  // the Lane tag of a lane's key; 0 in no lane
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  struct Slot {
    std::uint64_t seq{0};  // seq of the pending event held; 0 when none
    std::uint32_t next_free{kNoSlot};  // the free list's link while free
    Callback cb;
  };
  /// A FIFO of keys whose capacity is zero or a power of two; it doubles
  /// when full.
  class Ring {
   public:
    bool empty() const { return count_ == 0; }
    const Key& front() const { return keys_[head_]; }
    const Key& back() const { return keys_[(head_ + count_ - 1) & mask()]; }
    void push_back(const Key& k) {
      if (count_ == keys_.size()) grow();
      keys_[(head_ + count_) & mask()] = k;
      ++count_;
    }
    void pop_front() {
      head_ = (head_ + 1) & mask();
      --count_;
    }

   private:
    std::size_t mask() const { return keys_.size() - 1; }
    void grow();
    std::vector<Key> keys_;
    std::size_t head_{0};
    std::size_t count_{0};
  };
  struct LaneRec {
    Cycles delay;
    Ring ring;
  };

  /// Slot `i`, wherever its chunk lives; chunks never move.
  Slot& slot_at(std::uint32_t i) const {
    return chunks_[i / kChunkSlots][i % kChunkSlots];
  }
  /// Build `cb` in a free slot and return the slot, still unclaimed.
  template <typename F>
  std::uint32_t claim_slot(F&& cb) {
    if (free_head_ == kNoSlot) grow_slots();
    const std::uint32_t i = free_head_;
    Slot& s = slot_at(i);
    s.cb = std::forward<F>(cb);
    free_head_ = s.next_free;
    return i;
  }
  /// Put one new slot on the free list, adding a chunk when the last is
  /// full.
  void grow_slots();
  /// Give the event in `slot`, whose callback is built, its seq and key.
  Key claim(Cycles at, std::uint32_t slot, std::uint32_t lane);
  /// Put `k` into the heap, filling a vacant top if there is one.
  void push_key(const Key& k);
  /// Claim `slot` for a new event at `at`, in the heap or in `lane`.
  EventId enqueue(Cycles at, std::uint32_t slot);
  EventId enqueue(Lane lane, Cycles at, std::uint32_t slot);
  /// The running callback's slot, for its one rearm().
  std::uint32_t rearm_slot();
  /// Mark `slot` not pending, destroy its callback and free it.
  void release(std::uint32_t slot);
  /// The top key, the front of lane tag `lane` (not 0), has left the heap:
  /// drop it from its lane and fill the top with the lane's next key.
  /// Returns false, leaving the top vacant, when the lane has no next key.
  /// Callers test the tag first, so a heap key's pop makes no call.
  bool advance_lane(std::uint32_t lane) const;
  /// Drop the top key, whose event fired or was cancelled: refill the top
  /// from its lane, else with the heap's last key. Kept out of line, so
  /// that settle()'s common case, a live top, stays small where inlined.
  [[gnu::noinline]] void drop_top() const;
  /// Fill a vacant top, then pop keys of fired or cancelled events off it,
  /// so that heap_.front() is the earliest pending event (if any).
  void settle() const;

  /// Made on first use by lane(), so an unused queue allocates nothing.
  /// First, so that the members every event touches stay contiguous with
  /// the Simulator's clock after them.
  mutable std::vector<LaneRec> lanes_;
  mutable std::vector<Key> heap_;
  /// heap_.front() holds no key: its event was popped and no key has
  /// filled the entry since.
  mutable bool top_vacant_{false};
  /// The running callback's slot (kNoSlot between runs). It sits in the
  /// padding after top_vacant_, so the queue keeps its size and layout.
  std::uint32_t running_{kNoSlot};
  /// The slot table; a chunk never moves once made.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_{0};       // slots made, in all chunks
  std::uint32_t free_head_{kNoSlot};  // top of the LIFO free list
  std::uint64_t next_seq_{1};
  std::size_t live_count_{0};
};

}  // namespace asman::sim
