// The simulation kernel: a virtual clock driving the event queue.
//
// One Simulator instance owns one simulated machine. All components hold a
// reference to it and express behaviour as events ("at time T, do X").
// A periodic timer is one event that re-arms itself from inside its own
// callback (rearm), so its closure is built once for the whole run.
// The loop is single-threaded and deterministic; parallelism in this code
// base lives one level up, across independent simulations (ThreadPool).
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "simcore/event_queue.h"
#include "simcore/thread_annotations.h"
#include "simcore/time.h"

namespace asman::sim {

// Declared a thread-safety capability: a Simulator (and everything hanging
// off it — Hypervisor, guests, the seeded Rng streams) is confined to the
// one pool worker that owns its run. Nothing acquires the capability today
// because nothing may share the object; if cross-thread access is ever
// introduced, the accessor must take ASMAN_REQUIRES(sim) and the sharing
// site must justify itself to clang's -Wthread-safety and to asman-lint's
// `thread-safety` rule, which rejects captures of simulator/hypervisor/RNG
// state inside ThreadPool tasks.
class ASMAN_CAPABILITY("simulator") Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Cycles now() const { return now_; }

  /// Schedule `cb` to run after `delay` cycles. Like at(), it forwards
  /// `cb` so that the queue builds it in place.
  template <typename F>
  EventId after(Cycles delay, F&& cb) {
    return at(now_ + delay, std::forward<F>(cb));
  }

  /// The lane for timers that re-arm `delay` ahead of the clock, made on
  /// first use; owners that pass the same delay share it (EventQueue).
  Lane lane(Cycles delay) { return queue_.lane(delay); }

  /// Schedule `cb` to run after `lane`'s delay, queued in that lane. It
  /// fires exactly when and in the order after(delay, cb) would fire it.
  template <typename F>
  EventId after(Lane lane, F&& cb) {
    return queue_.schedule(lane, now_ + queue_.delay(lane),
                           std::forward<F>(cb));
  }

  /// Schedule `cb` at absolute time `when` (must be >= now()).
  template <typename F>
  EventId at(Cycles when, F&& cb) {
    assert(when >= now_ && "cannot schedule into the past");
    return queue_.schedule(when, std::forward<F>(cb));
  }

  /// From inside a running callback, at most once per run (asserted):
  /// schedule that same callback again after `delay`, or after `lane`'s
  /// delay in that lane. It fires exactly when and in the order that
  /// after(delay, cb) or after(lane, cb) would fire a copy of it, but the
  /// closure is neither rebuilt nor destroyed: a periodic timer keeps one
  /// slot and one closure for the whole run.
  EventId rearm(Cycles delay) { return queue_.rearm(now_ + delay); }
  EventId rearm(Lane lane) {
    return queue_.rearm(lane, now_ + queue_.delay(lane));
  }

  /// Cancel a pending event; safe to call with an already-fired id.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Cancel a pending event and return its callback unrun, so that it can
  /// be scheduled again; empty when `id` is not pending.
  EventQueue::Callback withdraw(EventId id) { return queue_.withdraw(id); }

  /// Cancel a one-shot timer and forget its id (no-op when none is armed).
  void cancel_timer(EventId& id) {
    if (id.valid()) cancel(id);
    id = {};
  }

  /// True while `id` is scheduled and neither fired nor cancelled.
  bool pending(EventId id) const { return queue_.pending(id); }

  /// Run until the queue drains or the clock passes `deadline`.
  /// Events at exactly `deadline` still fire. Returns events processed.
  std::uint64_t run_until(Cycles deadline);

  /// Run until the queue is empty.
  std::uint64_t run_all() { return run_until(Cycles::max()); }

  /// Run while `pred()` is true and events remain before `deadline`.
  /// `pred` is evaluated before every event.
  template <typename Pred>
  std::uint64_t run_while(Cycles deadline, Pred&& pred) {
    std::uint64_t n = 0;
    while (!queue_.empty() && pred()) {
      const Cycles t = queue_.next_time();
      if (t > deadline) break;
      now_ = t;
      queue_.pop_and_run();
      ++n;
    }
    events_processed_ += n;
    return n;
  }

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t pending_events() const { return queue_.size(); }

  /// Progress epoch. Components bump it whenever state that a run's stop
  /// predicate reads may have changed: a workload recorded a round, a
  /// guest thread retired, a VM was created or destroyed. A run loop whose
  /// predicate is costly re-evaluates it only when the epoch has moved.
  void note_progress() { ++progress_; }
  std::uint64_t progress() const { return progress_; }

  /// Advance the clock to `when` without processing events; used by tests
  /// and by drivers that interleave simulation segments.
  void fast_forward(Cycles when) {
    assert(when >= now_);
    assert(queue_.next_time() >= when && "would skip pending events");
    now_ = when;
  }

 private:
  EventQueue queue_;
  Cycles now_{0};
  std::uint64_t events_processed_{0};
  std::uint64_t progress_{0};
};

}  // namespace asman::sim
