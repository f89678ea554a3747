// Scoped ownership of a set of pending events.
//
// A multi-host run schedules events on behalf of many components — per-host
// tick machinery, per-migration copy timers, cluster heartbeats — and must
// be able to retire a component's pending events as a unit (a crashed host
// must not fire its copy-completion timer into the rolled-back migration).
// EventScope collects the EventIds a component armed and cancels whatever
// is still pending in one call; already-fired ids are skipped (cancel is
// idempotent on fired events).
#pragma once

#include <utility>
#include <vector>

#include "simcore/simulator.h"

namespace asman::sim {

class EventScope {
 public:
  /// Schedule `cb` after `delay` on `s`, tracked by this scope.
  template <typename F>
  EventId after(Simulator& s, Cycles delay, F&& cb) {
    return at(s, s.now() + delay, std::forward<F>(cb));
  }

  /// Schedule `cb` at absolute `when` on `s`, tracked by this scope.
  template <typename F>
  EventId at(Simulator& s, Cycles when, F&& cb) {
    const EventId id = s.at(when, std::forward<F>(cb));
    ids_.push_back(id);
    compact(s);
    return id;
  }

  /// Cancel every still-pending event this scope armed. Returns how many
  /// were actually cancelled (fired/cancelled ids count zero).
  std::size_t cancel_all(Simulator& s) {
    std::size_t n = 0;
    for (const EventId id : ids_)
      if (s.cancel(id)) ++n;
    ids_.clear();
    return n;
  }

  std::size_t tracked() const { return ids_.size(); }

 private:
  /// Keep the id list from growing without bound on long-lived scopes:
  /// once it is large, drop ids whose events already fired. cancel() on a
  /// fired id is a cheap no-op, so the threshold only bounds memory.
  void compact(Simulator& s) {
    if (ids_.size() < 64) return;
    std::vector<EventId> live;
    live.reserve(ids_.size());
    for (const EventId id : ids_)
      if (s.pending(id)) live.push_back(id);
    ids_.swap(live);
  }

  std::vector<EventId> ids_;
};

}  // namespace asman::sim
