// Lightweight structured trace sink.
//
// Components emit (time, category, message) records when tracing is on;
// tests use it to assert ordering properties and the examples use it to
// show scheduling timelines. Disabled tracing costs a branch per call.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simcore/time.h"

namespace asman::sim {

enum class TraceCat : std::uint8_t {
  kSched,     // VMM scheduling decisions
  kCredit,    // credit accounting
  kCosched,   // coscheduling / IPI activity
  kGuest,     // guest kernel events
  kLock,      // spinlock acquire/release
  kMonitor,   // monitoring module / VCRD
  kWorkload,  // workload phase transitions
};

const char* trace_cat_name(TraceCat c);

struct TraceRecord {
  Cycles at;
  TraceCat cat;
  std::string msg;
};

class Trace {
 public:
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void emit(Cycles at, TraceCat cat, std::string msg) {
    if (enabled_) records_.push_back({at, cat, std::move(msg)});
  }

  const std::vector<TraceRecord>& records() const { return records_; }
  void clear() { records_.clear(); }

  /// Records of one category, in emission order.
  std::vector<TraceRecord> filter(TraceCat cat) const;

  std::string dump(std::size_t max_lines = 200) const;

 private:
  bool enabled_{false};
  std::vector<TraceRecord> records_;
};

/// Emit a record at `at` whose text `msg()` builds. `msg` runs only when
/// `trace` is attached and enabled, so tracing off formats nothing.
template <typename MakeMsg>
void note_trace(Trace* trace, Cycles at, TraceCat cat, MakeMsg&& msg) {
  if (trace != nullptr && trace->enabled()) trace->emit(at, cat, msg());
}

}  // namespace asman::sim
