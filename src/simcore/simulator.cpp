#include "simcore/simulator.h"

namespace asman::sim {

std::uint64_t Simulator::run_until(Cycles deadline) {
  std::uint64_t n = 0;
  while (!queue_.empty()) {
    const Cycles t = queue_.next_time();
    if (t > deadline) break;
    now_ = t;
    queue_.pop_and_run();
    ++n;
  }
  if (deadline != Cycles::max() && now_ < deadline) now_ = deadline;
  events_processed_ += n;
  return n;
}

}  // namespace asman::sim
