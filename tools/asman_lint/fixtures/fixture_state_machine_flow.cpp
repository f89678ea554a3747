// Seeded violations that only a path-sensitive state-machine check can
// prove: the from-state is established on every path into the set_state
// call, but by different statements, or by the else edge of a guard.
// tests/lint_test.cpp asserts both sites are flagged and nothing else.
#include <cstdint>

namespace fixture {

enum class VcpuState : std::uint8_t { kRunning, kRunnable, kBlocked,
                                      kDestroyed };

struct Vcpu {
  VcpuState state{VcpuState::kRunnable};
};

void set_state(Vcpu& v, VcpuState to);
void reschedule(Vcpu& v);

// Violation 1: both branches leave the VCPU kBlocked, so the merge still
// knows kBlocked — and a blocked VCPU must be queued before it runs.
void park_then_run(Vcpu& v, bool fast) {
  if (fast) {
    set_state(v, VcpuState::kBlocked);
  } else {
    set_state(v, VcpuState::kBlocked);
  }
  set_state(v, VcpuState::kRunning);  // flagged: kBlocked -> kRunning
}

// Violation 2: the else edge of a negative guard knows the state exactly.
void run_if_blocked(Vcpu& v) {
  if (v.state != VcpuState::kBlocked) {
    reschedule(v);
  } else {
    set_state(v, VcpuState::kRunning);  // flagged: kBlocked -> kRunning
  }
}

}  // namespace fixture
