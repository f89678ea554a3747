// Tricky-legal fixture for the state-machine check: legal chains, guard
// shapes, and a knowledge-invalidation case that would be illegal if the
// rule (unsoundly) kept stale facts across an unaudited call.
// asman_lint must report zero findings here.
#include <cassert>
#include <cstdint>

namespace fixture {

enum class VcpuState : std::uint8_t { kRunning, kRunnable, kBlocked,
                                      kDestroyed };

struct Vcpu {
  VcpuState state{VcpuState::kRunnable};
  int where{0};
};

void set_state(Vcpu& v, VcpuState to);
bool dequeue(int where, Vcpu* v);  // audited seam: does not change state
void reschedule(Vcpu& v);          // NOT audited: may change state

// A full legal round trip, every hop checked against the shared spec.
void round_trip(Vcpu& v) {
  assert(v.state == VcpuState::kBlocked);
  set_state(v, VcpuState::kRunnable);
  set_state(v, VcpuState::kRunning);
  set_state(v, VcpuState::kRunnable);
  set_state(v, VcpuState::kBlocked);
}

// Negative guard whose branch only returns: after it, the state is known.
void wake(Vcpu& v) {
  if (v.state != VcpuState::kBlocked) return;
  set_state(v, VcpuState::kRunnable);
}

// Audited-seam calls (dequeue) keep knowledge alive across them.
void block_runnable(Vcpu& v) {
  switch (v.state) {
    case VcpuState::kRunnable: {
      const bool removed = dequeue(v.where, &v);
      assert(removed);
      (void)removed;
      set_state(v, VcpuState::kBlocked);
      break;
    }
    case VcpuState::kRunning:
    case VcpuState::kBlocked:
    case VcpuState::kDestroyed:
      break;
  }
}

// The escape hatch: reschedule(v) is outside the audited seam, so the
// kRunning fact must be dropped — the set_state below is indeterminable,
// not illegal. (With stale knowledge this would be flagged as
// kRunning -> kDestroyed.)
void retire(Vcpu& v) {
  assert(v.state == VcpuState::kRunning);
  reschedule(v);
  set_state(v, VcpuState::kDestroyed);
}

// A negative guard joined by `&&` proves nothing on its false edge: with
// `flag` false the VCPU may well be kDestroyed below. (Read as a plain
// negative guard this would be flagged as kDestroyed -> kBlocked.)
void block_unless_gone(Vcpu& v, bool flag) {
  if (v.state != VcpuState::kDestroyed && flag) return;
  set_state(v, VcpuState::kBlocked);
}

// An empty then-branch: the else edge is the guard's false edge, so the
// state is unknown there. (Read as the true edge this would be flagged as
// kRunning -> kDestroyed.)
void retire_unless_running(Vcpu& v) {
  if (v.state == VcpuState::kRunning) {
  } else {
    set_state(v, VcpuState::kDestroyed);
  }
}

}  // namespace fixture
