#include "core/hw_monitor.h"

namespace asman::core {

namespace {
/// Evaluation window (10 ms of the default clock), the yield rate that
/// raises the VCRD to HIGH, the rate at or below which a window counts as
/// quiet, and the consecutive quiet windows before HIGH -> LOW.
constexpr sim::Cycles kWindow = sim::kDefaultClock.from_ms(10);
constexpr double kHighYieldsPerMs = 3.0;
constexpr double kLowYieldsPerMs = 0.8;
constexpr std::uint32_t kLowWindowsToDrop = 3;
}  // namespace

void HwAdaptiveScheduler::vcpu_yield_hint(vmm::VmId vm_id, std::uint32_t vidx) {
  // Base first: the hypervisor's per-VM yield meter backs the VCRD
  // plausibility clamp, and both consumers must see the same hint stream.
  Hypervisor::vcpu_yield_hint(vm_id, vidx);
  ++total_hints_;
  if (window_yields_.size() < num_vms()) {
    window_yields_.resize(num_vms(), 0);
    quiet_windows_.resize(num_vms(), 0);
  }
  ++window_yields_[vm_id];
  if (!eval_armed_) {
    eval_armed_ = true;
    sim_.after(kWindow, [this] { evaluate(); });
  }
}

void HwAdaptiveScheduler::evaluate() {
  ++evaluations_;
  const double window_ms =
      static_cast<double>(kWindow.v) /
      (static_cast<double>(machine().freq_hz) / 1e3);
  for (vmm::VmId id = 0; id < window_yields_.size(); ++id) {
    const double rate =
        static_cast<double>(window_yields_[id]) / window_ms;
    window_yields_[id] = 0;
    const bool high = vm(id).vcrd == vmm::Vcrd::kHigh;
    if (!high && rate >= kHighYieldsPerMs) {
      quiet_windows_[id] = 0;
      do_vcrd_op(id, vmm::Vcrd::kHigh);
    } else if (high) {
      if (rate <= kLowYieldsPerMs) {
        if (++quiet_windows_[id] >= kLowWindowsToDrop) {
          quiet_windows_[id] = 0;
          do_vcrd_op(id, vmm::Vcrd::kLow);
        }
      } else {
        quiet_windows_[id] = 0;
      }
    }
  }
  bool any_high = false;
  for (vmm::VmId id = 0; id < num_vms(); ++id)
    if (vm(id).vcrd == vmm::Vcrd::kHigh) any_high = true;
  // Keep evaluating while anything is HIGH (the drop side needs windows
  // even when the guest stops yielding); otherwise re-arm lazily on the
  // next yield hint.
  if (any_high) {
    sim_.after(kWindow, [this] { evaluate(); });
  } else {
    eval_armed_ = false;
  }
}

}  // namespace asman::core
