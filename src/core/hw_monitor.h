// Out-of-VM VCRD inference (the paper's §7 future work, implemented).
//
// ASMan's Monitoring Module lives inside the guest kernel, which requires
// modifying it. The paper closes by asking whether the VCRD can be
// monitored from *outside* the VM. It can: stock paravirtual kernels
// already emit SCHEDOP_yield hypercalls from their sched_yield path — the
// exact path spin-wait loops hammer — so the VMM can observe a VM's yield
// *rate* without touching the guest. A concurrent workload stuck in
// virtualization-disrupted synchronization yields at kHz rates; compute
// phases and throughput workloads barely yield at all.
//
// HwAdaptiveScheduler drives the VCRD from that signal: a per-window
// yield-rate estimate with hysteresis raises the VM to HIGH when one
// kWindow (10 ms) window's rate reaches kHighYieldsPerMs (3/ms), and drops
// it after kLowWindowsToDrop (3) consecutive windows at or below
// kLowYieldsPerMs (0.8/ms); the constants live in hw_monitor.cpp. It is
// ASMan's AdaptiveScheduler with only the VCRD source swapped, so
// everything downstream (relocation and its eligibility gate, Algorithm-4
// gangs, co-start/co-stop, credit pooling) is the in-guest ASMan's own.
#pragma once

#include <cstdint>
#include <vector>

#include "core/schedulers.h"

namespace asman::core {

class HwAdaptiveScheduler final : public AdaptiveScheduler {
 public:
  using AdaptiveScheduler::AdaptiveScheduler;

  /// PV yield notification — the whole out-of-VM signal.
  void vcpu_yield_hint(vmm::VmId vm, std::uint32_t vidx) override;

  std::uint64_t yield_hints() const { return total_hints_; }
  std::uint64_t evaluations() const { return evaluations_; }

 private:
  void evaluate();

  std::vector<std::uint64_t> window_yields_;  // per VM, current window
  std::vector<std::uint32_t> quiet_windows_;  // per VM, consecutive
  bool eval_armed_{false};
  std::uint64_t total_hints_{0};
  std::uint64_t evaluations_{0};
};

}  // namespace asman::core
