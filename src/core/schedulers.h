// The paper's schedulers: ASMan's Adaptive Scheduler and the static
// coscheduling baseline (CON).
#pragma once

#include <memory>

#include "vmm/hypervisor.h"

namespace asman::core {

/// ASMan's Adaptive Scheduler (paper §3.3/§4): behaves exactly like the
/// Credit scheduler while every VM's VCRD is LOW; when a Monitoring Module
/// raises a VM to HIGH via do_vcrd_op, the VM's VCPUs are relocated onto
/// distinct PCPU run queues (Algorithm 3 lines 8-16) and gang-scheduled
/// with IPIs at scheduling events (Algorithm 4) until the VCRD drops.
/// core::HwAdaptiveScheduler derives from it and only infers the VCRD.
class AdaptiveScheduler : public vmm::Hypervisor {
 public:
  using Hypervisor::Hypervisor;

 protected:
  bool wants_cosched(const vmm::Vm& v) const final {
    return v.vcrd == vmm::Vcrd::kHigh;
  }
  void on_vcrd_changed(vmm::Vm& v, vmm::Vcrd previous) final;
};

/// The static coscheduling baseline from the authors' earlier work [12]
/// (labelled CON in §5.3): VMs manually typed kConcurrent are always
/// gang-scheduled, independent of what actually runs in them.
class StaticCoScheduler final : public vmm::Hypervisor {
 public:
  using Hypervisor::Hypervisor;

 protected:
  bool wants_cosched(const vmm::Vm& v) const override {
    return v.type == vmm::VmType::kConcurrent;
  }
};

/// Scheduler selection for experiments and benches. kAsmanHw is the
/// out-of-VM variant (core/hw_monitor.h): same adaptive coscheduling, but
/// the VCRD is inferred from PV yield rates instead of a guest-side
/// Monitoring Module.
enum class SchedulerKind { kCredit, kCon, kAsman, kAsmanHw };

const char* to_string(SchedulerKind k);

std::unique_ptr<vmm::Hypervisor> make_scheduler(SchedulerKind kind,
                                                sim::Simulator& simulation,
                                                const hw::MachineConfig& mach,
                                                vmm::SchedMode mode,
                                                sim::Trace* trace = nullptr);

}  // namespace asman::core
