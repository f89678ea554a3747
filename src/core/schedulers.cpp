#include "core/schedulers.h"

#include "core/hw_monitor.h"

namespace asman::core {

void AdaptiveScheduler::on_vcrd_changed(vmm::Vm& v, vmm::Vcrd previous) {
  // LOW -> HIGH: Algorithm 3 lines 8-16. (The paper folds the relocation
  // into the next credit-assignment pass; doing it at the hypercall keeps
  // the gang dispatchable within the same slot and every accounting pass
  // repairs any later drift, which is behaviourally equivalent but more
  // responsive.)
  if (previous == vmm::Vcrd::kLow && v.vcrd == vmm::Vcrd::kHigh &&
      cosched_eligible(v))
    relocate_vm(v);
}

const char* to_string(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::kCredit:
      return "Credit";
    case SchedulerKind::kCon:
      return "CON";
    case SchedulerKind::kAsman:
      return "ASMan";
    case SchedulerKind::kAsmanHw:
      return "ASMan-HW";
  }
  return "?";
}

std::unique_ptr<vmm::Hypervisor> make_scheduler(SchedulerKind kind,
                                                sim::Simulator& simulation,
                                                const hw::MachineConfig& mach,
                                                vmm::SchedMode mode,
                                                sim::Trace* trace) {
  switch (kind) {
    case SchedulerKind::kCredit:
      return std::make_unique<vmm::CreditScheduler>(simulation, mach, mode,
                                                    trace);
    case SchedulerKind::kCon:
      return std::make_unique<StaticCoScheduler>(simulation, mach, mode,
                                                 trace);
    case SchedulerKind::kAsman:
      return std::make_unique<AdaptiveScheduler>(simulation, mach, mode,
                                                 trace);
    case SchedulerKind::kAsmanHw:
      return std::make_unique<HwAdaptiveScheduler>(simulation, mach, mode,
                                                   trace);
  }
  return nullptr;
}

}  // namespace asman::core
