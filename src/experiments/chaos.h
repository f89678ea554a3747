// Chaos scenarios: canned fault-injection runs for tests and demos.
//
// Each ChaosClass exercises one fault family from the fault model
// (docs/MODEL.md "Fault model & graceful degradation"); kEverything turns
// all of them on at once. The base scenario is a small consolidated host —
// an idle Domain-0, a 4-VCPU synchronization-heavy VM (the gang candidate)
// and a CPU-hog background tenant — sized so a full audited run finishes
// in well under a second of wall time. topology_scenario() puts the same
// fleet on the paper's dual-socket host.
#pragma once

#include <cstdint>
#include <vector>

#include "experiments/scenario.h"

namespace asman::experiments {

enum class ChaosClass : std::uint8_t {
  kIpiLoss,      // hw: drop/duplicate/delay coscheduling IPIs
  kTickJitter,   // hw: per-PCPU slot-tick jitter
  kHotplug,      // hw: PCPU offline/online with evacuation
  kVcrdSilence,  // guest: Monitoring Module goes silent (staleness TTL)
  kVcrdFlap,     // guest: rapid LOW<->HIGH flapping (rate-limiter)
  kVcrdCorrupt,  // guest: corrupt do_vcrd_op arguments (rejected)
  kVcpuHang,       // vmm: VCPU runs but never yields
  kVcpuCrash,      // vmm: VCPU permanently blocked
  kSocketOffline,  // hw: whole-socket hotplug on the paper's 2x4 topology
  kEverything,     // all of the above in one run (except kSocketOffline,
                   // which overrides the machine config)
};

const char* to_string(ChaosClass c);
const std::vector<ChaosClass>& all_chaos_classes();

/// The fault-free consolidated-host base every chaos (and churn) scenario
/// shares: an idle Dom0, the 4-VCPU gang candidate as VM 1, and background
/// hogs. `n_vms` as in chaos_scenario.
Scenario chaos_base_scenario(core::SchedulerKind sched, std::uint64_t seed = 1,
                             std::uint32_t n_vms = 3);

/// Overlay the fault plan (and any resilience knobs) of one chaos class
/// onto an existing scenario whose VM layout matches the chaos base (VM 1
/// is the gang candidate). Leaves sc.faults.seed alone — the caller owns
/// the seeding. This is how churn scenarios compose with chaos.
void apply_chaos(Scenario& sc, ChaosClass c);

/// Build the chaos scenario for one scheduler and fault class. The seed
/// feeds both the workload and the injector streams, so the same
/// (scheduler, class, seed) triple reproduces bit-identically. `n_vms`
/// sizes the fleet (minimum 3: Dom0, the gang candidate, and a hog; every
/// extra VM is a 1-VCPU background hog).
Scenario chaos_scenario(core::SchedulerKind sched, ChaosClass c,
                        std::uint64_t seed = 1, std::uint32_t n_vms = 3);

/// The fault-free chaos base on the paper's dual-socket host
/// (hw::Topology::paper(): 2 sockets x 2 shared-L2 domains x 2 PCPUs, the
/// dual Harpertown testbed), for placement studies. `n_vms` as in
/// chaos_scenario (minimum 3; default 4). `aware` false keeps the
/// migration cost model but places like the flat scheduler, so an
/// aware-vs-blind pair differs in placement alone.
Scenario topology_scenario(core::SchedulerKind sched, std::uint64_t seed = 1,
                           bool aware = true, std::uint32_t n_vms = 4);

}  // namespace asman::experiments
