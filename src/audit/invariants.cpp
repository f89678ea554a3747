#include "audit/invariants.h"

#include "vmm/hypervisor.h"

namespace asman::audit {

const char* to_string(Invariant inv) {
  switch (inv) {
    case Invariant::kCreditBounds:
      return "credit-bounds";
    case Invariant::kCreditConservation:
      return "credit-conservation";
    case Invariant::kQueuePartition:
      return "queue-partition";
    case Invariant::kStateMachine:
      return "state-machine";
    case Invariant::kGangCoherence:
      return "gang-coherence";
    case Invariant::kTimeMonotonic:
      return "time-monotonic";
    case Invariant::kTopologyPlacement:
      return "topology-placement";
    case Invariant::kCycleConservation:
      return "cycle-conservation";
    case Invariant::kSingleOwnership:
      return "single-ownership";
    case Invariant::kClusterCreditConservation:
      return "cluster-credit-conservation";
    case Invariant::kPressureConservation:
      return "pressure-conservation";
  }
  return "?";
}

std::uint64_t check_topology_placement(const vmm::Hypervisor& hv,
                                       vmm::VmId id,
                                       std::vector<Violation>& out) {
  // Vacuous unless topology-aware placement is live and the gang both
  // wants coscheduling and fits the online PCPUs (relocate_vm gives up
  // otherwise, just like the gang-coherence invariant).
  if (!hv.topology_aware() || hv.topology().is_flat()) return 0;
  if (!hv.vm_alive(id)) return 0;
  const vmm::Vm& v = hv.vm(id);
  if (!hv.gang_scheduled(id) || v.num_vcpus() > hv.online_pcpus()) return 0;
  // The minimal-packing computation is the scheduler's own
  // (gang_socket_set, via placement_spans_excess_sockets), so the checker
  // flags exactly the placements relocate_vm would never produce.
  if (hv.placement_spans_excess_sockets(id)) {
    std::vector<bool> used(hv.topology().num_sockets(), false);
    std::uint32_t spanned = 0;
    for (const vmm::Vcpu& c : v.vcpus) {
      const std::uint32_t s = hv.topology().socket_of(c.where);
      if (!used[s]) {
        used[s] = true;
        ++spanned;
      }
    }
    out.push_back({Invariant::kTopologyPlacement,
                   v.name + " spans " + std::to_string(spanned) +
                       " socket(s) after relocation; a tighter packing " +
                       "existed"});
  }
  return 1;
}

}  // namespace asman::audit
