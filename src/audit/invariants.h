// Catalog of the scheduler invariants the auditor enforces.
//
// Each invariant is a property of the hypervisor's externally observable
// state that must hold at every scheduling-event boundary (docs/MODEL.md
// "Invariants & verification"). Every check reads only the hypervisor's
// public introspection surface; all of them except the event-scoped
// topology-placement check below live in audit::Auditor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "vmm/types.h"

namespace asman::vmm {
class Hypervisor;
}

namespace asman::audit {

enum class Invariant : std::uint8_t {
  /// Every VCPU credit stays within [-cap, +cap] (Algorithm 3 saturation).
  kCreditBounds = 0,
  /// One accounting pass rewrites a VM's credits to exactly
  /// min((pool + minted) / n, cap) per VCPU — credit is neither created
  /// nor destroyed beyond the declared mint (Algorithm 3).
  kCreditConservation,
  /// Run-queue membership partitions the VCPUs: a runnable VCPU sits in
  /// exactly one queue (the one `where` names), a running VCPU is current
  /// on exactly one PCPU, a blocked VCPU is in no queue.
  kQueuePartition,
  /// VCPU lifecycle transitions follow Runnable->Running->Runnable,
  /// Runnable<->Blocked, Blocked->Runnable only, from the state the VCPU
  /// was actually in.
  kStateMachine,
  /// A gang-scheduled VM's VCPUs occupy pairwise distinct PCPUs
  /// (Algorithm 3 lines 8-16 placement, preserved by steal/IPI/wake).
  kGangCoherence,
  /// Audit-observed event times never decrease (EventQueue pop order).
  kTimeMonotonic,
  /// Right after a relocation, a gang-scheduled VM occupies no more
  /// sockets than the minimal packing its running members allow (the
  /// topology-aware placement contract; vacuous on flat topologies and
  /// under topology-blind placement).
  kTopologyPlacement,
  /// Attributed cycles conserve like credit (the theft meter is honest):
  /// (a) machine-wide, the cycles VMs consumed equal the cycles PCPUs were
  /// busy — exactly, at every event; (b) under sampled accounting
  /// (kStochastic / kTickSampled) attribution moves in whole-slot quanta;
  /// (c) under kExact accounting every VM's attributed cycles equal its
  /// consumed cycles — there is nothing left to steal.
  kCycleConservation,
  /// Cluster-wide (src/cluster/cluster_auditor.*): at every cluster event,
  /// each admitted VM is resident — a live local VM of its unique name —
  /// on at most one host, including mid-migration (lost VMs on zero).
  kSingleOwnership,
  /// Cluster-wide: credit transfers between hosts are exact. The ticket a
  /// migration carries equals the source pool it captured, the destination
  /// seeds exactly ticket - split/clamp residual, and the residual is
  /// accounted — summed over per-host pools plus in-flight transfers,
  /// nothing is minted or lost by moving a VM.
  kClusterCreditConservation,
  /// Memory-pressure ledger (docs/MODEL.md §2.8): per VM and machine-wide,
  /// effective + degraded == accounted cycles exactly — the contention
  /// engine splits, never invents or loses, busy time. At every engine
  /// pass (Auditor::on_contention) the published occupancy is additionally
  /// a true partition of resident footprints: granted <= demand
  /// elementwise and Σ granted per LLC == min(capacity, Σ demand),
  /// recomputed independently from authoritative placement state.
  kPressureConservation,
};

inline constexpr std::size_t kNumInvariants = 11;

const char* to_string(Invariant inv);

struct Violation {
  Invariant kind;
  std::string what;
};

// Event-scoped: meaningful only at relocation instants (the auditor calls
// it from on_relocated for the relocated VM). Appends violations to `out`
// and returns the number of checks performed (for coverage accounting).
// The full-state invariants are checked by Auditor::check_now's fused scan.
std::uint64_t check_topology_placement(const vmm::Hypervisor& hv,
                                       vmm::VmId vm,
                                       std::vector<Violation>& out);

}  // namespace asman::audit
