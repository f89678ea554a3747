// Audit seam of the VMM scheduler.
//
// The hypervisor notifies an installed AuditSink at the end of every
// scheduler entry point (post-state, where its invariants must hold), on
// every individual VCPU lifecycle transition, and once per VM during credit
// accounting with the exact minted amount. The production implementation is
// audit::Auditor (src/audit/); the seam lives here so the VMM never depends
// on the audit library. With no sink installed each notification is one
// null check (see hypervisor.h).
#pragma once

#include <cstdint>

#include "vmm/types.h"

namespace asman::vmm {

/// Which scheduler entry point just completed (or, for kAccountingBegin,
/// is about to mutate credit state).
enum class AuditPoint : std::uint8_t {
  kStart,            // Hypervisor::start() finished its initial dispatch
  kTick,             // end of a per-PCPU slot tick
  kAccountingBegin,  // do_accounting() about to redistribute credit
  kAccountingEnd,    // credit assignment + post-accounting dispatch done
  kVcrdOp,           // do_vcrd_op hypercall (incl. any relocation) done
  kBlock,            // vcpu_block hypercall done
  kKick,             // vcpu_kick hypercall done
  kIpi,              // coscheduling IPI handler done
  kHotplug,          // PCPU offline/online (incl. evacuation) done
  kFault,            // other fault-injection entry point (VCPU crash) done
  kLifecycle,        // hot create_vm / destroy_vm / resize_vm done
};

const char* to_string(AuditPoint p);

class AuditSink {
 public:
  virtual ~AuditSink() = default;

  /// A scheduler entry point completed; all invariants must hold now.
  virtual void on_sched_event(AuditPoint p) = 0;

  /// VCPU `k` legally moves `from` -> `to` exactly when the pair is one of
  /// Runnable->Running, Running->Runnable, Runnable->Blocked,
  /// Blocked->Runnable, Runnable->Destroyed, Blocked->Destroyed (see
  /// VcpuState; a running VCPU is first unmapped, so Running->Destroyed
  /// never fires directly).
  virtual void on_state_change(VcpuKey k, VcpuState from, VcpuState to) = 0;

  /// Credit accounting granted `minted` milli-credits to `vm` this period
  /// (0 for VMs outside the active set; dead VMs are skipped entirely).
  /// Fired after the VM's credits were rewritten but before the
  /// scheduler's on_accounting hook runs.
  virtual void on_accounting(VmId vm, std::int64_t minted) = 0;

  /// A VM was hot-created (`vm` is its id; its VCPUs are kRunnable and
  /// already queued). Fired before the kLifecycle sched event so sinks can
  /// extend per-VM tracking structures first. Default: ignore.
  virtual void on_vm_created(VmId vm) { (void)vm; }

  /// A live VM's VCPU count changed via resize_vm. For growth the new
  /// VCPUs are kRunnable and queued; for shrinkage the drained records are
  /// already gone (their ->Destroyed transitions fired beforehand).
  /// Default: ignore.
  virtual void on_vm_resized(VmId vm) { (void)vm; }

  /// Algorithm 3's relocation just re-placed `vm`'s VCPUs (fired at the
  /// end of relocate_vm, flat or topology-aware). The topology-placement
  /// invariant is event-scoped to these instants: between relocations,
  /// members legally drift via wakes and steals. Default: ignore.
  virtual void on_relocated(VmId vm) { (void)vm; }

  /// The contention engine just finished an accounting-period pass: every
  /// VCPU's busy cycles up to now are split into effective + degraded and
  /// the per-LLC occupancy partition in Hypervisor::pressure_last() is
  /// current. Sinks recompute the partition from authoritative state and
  /// compare (pressure-conservation invariant). Default: ignore.
  virtual void on_contention() {}

  /// Live migration seeded `vm`'s credit from the transferred pool
  /// (seed_credit: truncating equal split clamped to the saturation cap).
  /// Unlike on_accounting this is not a delta against a snapshot — the
  /// sink re-verifies the whole split from `pool`, the authoritative
  /// amount the source host released. Default: ignore.
  virtual void on_seeded(VmId vm, __int128 pool) {
    (void)vm;
    (void)pool;
  }
};

}  // namespace asman::vmm
