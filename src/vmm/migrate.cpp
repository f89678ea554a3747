// Cluster transfer seams: pause/resume (the stop-and-copy downtime
// window), migrate_out/migrate_in (the audited credit hand-off between
// hosts), and halt (host crash).
//
// The rules that keep every invariant intact across a transfer:
//
//   * credit is captured BEFORE the source records drain (drain_vcpu zeroes
//     residuals) and is seeded on the destination through one audited
//     writer (seed_credit), truncating-split and clamped exactly like an
//     accounting pass — so credit-bounds holds immediately and the next
//     accounting pass on either host sees a consistent pool,
//   * ownership is serial: migrate_out retires the source VM (tombstones,
//     id never reused) before migrate_in creates the destination VM, so no
//     event boundary ever observes the VM alive on two hosts,
//   * a paused VM is parked entirely in kBlocked through the audited
//     transition paths (legal from both kRunning-via-unmap and kRunnable),
//     and kicks latch instead of enqueueing — resume replays them,
//   * a halted host freezes audit-clean: every VCPU parks in kBlocked, the
//     self-re-arming tick/accounting events stop, hypercalls bounce
//     (counted), and the records stay readable for collection.
#include <cassert>
#include <vector>

#include "vmm/hypervisor.h"

namespace asman::vmm {

bool Hypervisor::park_vcpu(Vcpu& w) {
  const bool ran = evict_vcpu(w);  // a running VCPU parks from kRunnable
  if (w.state == VcpuState::kRunnable) set_state(w, VcpuState::kBlocked);
  return ran;
}

bool Hypervisor::pause_vm(VmId id) {
  if (id >= vms_.size() || !vms_[id]->alive) return false;
  Vm& v = *vms_[id];
  if (v.paused) return true;
  v.paused = true;
  const bool was = in_scheduler_;
  in_scheduler_ = true;
  sim_.cancel_timer(v.watchdog_ev);
  std::vector<PcpuId> freed;
  for (Vcpu& w : v.vcpus) {
    const bool held_work =
        w.state == VcpuState::kRunning || w.state == VcpuState::kRunnable;
    if (park_vcpu(w)) freed.push_back(w.where);
    if (held_work) w.paused_pending = true;
  }
  redispatch_freed(freed);
  in_scheduler_ = was;
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kSched,
                  [&] { return v.name + " paused"; });
  audit_event(AuditPoint::kLifecycle);
  return true;
}

bool Hypervisor::resume_vm(VmId id) {
  if (id >= vms_.size() || !vms_[id]->alive) return false;
  Vm& v = *vms_[id];
  if (!v.paused) return true;
  v.paused = false;
  const bool was = in_scheduler_;
  in_scheduler_ = true;
  for (Vcpu& w : v.vcpus) {
    const bool wake = w.paused_pending && !w.crashed;
    w.paused_pending = false;
    if (!wake || w.state != VcpuState::kBlocked) continue;
    // The home went offline during the pause; re-home like a wake does
    // (credit travels with the VCPU).
    if (!pcpus_[w.where].online) rehome(w, pick_online_home(id, w.where));
    set_state(w, VcpuState::kRunnable);
    enqueue(w.where, &w);
  }
  // A resumed gang may have drifted onto shared homes while parked.
  respread_gang(v);
  dispatch_idle(0);
  in_scheduler_ = was;
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kSched,
                  [&] { return v.name + " resumed"; });
  audit_event(AuditPoint::kLifecycle);
  return true;
}

MigrationTicket Hypervisor::migrate_out(VmId id) {
  if (id >= vms_.size() || !vms_[id]->alive) return {};
  Vm& v = *vms_[id];
  MigrationTicket t;
  t.name = v.name;
  t.weight = v.weight;
  t.n_vcpus = static_cast<std::uint32_t>(v.num_vcpus());
  t.type = v.type;
  // Capture the pool before the drains below zero the residuals; widened
  // so the sum over any VCPU count cannot wrap.
  for (const Vcpu& w : v.vcpus)
    t.credit_pool += static_cast<__int128>(w.credit);
  // Retire the local records exactly like destroy_vm.
  ++vm_migrations_out_;
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kSched,
                  [&] { return v.name + " migrated out"; });
  retire_vm(v);
  return t;
}

VmId Hypervisor::migrate_in(const MigrationTicket& t, __int128* seeded) {
  if (seeded) *seeded = 0;
  if (!t.valid()) return kInvalidVmId;
  const VmId id = create_vm(t.name, t.weight, t.n_vcpus, t.type);
  if (id == kInvalidVmId) return id;  // admission reject: nothing seeded
  const __int128 s = seed_credit(id, t.credit_pool);
  if (seeded) *seeded = s;
  ++vm_migrations_in_;
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kSched, [&] {
    return vm(id).name + " migrated in";
  });
  audit_event(AuditPoint::kLifecycle);
  return id;
}

__int128 Hypervisor::seed_credit(VmId id, __int128 pool) {
  Vm& v = vm(id);
  const auto n = static_cast<__int128>(v.num_vcpus());
  // Truncating equal split, clamped to the saturation cap — byte for byte
  // the shape of Algorithm 3's re-split, so credit-bounds holds at this
  // very event and the next accounting pass redistributes consistently.
  __int128 share = pool / n;
  const auto cap = static_cast<__int128>(credit_cap_);
  if (share > cap) share = cap;
  if (share < -cap) share = -cap;
  __int128 seeded = 0;
  for (Vcpu& w : v.vcpus) {
    w.credit = static_cast<Credit>(share);
    seeded += share;
  }
  audit_seeded(id, pool);
  return seeded;
}

void Hypervisor::halt() {
  if (halted_) return;
  halted_ = true;
  const bool was = in_scheduler_;
  in_scheduler_ = true;
  std::vector<PcpuId> freed;
  for (auto& vp : vms_) {
    Vm& v = *vp;
    sim_.cancel_timer(v.watchdog_ev);
    if (!v.alive) continue;
    for (Vcpu& w : v.vcpus)
      if (park_vcpu(w)) freed.push_back(w.where);
  }
  // dispatch() is a no-op once halted, so this only opens the freed PCPUs'
  // idle spans and pcpu_idle_total stays meaningful.
  redispatch_freed(freed);
  for (PcpuId p = 0; p < machine_.num_pcpus; ++p)
    assert(pcpus_[p].current == nullptr);
  in_scheduler_ = was;
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kSched,
                  [] { return "host halted"; });
  audit_event(AuditPoint::kFault);
}

}  // namespace asman::vmm
