// Runtime VM lifecycle: hot create/destroy/resize, the admission
// controller, and the overload governor (docs/MODEL.md "VM lifecycle &
// admission").
//
// Lifecycle operations are legal at any scheduling event. The rules that
// keep every invariant intact:
//
//   * a hot-created VM starts with zero credit; its share is minted at the
//     next accounting period, so existing VMs' credits are never touched,
//   * a destroyed VM is marked dead *first* (no dispatch path re-picks
//     it), then every VCPU is drained through the audited transition
//     machinery into a kDestroyed tombstone — records and statistics stay
//     behind, ids are never reused,
//   * a mid-gang destruction aborts the gang cleanly (boosts + watchdog
//     cancelled per member) and the freed PCPUs re-dispatch; a gang shrunk
//     by resize_vm re-spreads its survivors onto pairwise-distinct PCPUs,
//   * admission rejections leave no trace in scheduler state beyond the
//     counter: the request simply never happened.
#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>
#include <vector>

#include "core/bounds_spec.h"
#include "vmm/hypervisor.h"

namespace asman::vmm {

std::size_t Hypervisor::num_live_vms() const {
  std::size_t n = 0;
  for (const auto& v : vms_)
    if (v->alive) ++n;
  return n;
}

namespace {

/// The overload governor's levels, as fractions of the admission cap: shed
/// coscheduling above kShedLevel, restore it at kRestoreLevel or below, but
/// no earlier than kRestoreBackoffSlots after the shed.
constexpr double kShedLevel = 0.85;
constexpr double kRestoreLevel = 0.60;
constexpr std::uint64_t kRestoreBackoffSlots = 12;
static_assert(core::in_bounds(core::field::shed_level_ppm, kShedLevel * 1e6));
static_assert(core::in_bounds(core::field::restore_level_ppm,
                              kRestoreLevel * 1e6));

/// The load ledger's oracle: `extra` plus every live VM's
/// num_vcpus x (weight / kReferenceWeight), summed left to right.
[[maybe_unused]] double walked_load(
    const std::vector<std::unique_ptr<Vm>>& vms, double extra) {
  double load = extra;
  for (const auto& v : vms)
    if (v->alive)
      load += static_cast<double>(v->num_vcpus()) *
              (static_cast<double>(v->weight) / kReferenceWeight);
  return load;
}

}  // namespace

double Hypervisor::prospective_load(double extra) const {
  // Exact, not approximate: kReferenceWeight is 256 and the bounds spec
  // caps weight at 2^16 and n_vcpus at 2^12, so every term of the walk
  // (and `extra`) is a multiple of 2^-8. While weighted_vcpus_ stays below
  // 2^53 every partial sum is exact in a double, so the walk's sum equals
  // extra + weighted_vcpus_ / 256 in any order, bit for bit.
  const double load =
      extra + static_cast<double>(weighted_vcpus_) / kReferenceWeight;
  assert(load == walked_load(vms_, extra));
  return online_pcpus_ == 0 ? load : load / online_pcpus_;
}

double Hypervisor::weighted_vcpu_load() const { return prospective_load(0.0); }

bool Hypervisor::admit(std::uint32_t n, std::uint32_t weight, double& load) {
  if (!admission_enabled()) return true;
  load = prospective_load(static_cast<double>(n) *
                          (static_cast<double>(weight) / kReferenceWeight));
  if (load <= admission_.max_vcpus_per_pcpu) return true;
  ++admission_rejects_;
  return false;
}

PcpuId Hypervisor::place_new_vcpu(VmId id, std::uint32_t vidx,
                                  const Vm& self) const {
  const std::uint32_t n = machine_.num_pcpus;
  if (topo_place_active()) {
    // Socket-locality-preserving round robin: walk the PCPUs socket-major
    // starting at socket (id % sockets), so a VM's VCPUs fill one socket's
    // cores (sharing LLC domains) before spilling into the next, and
    // different VMs start on different sockets. Offline PCPUs are skipped
    // within the same order.
    const std::uint32_t ns = topo_.num_sockets();
    std::vector<PcpuId> order;
    order.reserve(n);
    for (std::uint32_t k = 0; k < ns; ++k)
      for (const PcpuId p : topo_.pcpus_in_socket((id + k) % ns))
        order.push_back(p);
    const std::uint32_t at = vidx % n;
    if (pressure_place_active()) {
      // Pressure spread: among the same socket-major candidate order, pick
      // the first online PCPU on the LLC with the fewest of this VM's
      // already-placed sibling VCPUs and, among those, the least working-
      // set demand already registered (earlier VMs' footprints; this VM's
      // own footprint arrives after create_vm, so the sibling key is what
      // keeps a multi-VCPU streamer from stacking its whole working set on
      // whichever domain happens to look emptiest). With no registered
      // demand and no siblings every LLC ties and the first online
      // candidate wins — exactly the topology path, so zero-footprint runs
      // are bit-identical (the engine gates this branch off entirely).
      std::vector<std::uint64_t> demand(topo_.num_llcs(), 0);
      for (const auto& mp : vms_) {
        const Vm& m = *mp;
        if (!m.alive || vm_footprint(m.id).zero()) continue;
        for (const Vcpu& c : m.vcpus)
          demand[topo_.llc_of(c.where)] += vcpu_llc_share(c);
      }
      std::vector<std::uint32_t> siblings(topo_.num_llcs(), 0);
      for (std::uint32_t i = 0; i < vidx && i < self.vcpus.size(); ++i)
        ++siblings[topo_.llc_of(self.vcpus[i].where)];
      PcpuId pick = n;
      std::uint32_t best_sib = 0;
      std::uint64_t best = 0;
      for (std::uint32_t step = 0; step < n; ++step) {
        const PcpuId p = order[(at + step) % n];
        if (!pcpus_[p].online) continue;
        const std::uint32_t sib = siblings[topo_.llc_of(p)];
        const std::uint64_t d = demand[topo_.llc_of(p)];
        if (pick == n || sib < best_sib ||
            (sib == best_sib && d < best)) {
          pick = p;
          best_sib = sib;
          best = d;
        }
      }
      if (pick != n) return pick;
      return order[at];  // unreachable: the last online PCPU refuses to die
    }
    for (std::uint32_t step = 0; step < n; ++step) {
      const PcpuId p = order[(at + step) % n];
      if (pcpus_[p].online) return p;
    }
    return order[at];  // unreachable: the last online PCPU refuses to die
  }
  // Round-robin offset per VM (same formula as boot-time placement, so
  // fault-free pre-start runs stay bit-identical to earlier builds),
  // advanced past hot-unplugged PCPUs.
  auto p = static_cast<PcpuId>((id + vidx) % n);
  for (std::uint32_t step = 0; step < n; ++step) {
    if (pcpus_[p].online) return p;
    p = static_cast<PcpuId>((p + 1) % n);
  }
  return p;  // unreachable: the last online PCPU refuses to die
}

VmId Hypervisor::create_vm(std::string name, std::uint32_t weight,
                           std::uint32_t n_vcpus, VmType type) {
  assert(weight > 0 && n_vcpus > 0);
  // Hold per-VM quantities to the shared bounds spec: weight is clamped
  // (a too-heavy VM still boots, at the heaviest proved weight), an absurd
  // VCPU count is refused outright — a 5000-VCPU VM is a config bug, not a
  // scheduling problem, and admitting it would leave the value-range
  // proof's assumptions behind.
  weight = core::clamp_to_bounds(core::field::weight, weight);
  if (n_vcpus > kMaxVmVcpus) {
    sim::note_trace(trace_, sim_.now(), sim::TraceCat::kSched, [&] {
      return name + " rejected: n_vcpus " + std::to_string(n_vcpus) +
             " outside the bounds spec";
    });
    return kInvalidVmId;
  }
  double load = 0.0;
  if (!admit(n_vcpus, weight, load)) {
    sim::note_trace(trace_, sim_.now(), sim::TraceCat::kSched, [&] {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "admission reject: %s (+%u VCPUs would load %.2f/%.2f "
                    "per PCPU)",
                    name.c_str(), n_vcpus, load,
                    admission_.max_vcpus_per_pcpu);
      return std::string(buf);
    });
    return kInvalidVmId;
  }
  const VmId id = static_cast<VmId>(vms_.size());
  auto v = std::make_unique<Vm>();
  v->id = id;
  v->name = std::move(name);
  v->weight = weight;
  v->type = type;
  v->vcpus.resize(n_vcpus);
  for (std::uint32_t i = 0; i < n_vcpus; ++i) {
    Vcpu& c = v->vcpus[i];
    c.key = VcpuKey{id, i};
    // A fresh record is born kRunnable (Vcpu's default member init), so no
    // state write happens outside the audited seam. Spread VCPUs
    // round-robin over (online) PCPUs, offset per VM so equally sized VMs
    // do not all pile onto the low-numbered queues.
    c.where = place_new_vcpu(id, i, *v);
    enqueue(c.where, &c);
  }
  vms_.push_back(std::move(v));
  weighted_vcpus_ += static_cast<std::uint64_t>(n_vcpus) * weight;
  if (started_) {
    ++vm_creates_;
    sim::note_trace(trace_, sim_.now(), sim::TraceCat::kSched, [&] {
      return vm(id).name + " hot-created (" + std::to_string(n_vcpus) +
             " VCPUs, weight " + std::to_string(weight) + ")";
    });
    audit_created(id);
    maybe_shed_overload();
    defer_dispatch_idle();  // idle PCPUs pick the new VCPUs up right away
    audit_event(AuditPoint::kLifecycle);
  }
  return id;
}

void Hypervisor::defer_dispatch_idle() {
  // Deferred one event so the caller can attach_guest first (go_online
  // must find the guest port wired); busy PCPUs collect the new VCPUs at
  // their next tick.
  sim_.after(Cycles{0}, [this] {
    in_scheduler_ = true;
    dispatch_idle(0);
    in_scheduler_ = false;
  });
}

bool Hypervisor::evict_vcpu(Vcpu& w) {
  sim_.cancel_timer(w.cosched_clear_ev);
  w.cosched_boost = false;
  w.cosched_weak = false;
  w.wake_boost = false;
  const bool ran = w.state == VcpuState::kRunning;
  if (ran) {
    // Burn/charge through the normal unmap path (the guest sees its
    // offline callback); the VCPU is left kRunnable.
    unmap_current(w.where);
  } else if (w.state == VcpuState::kRunnable) {
    const bool removed = dequeue(w.where, &w);
    assert(removed);
    (void)removed;
  }
  return ran;
}

bool Hypervisor::drain_vcpu(Vcpu& w) {
  const bool ran = evict_vcpu(w);
  if (w.state == VcpuState::kRunnable) set_state(w, VcpuState::kDestroyed);
  if (w.state == VcpuState::kBlocked) set_state(w, VcpuState::kDestroyed);
  assert(w.state == VcpuState::kDestroyed);
  // Residual credit leaves with the VCPU: a tombstone holds no stake in
  // the next redistribution (the mint is split among live VMs only), and
  // no latched wake.
  w.credit = 0;
  w.paused_pending = false;
  return ran;
}

void Hypervisor::redispatch_freed(const std::vector<PcpuId>& freed) {
  for (const PcpuId p : freed)
    if (pcpus_[p].online && pcpus_[p].current == nullptr) redispatch(p);
}

void Hypervisor::retire_vm(Vm& v) {
  // Dead first: from here on no dispatch, steal, IPI or hypercall path
  // touches this VM (cosched_eligible and the hypercall guards all check
  // `alive` before anything else).
  v.alive = false;
  weighted_vcpus_ -= static_cast<std::uint64_t>(v.num_vcpus()) * v.weight;
  v.paused = false;
  v.destroyed_at = sim_.now();
  const bool was = in_scheduler_;
  in_scheduler_ = true;
  sim_.cancel_timer(v.watchdog_ev);
  if (v.vcrd == Vcrd::kHigh) {  // close the HIGH interval for statistics
    v.vcrd_high_time += sim_.now() - v.vcrd_high_since;
    v.vcrd = Vcrd::kLow;
  }
  // Mid-gang retirement aborts the gang cleanly: each member's boost is
  // cancelled and it is drained through the audited transition paths —
  // running members unmap (burn/charge as usual), queued members leave
  // their run queues, blocked members tombstone in place.
  std::vector<PcpuId> freed;
  for (Vcpu& w : v.vcpus)
    if (drain_vcpu(w)) freed.push_back(w.where);
  v.guest = nullptr;  // after the drains, so offline callbacks reached it
  redispatch_freed(freed);
  maybe_restore_overload();  // load fell; the shed backoff still gates
  in_scheduler_ = was;
  audit_event(AuditPoint::kLifecycle);
}

bool Hypervisor::destroy_vm(VmId id) {
  if (id >= vms_.size() || !vms_[id]->alive) return false;
  Vm& v = *vms_[id];
  ++vm_destroys_;
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kSched,
                  [&] { return v.name + " destroyed"; });
  retire_vm(v);
  return true;
}

bool Hypervisor::resize_vm(VmId id, std::uint32_t n_vcpus) {
  if (id >= vms_.size() || n_vcpus == 0 || n_vcpus > kMaxVmVcpus ||
      !vms_[id]->alive)
    return false;
  Vm& v = *vms_[id];
  const auto n_old = static_cast<std::uint32_t>(v.num_vcpus());
  if (n_vcpus == n_old) return true;
  const bool was = in_scheduler_;
  if (n_vcpus > n_old) {
    double load = 0.0;
    if (!admit(n_vcpus - n_old, v.weight, load)) {
      sim::note_trace(trace_, sim_.now(), sim::TraceCat::kSched, [&] {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "admission reject: resize %s to %u VCPUs (load "
                      "%.2f/%.2f per PCPU)",
                      v.name.c_str(), n_vcpus, load,
                      admission_.max_vcpus_per_pcpu);
        return std::string(buf);
      });
      return false;
    }
    in_scheduler_ = true;
    // Grow: fresh runnable VCPUs with zero credit (the VM's pool is
    // re-split over the new count at the next accounting). Vm::vcpus is a
    // deque, so push_back leaves references to siblings intact.
    for (std::uint32_t i = n_old; i < n_vcpus; ++i) {
      v.vcpus.emplace_back();  // born kRunnable via Vcpu's default init
      Vcpu& c = v.vcpus.back();
      c.key = VcpuKey{id, i};
      c.where = place_new_vcpu(id, i, v);
      enqueue(c.where, &c);
    }
    weighted_vcpus_ += static_cast<std::uint64_t>(n_vcpus - n_old) * v.weight;
    audit_resized(id);
    maybe_shed_overload();
    // A grown gang may now collide with itself (or, topology-aware, spill
    // across more sockets than it needs); re-spread before launch.
    respread_gang(v);
    if (started_) defer_dispatch_idle();
  } else {
    in_scheduler_ = true;
    // Shrink: drain the top indices through the audited paths, then pop
    // the tombstones (lower indices keep their keys and queue slots).
    std::vector<PcpuId> freed;
    for (std::uint32_t i = n_old; i-- > n_vcpus;) {
      if (drain_vcpu(v.vcpus[i])) freed.push_back(v.vcpus[i].where);
      v.vcpus.pop_back();
    }
    weighted_vcpus_ -= static_cast<std::uint64_t>(n_old - n_vcpus) * v.weight;
    audit_resized(id);
    // Mid-gang shrink: survivors must hold pairwise-distinct PCPUs before
    // the next launch (the drained members may have pinned shared homes) —
    // and a smaller gang may now fit fewer sockets.
    respread_gang(v);
    redispatch_freed(freed);
    maybe_restore_overload();
  }
  ++vm_resizes_;
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kSched, [&] {
    return v.name + " resized " + std::to_string(n_old) + " -> " +
           std::to_string(n_vcpus) + " VCPUs";
  });
  in_scheduler_ = was;
  audit_event(AuditPoint::kLifecycle);
  return true;
}

// --- overload governor -------------------------------------------------------

void Hypervisor::maybe_shed_overload() {
  if (!admission_enabled() || overload_shed_) return;
  const double load = weighted_vcpu_load();
  if (load <= kShedLevel * admission_.max_vcpus_per_pcpu) return;
  overload_shed_ = true;
  overload_until_ = sim_.now() + slot_len_ * kRestoreBackoffSlots;
  ++overload_sheds_;
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kMonitor, [&] {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "overload shed: coscheduling off (load %.2f/%.2f per PCPU)",
                  load, admission_.max_vcpus_per_pcpu);
    return std::string(buf);
  });
  // Gangs that were eligible a moment ago still hold boosts and watchdogs;
  // strip them so every PCPU re-picks under stock credit rules. Fairness
  // is untouched — the members keep running as ordinary UNDER VCPUs.
  const bool was = in_scheduler_;
  in_scheduler_ = true;
  for (auto& vp : vms_) {
    Vm& v = *vp;
    if (!v.alive) continue;
    sim_.cancel_timer(v.watchdog_ev);
    if (wants_cosched(v) && !v.degraded) co_stop(v);
  }
  in_scheduler_ = was;
}

void Hypervisor::maybe_restore_overload() {
  if (!overload_shed_) return;
  if (sim_.now() < overload_until_) return;
  const double load = weighted_vcpu_load();
  if (load > kRestoreLevel * admission_.max_vcpus_per_pcpu) return;
  overload_shed_ = false;
  ++overload_restores_;
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kMonitor, [&] {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "overload restored: coscheduling on (load %.2f/%.2f per "
                  "PCPU)",
                  load, admission_.max_vcpus_per_pcpu);
    return std::string(buf);
  });
  // While shed, gang members drifted onto shared homes under stock rules;
  // regaining eligibility with a colliding placement would double-book a
  // PCPU at the next launch (excess-socket drift is repacked too).
  for (auto& vp : vms_) respread_gang(*vp);
}

}  // namespace asman::vmm
