#include "audit/auditor.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "vmm/state_spec.h"

namespace asman::audit {

namespace {

bool env_truthy(const char* name) {
  // The auditor's arming switch is host configuration, read once outside
  // the simulated world. asman-lint's determinism check proves this shape
  // directly (confined host-config read: the pointer binds to a const
  // local used only in comparisons/strcmp and never escapes), so no
  // allow(...) pragma is needed.
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

const char* state_name(vmm::VcpuState s) {
  switch (s) {
    case vmm::VcpuState::kRunning:
      return "Running";
    case vmm::VcpuState::kRunnable:
      return "Runnable";
    case vmm::VcpuState::kBlocked:
      return "Blocked";
    case vmm::VcpuState::kDestroyed:
      return "Destroyed";
  }
  return "?";
}

std::string key_str(vmm::VcpuKey k) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "v%u.%u", k.vm, k.idx);
  return buf;
}

/// Queue-partition finding for a VCPU whose reference counts do not fit
/// its state.
std::string misreferenced(const vmm::Vcpu& c, std::size_t queued,
                          std::size_t running) {
  const std::string q = std::to_string(queued);
  const std::string r = std::to_string(running);
  switch (c.state) {
    case vmm::VcpuState::kRunnable:
      return key_str(c.key) + " runnable but queued on " + q +
             " queue(s), current on " + r + " PCPU(s)";
    case vmm::VcpuState::kRunning:
      return key_str(c.key) + " running but current on " + r +
             " PCPU(s), queued on " + q + " queue(s)";
    case vmm::VcpuState::kBlocked:
    case vmm::VcpuState::kDestroyed:
      return key_str(c.key) +
             (c.state == vmm::VcpuState::kBlocked ? " blocked" : " destroyed") +
             " but still referenced (queued " + q + ", running " + r + ")";
  }
  return key_str(c.key);
}

/// check_now flags its findings invariant by invariant in this order, each
/// invariant's in walk order: first offenders and fatal aborts are stable.
constexpr Invariant kScanReportOrder[] = {
    Invariant::kCreditBounds,
    Invariant::kQueuePartition,
    Invariant::kGangCoherence,
    Invariant::kCycleConservation,
    Invariant::kPressureConservation,
    Invariant::kStateMachine,
};

}  // namespace

bool audit_env_enabled() { return env_truthy("ASMAN_AUDIT"); }
bool audit_fatal_env() { return env_truthy("ASMAN_AUDIT_FATAL"); }

Auditor::Auditor(sim::Simulator& simulation, vmm::Hypervisor& hv,
                 AuditorConfig cfg)
    : sim_(simulation), hv_(hv), cfg_(cfg) {
  if (cfg_.stride == 0) cfg_.stride = 1;
  if (audit_fatal_env()) cfg_.fatal = true;
  clock_ = [this] { return sim_.now(); };
  extend_shadow();
  hv_.set_audit_sink(this);
}

Auditor::~Auditor() {
  if (hv_.audit_sink() == this) hv_.set_audit_sink(nullptr);
}

void Auditor::set_clock(std::function<sim::Cycles()> clock) {
  clock_ = std::move(clock);
}

void Auditor::flag(Invariant inv, std::string what) {
  AuditReport::Entry& e = report_.entry(inv);
  ++e.violations;
  if (e.violations == 1) {
    e.first_offender = what;
    e.first_at = clock_();
  }
  if (cfg_.fatal) {
    std::fprintf(stderr, "%s", report_.summary().c_str());
    std::fprintf(stderr, "ASMAN_AUDIT_FATAL: invariant %s violated at %llu: %s\n",
                 to_string(inv), static_cast<unsigned long long>(clock_().v),
                 what.c_str());
    std::abort();
  }
}

void Auditor::observe_time() {
  const sim::Cycles t = clock_();
  ++report_.entry(Invariant::kTimeMonotonic).checks;
  if (saw_time_ && t < last_time_)
    flag(Invariant::kTimeMonotonic,
         "event time went backwards: " + std::to_string(last_time_.v) +
             " -> " + std::to_string(t.v));
  saw_time_ = true;
  last_time_ = t;
}

void Auditor::snapshot_pools() {
  pool_before_.assign(hv_.num_vms(), 0);
  for (vmm::VmId id = 0; id < hv_.num_vms(); ++id) {
    std::int64_t pool = 0;
    for (const vmm::Vcpu& c : hv_.vm(id).vcpus) pool += c.credit;
    pool_before_[id] = pool;
  }
}

void Auditor::extend_shadow() {
  while (shadow_.size() < hv_.num_vms()) {
    const vmm::Vm& v = hv_.vm(static_cast<vmm::VmId>(shadow_.size()));
    std::vector<vmm::VcpuState>& row = shadow_.emplace_back();
    row.reserve(v.num_vcpus());
    for (const vmm::Vcpu& c : v.vcpus) row.push_back(c.state);
  }
}

void Auditor::check_now() {
  ++report_.full_scans;
  const vmm::Hypervisor& hv = hv_;
  const std::uint32_t num_pcpus = hv.machine().num_pcpus;
  const std::size_t num_vms = hv.num_vms();
  found_.clear();

  // Index the VCPUs: per-VM offsets into the flat reference counts. The VM
  // side of the machine-wide cycle ledger rides along.
  vcpu_base_.resize(num_vms + 1);
  std::size_t num_vcpus = 0;
  std::uint64_t vm_online = 0;
  for (vmm::VmId id = 0; id < num_vms; ++id) {
    const vmm::Vm& v = hv.vm(id);
    vcpu_base_[id] = num_vcpus;
    num_vcpus += v.num_vcpus();
    vm_online += v.total_online.v;
  }
  vcpu_base_[num_vms] = num_vcpus;
  refs_.assign(num_vcpus, VcpuRefs{});

  // Pass 1, the PCPUs: count every queue entry and current, and check each
  // against the PCPU that holds it.
  std::uint64_t ref_checks = 0;
  const auto check_ref = [&](const vmm::Vcpu* c, hw::PcpuId p, bool current) {
    ++ref_checks;
    // It counts toward a VCPU only if it points at that VCPU's own record: a
    // stray pointer (or a record with a rewritten key) matches none, and the
    // VCPU it should have been shows up unreferenced in pass 2.
    const vmm::VcpuKey k = c->key;
    if (k.vm < num_vms) {
      const std::size_t slot = vcpu_base_[k.vm] + k.idx;
      if (slot < vcpu_base_[k.vm + 1] && &hv.vm(k.vm).vcpus[k.idx] == c)
        ++(current ? refs_[slot].running : refs_[slot].queued);
    }
    const char* held = current ? " current on P" : " queued on P";
    if (c->state != (current ? vmm::VcpuState::kRunning
                             : vmm::VcpuState::kRunnable))
      found_.push_back({Invariant::kQueuePartition,
                        key_str(c->key) + held + std::to_string(p) +
                            (current ? " but not kRunning"
                                     : " but not kRunnable")});
    if (c->where != p)
      found_.push_back({Invariant::kQueuePartition,
                        key_str(c->key) + held + std::to_string(p) +
                            " but where=P" + std::to_string(c->where)});
  };
  std::uint64_t pcpu_busy = 0;
  for (hw::PcpuId p = 0; p < num_pcpus; ++p) {
    for (const vmm::Vcpu* c : hv.runqueue(p).entries()) check_ref(c, p, false);
    if (const vmm::Vcpu* cur = hv.running_on(p)) check_ref(cur, p, true);
    pcpu_busy += hv.pcpu_busy_total(p).v;
  }

  // Machine-wide cycle ledger: VM-side online time and PCPU-side busy time
  // are maintained at the same burn instants, so they agree exactly at
  // every event boundary — an in-flight span is absent from both sides.
  // Per-VM totals survive destruction (tombstone statistics), so the
  // equality holds across the whole lifecycle including churn.
  if (vm_online != pcpu_busy)
    found_.push_back({Invariant::kCycleConservation,
                      "consumed-cycle ledger split: VMs consumed " +
                          std::to_string(vm_online) +
                          " cycles but PCPUs were busy " +
                          std::to_string(pcpu_busy)});

  // Pass 2, one walk over VMs and their VCPUs for every per-VM and
  // per-VCPU check.
  gang_at_.resize(num_pcpus);
  const vmm::Credit cap = hv.credit_cap();
  const std::uint64_t slot = hv.machine().slot_cycles().v;
  const bool exact_accounting =
      hv.resilience().accounting == vmm::AccountingMode::kExact;
  std::uint64_t gang_checks = 0;
  std::uint64_t shadow_checks = 0;
  std::uint64_t accounted = 0;
  std::uint64_t degraded = 0;
  std::uint64_t effective = 0;
  for (vmm::VmId id = 0; id < num_vms; ++id) {
    const vmm::Vm& v = hv.vm(id);
    // Placement is only promised when a gang can fit (Algorithm 3 gives up
    // when a VM has more VCPUs than the machine has PCPUs).
    const bool gang = hv.gang_scheduled(id) && v.num_vcpus() <= num_pcpus;
    if (gang) {
      ++gang_checks;
      ++gang_epoch_;
    }
    const std::size_t shadowed = id < shadow_.size() ? shadow_[id].size() : 0;
    std::size_t i = 0;
    for (const vmm::Vcpu& c : v.vcpus) {
      if (c.credit > cap || c.credit < -cap)
        found_.push_back({Invariant::kCreditBounds,
                          key_str(c.key) + " credit " +
                              std::to_string(c.credit) + " outside [-" +
                              std::to_string(cap) + ", " +
                              std::to_string(cap) + "]"});

      // A runnable VCPU sits in exactly one queue, a running one is current
      // on exactly one PCPU, any other is referenced by neither.
      const VcpuRefs& refs = refs_[vcpu_base_[id] + i];
      if (refs.queued != (c.state == vmm::VcpuState::kRunnable ? 1u : 0u) ||
          refs.running != (c.state == vmm::VcpuState::kRunning ? 1u : 0u))
        found_.push_back({Invariant::kQueuePartition,
                          misreferenced(c, refs.queued, refs.running)});
      if (c.where >= num_pcpus) {
        // Never index by it: report it and leave it out of gang placement.
        found_.push_back({Invariant::kQueuePartition,
                          key_str(c.key) + " where=P" +
                              std::to_string(c.where) + " outside the " +
                              std::to_string(num_pcpus) + " PCPUs"});
      } else if (gang) {
        GangMark& mark = gang_at_[c.where];
        if (mark.epoch == gang_epoch_)
          found_.push_back({Invariant::kGangCoherence,
                            v.name + ": " + key_str(c.key) + " and " +
                                key_str(mark.holder->key) +
                                " both placed on P" +
                                std::to_string(c.where)});
        mark = {gang_epoch_, &c};
      }

      // Shadow consistency: the hypervisor's actual lifecycle states must
      // match what the legal transition stream implies.
      if (i < shadowed) {
        ++shadow_checks;
        const vmm::VcpuState expect = shadow_[id][i];
        if (c.state != expect)
          found_.push_back({Invariant::kStateMachine,
                            key_str(c.key) + " is " + state_name(c.state) +
                                " but the transition stream says " +
                                state_name(expect)});
      }
      ++i;
    }

    if (exact_accounting) {
      // Tickless accounting bills every burned span in full, at the same
      // instants: attribution must track consumption exactly.
      if (v.cycles_attributed != v.total_online)
        found_.push_back({Invariant::kCycleConservation,
                          v.name + " attributed " +
                              std::to_string(v.cycles_attributed.v) +
                              " != consumed " +
                              std::to_string(v.total_online.v) +
                              " under exact accounting"});
    } else if (v.cycles_attributed.v % slot != 0) {
      // Sampled accounting only ever bills whole slots.
      found_.push_back({Invariant::kCycleConservation,
                        v.name + " attributed " +
                            std::to_string(v.cycles_attributed.v) +
                            " cycles, not a whole-slot multiple of " +
                            std::to_string(slot)});
    }

    // Pressure ledger, integer-exact: tombstones keep their final ledgers,
    // so the per-VM sums and the machine totals — maintained at the same
    // apply_contention instants — can only diverge if someone wrote the
    // ledger outside the audited seam. (The partition half is event-scoped
    // to engine passes: on_contention.)
    if (v.pressure_effective + v.pressure_degraded != v.pressure_accounted)
      found_.push_back({Invariant::kPressureConservation,
                        v.name + " pressure ledger split: effective " +
                            std::to_string(v.pressure_effective) +
                            " + degraded " +
                            std::to_string(v.pressure_degraded) +
                            " != accounted " +
                            std::to_string(v.pressure_accounted)});
    accounted += v.pressure_accounted;
    degraded += v.pressure_degraded;
    effective += v.pressure_effective;
  }
  if (accounted != hv.pressure_accounted_total() ||
      degraded != hv.pressure_degraded_total() ||
      effective != hv.pressure_effective_total())
    found_.push_back({Invariant::kPressureConservation,
                      "machine pressure totals diverge from per-VM sums: "
                      "accounted " +
                          std::to_string(hv.pressure_accounted_total()) +
                          "/" + std::to_string(accounted) + ", degraded " +
                          std::to_string(hv.pressure_degraded_total()) +
                          "/" + std::to_string(degraded) + ", effective " +
                          std::to_string(hv.pressure_effective_total()) +
                          "/" + std::to_string(effective)});

  report_.entry(Invariant::kCreditBounds).checks += num_vcpus;
  report_.entry(Invariant::kQueuePartition).checks += ref_checks + num_vcpus;
  report_.entry(Invariant::kGangCoherence).checks += gang_checks;
  report_.entry(Invariant::kCycleConservation).checks += 1 + num_vms;
  report_.entry(Invariant::kPressureConservation).checks += num_vms + 1;
  report_.entry(Invariant::kStateMachine).checks += shadow_checks;
  for (const Invariant inv : kScanReportOrder)
    for (Violation& viol : found_)
      if (viol.kind == inv) flag(inv, std::move(viol.what));
}

void Auditor::on_sched_event(vmm::AuditPoint p) {
  ++report_.events;
  observe_time();
  if (p == vmm::AuditPoint::kAccountingBegin) {
    snapshot_pools();
    return;  // mid-entry: the full scan runs at kAccountingEnd
  }
  if (++scan_counter_ % cfg_.stride == 0) check_now();
}

void Auditor::on_state_change(vmm::VcpuKey k, vmm::VcpuState from,
                              vmm::VcpuState to) {
  ++report_.events;
  observe_time();
  AuditReport::Entry& e = report_.entry(Invariant::kStateMachine);
  ++e.checks;
  // The legal relation lives in vmm/state_spec.h — one definition shared
  // with asman-lint's static state-machine proof.
  if (!vmm::legal_transition(from, to))
    flag(Invariant::kStateMachine, key_str(k) + " illegal transition " +
                                       state_name(from) + " -> " +
                                       state_name(to));
  if (k.vm < shadow_.size() && k.idx < shadow_[k.vm].size()) {
    if (shadow_[k.vm][k.idx] != from)
      flag(Invariant::kStateMachine,
           key_str(k) + " transition claims from=" + std::string(state_name(from)) +
               " but the VCPU was " + state_name(shadow_[k.vm][k.idx]));
    shadow_[k.vm][k.idx] = to;
  }
}

void Auditor::on_accounting(vmm::VmId id, std::int64_t minted) {
  ++report_.events;
  observe_time();
  AuditReport::Entry& e = report_.entry(Invariant::kCreditConservation);
  ++e.checks;
  const vmm::Vm& v = hv_.vm(id);
  const hw::MachineConfig& m = hv_.machine();
  // Widened exactly like the scheduler's own mint computation: the int64
  // product of num_pcpus * kCreditPerSlot * slots_per_accounting overflows
  // (UB) well inside the valid config space.
  const std::int64_t total_mint =
      static_cast<std::int64_t>(static_cast<__int128>(m.num_pcpus) *
                                vmm::kCreditPerSlot *
                                m.slots_per_accounting);
  if (minted < 0 || minted > total_mint) {
    flag(Invariant::kCreditConservation,
         v.name + " minted " + std::to_string(minted) +
             " outside [0, " + std::to_string(total_mint) + "]");
    return;
  }
  if (id >= pool_before_.size()) return;  // attached mid-period: no baseline
  // Recompute Algorithm 3's redistribution: pool + mint, split equally
  // (C++ truncating division, as the scheduler does), saturated at +cap.
  const auto n = static_cast<std::int64_t>(v.num_vcpus());
  const std::int64_t per = (pool_before_[id] + minted) / n;
  const std::int64_t expect = std::min<std::int64_t>(per, hv_.credit_cap());
  for (const vmm::Vcpu& c : v.vcpus) {
    if (c.credit != expect) {
      flag(Invariant::kCreditConservation,
           key_str(c.key) + " credit " + std::to_string(c.credit) +
               " after accounting, expected " + std::to_string(expect) +
               " (pool " + std::to_string(pool_before_[id]) + " + mint " +
               std::to_string(minted) + " over " + std::to_string(n) +
               " VCPUs)");
      return;
    }
  }
}

void Auditor::on_seeded(vmm::VmId id, __int128 pool) {
  ++report_.events;
  observe_time();
  AuditReport::Entry& e = report_.entry(Invariant::kCreditConservation);
  ++e.checks;
  const vmm::Vm& v = hv_.vm(id);
  // Recompute seed_credit's split from the authoritative transferred pool:
  // truncating equal division, clamped to the saturation cap on both sides
  // (a deeply indebted VM migrates with its debt, bounded like any balance).
  const auto n = static_cast<__int128>(v.num_vcpus());
  __int128 share = pool / n;
  const auto cap = static_cast<__int128>(hv_.credit_cap());
  if (share > cap) share = cap;
  if (share < -cap) share = -cap;
  const auto expect = static_cast<std::int64_t>(share);
  for (const vmm::Vcpu& c : v.vcpus) {
    if (c.credit != expect) {
      flag(Invariant::kCreditConservation,
           key_str(c.key) + " credit " + std::to_string(c.credit) +
               " after migration seeding, expected " + std::to_string(expect));
      return;
    }
  }
}

void Auditor::on_vm_created(vmm::VmId id) {
  ++report_.events;
  observe_time();
  // Extend the shadow with the new VM's rows before the kLifecycle scan
  // compares them (its VCPUs are kRunnable and already queued).
  extend_shadow();
  (void)id;
}

void Auditor::on_relocated(vmm::VmId id) {
  ++report_.events;
  observe_time();
  // Event-scoped check: the topology-placement contract only binds at the
  // instant relocate_vm finishes (members drift legally in between), so the
  // checker runs here for the relocated VM and nowhere in the full scans.
  std::vector<Violation> found;
  report_.entry(Invariant::kTopologyPlacement).checks +=
      check_topology_placement(hv_, id, found);
  for (Violation& viol : found) flag(viol.kind, std::move(viol.what));
}

void Auditor::on_contention() {
  ++report_.events;
  observe_time();
  AuditReport::Entry& e = report_.entry(Invariant::kPressureConservation);
  // Event-scoped partition half of the invariant: rebuild the engine's
  // input from the hypervisor's authoritative public state and recompute
  // the pass with the same shared function (one definition, two callers —
  // the state_spec idiom), then compare against what the scheduler
  // published. Any divergence means a home or footprint changed without
  // flowing through the audited paths. (The pressure balancer runs after
  // this hook precisely so placement here is still the placement the
  // scheduler fed compute_contention.)
  const vmm::Hypervisor& hv = hv_;
  const hw::Topology& topo = hv.topology();
  const hw::memsys::ContentionPass& pub = hv.pressure_last();
  ++e.checks;
  if (pub.vm_llc_demand.size() != hv.num_vms()) {
    flag(Invariant::kPressureConservation,
         "published pass covers " + std::to_string(pub.vm_llc_demand.size()) +
             " VMs, hypervisor holds " + std::to_string(hv.num_vms()));
    return;
  }
  // (a) Partition arithmetic of the published pass itself: granted is
  // elementwise bounded by demand and the per-LLC columns sum exactly to
  // min(capacity, demand) — a skewed occupancy cannot hide in rounding.
  const std::uint64_t cap = hv.machine().llc_bytes;
  for (std::uint32_t l = 0; l < topo.num_llcs(); ++l) {
    ++e.checks;
    std::uint64_t col_demand = 0;
    std::uint64_t col_granted = 0;
    for (vmm::VmId id = 0; id < hv.num_vms(); ++id) {
      if (pub.vm_llc_granted[id][l] > pub.vm_llc_demand[id][l])
        flag(Invariant::kPressureConservation,
             hv.vm(id).name + " granted " +
                 std::to_string(pub.vm_llc_granted[id][l]) +
                 " > demanded " + std::to_string(pub.vm_llc_demand[id][l]) +
                 " on LLC " + std::to_string(l));
      col_demand += pub.vm_llc_demand[id][l];
      col_granted += pub.vm_llc_granted[id][l];
    }
    const std::uint64_t expect = std::min(cap, col_demand);
    if (col_demand != pub.llc_demand[l] || col_granted != pub.llc_granted[l] ||
        (col_demand > 0 && col_granted != expect))
      flag(Invariant::kPressureConservation,
           "LLC " + std::to_string(l) + " occupancy not a partition: demand " +
               std::to_string(pub.llc_demand[l]) + "/" +
               std::to_string(col_demand) + ", granted " +
               std::to_string(pub.llc_granted[l]) + "/" +
               std::to_string(col_granted) + ", expected grant " +
               std::to_string(expect));
  }
  // (b) Independent recomputation from authoritative placement: the
  // published matrices must be reproducible from public state alone.
  // A home outside the machine is the full scan's queue-partition finding;
  // it is left out here rather than indexed past the topology.
  loads_.resize(hv.num_vms());
  for (vmm::VmId id = 0; id < hv.num_vms(); ++id) {
    hw::memsys::VmLoad& load = loads_[id];
    load.clear();
    const vmm::Vm& v = hv.vm(id);
    if (!v.alive) continue;
    const hw::memsys::MemFootprint& fp = hv.vm_footprint(id);
    if (fp.zero()) continue;
    load.fp = &fp;
    for (const vmm::Vcpu& c : v.vcpus) {
      if (c.where >= hv.machine().num_pcpus) continue;
      load.vcpu_llc.push_back(topo.llc_of(c.where));
      load.vcpu_socket.push_back(topo.socket_of(c.where));
    }
  }
  hw::memsys::compute_contention(topo, cap,
                                 hv.machine().socket_mem_bw_bytes_per_s, loads_,
                                 recomputed_);
  ++e.checks;
  if (recomputed_.llc_demand != pub.llc_demand ||
      recomputed_.vm_llc_demand != pub.vm_llc_demand ||
      recomputed_.vm_llc_granted != pub.vm_llc_granted)
    flag(Invariant::kPressureConservation,
         "published occupancy partition does not match independent "
         "recomputation from authoritative placement");
  // (c) Ledger freshness: the engine just accounted everything — every
  // live VCPU's mark must sit exactly at its consumed-cycle meter.
  for (vmm::VmId id = 0; id < hv.num_vms(); ++id) {
    const vmm::Vm& v = hv.vm(id);
    if (!v.alive) continue;
    for (const vmm::Vcpu& c : v.vcpus) {
      ++e.checks;
      if (c.pressure_mark != c.total_online)
        flag(Invariant::kPressureConservation,
             key_str(c.key) + " pressure mark " +
                 std::to_string(c.pressure_mark.v) + " lags total_online " +
                 std::to_string(c.total_online.v) + " after an engine pass");
    }
  }
}

void Auditor::on_vm_resized(vmm::VmId id) {
  ++report_.events;
  observe_time();
  if (id >= shadow_.size()) return;
  const vmm::Vm& v = hv_.vm(id);
  std::vector<vmm::VcpuState>& row = shadow_[id];
  if (v.num_vcpus() < row.size()) {
    // Shrink: the drained records' ->Destroyed transitions already advanced
    // the shadow; just drop the tails with them.
    row.resize(v.num_vcpus());
  } else {
    while (row.size() < v.num_vcpus()) row.push_back(v.vcpus[row.size()].state);
  }
}

}  // namespace asman::audit
