#include "cluster/cluster.h"

#include <cassert>
#include <utility>

#include "cluster/cluster_auditor.h"

namespace asman::cluster {

using sim::Cycles;

const char* to_string(MigrationPhase p) {
  switch (p) {
    case MigrationPhase::kIdle:
      return "idle";
    case MigrationPhase::kPreCopy:
      return "pre-copy";
    case MigrationPhase::kStopAndCopy:
      return "stop-and-copy";
    case MigrationPhase::kCommit:
      return "commit";
    case MigrationPhase::kAbort:
      return "abort";
  }
  return "?";
}

Cluster::Cluster(sim::Simulator& simulation, const ClusterConfig& cfg)
    : sim_(simulation), cfg_(cfg), recovery_(cfg.recovery) {
  hosts_.reserve(cfg_.num_hosts);
  for (std::uint32_t h = 0; h < cfg_.num_hosts; ++h) {
    HostRec hr;
    hr.hv = core::make_scheduler(cfg_.scheduler, sim_, cfg_.machine, cfg_.mode);
    hr.hv->set_resilience(cfg_.resilience);
    hr.hv->set_admission(cfg_.admission);
    hosts_.push_back(std::move(hr));
  }
}

Cluster::~Cluster() = default;

HostId Cluster::next_host(HostId after, HostId exclude) const {
  // Least weighted VCPU load first, memory pressure folded in (a host
  // losing a fifth of its cycles to contention effectively has a fifth
  // fewer PCPUs, so its score is scaled up by the degraded fraction),
  // index breaking ties. Both inputs are pure functions of deterministic
  // state — and pressure_score() is exactly 0.0 on hosts whose contention
  // engine is inert — so the order is reproducible. Each score is O(1), so
  // one step of the walk is one pass over the fleet. Scores are finite and
  // >= 0, and a host's admission reject moves no score, so stepping from
  // the host just tried visits the hosts in sorted (score, index) order.
  const auto score = [this](HostId h) {
    const vmm::Hypervisor& hv = *hosts_[h].hv;
    return hv.weighted_vcpu_load() * (1.0 + hv.pressure_score());
  };
  const bool from_start = after == kInvalidHostId;
  const double after_score = from_start ? 0.0 : score(after);
  HostId best = kInvalidHostId;
  double best_score = 0.0;
  for (HostId h = 0; h < hosts_.size(); ++h) {
    if (h == exclude || !hosts_[h].alive || hosts_[h].degraded) continue;
    const double sc = score(h);
    if (!from_start &&
        (sc < after_score || (sc == after_score && h <= after)))
      continue;  // not strictly after `after` in (score, index) order
    if (best == kInvalidHostId || sc < best_score) {  // ties: lower index
      best = h;
      best_score = sc;
    }
  }
  return best;
}

HostId Cluster::pick_host(HostId exclude) const {
  return next_host(kInvalidHostId, exclude);
}

ClusterVmId Cluster::admit(const ClusterVmSpec& spec) {
  for (HostId h = pick_host(); h != kInvalidHostId;
       h = next_host(h, kInvalidHostId)) {
    const vmm::VmId local = hosts_[h].hv->create_vm(spec.name, spec.weight,
                                                    spec.vcpus, spec.type);
    if (local == vmm::kInvalidVmId) continue;  // fall through the load order
    VmRecord r;
    r.id = static_cast<ClusterVmId>(vms_.size());
    r.name = spec.name;
    r.weight = spec.weight;
    r.vcpus = spec.vcpus;
    r.type = spec.type;
    r.ram_mb = spec.ram_mb;
    r.host = h;
    r.local = local;
    vms_.push_back(std::move(r));
    snapshot_heartbeat(vms_.back());
    audit_cluster_event();
    return vms_.back().id;
  }
  ++admission_rejects_;
  return kInvalidClusterVmId;
}

bool Cluster::retire(ClusterVmId id) {
  if (id >= vms_.size()) return false;
  VmRecord& r = vms_[id];
  if (r.lost || r.retired) return false;
  if (r.host == kInvalidHostId || !hosts_[r.host].alive) return false;
  for (auto& mp : migrations_)
    if (mp->active && mp->vm == id) abort_migration(*mp);
  host(r.host).destroy_vm(r.local);
  r.retired = true;
  r.migrating = false;
  audit_cluster_event();
  return true;
}

bool Cluster::vm_resident(ClusterVmId id) const {
  if (id >= vms_.size()) return false;
  const VmRecord& r = vms_[id];
  return !r.lost && !r.retired && r.host != kInvalidHostId &&
         hosts_[r.host].alive && r.local != vmm::kInvalidVmId &&
         host(r.host).vm_alive(r.local);
}

MigrationPhase Cluster::migration_phase(ClusterVmId id) const {
  for (auto it = migrations_.rbegin(); it != migrations_.rend(); ++it)
    if ((*it)->active && (*it)->vm == id) return (*it)->phase;
  return MigrationPhase::kIdle;
}

void Cluster::inject(const faults::FaultPlan& plan) {
  assert(!started_);
  for (const faults::HostFaultSpec& f : plan.host) host_faults_.push_back(f);
}

void Cluster::start() {
  assert(!started_);
  // Resolve the zero-valued recovery knobs from the machine config.
  recovery_ = cfg_.recovery;
  const Cycles acct = cfg_.machine.accounting_cycles();
  const Cycles slot = cfg_.machine.slot_cycles();
  if (recovery_.max_precopy_rounds == 0) recovery_.max_precopy_rounds = 8;
  if (recovery_.max_phase_retries == 0) recovery_.max_phase_retries = 3;
  if (recovery_.phase_timeout.v == 0)
    recovery_.phase_timeout = Cycles{acct.v * 8};
  if (recovery_.retry_backoff.v == 0) recovery_.retry_backoff = slot;
  if (recovery_.max_downtime.v == 0)
    recovery_.max_downtime = Cycles{slot.v / 10};
  if (recovery_.heartbeat_period.v == 0) recovery_.heartbeat_period = acct;
  // Attach after the boot-time admissions, before the hosts start: each
  // host auditor snapshots the initial VCPU states and then sees every
  // scheduling event; the cluster auditor sees every fabric event.
  if (cfg_.audit || audit::audit_env_enabled()) {
    audit::AuditorConfig ac;
    ac.stride = cfg_.audit_stride;
    for (HostRec& hr : hosts_)
      hr.auditor = std::make_unique<audit::Auditor>(sim_, *hr.hv, ac);
    cluster_auditor_ =
        std::make_unique<ClusterAuditor>(*this, audit::audit_fatal_env());
  }
  for (HostRec& hr : hosts_) hr.hv->start();
  for (const faults::HostFaultSpec& f : host_faults_) {
    if (f.host >= hosts_.size()) continue;
    switch (f.kind) {
      case faults::HostFaultKind::kHostCrash:
        sim_.at(f.at, [this, h = f.host] { crash_host_now(h); });
        break;
      case faults::HostFaultKind::kHostDegraded:
        sim_.at(f.at,
                [this, h = f.host, d = f.duration] { degrade_host(h, d); });
        break;
      case faults::HostFaultKind::kMigrationLinkLoss:
        // Pure time-window data; link_down() consults the spec list.
        break;
    }
  }
  started_ = true;
  heartbeat_lane_ = sim_.lane(recovery_.heartbeat_period);
  sim_.after(heartbeat_lane_, [this] { heartbeat(); });
  audit_cluster_event();
}

// --- migration state machine ---

void Cluster::set_phase(MigrationRec& m, MigrationPhase to) {
  assert(legal_migration_transition(m.phase, to));
  const MigrationPhase from = m.phase;
  m.phase = to;
  ++phase_transitions_;
  if (phase_hook_) phase_hook_(m.vm, from, to);
}

bool Cluster::migrate(ClusterVmId id, HostId dst) {
  if (!started_ || id >= vms_.size() || dst >= hosts_.size()) return false;
  VmRecord& r = vms_[id];
  if (r.lost || r.retired || r.migrating) return false;
  if (r.host == kInvalidHostId || !hosts_[r.host].alive) return false;
  if (dst == r.host || !hosts_[dst].alive || hosts_[dst].degraded)
    return false;
  auto rec = std::make_unique<MigrationRec>();
  rec->vm = id;
  rec->src = r.host;
  rec->dst = dst;
  rec->bytes_left = r.ram_mb << 20;
  rec->active = true;
  migrations_.push_back(std::move(rec));
  const std::size_t mi = migrations_.size() - 1;
  MigrationRec& m = *migrations_[mi];
  r.migrating = true;
  ++migrations_started_;
  assert(m.phase == MigrationPhase::kIdle);
  set_phase(m, MigrationPhase::kPreCopy);
  begin_attempt(mi);
  return true;
}

Cycles Cluster::copy_cycles(std::uint64_t bytes) const {
  // Integer-exact: cycles = bytes * freq / link_bytes_per_s, widened so
  // multi-GB images at multi-GHz clocks cannot overflow.
  const unsigned __int128 num =
      static_cast<unsigned __int128>(bytes) * cfg_.machine.freq_hz;
  const std::uint64_t bps = cfg_.model.link_mb_per_s << 20;
  std::uint64_t c = static_cast<std::uint64_t>(num / bps);
  if (c == 0) c = 1;  // even an empty image takes one cycle to hand over
  return Cycles{c};
}

bool Cluster::link_down(const MigrationRec& m) const {
  const Cycles now = sim_.now();
  for (const faults::HostFaultSpec& f : host_faults_) {
    if (f.kind != faults::HostFaultKind::kMigrationLinkLoss) continue;
    if (f.host != m.src && f.host != m.dst) continue;
    if (now < f.at) continue;
    if (f.duration.v != 0 && now >= f.at + f.duration) continue;
    return true;  // duration 0 = down for the rest of the run
  }
  return false;
}

void Cluster::begin_attempt(std::size_t mi) {
  MigrationRec& m = *migrations_[mi];
  if (!m.active) return;
  const Cycles need = copy_cycles(m.bytes_left);
  if (need > recovery_.phase_timeout) {
    m.events.after(sim_, recovery_.phase_timeout, [this, mi] {
      if (!migrations_[mi]->active) return;
      ++phase_timeouts_;
      fail_attempt(mi);
    });
  } else {
    m.events.after(sim_, need, [this, mi] { finish_copy(mi); });
  }
}

void Cluster::finish_copy(std::size_t mi) {
  MigrationRec& m = *migrations_[mi];
  if (!m.active) return;
  if (link_down(m)) {
    ++link_failures_;
    fail_attempt(mi);
    return;
  }
  if (m.phase == MigrationPhase::kStopAndCopy) {
    commit(mi);
    return;
  }
  ++precopy_rounds_;
  ++m.round;
  // The guest kept dirtying pages while the round copied them.
  m.bytes_left = m.bytes_left * cfg_.model.dirty_pct / 100;
  if (copy_cycles(m.bytes_left) <= recovery_.max_downtime ||
      m.round >= recovery_.max_precopy_rounds)
    enter_stop_and_copy(mi);
  else
    begin_attempt(mi);
}

void Cluster::fail_attempt(std::size_t mi) {
  MigrationRec& m = *migrations_[mi];
  ++m.retries;
  if (m.retries > recovery_.max_phase_retries) {
    abort_migration(m);
    return;
  }
  ++migrations_retried_;
  if (m.phase == MigrationPhase::kStopAndCopy) {
    // Give the guest its CPU back and iterate more pre-copy rounds before
    // re-attempting the downtime window.
    VmRecord& r = vms_[m.vm];
    if (hosts_[m.src].alive) host(m.src).resume_vm(r.local);
    assert(m.phase == MigrationPhase::kStopAndCopy);
    set_phase(m, MigrationPhase::kPreCopy);
  }
  const Cycles backoff{recovery_.retry_backoff.v << (m.retries - 1)};
  m.events.after(sim_, backoff, [this, mi] { begin_attempt(mi); });
}

void Cluster::enter_stop_and_copy(std::size_t mi) {
  MigrationRec& m = *migrations_[mi];
  VmRecord& r = vms_[m.vm];
  assert(m.phase == MigrationPhase::kPreCopy);
  set_phase(m, MigrationPhase::kStopAndCopy);
  // The downtime window opens: the guest freezes while the last dirty
  // pages drain.
  host(m.src).pause_vm(r.local);
  begin_attempt(mi);
}

void Cluster::commit(std::size_t mi) {
  MigrationRec& m = *migrations_[mi];
  VmRecord& r = vms_[m.vm];
  assert(m.phase == MigrationPhase::kStopAndCopy);
  set_phase(m, MigrationPhase::kCommit);
  // The commit is atomic: capture, retire the source copy, seed the
  // destination — all inside this one event, so no boundary ever sees
  // the VM twice (or not at all).
  const __int128 expected = resident_pool(r);
  const vmm::MigrationTicket t = host(m.src).migrate_out(r.local);
  __int128 seeded = 0;
  const vmm::VmId dst_local = host(m.dst).migrate_in(t, &seeded);
  if (dst_local != vmm::kInvalidVmId) {
    r.host = m.dst;
    r.local = dst_local;
    ++migrations_committed_;
    note_transfer("commit", expected, t.credit_pool, seeded);
  } else {
    // Admission slammed shut between placement and commit: the
    // destination tombstones its copy and the source re-admits from the
    // very ticket it minted (it just freed exactly this VM's capacity).
    ++tombstoned_copies_;
    ++migrations_aborted_;
    const vmm::VmId back = host(m.src).migrate_in(t, &seeded);
    if (back != vmm::kInvalidVmId) {
      r.local = back;
    } else {
      r.lost = true;
      ++vms_lost_;
    }
    note_transfer("commit-rollback", expected, t.credit_pool, seeded);
  }
  if (!r.lost) snapshot_heartbeat(r);
  r.migrating = false;
  m.active = false;
  assert(m.phase == MigrationPhase::kCommit);
  set_phase(m, MigrationPhase::kIdle);
  audit_cluster_event();
}

void Cluster::abort_migration(MigrationRec& m) {
  // Legal from both copy phases; the seam asserts the edge.
  set_phase(m, MigrationPhase::kAbort);
  m.events.cancel_all(sim_);
  VmRecord& r = vms_[m.vm];
  // Source authoritative: the VM never left it. Un-pause if stop-and-copy
  // had frozen it and the host still lives.
  if (r.host == m.src && hosts_[m.src].alive &&
      r.local != vmm::kInvalidVmId && host(m.src).vm_alive(r.local))
    host(m.src).resume_vm(r.local);
  // The destination discards whatever partial copy the rounds had built.
  ++tombstoned_copies_;
  ++migrations_aborted_;
  r.migrating = false;
  m.active = false;
  assert(m.phase == MigrationPhase::kAbort);
  set_phase(m, MigrationPhase::kIdle);
  audit_cluster_event();
}

// --- host faults & recovery ---

void Cluster::crash_host_now(HostId h) {
  if (h >= hosts_.size() || !hosts_[h].alive) return;
  ++host_crashes_;
  // Roll back every in-flight migration touching the host while both
  // ends' records are still coherent.
  for (auto& mp : migrations_) {
    MigrationRec& m = *mp;
    if (!m.active || (m.src != h && m.dst != h)) continue;
    if (m.dst == h) {
      // Destination died: the source stays authoritative and resumes.
      abort_migration(m);
    } else {
      // Source died mid-copy: the destination tombstones its partial
      // copy; the VM itself is recovered by the sweep below.
      set_phase(m, MigrationPhase::kAbort);
      m.events.cancel_all(sim_);
      ++tombstoned_copies_;
      ++migrations_aborted_;
      vms_[m.vm].migrating = false;
      m.active = false;
      assert(m.phase == MigrationPhase::kAbort);
      set_phase(m, MigrationPhase::kIdle);
    }
  }
  hosts_[h].alive = false;
  host(h).halt();
  // Salvage sweep: tombstone each resident copy on the dead host (the
  // exact pool it held feeds the drift ledger), then re-admit from the
  // last heartbeat — the only state the fabric still has.
  for (VmRecord& r : vms_) {
    if (r.host != h || r.lost || r.retired) continue;
    const vmm::MigrationTicket actual = host(h).migrate_out(r.local);
    crash_credit_delta_ += actual.credit_pool - r.heartbeat_credit;
    r.local = vmm::kInvalidVmId;
    r.host = kInvalidHostId;
    if (readmit(r)) {
      ++vms_replaced_;
      ++r.replacements;
    } else {
      r.lost = true;
      ++vms_lost_;
    }
  }
  audit_cluster_event();
}

bool Cluster::readmit(VmRecord& r) {
  vmm::MigrationTicket t;
  t.name = r.name;
  t.weight = r.weight;
  t.n_vcpus = r.vcpus;
  t.type = r.type;
  t.credit_pool = r.heartbeat_credit;
  for (HostId h = pick_host(); h != kInvalidHostId;
       h = next_host(h, kInvalidHostId)) {
    __int128 seeded = 0;
    const vmm::VmId local = host(h).migrate_in(t, &seeded);
    if (local == vmm::kInvalidVmId) continue;
    r.host = h;
    r.local = local;
    note_transfer("crash-readmit", r.heartbeat_credit, t.credit_pool, seeded);
    snapshot_heartbeat(r);
    return true;
  }
  return false;
}

void Cluster::degrade_host(HostId h, Cycles duration) {
  if (h >= hosts_.size() || !hosts_[h].alive || hosts_[h].degraded) return;
  HostRec& rec = hosts_[h];
  rec.degraded = true;
  ++degraded_windows_;
  // Lose the upper half of the PCPUs for the window; the placer also
  // skips the host entirely while it lasts.
  const hw::PcpuId n = cfg_.machine.num_pcpus;
  for (hw::PcpuId p = n / 2; p < n; ++p) {
    rec.hv->fault_pcpu_offline(p);
    rec.degraded_offline.push_back(p);
  }
  if (duration.v != 0) {  // 0 = degraded for the rest of the run
    sim_.after(duration, [this, h] {
      HostRec& hr = hosts_[h];
      if (!hr.alive || !hr.degraded) return;
      for (hw::PcpuId p : hr.degraded_offline) hr.hv->fault_pcpu_online(p);
      hr.degraded_offline.clear();
      hr.degraded = false;
    });
  }
}

// --- heartbeat & credit bookkeeping ---

void Cluster::heartbeat() {
  ++heartbeats_;
  for (VmRecord& r : vms_) {
    if (r.lost || r.retired) continue;
    if (r.host == kInvalidHostId || !hosts_[r.host].alive) continue;
    snapshot_heartbeat(r);
  }
  audit_cluster_event();
  sim_.rearm(heartbeat_lane_);  // the same event, one period on
}

void Cluster::snapshot_heartbeat(VmRecord& r) {
  r.heartbeat_credit = resident_pool(r);
}

__int128 Cluster::resident_pool(const VmRecord& r) const {
  __int128 pool = 0;
  const vmm::Vm& v = host(r.host).vm(r.local);
  for (const vmm::Vcpu& w : v.vcpus) pool += static_cast<__int128>(w.credit);
  return pool;
}

void Cluster::note_transfer(const char* what, __int128 expected,
                            __int128 ticket, __int128 seeded) {
  // What the truncating split / cap clamp left unseeded stays on the
  // fabric's ledger — never silently minted back.
  const __int128 residual = ticket - seeded;
  residual_credit_ += residual;
  if (cluster_auditor_)
    cluster_auditor_->on_transfer(what, expected, ticket, seeded, residual);
}

void Cluster::audit_cluster_event() {
  if (cluster_auditor_) cluster_auditor_->on_event();
}

// --- audit aggregation ---

std::uint64_t Cluster::audit_checks() const {
  std::uint64_t n = 0;
  for (const HostRec& hr : hosts_)
    if (hr.auditor) n += hr.auditor->report().total_checks();
  if (cluster_auditor_) n += cluster_auditor_->report().total_checks();
  return n;
}

std::uint64_t Cluster::audit_violations() const {
  std::uint64_t n = 0;
  for (const HostRec& hr : hosts_)
    if (hr.auditor) n += hr.auditor->report().total_violations();
  if (cluster_auditor_) n += cluster_auditor_->report().total_violations();
  return n;
}

std::string Cluster::audit_summary() const {
  // Merge every host report plus the cluster report into one table.
  audit::AuditReport merged;
  const auto fold = [&merged](const audit::AuditReport& r) {
    for (std::size_t i = 0; i < audit::kNumInvariants; ++i) {
      auto& dst = merged.by_kind[i];
      const auto& src = r.by_kind[i];
      dst.checks += src.checks;
      dst.violations += src.violations;
      if (!src.first_offender.empty() &&
          (dst.first_offender.empty() || src.first_at < dst.first_at)) {
        dst.first_offender = src.first_offender;
        dst.first_at = src.first_at;
      }
    }
    merged.events += r.events;
    merged.full_scans += r.full_scans;
  };
  bool any = false;
  for (const HostRec& hr : hosts_)
    if (hr.auditor) {
      fold(hr.auditor->report());
      any = true;
    }
  if (cluster_auditor_) {
    fold(cluster_auditor_->report());
    any = true;
  }
  if (any) return merged.summary();
  return {};
}

void Cluster::check_now() {
  for (HostRec& hr : hosts_)
    if (hr.auditor) hr.auditor->check_now();
  if (cluster_auditor_) cluster_auditor_->on_event();
}

}  // namespace asman::cluster
