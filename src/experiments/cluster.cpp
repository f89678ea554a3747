#include "experiments/cluster.h"

#include <cstdio>

#include "simcore/rng.h"

namespace asman::experiments {

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  // Boost-style order-sensitive fold; any counter drift or reorder
  // changes the digest.
  return h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
}

std::string vm_name(const char* prefix, std::uint32_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s%02u", prefix, i);
  return buf;
}

}  // namespace

ClusterRunResult run_cluster_scenario(const ClusterScenario& sc) {
  sim::Simulator simulation;
  cluster::ClusterConfig cc;
  cc.num_hosts = sc.hosts;
  cc.machine = sc.machine;
  cc.scheduler = sc.scheduler;
  cc.mode = sc.mode;
  cc.resilience = sc.resilience;
  cc.admission = sc.admission;
  cc.recovery = sc.recovery;
  cc.model = sc.model;
  cc.seed = sc.seed;
  cc.audit = sc.audit;
  cc.audit_stride = sc.audit_stride;
  cluster::Cluster cl(simulation, cc);

  for (const cluster::ClusterVmSpec& spec : sc.vms) cl.admit(spec);
  cl.inject(sc.faults);

  // Targets resolve by name at fire time (latest admission wins), so a
  // schedule can retire a VM that an earlier event admitted and a
  // vanished target is a silent no-op — same composability contract as
  // single-host churn. Each event captures its index into sc.churn (the
  // scenario outlives the run), not a copy of the spec.
  const auto find = [&cl](const std::string& name) -> cluster::ClusterVmId {
    for (std::size_t i = cl.num_vms(); i-- > 0;) {
      const cluster::VmRecord& r =
          cl.vm(static_cast<cluster::ClusterVmId>(i));
      if (r.name == name && !r.retired && !r.lost) return r.id;
    }
    return cluster::kInvalidClusterVmId;
  };
  for (std::size_t i = 0; i < sc.churn.size(); ++i) {
    simulation.at(sc.churn[i].at, [&cl, &find, &sc, i] {
      const ClusterChurnEvent& ev = sc.churn[i];
      switch (ev.kind) {
        case ClusterChurnEvent::Kind::kAdmit:
          cl.admit(ev.spec);
          break;
        case ClusterChurnEvent::Kind::kRetire: {
          const cluster::ClusterVmId id = find(ev.target);
          if (id != cluster::kInvalidClusterVmId) cl.retire(id);
          break;
        }
        case ClusterChurnEvent::Kind::kMigrate: {
          const cluster::ClusterVmId id = find(ev.target);
          if (id == cluster::kInvalidClusterVmId || !cl.vm_resident(id))
            break;
          const cluster::HostId dst = cl.pick_host(cl.vm(id).host);
          if (dst != cluster::kInvalidHostId) cl.migrate(id, dst);
          break;
        }
      }
    });
  }

  cl.start();
  simulation.run_until(sc.horizon);
  cl.check_now();

  ClusterRunResult rr;
  rr.events = simulation.events_processed();
  rr.elapsed_seconds = sc.machine.clock().to_seconds(simulation.now());
  rr.migrations_started = cl.migrations_started();
  rr.migrations_committed = cl.migrations_committed();
  rr.migrations_aborted = cl.migrations_aborted();
  rr.migrations_retried = cl.migrations_retried();
  rr.precopy_rounds = cl.precopy_rounds();
  rr.link_failures = cl.link_failures();
  rr.phase_timeouts = cl.phase_timeouts();
  rr.tombstoned_copies = cl.tombstoned_copies();
  rr.host_crashes = cl.host_crashes();
  rr.degraded_windows = cl.degraded_windows();
  rr.vms_replaced = cl.vms_replaced();
  rr.vms_lost = cl.vms_lost();
  rr.admission_rejects = cl.admission_rejects();
  rr.heartbeats = cl.heartbeats();
  rr.phase_transitions = cl.phase_transitions();
  for (std::size_t i = 0; i < cl.num_vms(); ++i)
    if (cl.vm_resident(static_cast<cluster::ClusterVmId>(i)))
      ++rr.vms_resident;
  rr.residual_credit = cl.residual_credit();
  rr.crash_credit_delta = cl.crash_credit_delta();
  rr.audit_checks = cl.audit_checks();
  rr.audit_violations = cl.audit_violations();
  rr.audit_summary = cl.audit_summary();

  std::uint64_t h = sc.seed;
  h = mix(h, rr.events);
  h = mix(h, rr.migrations_started);
  h = mix(h, rr.migrations_committed);
  h = mix(h, rr.migrations_aborted);
  h = mix(h, rr.migrations_retried);
  h = mix(h, rr.precopy_rounds);
  h = mix(h, rr.link_failures);
  h = mix(h, rr.phase_timeouts);
  h = mix(h, rr.tombstoned_copies);
  h = mix(h, rr.host_crashes);
  h = mix(h, rr.degraded_windows);
  h = mix(h, rr.vms_replaced);
  h = mix(h, rr.vms_lost);
  h = mix(h, rr.admission_rejects);
  h = mix(h, rr.heartbeats);
  h = mix(h, rr.phase_transitions);
  h = mix(h, rr.vms_resident);
  h = mix(h, static_cast<std::uint64_t>(rr.residual_credit));
  h = mix(h, static_cast<std::uint64_t>(rr.crash_credit_delta));
  // Per-host scheduler state digests the fleet beyond the fabric's own
  // counters: context switches and migrations are exquisitely sensitive
  // to event-order drift.
  for (cluster::HostId hid = 0; hid < cl.num_hosts(); ++hid) {
    const vmm::Hypervisor& hv = cl.host(hid);
    h = mix(h, hv.context_switches());
    h = mix(h, hv.total_migrations());
    h = mix(h, hv.vm_creates());
    h = mix(h, hv.vm_migrations_in());
    h = mix(h, hv.vm_migrations_out());
  }
  rr.fingerprint = h;
  return rr;
}

ClusterScenario cluster_scenario(core::SchedulerKind sched,
                                 std::uint64_t seed) {
  ClusterScenario sc;
  sc.name = "cluster-demo";
  sc.hosts = 4;
  sc.scheduler = sched;
  sc.seed = seed;
  const sim::ClockDomain clock = sc.machine.clock();
  // A dozen mixed tenants: varied weights, gang candidates every fourth.
  for (std::uint32_t i = 0; i < 12; ++i) {
    cluster::ClusterVmSpec v;
    v.name = vm_name("Fleet", i);
    v.weight = 128u << (i % 3);
    v.vcpus = (i % 4 == 3) ? 4 : (i % 2 == 1) ? 2 : 1;
    v.type = (i % 4 == 3) ? vmm::VmType::kConcurrent : vmm::VmType::kGeneral;
    v.ram_mb = 256 + 256 * (i % 3);
    sc.vms.push_back(std::move(v));
  }
  const auto at = [&clock](double s) { return clock.from_seconds_f(s); };
  const auto migrate = [&at](double s, std::uint32_t i) {
    ClusterChurnEvent ev;
    ev.at = at(s);
    ev.kind = ClusterChurnEvent::Kind::kMigrate;
    ev.target = vm_name("Fleet", i);
    return ev;
  };
  sc.churn.push_back(migrate(0.30, 1));
  sc.churn.push_back(migrate(0.50, 5));
  sc.churn.push_back(migrate(0.70, 9));
  {
    ClusterChurnEvent ev;
    ev.at = at(0.90);
    ev.kind = ClusterChurnEvent::Kind::kRetire;
    ev.target = vm_name("Fleet", 3);
    sc.churn.push_back(std::move(ev));
  }
  {
    ClusterChurnEvent ev;
    ev.at = at(1.00);
    ev.kind = ClusterChurnEvent::Kind::kAdmit;
    ev.spec.name = "Hot00";
    ev.spec.vcpus = 2;
    ev.spec.ram_mb = 512;
    sc.churn.push_back(std::move(ev));
  }
  faults::HostFaultSpec crash;
  crash.host = 2;
  crash.at = at(1.20);
  crash.kind = faults::HostFaultKind::kHostCrash;
  sc.faults.host.push_back(crash);
  sc.horizon = at(2.0);
  return sc;
}

ClusterScenario cluster_chaos_scenario(core::SchedulerKind sched,
                                       std::uint32_t hosts,
                                       std::uint32_t n_vms,
                                       std::uint64_t seed) {
  ClusterScenario sc;
  sc.name = "cluster-chaos";
  sc.hosts = hosts;
  sc.scheduler = sched;
  sc.seed = seed;
  const sim::ClockDomain clock = sc.machine.clock();
  const auto at = [&clock](double s) { return clock.from_seconds_f(s); };
  for (std::uint32_t i = 0; i < n_vms; ++i) {
    cluster::ClusterVmSpec v;
    v.name = vm_name("C", i);
    v.weight = 128u << (i % 3);
    v.vcpus = (i % 8 == 3) ? 4 : (i % 4 == 1) ? 2 : 1;
    v.type = v.vcpus == 4 ? vmm::VmType::kConcurrent : vmm::VmType::kGeneral;
    v.ram_mb = 128 + 128 * (i % 4);
    sc.vms.push_back(std::move(v));
  }
  // The storm: migrations, retirements and hot admissions spread across
  // the middle of the run, drawn up front from a dedicated stream (the
  // churn-seed convention of single-host scenarios).
  sim::SplitMix64 rng(seed ^ 0xC1124E5EEDULL);
  const double t0 = 0.10;
  const double span = 0.70;
  const std::uint32_t n_migrations = n_vms / 2;
  const std::uint32_t n_retires = n_vms / 8;
  const std::uint32_t n_admits = n_vms / 8;
  const std::uint32_t total = n_migrations + n_retires + n_admits;
  std::uint32_t k = 0;
  for (std::uint32_t i = 0; i < n_migrations; ++i, ++k) {
    ClusterChurnEvent ev;
    ev.at = at(t0 + span * k / total);
    ev.kind = ClusterChurnEvent::Kind::kMigrate;
    ev.target = vm_name("C", static_cast<std::uint32_t>(rng.next() % n_vms));
    sc.churn.push_back(std::move(ev));
  }
  for (std::uint32_t i = 0; i < n_retires; ++i, ++k) {
    ClusterChurnEvent ev;
    ev.at = at(t0 + span * k / total);
    ev.kind = ClusterChurnEvent::Kind::kRetire;
    ev.target = vm_name("C", static_cast<std::uint32_t>(rng.next() % n_vms));
    sc.churn.push_back(std::move(ev));
  }
  for (std::uint32_t i = 0; i < n_admits; ++i, ++k) {
    ClusterChurnEvent ev;
    ev.at = at(t0 + span * k / total);
    ev.kind = ClusterChurnEvent::Kind::kAdmit;
    ev.spec.name = vm_name("Hot", i);
    ev.spec.vcpus = 1 + static_cast<std::uint32_t>(rng.next() % 2);
    ev.spec.ram_mb = 128 + 128 * static_cast<std::uint64_t>(rng.next() % 3);
    sc.churn.push_back(std::move(ev));
  }
  // Host faults landing inside the storm: two crashes, one degraded
  // window, one link-loss window.
  faults::HostFaultSpec f;
  f.kind = faults::HostFaultKind::kHostCrash;
  f.host = 1 % hosts;
  f.at = at(0.35);
  sc.faults.host.push_back(f);
  f.host = hosts - 1;
  f.at = at(0.60);
  sc.faults.host.push_back(f);
  f.kind = faults::HostFaultKind::kHostDegraded;
  f.host = 2 % hosts;
  f.at = at(0.20);
  f.duration = at(0.30);
  sc.faults.host.push_back(f);
  f.kind = faults::HostFaultKind::kMigrationLinkLoss;
  f.host = 0;
  f.at = at(0.45);
  f.duration = at(0.05);
  sc.faults.host.push_back(f);
  sc.horizon = at(1.2);
  return sc;
}

}  // namespace asman::experiments
