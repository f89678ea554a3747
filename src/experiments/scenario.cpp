#include "experiments/scenario.h"

#include <algorithm>
#include <stdexcept>

#include "audit/auditor.h"
#include "faults/injector.h"

namespace asman::experiments {

double VmResult::mean_round_seconds(std::size_t n) const {
  if (round_seconds.empty()) return 0.0;
  const std::size_t k = std::min(n, round_seconds.size());
  double s = 0.0;
  for (std::size_t i = 0; i < k; ++i) s += round_seconds[i];
  return s / static_cast<double>(k);
}

const VmResult& RunResult::vm(const std::string& name) const {
  for (const auto& v : vms)
    if (v.name == name) return v;
  throw std::out_of_range("no VM named " + name);
}

const VmResult& RunResult::vm_by_id(vmm::VmId id) const {
  for (const auto& v : vms)
    if (v.id == id) return v;
  throw std::out_of_range("no VM with id " + std::to_string(id));
}

RunResult run_scenario(const Scenario& sc) {
  sim::Simulator simulation;
  const sim::ClockDomain clock = sc.machine.clock();

  auto hv = core::make_scheduler(sc.scheduler, simulation, sc.machine, sc.mode);
  hv->set_cosched_strictness(sc.strictness);
  hv->set_resilience(sc.resilience);
  hv->set_admission(sc.admission);
  hv->set_topology_aware(sc.topology_aware);
  hv->set_pressure_aware(sc.pressure_aware);

  // Attach the fault injector only when the plan names a fault: an empty
  // plan leaves no seam installed, so the run is bit-identical to builds
  // without the subsystem.
  std::unique_ptr<faults::FaultInjector> injector;
  if (!sc.faults.empty())
    injector =
        std::make_unique<faults::FaultInjector>(simulation, *hv, sc.faults);

  struct VmRuntime {
    vmm::VmId id{};
    std::string name;
    std::unique_ptr<guest::GuestKernel> kernel;
    std::unique_ptr<guest::IdleGuest> idle;
    std::unique_ptr<core::MonitoringModule> monitor;
    std::unique_ptr<workloads::Workload> workload;
    bool finite{false};
  };
  std::vector<VmRuntime> rts;
  rts.reserve(sc.vms.size() + sc.churn.size());

  sim::SplitMix64 seeds(sc.seed);
  // Instantiate one VM plus its guest stack, drawing any needed seeds from
  // `sstream`. Boot-time VMs draw from the primary stream (in the exact
  // order earlier builds did); hot-created VMs draw from a dedicated churn
  // stream so adding churn never perturbs the boot-time VMs' workloads.
  // Returns false when the admission controller rejects the create — the
  // request then leaves nothing behind but the reject counter.
  const auto instantiate = [&](const VmSpec& spec,
                               sim::SplitMix64& sstream) -> bool {
    VmRuntime rt;
    rt.name = spec.name;
    rt.id = hv->create_vm(spec.name, spec.weight, spec.vcpus, spec.type);
    if (rt.id == vmm::kInvalidVmId) return false;
    // Guest-side components hypercall through the injector's port wrapper
    // (which silences VCRD reports when the plan says so) or straight into
    // the hypervisor.
    vmm::HypervisorPort& port =
        injector ? injector->hypercall_port(rt.id) : *hv;
    if (!spec.workload) {
      rt.idle = std::make_unique<guest::IdleGuest>(simulation, port, rt.id,
                                                   spec.vcpus);
      hv->attach_guest(rt.id, injector
                                  ? injector->wrap_guest(rt.id, rt.idle.get())
                                  : rt.idle.get());
      rts.push_back(std::move(rt));
      return true;
    }
    guest::GuestKernel::Config gc = spec.guest;
    gc.n_vcpus = spec.vcpus;
    gc.seed = sstream.next();
    gc.keep_wait_samples = sc.keep_wait_samples;
    gc.over_threshold = Cycles{1ULL << sc.monitor.delta_exp};
    rt.kernel = std::make_unique<guest::GuestKernel>(simulation, port, rt.id,
                                                     gc);
    if (spec.monitor && sc.scheduler == core::SchedulerKind::kAsman) {
      core::MonitorConfig mc = sc.monitor;
      mc.learning.seed = sstream.next();
      rt.monitor = std::make_unique<core::MonitoringModule>(simulation, port,
                                                            rt.id, mc);
      rt.kernel->set_observer(rt.monitor.get());
    }
    rt.workload = spec.workload(simulation, sstream.next());
    // Register the workload's memory footprint before it runs: the
    // contention engine prices occupancy from creation on (churn-created
    // VMs register here too). Zero footprints keep the engine inert.
    hv->set_vm_footprint(rt.id, rt.workload->footprint());
    rt.workload->deploy(*rt.kernel);
    // Hypervisor-facing hookup (adversary models hypercall directly);
    // through the injector wrapper like every other guest-origin call.
    rt.workload->connect(simulation, port, rt.id);
    rt.finite = rt.workload->finite();
    hv->attach_guest(rt.id, injector
                                ? injector->wrap_guest(rt.id, rt.kernel.get())
                                : rt.kernel.get());
    rts.push_back(std::move(rt));
    return true;
  };
  for (const VmSpec& spec : sc.vms) instantiate(spec, seeds);

  if (injector) injector->arm();

  // Schedule the scripted lifecycle events. Targets resolve by name at
  // fire time (latest creation wins), so a list can destroy a VM that an
  // earlier event created; a vanished target is a silent no-op, keeping
  // churn lists composable with chaos plans that crash VMs. Each event
  // captures its index into sc.churn (the scenario outlives the run), not
  // a copy of the spec. Creates and destroys change what the stop
  // predicate reads, so they bump the progress epoch.
  sim::SplitMix64 churn_seeds(sc.seed ^ 0xC1124E5EEDULL);
  const auto find_vm = [&rts](const std::string& name) -> VmRuntime* {
    for (auto it = rts.rbegin(); it != rts.rend(); ++it)
      if (it->name == name) return &*it;
    return nullptr;
  };
  for (std::size_t i = 0; i < sc.churn.size(); ++i) {
    simulation.at(sc.churn[i].at, [&, i] {
      const ChurnEvent& ev = sc.churn[i];
      switch (ev.kind) {
        case ChurnEvent::Kind::kCreate:
          instantiate(ev.spec, churn_seeds);
          simulation.note_progress();
          break;
        case ChurnEvent::Kind::kDestroy:
          if (VmRuntime* rt = find_vm(ev.target)) hv->destroy_vm(rt->id);
          simulation.note_progress();
          break;
        case ChurnEvent::Kind::kResize:
          if (VmRuntime* rt = find_vm(ev.target))
            hv->resize_vm(rt->id, ev.new_vcpus);
          break;
      }
    });
  }

  // Attach after VM creation, before start(): the auditor snapshots the
  // initial VCPU states and then sees every scheduling event of the run.
  std::unique_ptr<audit::Auditor> auditor;
  if (sc.audit || audit::audit_env_enabled()) {
    audit::AuditorConfig cfg;
    cfg.stride = sc.audit_stride;
    auditor = std::make_unique<audit::Auditor>(simulation, *hv, cfg);
  }

  hv->start();

  const auto all_work_finished = [&rts, &sc, &hv]() -> bool {
    bool any = false;
    for (const auto& rt : rts) {
      if (!rt.workload) continue;
      if (!rt.finite) continue;  // throughput workloads run to the horizon
      if (!hv->vm_alive(rt.id)) continue;  // destroyed mid-run by churn
      any = true;
      if (sc.stop_after_rounds > 0) {
        // Round-target protocol: stop once every round-tracking workload
        // completed the target (finishing all rounds also satisfies it).
        if (rt.workload->rounds_completed() < sc.stop_after_rounds &&
            !rt.kernel->all_threads_done())
          return false;
      } else if (!rt.kernel->all_threads_done()) {
        return false;
      }
    }
    return any;
  };

  // all_work_finished scans every VM, but its inputs change only when the
  // progress epoch moves (a round recorded, a thread retired, a VM created
  // or destroyed): rescan then, and answer from the cached verdict on
  // every other event.
  std::uint64_t scanned_at = 0;
  bool finished = all_work_finished();
  simulation.run_while(sc.horizon, [&] {
    if (simulation.progress() != scanned_at) {
      scanned_at = simulation.progress();
      finished = all_work_finished();
    }
    return !finished;
  });

  // --- collect ---
  RunResult rr;
  rr.scheduler = sc.scheduler;
  const Cycles elapsed = simulation.now();
  rr.elapsed_seconds = clock.to_seconds(elapsed);
  rr.events = simulation.events_processed();
  rr.migrations = hv->total_migrations();
  rr.cosched_events = hv->cosched_events();
  rr.ipi_sent = hv->ipi_bus().sent();
  rr.context_switches = hv->context_switches();
  rr.ipi_dropped = hv->ipi_bus().dropped();
  rr.ipi_delayed = hv->ipi_bus().delayed();
  rr.ipi_duplicated = hv->ipi_bus().duplicated();
  rr.ipi_retries = hv->ipi_retries();
  rr.gang_ipi_aborts = hv->gang_ipi_aborts();
  rr.gang_watchdog_fires = hv->gang_watchdog_fires();
  rr.vcrd_demotions = hv->vcrd_demotions();
  rr.stale_vcrd_drops = hv->stale_vcrd_drops();
  rr.hypercall_rejects = hv->hypercall_rejects();
  rr.ignored_kicks = hv->ignored_kicks();
  rr.evacuated_vcpus = hv->evacuated_vcpus();
  rr.pcpu_offline_events = hv->pcpu_offline_events();
  if (injector) {
    rr.injected_flaps = injector->injected_flaps();
    rr.injected_corrupt_ops = injector->injected_corrupt_ops();
    rr.silenced_reports = injector->silenced_reports();
  }
  rr.admission_rejects = hv->admission_rejects();
  rr.vm_creates = hv->vm_creates();
  rr.vm_destroys = hv->vm_destroys();
  rr.vm_resizes = hv->vm_resizes();
  rr.overload_sheds = hv->overload_sheds();
  rr.overload_restores = hv->overload_restores();
  rr.cross_llc_migrations = hv->cross_llc_migrations();
  rr.cross_socket_migrations = hv->cross_socket_migrations();
  rr.migration_penalty_cycles = hv->migration_penalty_cycles().v;
  rr.topology_steal_rejects = hv->topology_steal_rejects();
  rr.pressure_accounted = hv->pressure_accounted_total();
  rr.pressure_degraded = hv->pressure_degraded_total();
  rr.pressure_effective = hv->pressure_effective_total();
  rr.pressure_periods = hv->pressure_periods();
  rr.pressure_steal_rejects = hv->pressure_steal_rejects();
  rr.pressure_rebalances = hv->pressure_rebalances();
  rr.footprint_config_errors = hv->footprint_config_errors();
  rr.boost_grants = hv->boost_grants();
  rr.boost_denials = hv->boost_denials();
  rr.dodged_samples = hv->dodged_samples();
  rr.implausible_vcrds = hv->implausible_vcrds();
  rr.theft_cycles = hv->theft_cycles_total();
  rr.fairness_min = hv->fairness_min();
  rr.fairness_mean = hv->fairness_mean();
  rr.fairness_periods = hv->fairness_periods();
  double idle = 0.0;
  for (hw::PcpuId p = 0; p < sc.machine.num_pcpus; ++p)
    idle += hv->pcpu_idle_total(p).ratio(elapsed);
  rr.idle_fraction = idle / sc.machine.num_pcpus;
  if (auditor) {
    auditor->check_now();  // final full scan at the horizon
    rr.audit_checks = auditor->report().total_checks();
    rr.audit_violations = auditor->report().total_violations();
    rr.audit_summary = auditor->report().summary();
  }

  for (std::size_t i = 0; i < rts.size(); ++i) {
    const VmRuntime& rt = rts[i];
    const vmm::Vm& v = hv->vm(rt.id);
    VmResult res;
    res.id = rt.id;
    res.name = v.name;
    res.destroyed = !v.alive;
    // A destroyed VM's tombstone record still carries its statistics; its
    // measurement window closes at the destruction instant.
    const Cycles window = v.alive ? elapsed : v.destroyed_at;
    if (rt.workload) res.workload_name = rt.workload->name();
    if (rt.kernel) {
      res.stats = rt.kernel->stats();
      res.finished = rt.finite && rt.kernel->all_threads_done();
      res.runtime_seconds = clock.to_seconds(
          res.finished ? rt.kernel->last_finish_time() : window);
    } else if (!v.alive) {
      res.runtime_seconds = clock.to_seconds(window);
    }
    const double denom =
        static_cast<double>(v.num_vcpus()) * static_cast<double>(window.v);
    res.observed_online_rate =
        denom > 0 ? static_cast<double>(v.total_online.v) / denom : 0.0;
    res.vcrd_transitions = v.vcrd_high_transitions;
    Cycles high = v.vcrd_high_time;
    if (v.vcrd == vmm::Vcrd::kHigh) high += elapsed - v.vcrd_high_since;
    res.vcrd_high_fraction = high.ratio(window);
    if (rt.workload) {
      res.work_units = rt.workload->work_units();
      Cycles prev{0};
      for (Cycles t : rt.workload->round_times()) {
        res.round_seconds.push_back(clock.to_seconds(t - prev));
        prev = t;
      }
    }
    if (rt.monitor) {
      res.over_threshold_events = rt.monitor->over_threshold_events();
      res.adjusting_events = rt.monitor->adjusting_events();
    }
    res.demotions = v.demotions;
    res.stale_vcrd_drops = v.stale_vcrd_drops;
    res.degraded = v.degraded;
    res.cycles_consumed = v.total_online.v;
    res.cycles_attributed = v.cycles_attributed.v;
    res.theft_cycles = vmm::theft_cycles(v.total_online, v.cycles_attributed);
    res.dodged_samples = v.dodged_samples;
    res.boost_grants = v.boost_grants;
    res.boost_denials = v.boost_denials;
    res.implausible_vcrds = v.implausible_vcrds;
    res.cross_llc_migrations = v.cross_llc_migrations;
    res.cross_socket_migrations = v.cross_socket_migrations;
    res.migration_penalty_cycles = v.migration_penalty.v;
    res.pressure_accounted = v.pressure_accounted;
    res.pressure_degraded = v.pressure_degraded;
    res.pressure_effective = v.pressure_effective;
    rr.vms.push_back(std::move(res));
  }
  return rr;
}

}  // namespace asman::experiments
