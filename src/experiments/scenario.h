// Scenario description and single-run execution.
//
// A Scenario is a complete virtualized-system configuration: the machine,
// the scheduler under test, the VM population (weights, VCPU counts, VM
// types for the CON baseline, workload factories) and the measurement
// protocol (horizon, round target). run_scenario() builds the whole stack
// (simulator -> hypervisor -> guest kernels -> monitoring modules ->
// workloads), runs it, and returns per-VM and system-wide measurements.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/monitor.h"
#include "core/schedulers.h"
#include "faults/fault_plan.h"
#include "guest/guest_kernel.h"
#include "hw/machine.h"
#include "vmm/admission.h"
#include "workloads/workload.h"

namespace asman::experiments {

using sim::Cycles;

/// Creates a fresh workload instance for one run (runs must not share
/// workload state, so scenarios carry factories rather than instances).
using WorkloadFactory = std::function<std::unique_ptr<workloads::Workload>(
    sim::Simulator&, std::uint64_t seed)>;

struct VmSpec {
  std::string name{"VM"};
  std::uint32_t weight{256};
  std::uint32_t vcpus{4};
  /// Administrator VM type: only the CON scheduler reads this.
  vmm::VmType type{vmm::VmType::kGeneral};
  /// Null factory = idle VM (the paper's Domain-0).
  WorkloadFactory workload;
  /// Attach a Monitoring Module (meaningful under the ASMan scheduler).
  bool monitor{true};
  guest::GuestKernel::Config guest{};
};

/// One scripted runtime lifecycle operation, applied at sim time `at`
/// while the run is in flight. Creates go through the hypervisor's
/// admission controller: a rejected create leaves only a counter behind
/// (no VmResult entry). Targets are resolved by VM name at fire time, so
/// a churn list can destroy a VM an earlier event created.
struct ChurnEvent {
  enum class Kind : std::uint8_t { kCreate, kDestroy, kResize };
  Cycles at{0};
  Kind kind{Kind::kCreate};
  /// kCreate: the VM to hot-create (null workload = idle guest).
  VmSpec spec{};
  /// kDestroy / kResize: name of the target VM (boot-time or hot-created).
  std::string target;
  /// kResize: new VCPU count.
  std::uint32_t new_vcpus{0};
};

struct Scenario {
  hw::MachineConfig machine{};
  vmm::SchedMode mode{vmm::SchedMode::kNonWorkConserving};
  core::SchedulerKind scheduler{core::SchedulerKind::kCredit};
  vmm::Hypervisor::Strictness strictness{
      vmm::Hypervisor::Strictness::kStrict};
  core::MonitorConfig monitor{};
  std::vector<VmSpec> vms;
  /// Hard simulation horizon.
  Cycles horizon{sim::kDefaultClock.from_seconds_f(180.0)};
  /// Stop early once every round-tracking workload completed this many
  /// rounds (0 = only finite-completion / horizon stop). Implements the
  /// paper's "average of the first 10 rounds" protocol.
  std::uint64_t stop_after_rounds{0};
  std::uint64_t seed{1};
  bool keep_wait_samples{false};
  /// Attach a runtime invariant auditor (audit::Auditor) to the run. Also
  /// forced on for every run by the ASMAN_AUDIT environment variable.
  bool audit{false};
  /// Full-state audit scans run every stride-th scheduling event.
  std::uint32_t audit_stride{1};
  /// Fault-injection plan for this run (src/faults/). Empty (the default)
  /// means no injection machinery is attached at all, keeping fault-free
  /// runs bit-identical to earlier builds.
  faults::FaultPlan faults{};
  /// Graceful-degradation knobs forwarded to the hypervisor.
  vmm::ResilienceConfig resilience{};
  /// Admission-control / overload-governor knobs forwarded to the
  /// hypervisor (default: admission disabled).
  vmm::AdmissionConfig admission{};
  /// Scripted runtime lifecycle events (hot create/destroy/resize). An
  /// empty list leaves the run bit-identical to earlier builds. Workload
  /// seeds for hot-created VMs come from a dedicated stream, so adding
  /// churn never perturbs the boot-time VMs' seeds.
  std::vector<ChurnEvent> churn;
  /// Topology-aware placement (hypervisor::set_topology_aware). Only
  /// meaningful when machine.topology is multi-domain; with it false the
  /// scheduler still pays the migration cost model but places like the
  /// flat scheduler (the bench's topology-blind baseline).
  bool topology_aware{true};
  /// Pressure-aware placement (hypervisor::set_pressure_aware). Only
  /// meaningful when the contention engine is live (multi-domain topology,
  /// machine.llc_bytes > 0 and at least one workload with a footprint);
  /// with it false the run still pays the same contention slowdowns but
  /// places, steals and balances pressure-blind (the bench's baseline).
  bool pressure_aware{true};
};

struct VmResult {
  /// Stable hypervisor id (docs/MODEL.md "VM lifecycle & admission"): ids
  /// are dense creation-order indices and are never reused, so a result
  /// keyed by id refers to the same VM across the whole run even after
  /// the VM was destroyed mid-run.
  vmm::VmId id{0};
  std::string name;
  std::string workload_name;
  /// True when the VM was destroyed by a churn event before the horizon;
  /// its stats cover [creation, destroyed_at].
  bool destroyed{false};
  bool finished{false};
  double runtime_seconds{0};  // workload completion (finite) or horizon
  double observed_online_rate{0};
  std::uint64_t vcrd_transitions{0};
  double vcrd_high_fraction{0};
  std::uint64_t work_units{0};
  std::vector<double> round_seconds;  // per-round durations
  guest::GuestStats stats;
  // Monitoring Module counters (zero when no monitor attached).
  std::uint64_t over_threshold_events{0};
  std::uint64_t adjusting_events{0};
  // Graceful-degradation state of this VM at the horizon.
  std::uint64_t demotions{0};
  std::uint64_t stale_vcrd_drops{0};
  bool degraded{false};
  // Topology cost-model counters (zero on flat topologies).
  std::uint64_t cross_llc_migrations{0};
  std::uint64_t cross_socket_migrations{0};
  std::uint64_t migration_penalty_cycles{0};
  // Theft metrics (docs/MODEL.md "Threat model & fairness guarantees"):
  // what the VM actually ran vs. what accounting billed it for, and the
  // per-VM defense counters.
  std::uint64_t cycles_consumed{0};
  std::uint64_t cycles_attributed{0};
  /// max(0, consumed - attributed): cycles taken without being billed.
  std::uint64_t theft_cycles{0};
  std::uint64_t dodged_samples{0};
  std::uint64_t boost_grants{0};
  std::uint64_t boost_denials{0};
  std::uint64_t implausible_vcrds{0};
  // Memory-pressure ledger (docs/MODEL.md §2.8; all zero while the
  // contention engine is inert): busy cycles the engine accounted for this
  // VM and their exact effective/degraded split.
  std::uint64_t pressure_accounted{0};
  std::uint64_t pressure_degraded{0};
  std::uint64_t pressure_effective{0};

  /// Mean of the first `n` rounds (or all, if fewer) in seconds.
  double mean_round_seconds(std::size_t n) const;
};

struct RunResult {
  core::SchedulerKind scheduler{core::SchedulerKind::kCredit};
  std::vector<VmResult> vms;
  double elapsed_seconds{0};
  std::uint64_t events{0};
  std::uint64_t migrations{0};
  std::uint64_t cosched_events{0};
  std::uint64_t ipi_sent{0};
  std::uint64_t context_switches{0};
  double idle_fraction{0};
  // Invariant-audit results (zero / empty when no auditor was attached).
  std::uint64_t audit_checks{0};
  std::uint64_t audit_violations{0};
  std::string audit_summary;
  // Fault-injection + graceful-degradation counters (all zero on a
  // fault-free run).
  std::uint64_t ipi_dropped{0};
  std::uint64_t ipi_delayed{0};
  std::uint64_t ipi_duplicated{0};
  std::uint64_t ipi_retries{0};
  std::uint64_t gang_ipi_aborts{0};
  std::uint64_t gang_watchdog_fires{0};
  std::uint64_t vcrd_demotions{0};
  std::uint64_t stale_vcrd_drops{0};
  std::uint64_t hypercall_rejects{0};
  std::uint64_t ignored_kicks{0};
  std::uint64_t evacuated_vcpus{0};
  std::uint64_t pcpu_offline_events{0};
  std::uint64_t injected_flaps{0};
  std::uint64_t injected_corrupt_ops{0};
  std::uint64_t silenced_reports{0};
  // Runtime lifecycle + admission counters (all zero without churn).
  std::uint64_t admission_rejects{0};
  std::uint64_t vm_creates{0};
  std::uint64_t vm_destroys{0};
  std::uint64_t vm_resizes{0};
  std::uint64_t overload_sheds{0};
  std::uint64_t overload_restores{0};
  // Topology cost-model counters (all zero on flat topologies).
  std::uint64_t cross_llc_migrations{0};
  std::uint64_t cross_socket_migrations{0};
  std::uint64_t migration_penalty_cycles{0};
  std::uint64_t topology_steal_rejects{0};
  // Theft-accounting + hardening counters, summed over all VMs (all zero
  // on a run with default resilience and no adversary).
  std::uint64_t boost_grants{0};
  std::uint64_t boost_denials{0};
  std::uint64_t dodged_samples{0};
  std::uint64_t implausible_vcrds{0};
  std::uint64_t theft_cycles{0};
  // Memory-system contention (all zero while the engine is inert).
  std::uint64_t pressure_accounted{0};
  std::uint64_t pressure_degraded{0};
  std::uint64_t pressure_effective{0};
  std::uint64_t pressure_periods{0};
  std::uint64_t pressure_steal_rejects{0};
  std::uint64_t pressure_rebalances{0};
  std::uint64_t footprint_config_errors{0};
  // Jain fairness index over per-accounting-period weighted consumption
  // (1.0 = perfectly fair; fairness_periods = number of scored periods).
  double fairness_min{1.0};
  double fairness_mean{1.0};
  std::uint64_t fairness_periods{0};

  const VmResult& vm(const std::string& name) const;
  /// Lookup by stable hypervisor id (works for destroyed VMs too).
  const VmResult& vm_by_id(vmm::VmId id) const;
};

RunResult run_scenario(const Scenario& sc);

}  // namespace asman::experiments
