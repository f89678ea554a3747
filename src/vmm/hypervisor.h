// Hypervisor scheduling machinery (the VMM).
//
// `Hypervisor` implements everything the paper's schedulers share: slot
// ticks (10 ms), credit accounting at K-slot intervals (Algorithm 3),
// per-PCPU run queues, dispatch (Algorithm 4's skeleton), idle-avoiding
// work stealing, block/kick handling, and the IPI path used for
// coscheduling. Concrete schedulers specialize two hooks:
//
//   * wants_cosched(vm)  — should this VM's VCPUs be gang-scheduled now?
//       stock Credit:      never                    (vmm::CreditScheduler)
//       static CON [12]:   vm.type == kConcurrent   (core::StaticCoScheduler)
//       ASMan, ASMan-HW:   vm.vcrd == HIGH          (core::AdaptiveScheduler)
//   * on_vcrd_changed(vm) — reaction to the do_vcrd_op hypercall
//       (ASMan relocates the VM's VCPUs onto distinct PCPUs, Algorithm 3
//       lines 8-16).
//
// Every accounting pass relocates each VM that is gang-scheduled at that
// moment (cosched_eligible) again, which repairs placement drift under
// every scheduler alike. Graceful degradation runs on fixed constants
// (see ResilienceConfig); the knobs left are the ones scenarios vary.
//
// The slot tick and accounting are periodic events that re-arm themselves
// in place (sim::Simulator::rearm). An idle PCPU's first steal pass skips
// every run queue whose PcpuRec counts no VCPU it may take
// (Vcpu::steal_candidate); the audited enqueue/dequeue seam and a guard
// around each credit and boost write keep that count exact.
//
// The scheduler is event-driven and deterministic; it owns all Vm/Vcpu
// records and exposes read-only views for metrics and tests.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/bounds_spec.h"
#include "hw/ipi.h"
#include "hw/machine.h"
#include "hw/memsys/contention.h"
#include "simcore/rng.h"
#include "vmm/admission.h"
#include "simcore/simulator.h"
#include "simcore/trace.h"
#include "vmm/audit_sink.h"
#include "vmm/fault_hook.h"
#include "vmm/ports.h"
#include "vmm/runqueue.h"
#include "vmm/vcpu.h"

namespace asman::vmm {

/// Consumption-accounting discipline (docs/MODEL.md "Threat model &
/// fairness guarantees"). The attack surface of Xen's credit scheduler is
/// the *sampling* of consumption, so the discipline is a resilience knob:
///
///   kStochastic  — the repo's default: a full slot is charged with
///       probability elapsed/slot. Unbiased in expectation and therefore
///       not profitably dodgeable, but quantized like Xen's sampling.
///       Fault-free runs stay bit-identical to earlier builds.
///   kTickSampled — faithful vulnerable Xen: whoever is running at the
///       periodic sampling instant pays a full slot; spans that end
///       between instants are never billed. A guest that yields just
///       before each tick dodges accounting entirely (arXiv 1103.0759).
///       With ResilienceConfig::sample_offset_jitter the instant moves to
///       a seeded-random offset inside each slot, which restores
///       unbiasedness against tick-grid dodgers.
///   kExact       — tickless hardened accounting: every online span is
///       billed exactly (integer, __int128-widened, sub-slot remainder
///       carried), so there is nothing left to dodge.
enum class AccountingMode : std::uint8_t { kStochastic, kTickSampled, kExact };

/// The resilience knobs scenarios vary: the VCRD staleness TTL (chaos
/// runs) and the adversarial-tenancy hardening (docs/MODEL.md "Threat
/// model"). Graceful degradation itself (docs/MODEL.md "Fault model &
/// graceful degradation") is fixed in hypervisor.cpp, each constant pinned
/// inside its core/bounds_spec.h row: a lost coscheduling IPI is re-sent
/// up to kIpiMaxRetries (2) times, each attempt acked within
/// kIpiAckLatencies (8) bus one-way latencies; a strict gang still partial
/// after kGangWatchdogSlots (2) slots is released by co-stop, and
/// kWatchdogDemoteAfter (3) releases in a row demote the VM; more than
/// kFlapLimit (8) LOW->HIGH transitions inside one kFlapWindowSlots (5)
/// slot window demote it too; a demotion lifts at the first accounting
/// pass kDemoteBackoffSlots (12) slots on. The flap limiter is always
/// armed (it defends against misbehaving guests, which need no fault
/// injection); the IPI retry and gang watchdog paths arm themselves only
/// when the substrate can misbehave — a lossy IPI bus or an installed
/// fault surface — so fault-free runs stay bit-identical to the
/// pre-resilience scheduler.
struct ResilienceConfig {
  /// VCRD staleness TTL: a VM holding VCRD HIGH longer than this without a
  /// fresh do_vcrd_op report is forced back to LOW at the next accounting
  /// pass (0 = disabled; the honest Monitoring Module only hypercalls on
  /// transitions, so the TTL is for runs whose guests may go silent).
  Cycles vcrd_ttl{0};

  // --- adversarial-tenancy hardening (docs/MODEL.md "Threat model") ---
  /// How consumption is billed against credit (see AccountingMode).
  AccountingMode accounting{AccountingMode::kStochastic};
  /// kTickSampled only: sample at a seeded-random offset inside each slot
  /// instead of at the (dodgeable) tick instant. All draws go through the
  /// hypervisor's seeded RNG, so runs stay bit-reproducible per seed.
  bool sample_offset_jitter{false};
  /// BOOST-abuse rate limiter: more than this many wake boosts granted to
  /// one VM inside one 5-slot window opens a 12-slot penalty window in
  /// which the VM's wakes get no BOOST priority (0 = limiter off; grants
  /// are still metered). Counts with the flap limiter's RateWindow.
  std::uint32_t boost_limit{0};
  /// VCRD plausibility clamp: a HIGH claim is rejected (counted in
  /// Vm::implausible_vcrds, no TTL refresh, no state change) unless the VM
  /// produced at least this many yield hints — the hardware-observable
  /// spin evidence core::HwAdaptiveScheduler also consumes — inside the
  /// current 5-slot window (0 = clamp off).
  std::uint32_t vcrd_min_yields{0};
};

/// Most VCPUs one VM may hold: the bounds spec's n_vcpus ceiling, which
/// create_vm and resize_vm both refuse to exceed.
inline constexpr std::uint32_t kMaxVmVcpus =
    static_cast<std::uint32_t>(core::bounds_of(core::field::n_vcpus)->hi);

/// Portable VM image a live migration carries between hosts: identity,
/// shape, and the residual credit captured from the source's VCPUs at
/// migrate_out — widened to __int128 so the sum over any VCPU count can
/// never wrap (the cluster auditor verifies the transfer is exact).
struct MigrationTicket {
  std::string name;
  std::uint32_t weight{256};
  std::uint32_t n_vcpus{0};
  VmType type{VmType::kGeneral};
  __int128 credit_pool{0};

  /// A ticket is restorable when its shape is inside the shared bounds
  /// spec: the destination's create_vm clamps weight and refuses an
  /// out-of-spec VCPU count anyway, but a corrupted ticket should be
  /// refused before any audit event fires on the target host.
  bool valid() const {
    return n_vcpus >=
               static_cast<std::uint32_t>(
                   core::bounds_of(core::field::n_vcpus)->lo) &&
           n_vcpus <= kMaxVmVcpus && weight > 0;
  }
};

class Hypervisor : public HypervisorPort {
 public:
  Hypervisor(sim::Simulator& simulation, const hw::MachineConfig& machine,
             SchedMode mode, sim::Trace* trace = nullptr,
             std::uint64_t seed = 0x5EEDULL);
  ~Hypervisor() override = default;

  Hypervisor(const Hypervisor&) = delete;
  Hypervisor& operator=(const Hypervisor&) = delete;

  /// Create a VM with `n_vcpus` VCPUs and a proportional-share `weight`.
  /// VCPUs start runnable, spread round-robin across (online) PCPU run
  /// queues. Legal before start() *and* at any scheduling event afterwards:
  /// a hot-created VM starts with zero credit and is minted its share at
  /// the next accounting period, so existing VMs' credits are untouched.
  /// Returns kInvalidVmId when the admission controller rejects the
  /// request (counted in admission_rejects()).
  VmId create_vm(std::string name, std::uint32_t weight, std::uint32_t n_vcpus,
                 VmType type = VmType::kGeneral);

  /// Destroy a live VM at any scheduling event: boosts and watchdogs are
  /// cancelled, running VCPUs are unmapped (burn/charge as usual), queued
  /// ones are drained from their run queues, and every record becomes a
  /// kDestroyed tombstone (statistics stay readable under the same id —
  /// ids are never reused). A mid-gang destruction aborts the gang cleanly;
  /// the freed PCPUs re-dispatch immediately. Residual credit leaves with
  /// the VM. Returns false for an unknown or already-dead id.
  bool destroy_vm(VmId vm);

  /// Resize a live VM's VCPU count at any scheduling event. Growth admits
  /// the extra VCPUs through the admission controller (false + counted
  /// reject on saturation) and enqueues them runnable with zero credit;
  /// shrinkage drains the top indices (gang survivors are re-spread onto
  /// pairwise-distinct PCPUs when coscheduled). Returns false for an
  /// unknown/dead id, n_vcpus == 0 or above kMaxVmVcpus, or an admission
  /// reject.
  bool resize_vm(VmId vm, std::uint32_t n_vcpus);

  // --- cluster transfer seams (src/cluster/) --------------------------------
  // Live migration moves a VM between Hypervisor instances that share one
  // Simulator. All state changes flow through the same audited choke
  // points as destroy/create, so per-host auditors stay coherent and the
  // cluster auditor can verify the credit transfer end to end.

  /// Pause a live VM (stop-and-copy downtime window): every VCPU is parked
  /// in kBlocked through the audited transition paths, boosts/watchdogs are
  /// cancelled, and kicks latch (replayed at resume) instead of enqueueing.
  /// Idempotent; false for an unknown or dead id.
  bool pause_vm(VmId vm);
  /// Undo pause_vm: VCPUs that held work at pause (or were kicked while
  /// paused) re-enter their run queues and idle PCPUs pick them up.
  bool resume_vm(VmId vm);
  /// Capture a live VM's identity, shape and residual credit into a
  /// MigrationTicket, then retire the local records exactly like
  /// destroy_vm (audited drains, kDestroyed tombstones, id never reused).
  /// Ownership moves with the ticket. Invalid ticket for unknown/dead ids.
  MigrationTicket migrate_out(VmId vm);
  /// Admit a migrated VM from a ticket: create_vm (through admission) then
  /// seed the carried credit pool, truncating-split per VCPU and clamped to
  /// +/-credit_cap like Algorithm 3's re-split. `seeded` (optional) reports
  /// the total actually credited, so the caller can account the exact
  /// split/clamp residual. Returns kInvalidVmId on admission reject
  /// (nothing is seeded; the ticket stays valid for another host).
  VmId migrate_in(const MigrationTicket& ticket, __int128* seeded = nullptr);
  /// Host crash: park every VCPU in kBlocked through the audited paths,
  /// stop the tick/accounting machinery for good, and bounce all later
  /// hypercalls. The frozen state stays audit-clean and readable; there is
  /// no un-halt. Idempotent.
  void halt();
  bool halted() const { return halted_; }

  // --- migration / halt counters (cluster RunResult surface) ---
  std::uint64_t vm_migrations_out() const { return vm_migrations_out_; }
  std::uint64_t vm_migrations_in() const { return vm_migrations_in_; }

  /// Attach the guest kernel that will receive online/offline callbacks.
  /// Call before start() for boot-time VMs, or right after a hot
  /// create_vm before the next scheduling event dispatches the new VCPUs.
  void attach_guest(VmId vm, GuestPort* guest);

  /// Arm the periodic slot tick; performs the initial credit assignment and
  /// dispatch at the current simulation time.
  void start();

  /// Gang semantics. kStrict (default) adds ESX-style co-start/co-stop on
  /// top of Algorithm 4's IPI boosts: the gang starts, stops and is
  /// preempted as a unit. kRelaxed keeps only the boosts (VMware's relaxed
  /// coscheduling): members may run skewed, dribbling in and out. Set
  /// before start().
  enum class Strictness : std::uint8_t { kStrict, kRelaxed };
  void set_cosched_strictness(Strictness s) { strictness_ = s; }
  Strictness cosched_strictness() const { return strictness_; }

  /// Replace the resilience knobs. Set before start().
  void set_resilience(const ResilienceConfig& r) { resilience_ = r; }
  const ResilienceConfig& resilience() const { return resilience_; }

  /// Replace the admission cap. Set before start().
  void set_admission(const AdmissionConfig& a) { admission_ = a; }
  const AdmissionConfig& admission() const { return admission_; }

  /// Enable/disable the topology-aware placement policy (default on). With
  /// it off the scheduler still *pays* the migration cost model on a
  /// multi-domain topology (so aware-vs-blind comparisons are at equal
  /// cost), but places VCPUs exactly like the flat scheduler. On a flat
  /// topology the flag is irrelevant: both policy and cost model are
  /// inert and scheduling is bit-identical to pre-topology builds. Set
  /// before the first create_vm (boot placement consults it).
  void set_topology_aware(bool aware) { topology_aware_ = aware; }
  bool topology_aware() const { return topology_aware_; }
  /// The resolved processor topology this scheduler runs on.
  const hw::Topology& topology() const { return topo_; }

  /// Enable/disable the pressure-aware placement policy (default on).
  /// With it off the contention engine still *degrades* effective cycles
  /// wherever footprints and finite capacities are declared — aware and
  /// blind runs face the same physics — but boot spread, the steal gate
  /// and the pressure balancer are disabled. With no declared footprints,
  /// llc_bytes == 0, or a flat topology the engine itself is inert and
  /// scheduling is bit-identical to pre-contention builds (the same two-
  /// gate discipline as the topology cost model). Set before create_vm.
  void set_pressure_aware(bool aware) { pressure_aware_ = aware; }
  bool pressure_aware() const { return pressure_aware_; }
  /// Declare `vm`'s memory footprint (from its workload model; callable
  /// any time, takes effect at the next accounting period). A nonzero
  /// footprint on a multi-domain machine whose MachineConfig left
  /// llc_bytes or socket_mem_bw_bytes_per_s zero is a counted, reported
  /// configuration error (hw::validate_footprint_config) rather than a
  /// silent mismodel; see footprint_config_errors().
  void set_vm_footprint(VmId id, const hw::memsys::MemFootprint& fp);
  const hw::memsys::MemFootprint& vm_footprint(VmId id) const;

  // --- fault-injection surface (src/faults/) --------------------------------
  // These entry points model substrate faults; production scheduling never
  // calls them. They keep every invariant the auditor checks: state changes
  // go through the audited transition paths and credit is preserved.

  /// Install (or remove) the hardware-fault hook (timer-tick jitter). Arms
  /// the degradation machinery.
  void set_fault_hook(FaultHook* hook);
  /// Declare that a fault plan is active even if no hook is installed
  /// (e.g. guest- or vmm-layer faults only): arms the gang watchdog.
  void arm_degradation() { faults_armed_ = true; }

  /// Take a PCPU offline: the current VCPU is preempted and, like the rest
  /// of the queue, evacuated onto online PCPUs with credit preserved.
  /// Blocked VCPUs homed here are re-homed when kicked. No-op if already
  /// offline or if this is the last online PCPU (the machine never loses
  /// its final processor, mirroring cpu-hotplug rules).
  void fault_pcpu_offline(PcpuId p);
  /// Bring a PCPU back online and let it pick up work.
  void fault_pcpu_online(PcpuId p);

  /// Crash a VCPU: it is forced into kBlocked (through the audited
  /// transition path) and every later kick is ignored — a permanent guest
  /// halt. Idempotent.
  void fault_crash_vcpu(VmId vm, std::uint32_t vidx);

  // --- HypervisorPort (guest-visible hypercalls) ---
  void do_vcrd_op(VmId vm, Vcrd vcrd) override;
  void vcpu_block(VmId vm, std::uint32_t vidx) override;
  void vcpu_kick(VmId vm, std::uint32_t vidx) override;
  /// Guest spin-yield notification. The base class only meters it (per-VM
  /// sliding yield window backing the VCRD plausibility clamp — scheduling
  /// is never affected); core::HwAdaptiveScheduler additionally feeds its
  /// spin-inference windows (and calls this first).
  void vcpu_yield_hint(VmId vm, std::uint32_t vidx) override;

  // --- introspection (tests, metrics, benches) ---
  const hw::MachineConfig& machine() const { return machine_; }
  SchedMode mode() const { return mode_; }
  std::size_t num_vms() const { return vms_.size(); }
  Vm& vm(VmId id) { return *vms_[id]; }
  const Vm& vm(VmId id) const { return *vms_[id]; }
  /// False for destroyed (tombstone) VMs and out-of-range ids.
  bool vm_alive(VmId id) const { return id < vms_.size() && vms_[id]->alive; }
  /// Live VMs right now (tombstones excluded).
  std::size_t num_live_vms() const;
  /// Current weighted VCPU load per online PCPU: sum over live VMs of
  /// num_vcpus x (weight / kReferenceWeight), divided by online PCPUs
  /// (the admission controller's saturation metric and the fleet placer's
  /// score). O(1): read from an exact integer ledger of num_vcpus x weight,
  /// bit-identical to summing the VM records (see prospective_load).
  double weighted_vcpu_load() const;
  /// Weight proportion omega(Vi) per Equation (1).
  double weight_proportion(VmId id) const;
  /// Expected VCPU online rate per Equation (2) (may exceed 1 for
  /// over-provisioned VMs; callers clamp).
  double nominal_online_rate(VmId id) const;

  /// Whether this VM's VCPUs are gang-scheduled at scheduling events right
  /// now (public view for auditing and tests): the scheduler's
  /// wants_cosched knob gated by graceful degradation — a demoted VM, or
  /// one whose gang no longer fits the online PCPUs, gets stock credit
  /// treatment until conditions recover.
  bool gang_scheduled(VmId id) const { return cosched_eligible(vm(id)); }
  /// Degradation state of one VM (tests, metrics).
  bool vm_degraded(VmId id) const { return vm(id).degraded; }
  /// Credit saturation bound: every VCPU credit stays in [-cap, +cap].
  Credit credit_cap() const { return credit_cap_; }

  /// Install (or, with nullptr, remove) the invariant-audit sink. The sink
  /// must outlive the hypervisor or be removed first.
  void set_audit_sink(AuditSink* sink) { audit_ = sink; }
  AuditSink* audit_sink() const { return audit_; }

  /// Mutable run-queue access. This is a fault-injection seam for the
  /// auditor's seeded-violation tests (duplicating a VCPU across queues,
  /// orphaning one, ...); production code must never use it. It bypasses
  /// the membership seam, so the queue's steal-candidate count goes stale.
  RunQueue& mutable_runqueue(PcpuId p) { return pcpus_[p].runq; }

  bool vcpu_is_online(VmId id, std::uint32_t vidx) const;
  /// Number of this VM's VCPUs mapped onto PCPUs right now.
  std::uint32_t vm_online_count(VmId id) const;

  bool pcpu_is_online(PcpuId p) const { return pcpus_[p].online; }
  std::uint32_t online_pcpus() const { return online_pcpus_; }

  Cycles pcpu_idle_total(PcpuId p) const;
  const RunQueue& runqueue(PcpuId p) const { return pcpus_[p].runq; }
  const Vcpu* running_on(PcpuId p) const { return pcpus_[p].current; }

  std::uint64_t total_migrations() const { return migrations_; }
  // --- topology cost-model counters (RunResult surface) ---
  std::uint64_t cross_llc_migrations() const { return cross_llc_migrations_; }
  std::uint64_t cross_socket_migrations() const {
    return cross_socket_migrations_;
  }
  Cycles migration_penalty_cycles() const { return migration_penalty_cycles_; }
  /// Steals skipped because the warm-cache penalty would exceed the gain.
  std::uint64_t topology_steal_rejects() const {
    return topology_steal_rejects_;
  }

  // --- memory-pressure counters & views (RunResult surface) ---
  /// The engine's published occupancy/bandwidth result for the most recent
  /// accounting period (empty while the engine is inert).
  const hw::memsys::ContentionPass& pressure_last() const { return pass_; }
  /// Machine-wide contention ledger: busy cycles accounted by the engine
  /// and their exact split (accounted == degraded + effective at every
  /// accounting instant — the pressure-conservation invariant).
  std::uint64_t pressure_accounted_total() const {
    return pressure_accounted_total_;
  }
  std::uint64_t pressure_degraded_total() const {
    return pressure_degraded_total_;
  }
  std::uint64_t pressure_effective_total() const {
    return pressure_effective_total_;
  }
  /// Accounting periods the engine has run (0 while inert).
  std::uint64_t pressure_periods() const { return pressure_periods_; }
  /// Steals refused because the raid would push the destination LLC past
  /// saturation.
  std::uint64_t pressure_steal_rejects() const {
    return pressure_steal_rejects_;
  }
  /// VM home-socket swaps performed by the periodic pressure balancer.
  std::uint64_t pressure_rebalances() const { return pressure_rebalances_; }
  /// Zero-capacity configuration errors reported by set_vm_footprint.
  std::uint64_t footprint_config_errors() const {
    return footprint_config_errors_;
  }
  /// Host-level pressure score for cluster placement: fraction of engine-
  /// accounted cycles lost to contention so far, in [0, 1). Exactly 0.0
  /// while the engine is inert, so pressure-blind hosts sort untouched.
  double pressure_score() const {
    return pressure_accounted_total_ > 0
               ? static_cast<double>(pressure_degraded_total_) /
                     static_cast<double>(pressure_accounted_total_)
               : 0.0;
  }
  /// Mutable pressure-partition access: a fault-injection seam for the
  /// auditor's seeded-violation tests (skewing the published occupancy
  /// partition); production code must never use it.
  hw::memsys::ContentionPass& mutable_pressure() { return pass_; }
  /// True when this gang spans more sockets than the minimal packing its
  /// running members allow (the topology-placement invariant; only
  /// meaningful right after relocate_vm, members drift legally between
  /// relocations). Always false when placement policy is inactive.
  bool placement_spans_excess_sockets(VmId id) const {
    return gang_spans_excess_sockets(vm(id));
  }
  std::uint64_t cosched_events() const { return cosched_events_; }
  std::uint64_t context_switches() const { return context_switches_; }
  const hw::IpiBus& ipi_bus() const { return ipi_; }
  hw::IpiBus& ipi_bus() { return ipi_; }
  std::uint64_t slots_elapsed() const { return pcpus_[0].ticks; }

  // --- lifecycle / admission counters (RunResult surface) ---
  std::uint64_t admission_rejects() const { return admission_rejects_; }
  /// Hot lifecycle operations (post-start; boot-time create_vm not counted).
  std::uint64_t vm_creates() const { return vm_creates_; }
  std::uint64_t vm_destroys() const { return vm_destroys_; }
  std::uint64_t vm_resizes() const { return vm_resizes_; }
  std::uint64_t overload_sheds() const { return overload_sheds_; }
  std::uint64_t overload_restores() const { return overload_restores_; }
  /// True while the overload governor is shedding coscheduling.
  bool overload_shed_active() const { return overload_shed_; }

  // --- degradation counters (RunResult surface) ---
  std::uint64_t ipi_retries() const { return ipi_retries_; }
  std::uint64_t gang_ipi_aborts() const { return gang_ipi_aborts_; }
  std::uint64_t gang_watchdog_fires() const { return gang_watchdog_fires_; }
  std::uint64_t evacuated_vcpus() const { return evacuated_vcpus_; }
  std::uint64_t pcpu_offline_events() const { return pcpu_offline_events_; }
  std::uint64_t hypercall_rejects() const { return hypercall_rejects_; }
  std::uint64_t ignored_kicks() const { return ignored_kicks_; }
  /// Total flap/watchdog demotions and TTL drops across all VMs.
  std::uint64_t vcrd_demotions() const { return sum_vms(&Vm::demotions); }
  std::uint64_t stale_vcrd_drops() const {
    return sum_vms(&Vm::stale_vcrd_drops);
  }

  // --- adversarial-tenancy metrics (RunResult surface) ---
  /// Sums over all VMs (tombstones included — theft by a destroyed VM
  /// still happened).
  std::uint64_t boost_grants() const { return sum_vms(&Vm::boost_grants); }
  std::uint64_t boost_denials() const { return sum_vms(&Vm::boost_denials); }
  std::uint64_t dodged_samples() const { return sum_vms(&Vm::dodged_samples); }
  std::uint64_t implausible_vcrds() const {
    return sum_vms(&Vm::implausible_vcrds);
  }
  /// Total cycles consumed beyond what accounting attributed, across VMs.
  std::uint64_t theft_cycles_total() const;
  /// Cycles this PCPU spent non-idle (the conservation ledger's machine
  /// side: sum over VMs of total_online equals sum over PCPUs of this).
  Cycles pcpu_busy_total(PcpuId p) const { return pcpus_[p].busy_total; }
  /// Jain fairness index of weighted consumption, evaluated per accounting
  /// period over VMs active in that period (docs/MODEL.md "Threat model"):
  /// J = (sum x)^2 / (n * sum x^2), x_i = delta_online_i / weight_i. 1.0 =
  /// perfectly weighted-fair; 1/n = one VM took everything. Periods with
  /// fewer than two active VMs don't count.
  double fairness_min() const {
    return fairness_periods_ > 0 ? fairness_min_ : 1.0;
  }
  double fairness_mean() const {
    return fairness_periods_ > 0
               ? fairness_sum_ / static_cast<double>(fairness_periods_)
               : 1.0;
  }
  std::uint64_t fairness_periods() const { return fairness_periods_; }

 protected:
  /// Should this VM's VCPUs be gang-scheduled at scheduling events?
  virtual bool wants_cosched(const Vm& v) const {
    (void)v;
    return false;
  }
  /// wants_cosched gated by graceful degradation and the overload
  /// governor: a dead or demoted VM, one whose gang cannot fit the online
  /// PCPUs (hotplug), or any gang while the host sheds overload, falls
  /// back to stock credit treatment. Every dispatch-path decision uses
  /// this, never the raw knob.
  bool cosched_eligible(const Vm& v) const {
    return v.alive && wants_cosched(v) && !v.degraded && !overload_shed_ &&
           v.num_vcpus() <= online_pcpus_;
  }
  /// Hook invoked after the VCRD of `v` changed via do_vcrd_op.
  virtual void on_vcrd_changed(Vm& v, Vcrd previous) {
    (void)v;
    (void)previous;
  }

  /// Algorithm 3 lines 8-16: place the VM's VCPUs into run queues of
  /// pairwise distinct PCPUs so a later gang dispatch can bring them all
  /// online simultaneously. Running VCPUs pin their PCPU; queued and
  /// blocked ones are moved as needed. Under topology-aware placement the
  /// moved members land only inside gang_socket_set's minimal socket set,
  /// so a gang packs within one socket when it fits.
  void relocate_vm(Vm& v);

  sim::Simulator& sim_;

 private:
  struct PcpuRec {
    Vcpu* current{nullptr};
    RunQueue runq;
    bool online{true};  // offline PCPUs hold no work and dispatch nothing
    bool idle_marked{true};
    /// Queued VCPUs whose Vcpu::steal_candidate() holds. steal_for's first
    /// pass skips a queue whose count is 0 without reading its entries.
    /// enqueue/dequeue and CandidateWrite keep it exact; steal_for asserts
    /// it against a recount of every queue.
    std::uint32_t steal_candidates{0};
    Cycles idle_since{0};
    Cycles idle_total{0};
    /// Non-idle cycles, maintained at the same burn instants as VCPU
    /// online time so cycle conservation holds exactly at every event.
    Cycles busy_total{0};
    /// When this PCPU last hit a sampling instant (kTickSampled dodge
    /// detection: a span that never crossed one was never billable).
    Cycles last_sample_at{0};
    std::uint64_t ticks{0};
  };

  /// Brackets one write of a VCPU's credit, cosched_boost or wake_boost,
  /// the inputs of Vcpu::steal_candidate: it takes the VCPU out of its
  /// queue's steal_candidates count on construction and counts it again,
  /// re-evaluated, on destruction. Every such write in the VMM sits in the
  /// scope of one, and no enqueue or dequeue of that VCPU does.
  class CandidateWrite {
   public:
    CandidateWrite(Hypervisor& hv, const Vcpu& v)
        : v_(v),
          count_(v.queued_on == kNotQueued
                     ? nullptr
                     : &hv.pcpus_[v.queued_on].steal_candidates) {
      if (count_ != nullptr) *count_ -= v_.steal_candidate() ? 1u : 0u;
    }
    ~CandidateWrite() {
      if (count_ != nullptr) *count_ += v_.steal_candidate() ? 1u : 0u;
    }
    CandidateWrite(const CandidateWrite&) = delete;
    CandidateWrite& operator=(const CandidateWrite&) = delete;

   private:
    const Vcpu& v_;
    std::uint32_t* count_;
  };

  /// Per-PCPU scheduling event, period = one slot (10 ms), with per-PCPU
  /// phase offsets — Xen ticks PCPUs independently, and this stagger is
  /// what desynchronizes the online windows of a capped VM's VCPUs (the
  /// root condition for lock-holder preemption).
  void pcpu_tick(PcpuId p);
  /// Global credit-assignment event (bootstrap PCPU), period = K slots.
  void accounting_event();
  void do_accounting();
  /// Account online time (credit is debited separately by charge()).
  void burn(Vcpu& v, Cycles elapsed);
  /// Debit an online span of `elapsed` cycles against credit, per the
  /// configured AccountingMode. kStochastic (default): a full slot's
  /// credit is charged with probability elapsed/slot — unbiased in
  /// expectation, but quantized like Xen's tick sampling; the noise
  /// desynchronizes the park/unpark times of a capped VM's VCPUs, which is
  /// the precondition for lock-holder preemption. kExact: precise integer
  /// debit with carried sub-slot remainder. kTickSampled: span charges
  /// nothing (billing happens only at sampling instants — see the charge(v)
  /// overload); the span is counted as dodged if it crossed no instant.
  /// Also maintains the attributed-cycles theft meter in every mode.
  void charge(Vcpu& v, Cycles elapsed);
  /// Sampling-instant debit (kTickSampled): the caught VCPU pays one full
  /// slot, attributed in full. Kept an overload of charge() so every
  /// credit write stays inside the audited accounting paths that
  /// asman-lint's audit-seam check whitelists.
  void charge(Vcpu& v);
  /// Record a sampling instant on `p` and bill whoever is running there.
  void sample_instant(PcpuId p);
  /// Theft-meter bookkeeping: `span` cycles were billed to `v` and its VM.
  void attribute(Vcpu& v, Cycles span);
  /// BOOST rate limiter (wake path): meter the grant and, when
  /// ResilienceConfig::boost_limit is armed and the VM overflowed its
  /// window, deny BOOST for the penalty window. Counts in a RateWindow,
  /// like note_flap.
  bool grant_boost(Vm& m);
  /// Deschedule the current VCPU of `p` (burn, notify guest, requeue).
  void go_offline(PcpuId p);
  /// Like go_offline but leaves the VCPU unqueued (block path).
  Vcpu* unmap_current(PcpuId p);
  /// Move `v`'s home to `to`: the topology cost model's hop (note_migration)
  /// plus the host migration count. Queue membership is the caller's job.
  void rehome(Vcpu& v, PcpuId to);
  /// Relocation step for a member that is not running: a queued VCPU moves
  /// to `to`'s run queue and is rehomed; a blocked one only gets `to` as
  /// its new wake-up home (no migration is counted).
  void move_home(Vcpu& v, PcpuId to);
  /// Map `v` (currently queued on some PCPU) onto `p`.
  void go_online(PcpuId p, Vcpu* v);
  /// Audited choke points (docs/MODEL.md "Static guarantees"): every
  /// VcpuState write and run-queue membership change in the VMM flows
  /// through these three — asman-lint's audit-seam check rejects any
  /// other site — so the auditor's shadow state machine and queue
  /// partition scan can never drift from reality. enqueue/dequeue also
  /// keep Vcpu::queued_on and the queue's steal_candidates count.
  void set_state(Vcpu& v, VcpuState to);
  void enqueue(PcpuId p, Vcpu* v);
  bool dequeue(PcpuId p, Vcpu* v);
  /// Pick and map work for `p` per Algorithm 4; may steal or go idle.
  void dispatch(PcpuId p);
  /// Dispatch `p`, whose current VCPU just left, and open its idle span if
  /// nothing was picked.
  void redispatch(PcpuId p);
  /// Dispatch every online PCPU with nothing mapped, starting at `first`.
  void dispatch_idle(PcpuId first);
  /// Find the best migratable VCPU for an idle `p` from other run queues:
  /// a steal candidate (Vcpu::steal_candidate), or with `allow_over` any
  /// VCPU without a gang boost.
  Vcpu* steal_for(PcpuId p, bool allow_over);
  /// Algorithm 4 lines 5-7: IPI the PCPUs holding siblings of `head`.
  void launch_cosched(PcpuId from, Vcpu& head);
  void ipi_handler(PcpuId target, std::uint32_t vm_vector);
  /// (Re)arm a one-slot cosched boost on `v` (weak = launched from spare
  /// capacity; see PrioClass::kWeakCosched).
  void refresh_cosched_boost(Vcpu& v, bool weak);
  /// Co-stop (ESX-style): once no member of a coscheduled VM has credit
  /// left, deschedule the whole gang at once instead of letting members
  /// dribble out one by one (stragglers would only spin on absent peers).
  /// Also invoked when one member is preempted by a better VCPU
  /// (co-preempt): a half-present gang is worthless to the guest.
  void co_stop(Vm& v);
  /// go_offline + co-stop of the victim's gang if it is coscheduled.
  void preempt_current(PcpuId p);
  bool is_schedulable(const Vcpu& v) const;
  /// True if placing a VCPU of `vm_id` on `p` would co-locate gang members.
  bool would_collide(VmId vm_id, PcpuId p) const;

  // --- topology placement & migration cost (topology-gated) ------------------
  /// Cost model active: any multi-domain topology pays migration penalties,
  /// aware or not (comparisons stay at equal cost).
  bool topo_cost_active() const { return !topo_flat_; }
  /// Placement policy active: multi-domain topology and aware placement.
  bool topo_place_active() const { return topology_aware_ && !topo_flat_; }
  /// Record a migration of `v` from PCPU `from` to `to`: classify the hop
  /// (same-LLC moves are free), bump the cross-LLC/cross-socket counters,
  /// and — when v's cache_home is still warm — charge the refill penalty
  /// as cycles and a deterministic credit debit. No-op on flat topologies.
  void note_migration(Vcpu& v, PcpuId from, PcpuId to);
  /// Warm-cache penalty `v` would pay for landing on `to` right now
  /// (Cycles{0} when cold, same-LLC, or the cost model is inactive).
  Cycles would_be_penalty(const Vcpu& v, PcpuId to) const;
  /// The socket set relocate_vm may use under topology-aware placement:
  /// sockets pinned by running members, greedily extended (largest spare
  /// capacity first) until the rest fit. Shared with the audit invariant
  /// so scheduler and checker agree on "minimal".
  std::vector<bool> gang_socket_set(const Vm& v) const;
  /// True when the gang occupies more sockets than relocate_vm's minimal
  /// packing would use (relocation trigger + audit invariant).
  bool gang_spans_excess_sockets(const Vm& v) const;

  // --- memory-system contention (docs/MODEL.md §2.8, pressure-gated) ---------
  /// Engine (cost side) active: multi-domain topology, finite LLC
  /// capacity, and at least one VM declared a nonzero footprint. Mirrors
  /// topo_cost_active(): blind runs pay the same physics as aware runs.
  bool pressure_cost_active() const {
    return !topo_flat_ && footprints_seen_ && machine_.llc_bytes > 0;
  }
  /// Policy side active: engine running and pressure-aware placement on.
  bool pressure_place_active() const {
    return pressure_aware_ && pressure_cost_active();
  }
  /// Once per accounting period: recompute the occupancy partition and
  /// bandwidth pressure from authoritative placement (compute_contention),
  /// then split every VCPU's busy cycles since its pressure_mark into
  /// effective + degraded. The only writer of the pressure ledger
  /// (audit-seam rule); fires audit_contention() when done.
  void apply_contention();
  /// Periodic pressure balancer: when measured per-socket pressure
  /// diverges past a hysteresis band (and the cooldown expired), move one
  /// footprint-heavy VM from the hottest to the coolest socket through the
  /// audited relocation seams.
  void maybe_rebalance_pressure();
  /// Re-home every movable VCPU of `v` onto PCPUs of `socket` (running
  /// members stay; queued/blocked members move through move_home, exactly
  /// like relocate_vm). Returns true when any
  /// member actually moved; fires audit_relocated.
  bool rebalance_vm_to_socket(Vm& v, std::uint32_t socket);
  /// Working-set bytes `v` would park on the LLC of `p` (the steal gate's
  /// saturation test; 0 for zero-footprint VMs or inactive policy).
  std::uint64_t vcpu_llc_share(const Vcpu& v) const;

  // --- graceful degradation --------------------------------------------------
  /// Least-loaded online PCPU (tie: lowest id), preferring homes free of
  /// gang siblings and (under topology-aware placement) close to `near`,
  /// for evacuation and wake re-homing. Returns num_pcpus when none
  /// qualify (never happens while one PCPU stays online).
  PcpuId pick_online_home(VmId vm_for_collision, PcpuId near) const;
  /// True when two members share a home or a home went offline — placement
  /// a gang must not launch with. Only meaningful for cosched VMs.
  bool gang_homes_collide(const Vm& v) const;
  /// Re-spread a gang that lost its coherent placement (shared or offline
  /// homes, or excess sockets) before its next launch: relocate_vm, only
  /// while it is gang-scheduled.
  void respread_gang(Vm& v);
  /// Record a LOW->HIGH transition in the flap window; demote on overflow.
  void note_flap(Vm& v);
  void demote_vm(Vm& v, const char* why);
  /// Lift expired demotions and stale-HIGH VCRDs (accounting boundary).
  void degradation_tick(Vm& v);
  /// Verify the sibling an IPI targeted actually arrived; re-send up to the
  /// retry budget, then abandon the gang start for this slot.
  void ipi_ack_check(VmId vm_id, std::uint32_t vidx, std::uint32_t attempt,
                     bool strong);
  /// Arm (if not already armed) the per-VM partial-gang watchdog.
  void arm_gang_watchdog(Vm& v);
  void gang_watchdog_fire(VmId id);
  bool degradation_armed() const { return faults_armed_ || ipi_.lossy(); }

  // --- runtime lifecycle / admission (lifecycle.cpp) -------------------------
  /// Weighted load the host would carry with `extra` more weighted VCPUs;
  /// used by create_vm/resize_vm admission checks. Reads weighted_vcpus_,
  /// never the VM records.
  double prospective_load(double extra) const;
  bool admission_enabled() const {
    return admission_.max_vcpus_per_pcpu > 0.0;
  }
  /// Admission check for `n` more VCPUs of `weight`: false, counted in
  /// admission_rejects(), when they would push the load per online PCPU
  /// past the cap. `load` receives the prospective load for the caller's
  /// trace.
  bool admit(std::uint32_t n, std::uint32_t weight, double& load);
  /// Pick a home for a fresh VCPU: round-robin over online PCPUs, offset
  /// like boot-time placement so sibling VCPUs spread out. `self` is the
  /// VM under construction (create_vm builds it before it joins vms_, so
  /// the pressure spread reads already-placed sibling homes from it).
  PcpuId place_new_vcpu(VmId id, std::uint32_t vidx, const Vm& self) const;
  /// Take one VCPU off the machine: cancel its boosts, then unmap it
  /// (burn/charge as usual) or take it out of its run queue. Leaves it
  /// kRunnable and unqueued, or untouched when blocked or destroyed.
  /// Returns true when it was running, i.e. its PCPU `w.where` is now free.
  bool evict_vcpu(Vcpu& w);
  /// Retire one VCPU record: evict it, emit the audited ->Destroyed
  /// transition and zero its credit and pause latch. Returns evict_vcpu's
  /// "its PCPU is now free".
  bool drain_vcpu(Vcpu& w);
  /// Retire a live VM (destroy_vm, migrate_out): dead first, watchdog
  /// cancelled, HIGH interval closed, every VCPU drained into a kDestroyed
  /// tombstone, the freed PCPUs re-dispatched.
  void retire_vm(Vm& v);
  /// Seed a freshly migrated-in VM's credit from the carried pool:
  /// truncating equal split per VCPU, clamped to +/-credit_cap (the same
  /// shape as Algorithm 3's re-split, so credit-bounds and the next
  /// accounting pass hold). Returns the total actually credited. An
  /// audited credit writer: asman-lint's audit-seam whitelist names it.
  __int128 seed_credit(VmId id, __int128 pool);
  /// Park one VCPU in kBlocked through the audited paths (pause, halt and
  /// crash machinery): evict it, then block it. Returns evict_vcpu's "its
  /// PCPU is now free".
  bool park_vcpu(Vcpu& w);
  /// Re-dispatch every online PCPU in `freed` that is still empty.
  void redispatch_freed(const std::vector<PcpuId>& freed);
  /// Let idle PCPUs pick up new VCPUs (dispatch_idle) one event later, so
  /// the caller can attach_guest first.
  void defer_dispatch_idle();
  /// Overload governor: shed coscheduling when load crosses the shed
  /// threshold (called when load rises)...
  void maybe_shed_overload();
  /// ...and restore it after the backoff once load has fallen (called at
  /// accounting boundaries and when load falls).
  void maybe_restore_overload();

  // Audit notification helpers: one null check when no sink is installed.
  void audit_event(AuditPoint pt) {
    if (audit_) audit_->on_sched_event(pt);
  }
  void audit_transition(VcpuKey k, VcpuState from, VcpuState to) {
    if (audit_) audit_->on_state_change(k, from, to);
  }
  void audit_minted(VmId id, Credit inc) {
    if (audit_) audit_->on_accounting(id, inc);
  }
  void audit_created(VmId id) {
    if (audit_) audit_->on_vm_created(id);
  }
  void audit_resized(VmId id) {
    if (audit_) audit_->on_vm_resized(id);
  }
  void audit_relocated(VmId id) {
    if (audit_) audit_->on_relocated(id);
  }
  void audit_seeded(VmId id, __int128 pool) {
    if (audit_) audit_->on_seeded(id, pool);
  }
  void audit_contention() {
    if (audit_) audit_->on_contention();
  }
  /// Sum of one per-VM counter over every VM, tombstones included.
  std::uint64_t sum_vms(std::uint64_t Vm::*field) const {
    std::uint64_t n = 0;
    for (const auto& v : vms_) n += (*v).*field;
    return n;
  }

  hw::MachineConfig machine_;
  hw::Topology topo_;     // machine_.resolved_topology(), fixed at ctor
  bool topo_flat_{true};  // cached topo_.is_flat()
  bool topology_aware_{true};
  Cycles cross_llc_penalty_{0};
  Cycles cross_socket_penalty_{0};
  Cycles warm_window_{0};
  SchedMode mode_;
  sim::Trace* trace_;
  AuditSink* audit_{nullptr};
  FaultHook* fault_hook_{nullptr};
  sim::Rng rng_;
  hw::IpiBus ipi_;
  std::vector<std::unique_ptr<Vm>> vms_;
  std::vector<PcpuRec> pcpus_;
  std::uint32_t online_pcpus_{0};

  Cycles slot_len_;
  Cycles timeslice_len_;
  PcpuId dispatch_start_{0};  // rotates the accounting-pass dispatch order
  /// Algorithm 4's coscheduling mutex: at most one VM launches IPIs per
  /// scheduling-event instant (simultaneous dispatches share one instant).
  Cycles cosched_mutex_at_{Cycles::max()};
  bool started_{false};
  /// Crashed-host latch (halt()): the self-re-arming tick/accounting
  /// events check it first and stop re-arming; hypercalls bounce.
  bool halted_{false};
  bool in_scheduler_{false};  // guards against re-entrant hypercalls
  bool in_co_stop_{false};    // prevents co-stop cascades
  Strictness strictness_{Strictness::kStrict};

  ResilienceConfig resilience_;
  bool faults_armed_{false};

  AdmissionConfig admission_;
  /// Overload governor state: while set, cosched_eligible is false for
  /// every VM (gangs run under stock credit rules).
  bool overload_shed_{false};
  Cycles overload_until_{0};  // earliest restore after the last shed
  /// Sum of num_vcpus x weight over live VMs, updated wherever that sum
  /// changes: create_vm (migrate_in too), retire_vm (destroy_vm and
  /// migrate_out) and both branches of resize_vm.
  std::uint64_t weighted_vcpus_{0};

  Credit credit_cap_;
  std::uint64_t migrations_{0};
  std::uint64_t cross_llc_migrations_{0};
  std::uint64_t cross_socket_migrations_{0};
  Cycles migration_penalty_cycles_{0};
  std::uint64_t topology_steal_rejects_{0};

  // --- memory-system contention state (docs/MODEL.md §2.8) ---
  bool pressure_aware_{true};
  /// Latched by the first nonzero set_vm_footprint (never cleared: a
  /// tombstone's past occupancy already shaped history).
  bool footprints_seen_{false};
  /// Declared footprint per VmId (zero entries for undeclared VMs).
  std::vector<hw::memsys::MemFootprint> footprints_;
  /// The engine's published result for the last accounting period; also
  /// the cached demand view the steal gate and placement spread consult
  /// between periods.
  hw::memsys::ContentionPass pass_;
  /// apply_contention's engine input, one VmLoad per VmId, reused.
  std::vector<hw::memsys::VmLoad> contention_loads_;
  std::uint64_t pressure_accounted_total_{0};
  std::uint64_t pressure_degraded_total_{0};
  std::uint64_t pressure_effective_total_{0};
  std::uint64_t pressure_periods_{0};
  std::uint64_t pressure_steal_rejects_{0};
  std::uint64_t pressure_rebalances_{0};
  std::uint64_t footprint_config_errors_{0};
  /// Balancer hysteresis: last period (pressure_periods_ value) a swap
  /// fired; the cooldown keeps home assignments from ping-ponging.
  std::uint64_t last_pressure_rebalance_period_{0};
  std::uint64_t cosched_events_{0};
  std::uint64_t context_switches_{0};
  std::uint64_t ipi_retries_{0};
  std::uint64_t gang_ipi_aborts_{0};
  std::uint64_t gang_watchdog_fires_{0};
  std::uint64_t evacuated_vcpus_{0};
  std::uint64_t pcpu_offline_events_{0};
  std::uint64_t hypercall_rejects_{0};
  std::uint64_t ignored_kicks_{0};
  std::uint64_t admission_rejects_{0};
  std::uint64_t vm_creates_{0};
  std::uint64_t vm_destroys_{0};
  std::uint64_t vm_resizes_{0};
  std::uint64_t vm_migrations_out_{0};
  std::uint64_t vm_migrations_in_{0};
  std::uint64_t overload_sheds_{0};
  std::uint64_t overload_restores_{0};
  /// do_accounting's per-VM scratch (active set, Jain shares), reused.
  std::vector<bool> acct_active_;
  std::vector<double> acct_shares_;
  /// Per-accounting-period Jain fairness aggregates (see fairness_min()).
  double fairness_min_{1.0};
  double fairness_sum_{0.0};
  std::uint64_t fairness_periods_{0};
  /// The simulator's delay lanes for the self-re-arming timers, found at
  /// start(): a tick without jitter re-arms its own event one slot ahead
  /// in one, accounting one accounting period ahead in the other.
  sim::Lane tick_lane_;
  sim::Lane accounting_lane_;
};

/// The stock Xen Credit scheduler: proportional share, load balancing, no
/// coscheduling. This is the paper's baseline ("Credit").
class CreditScheduler final : public Hypervisor {
 public:
  using Hypervisor::Hypervisor;
};

}  // namespace asman::vmm
