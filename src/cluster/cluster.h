// Cluster fabric: N simulated hosts under one deterministic event engine.
//
// Each host is a full hw::Topology + vmm::Hypervisor instance; the fabric
// adds what a single host cannot express:
//
//   * a fleet-level placer that admits VMs cluster-wide (least weighted
//     VCPU load first, falling through the load order on admission
//     rejects). The order is walked, never sorted: next_host steps to the
//     eligible host with the next (score, index), each score an O(1) read
//     of the host's integer load ledger, so a placement is one pass over
//     the fleet per host tried and allocates nothing,
//   * live migration as an explicit retry/timeout/rollback state machine
//     (kPreCopy -> kStopAndCopy -> kCommit | kAbort, see
//     migration_spec.h) with modeled dirty-page copy cost and a bounded
//     stop-and-copy downtime window; credit crosses hosts as an audited
//     __int128 transfer through Hypervisor::migrate_out / migrate_in,
//   * host-level faults (faults::HostFaultSpec): a crashed host halts
//     audit-clean, its in-flight migrations roll back (source
//     authoritative, destination tombstones the partial copy) and its
//     resident VMs are re-admitted elsewhere carrying their last
//     heartbeat-minted credit,
//   * two cluster-wide invariants (audit::Invariant::kSingleOwnership,
//     kClusterCreditConservation), checked by ClusterAuditor at every
//     heartbeat and transfer seam.
//
// Everything is single-threaded and bit-reproducible per seed: migration
// timings derive from integer copy-cost arithmetic, fault times come from
// the plan, and every cluster event runs on the shared sim::Simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "audit/report.h"
#include "cluster/migration_spec.h"
#include "core/schedulers.h"
#include "faults/fault_plan.h"
#include "hw/machine.h"
#include "simcore/event_scope.h"
#include "simcore/simulator.h"
#include "vmm/hypervisor.h"

namespace asman::cluster {

class ClusterAuditor;

using HostId = std::uint32_t;
using ClusterVmId = std::uint32_t;
inline constexpr HostId kInvalidHostId = 0xFFFFFFFFu;
inline constexpr ClusterVmId kInvalidClusterVmId = 0xFFFFFFFFu;

/// Retry/timeout/rollback policy of the migration state machine and the
/// crash-recovery path. Zero-valued fields are derived from the machine
/// config at start().
struct RecoveryConfig {
  /// Give up iterating pre-copy after this many rounds and force the
  /// stop-and-copy (0 = 8).
  std::uint32_t max_precopy_rounds{0};
  /// Failed copy attempts (link loss, phase timeout) tolerated per
  /// migration before kAbort (0 = 3).
  std::uint32_t max_phase_retries{0};
  /// A single copy attempt (one pre-copy round or the final stop-and-copy)
  /// that has not completed after this long counts as a failed attempt
  /// (0 = 8 accounting periods).
  sim::Cycles phase_timeout{0};
  /// Base delay before re-attempting after a failed copy; doubles per
  /// retry — exponential backoff (0 = one slot).
  sim::Cycles retry_backoff{0};
  /// Stop-and-copy is entered only once the remaining dirty bytes copy
  /// within this budget (or the rounds are exhausted) — the bounded
  /// downtime window (0 = slot / 10).
  sim::Cycles max_downtime{0};
  /// Period of the fabric heartbeat that snapshots every resident VM's
  /// credit pool — the "last-minted credit" a crash recovery re-seeds
  /// (0 = one accounting period).
  sim::Cycles heartbeat_period{0};
};

/// Dirty-page copy cost model shared by every migration.
struct MigrationModel {
  /// Copy link bandwidth, MB/s (also the stop-and-copy drain rate).
  std::uint64_t link_mb_per_s{10240};
  /// Percent of the bytes copied in a round that are re-dirtied while the
  /// round ran (the writable-working-set ratio).
  std::uint32_t dirty_pct{30};
};

struct ClusterVmSpec {
  std::string name;  // must be cluster-unique (ownership is per name)
  std::uint32_t weight{256};
  std::uint32_t vcpus{2};
  vmm::VmType type{vmm::VmType::kGeneral};
  std::uint64_t ram_mb{512};  // migrated image size
};

struct ClusterConfig {
  std::uint32_t num_hosts{4};
  hw::MachineConfig machine{};  // uniform fleet
  core::SchedulerKind scheduler{core::SchedulerKind::kAsman};
  vmm::SchedMode mode{vmm::SchedMode::kNonWorkConserving};
  vmm::ResilienceConfig resilience{};
  vmm::AdmissionConfig admission{};  // per-host admission control
  RecoveryConfig recovery{};
  MigrationModel model{};
  std::uint64_t seed{1};
  /// Attach per-host auditors plus the cluster auditor (also forced on by
  /// the ASMAN_AUDIT environment variable, like run_scenario).
  bool audit{false};
  std::uint32_t audit_stride{1};
};

/// Fleet-side record of one admitted VM. The fabric tracks residency by
/// cluster id; the name is the cross-host identity the single-ownership
/// invariant scans for.
struct VmRecord {
  ClusterVmId id{kInvalidClusterVmId};
  std::string name;
  std::uint32_t weight{256};
  std::uint32_t vcpus{1};
  vmm::VmType type{vmm::VmType::kGeneral};
  std::uint64_t ram_mb{512};
  HostId host{kInvalidHostId};
  vmm::VmId local{vmm::kInvalidVmId};
  /// Crash recovery found no surviving host with admission headroom.
  bool lost{false};
  /// Destroyed on purpose (cluster retire); expected resident nowhere.
  bool retired{false};
  bool migrating{false};
  /// Credit pool at the last fabric heartbeat — what a crash re-seeds.
  __int128 heartbeat_credit{0};
  /// Times this VM was re-admitted after losing its host.
  std::uint64_t replacements{0};
};

/// One live-migration in flight (or completed). Append-only: the record
/// doubles as the migration's audit trail.
struct MigrationRec {
  ClusterVmId vm{kInvalidClusterVmId};
  HostId src{kInvalidHostId};
  HostId dst{kInvalidHostId};
  MigrationPhase phase{MigrationPhase::kIdle};
  std::uint32_t round{0};
  std::uint32_t retries{0};
  std::uint64_t bytes_left{0};
  bool active{false};
  /// Every copy/retry event of this migration is tracked here so a crash
  /// or abort cancels the machinery wholesale.
  sim::EventScope events;
};

class Cluster {
 public:
  Cluster(sim::Simulator& simulation, const ClusterConfig& cfg);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Fleet-level admission: place on the least-loaded live host, falling
  /// through the load order when a host's admission controller rejects.
  /// Returns kInvalidClusterVmId when every host rejects.
  ClusterVmId admit(const ClusterVmSpec& spec);

  /// Destroy a resident VM cluster-wide (aborts its in-flight migration
  /// first; the source stays authoritative until the rollback completes).
  bool retire(ClusterVmId id);

  /// Start a live migration. Returns false when the VM is not resident,
  /// already migrating, or `dst` is its current host / dead / degraded.
  bool migrate(ClusterVmId id, HostId dst);

  /// Least-loaded live host eligible as a migration target or placement
  /// site, skipping `exclude`: the first step of the placer's walk (ties go
  /// to the lower index). kInvalidHostId when none qualifies.
  HostId pick_host(HostId exclude = kInvalidHostId) const;

  /// Adopt the host-fault schedule of `plan` (kHostCrash / kHostDegraded /
  /// kMigrationLinkLoss). Call before start(); VCPU-level faults in the
  /// plan are ignored here (they stay per-host injector business).
  void inject(const faults::FaultPlan& plan);

  /// Boot every host, arm the heartbeat and the fault schedule.
  void start();

  /// Chaos seam: crash host `h` right now — halt it audit-clean, roll back
  /// its in-flight migrations and re-admit its resident VMs elsewhere with
  /// their last heartbeat credit. The injected kHostCrash events land
  /// here; tests drive it directly to hit exact FSM phases.
  void crash_host_now(HostId h);

  /// Observe every migration phase transition (fired from inside the
  /// set_phase seam). Test hook for phase-targeted fault injection; keep
  /// the callback re-entrancy-free (schedule, don't mutate).
  using PhaseHook =
      std::function<void(ClusterVmId, MigrationPhase from, MigrationPhase to)>;
  void set_phase_hook(PhaseHook hook) { phase_hook_ = std::move(hook); }

  // --- introspection ---
  std::uint32_t num_hosts() const {
    return static_cast<std::uint32_t>(hosts_.size());
  }
  vmm::Hypervisor& host(HostId h) { return *hosts_[h].hv; }
  const vmm::Hypervisor& host(HostId h) const { return *hosts_[h].hv; }
  bool host_alive(HostId h) const { return hosts_[h].alive; }
  bool host_degraded(HostId h) const { return hosts_[h].degraded; }
  std::size_t num_vms() const { return vms_.size(); }
  const VmRecord& vm(ClusterVmId id) const { return vms_[id]; }
  bool vm_resident(ClusterVmId id) const;
  std::size_t num_migrations() const { return migrations_.size(); }
  const MigrationRec& migration(std::size_t i) const {
    return *migrations_[i];
  }
  /// Phase of the VM's active migration (kIdle when none).
  MigrationPhase migration_phase(ClusterVmId id) const;
  const RecoveryConfig& recovery() const { return recovery_; }

  // --- counters ---
  std::uint64_t migrations_started() const { return migrations_started_; }
  std::uint64_t migrations_committed() const { return migrations_committed_; }
  std::uint64_t migrations_aborted() const { return migrations_aborted_; }
  std::uint64_t migrations_retried() const { return migrations_retried_; }
  std::uint64_t precopy_rounds() const { return precopy_rounds_; }
  std::uint64_t link_failures() const { return link_failures_; }
  std::uint64_t phase_timeouts() const { return phase_timeouts_; }
  std::uint64_t tombstoned_copies() const { return tombstoned_copies_; }
  std::uint64_t host_crashes() const { return host_crashes_; }
  std::uint64_t degraded_windows() const { return degraded_windows_; }
  std::uint64_t vms_replaced() const { return vms_replaced_; }
  std::uint64_t vms_lost() const { return vms_lost_; }
  std::uint64_t admission_rejects() const { return admission_rejects_; }
  std::uint64_t heartbeats() const { return heartbeats_; }
  std::uint64_t phase_transitions() const { return phase_transitions_; }
  /// Credit the split truncation/clamp left unseeded across all transfers
  /// (retained by the fabric, never silently minted back).
  long long residual_credit() const {
    return static_cast<long long>(residual_credit_);
  }
  /// Signed drift between what crashed hosts actually held and the
  /// heartbeat snapshots their VMs were re-seeded from (lost with the
  /// host — the price of recovering from stale state).
  long long crash_credit_delta() const {
    return static_cast<long long>(crash_credit_delta_);
  }

  /// Aggregated audit results over every host auditor plus the cluster
  /// auditor. All zeros / empty when no auditor is attached.
  std::uint64_t audit_checks() const;
  std::uint64_t audit_violations() const;
  std::string audit_summary() const;
  /// Run every full-state scan (per-host and cluster-wide) immediately.
  void check_now();

 private:
  friend class ClusterAuditor;

  struct HostRec {
    std::unique_ptr<vmm::Hypervisor> hv;
    bool alive{true};
    bool degraded{false};
    /// PCPUs taken offline by a kHostDegraded window, to bring back.
    std::vector<hw::PcpuId> degraded_offline;
    std::unique_ptr<audit::Auditor> auditor;
  };

  /// The single seam every migration phase write goes through; call sites
  /// carry assert() evidence of the from-phase so asman-lint's
  /// state-machine rule can check them against kLegalMigrationTransitions.
  void set_phase(MigrationRec& m, MigrationPhase to);

  /// Arm one copy attempt of the current phase (a pre-copy round or the
  /// stop-and-copy drain): finish_copy when the bytes left copy within the
  /// phase timeout, else fail_attempt at the timeout.
  void begin_attempt(std::size_t mi);
  /// A copy attempt finished: a downed link fails it; a finished
  /// stop-and-copy commits; a finished pre-copy round either enters the
  /// stop-and-copy or starts the next round.
  void finish_copy(std::size_t mi);
  void enter_stop_and_copy(std::size_t mi);
  void commit(std::size_t mi);
  /// A copy attempt failed: abort past the retry budget, else (from the
  /// stop-and-copy, after resuming the guest, back in pre-copy) retry
  /// after an exponential backoff.
  void fail_attempt(std::size_t mi);
  void abort_migration(MigrationRec& m);
  /// Successor in the placer's order: among live, non-degraded hosts
  /// other than `exclude`, the one with the smallest (score, index)
  /// strictly above `after`'s — the minimum for kInvalidHostId.
  /// kInvalidHostId when none is left.
  HostId next_host(HostId after, HostId exclude) const;
  void degrade_host(HostId h, sim::Cycles duration);
  /// The fabric heartbeat's event; it re-arms itself in heartbeat_lane_.
  void heartbeat();
  bool readmit(VmRecord& r);
  void snapshot_heartbeat(VmRecord& r);
  __int128 resident_pool(const VmRecord& r) const;
  sim::Cycles copy_cycles(std::uint64_t bytes) const;
  bool link_down(const MigrationRec& m) const;
  void note_transfer(const char* what, __int128 expected, __int128 ticket,
                     __int128 seeded);
  void audit_cluster_event();

  sim::Simulator& sim_;
  ClusterConfig cfg_;
  RecoveryConfig recovery_;  // resolved (no zero fields) at start()
  std::vector<HostRec> hosts_;
  std::vector<VmRecord> vms_;
  std::vector<std::unique_ptr<MigrationRec>> migrations_;
  std::vector<faults::HostFaultSpec> host_faults_;
  PhaseHook phase_hook_;
  bool started_{false};
  sim::Lane heartbeat_lane_;  // the simulator's lane for heartbeat_period

  std::uint64_t migrations_started_{0};
  std::uint64_t migrations_committed_{0};
  std::uint64_t migrations_aborted_{0};
  std::uint64_t migrations_retried_{0};
  std::uint64_t precopy_rounds_{0};
  std::uint64_t link_failures_{0};
  std::uint64_t phase_timeouts_{0};
  std::uint64_t tombstoned_copies_{0};
  std::uint64_t host_crashes_{0};
  std::uint64_t degraded_windows_{0};
  std::uint64_t vms_replaced_{0};
  std::uint64_t vms_lost_{0};
  std::uint64_t admission_rejects_{0};
  std::uint64_t heartbeats_{0};
  std::uint64_t phase_transitions_{0};
  __int128 residual_credit_{0};
  __int128 crash_credit_delta_{0};

  std::unique_ptr<ClusterAuditor> cluster_auditor_;
};

}  // namespace asman::cluster
