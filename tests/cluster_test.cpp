// Cluster fabric tests: the live-migration state machine (pre-copy ->
// stop-and-copy -> commit | abort), host-crash recovery, the fleet
// placer, and the two cluster-wide invariants — plus the parameterized
// sweep the ISSUE demands: a host crash injected at every observable FSM
// phase boundary must roll back cleanly (source authoritative,
// destination tombstoned), leave every auditor clean, and reproduce
// bit-identically per seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/migration_spec.h"
#include "experiments/cluster.h"
#include "simcore/event_scope.h"
#include "simcore/simulator.h"

namespace asman {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::ClusterVmId;
using cluster::ClusterVmSpec;
using cluster::HostId;
using cluster::MigrationPhase;
using sim::Cycles;

Cycles secs(double s) { return sim::kDefaultClock.from_seconds_f(s); }

ClusterConfig small_config(std::uint32_t hosts) {
  ClusterConfig cc;
  cc.num_hosts = hosts;
  cc.audit = true;  // non-fatal: the tests assert on the report
  return cc;
}

ClusterVmSpec tenant(const std::string& name, std::uint32_t vcpus = 2,
                     std::uint64_t ram_mb = 256) {
  ClusterVmSpec v;
  v.name = name;
  v.vcpus = vcpus;
  v.ram_mb = ram_mb;
  return v;
}

std::uint64_t counters_digest(const Cluster& cl) {
  const auto mix = [](std::uint64_t h, std::uint64_t v) {
    return h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
  };
  std::uint64_t h = 0;
  h = mix(h, cl.migrations_started());
  h = mix(h, cl.migrations_committed());
  h = mix(h, cl.migrations_aborted());
  h = mix(h, cl.migrations_retried());
  h = mix(h, cl.precopy_rounds());
  h = mix(h, cl.phase_transitions());
  h = mix(h, cl.tombstoned_copies());
  h = mix(h, cl.vms_replaced());
  h = mix(h, cl.vms_lost());
  h = mix(h, static_cast<std::uint64_t>(cl.residual_credit()));
  h = mix(h, static_cast<std::uint64_t>(cl.crash_credit_delta()));
  for (HostId hid = 0; hid < cl.num_hosts(); ++hid) {
    h = mix(h, cl.host(hid).context_switches());
    h = mix(h, cl.host(hid).vm_migrations_in());
    h = mix(h, cl.host(hid).vm_migrations_out());
  }
  return h;
}

// --- migration_spec sanity ---

TEST(MigrationSpecTest, LegalTransitionsMatchTheTable) {
  using cluster::legal_migration_transition;
  EXPECT_TRUE(legal_migration_transition(MigrationPhase::kIdle,
                                         MigrationPhase::kPreCopy));
  EXPECT_TRUE(legal_migration_transition(MigrationPhase::kPreCopy,
                                         MigrationPhase::kStopAndCopy));
  EXPECT_TRUE(legal_migration_transition(MigrationPhase::kPreCopy,
                                         MigrationPhase::kAbort));
  EXPECT_TRUE(legal_migration_transition(MigrationPhase::kStopAndCopy,
                                         MigrationPhase::kCommit));
  EXPECT_TRUE(legal_migration_transition(MigrationPhase::kStopAndCopy,
                                         MigrationPhase::kPreCopy));
  EXPECT_TRUE(legal_migration_transition(MigrationPhase::kStopAndCopy,
                                         MigrationPhase::kAbort));
  EXPECT_TRUE(legal_migration_transition(MigrationPhase::kCommit,
                                         MigrationPhase::kIdle));
  EXPECT_TRUE(legal_migration_transition(MigrationPhase::kAbort,
                                         MigrationPhase::kIdle));
  // The edges the lint fixture plants as violations really are illegal.
  EXPECT_FALSE(legal_migration_transition(MigrationPhase::kIdle,
                                          MigrationPhase::kCommit));
  EXPECT_FALSE(legal_migration_transition(MigrationPhase::kCommit,
                                          MigrationPhase::kPreCopy));
  EXPECT_FALSE(legal_migration_transition(MigrationPhase::kAbort,
                                          MigrationPhase::kStopAndCopy));
  EXPECT_FALSE(legal_migration_transition(MigrationPhase::kCommit,
                                          MigrationPhase::kAbort));
}

// --- EventScope (the cancel-wholesale primitive migrations lean on) ---

TEST(EventScopeTest, CancelAllStopsTrackedEvents) {
  sim::Simulator s;
  sim::EventScope scope;
  int fired = 0;
  scope.after(s, Cycles{100}, [&] { ++fired; });
  scope.after(s, Cycles{200}, [&] { ++fired; });
  const sim::EventId kept = s.after(Cycles{300}, [&] { ++fired; });
  EXPECT_EQ(scope.cancel_all(s), 2u);
  s.run_all();
  EXPECT_EQ(fired, 1);  // only the untracked event survived
  EXPECT_FALSE(s.pending(kept));
}

TEST(EventScopeTest, FiredEventsAreNotCancelled) {
  sim::Simulator s;
  sim::EventScope scope;
  int fired = 0;
  scope.after(s, Cycles{10}, [&] { ++fired; });
  s.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(scope.cancel_all(s), 0u);
}

// --- migration mechanics ---

TEST(ClusterMigrationTest, CommitMovesResidencyAndCarriesCredit) {
  sim::Simulator s;
  Cluster cl(s, small_config(2));
  const ClusterVmId vm = cl.admit(tenant("Mover"));
  ASSERT_NE(vm, cluster::kInvalidClusterVmId);
  const HostId src = cl.vm(vm).host;
  const HostId dst = 1 - src;
  cl.start();
  s.at(secs(0.05), [&] { EXPECT_TRUE(cl.migrate(vm, dst)); });
  s.run_until(secs(0.5));
  cl.check_now();
  EXPECT_EQ(cl.migrations_committed(), 1u);
  EXPECT_EQ(cl.migrations_aborted(), 0u);
  EXPECT_EQ(cl.vm(vm).host, dst);
  EXPECT_TRUE(cl.vm_resident(vm));
  EXPECT_EQ(cl.host(src).vm_migrations_out(), 1u);
  EXPECT_EQ(cl.host(dst).vm_migrations_in(), 1u);
  EXPECT_EQ(cl.audit_violations(), 0u) << cl.audit_summary();
}

TEST(ClusterMigrationTest, StopAndCopyDowntimeIsBounded) {
  sim::Simulator s;
  Cluster cl(s, small_config(2));
  const ClusterVmId vm = cl.admit(tenant("Big", 2, 1024));
  cl.start();
  Cycles frozen_at{0};
  Cycles committed_at{0};
  cl.set_phase_hook([&](ClusterVmId, MigrationPhase, MigrationPhase to) {
    if (to == MigrationPhase::kStopAndCopy) frozen_at = s.now();
    if (to == MigrationPhase::kCommit) committed_at = s.now();
  });
  s.at(secs(0.05), [&] { cl.migrate(vm, 1 - cl.vm(vm).host); });
  s.run_until(secs(1.0));
  ASSERT_EQ(cl.migrations_committed(), 1u);
  ASSERT_GT(committed_at.v, frozen_at.v);
  // The guest was frozen for at most the configured downtime budget —
  // the whole point of iterating pre-copy before stopping.
  EXPECT_LE((committed_at - frozen_at).v, cl.recovery().max_downtime.v);
  EXPECT_GT(cl.precopy_rounds(), 1u);
}

TEST(ClusterMigrationTest, LinkLossWindowRetriesThenCommits) {
  sim::Simulator s;
  ClusterConfig cc = small_config(2);
  Cluster cl(s, cc);
  const ClusterVmId vm = cl.admit(tenant("Flaky"));
  faults::FaultPlan plan;
  faults::HostFaultSpec f;
  f.kind = faults::HostFaultKind::kMigrationLinkLoss;
  f.host = 0;
  f.at = secs(0.05);
  f.duration = secs(0.1);
  plan.host.push_back(f);
  cl.inject(plan);
  cl.start();
  s.at(secs(0.05), [&] { cl.migrate(vm, 1 - cl.vm(vm).host); });
  s.run_until(secs(1.5));
  cl.check_now();
  EXPECT_GE(cl.link_failures(), 1u);
  EXPECT_GE(cl.migrations_retried(), 1u);
  EXPECT_EQ(cl.migrations_committed(), 1u);  // backoff outlived the window
  EXPECT_EQ(cl.audit_violations(), 0u) << cl.audit_summary();
}

TEST(ClusterMigrationTest, PermanentLinkLossAbortsAndSourceResumes) {
  sim::Simulator s;
  Cluster cl(s, small_config(2));
  const ClusterVmId vm = cl.admit(tenant("Stuck"));
  const HostId src = cl.vm(vm).host;
  faults::FaultPlan plan;
  faults::HostFaultSpec f;
  f.kind = faults::HostFaultKind::kMigrationLinkLoss;
  f.host = 0;
  f.at = Cycles{0};
  f.duration = Cycles{0};  // down for the rest of the run
  plan.host.push_back(f);
  cl.inject(plan);
  cl.start();
  s.at(secs(0.05), [&] { cl.migrate(vm, 1 - src); });
  s.run_until(secs(2.0));
  cl.check_now();
  EXPECT_EQ(cl.migrations_committed(), 0u);
  EXPECT_EQ(cl.migrations_aborted(), 1u);
  EXPECT_EQ(cl.tombstoned_copies(), 1u);
  // Source authoritative: the VM never moved and still runs at home.
  EXPECT_EQ(cl.vm(vm).host, src);
  EXPECT_TRUE(cl.vm_resident(vm));
  EXPECT_EQ(cl.migration_phase(vm), MigrationPhase::kIdle);
  EXPECT_EQ(cl.audit_violations(), 0u) << cl.audit_summary();
}

TEST(ClusterMigrationTest, RetireMidMigrationAbortsCleanly) {
  sim::Simulator s;
  Cluster cl(s, small_config(2));
  const ClusterVmId vm = cl.admit(tenant("Doomed", 2, 1024));
  cl.start();
  s.at(secs(0.05), [&] { cl.migrate(vm, 1 - cl.vm(vm).host); });
  s.at(secs(0.06), [&] { EXPECT_TRUE(cl.retire(vm)); });
  s.run_until(secs(0.5));
  cl.check_now();
  EXPECT_EQ(cl.migrations_aborted(), 1u);
  EXPECT_EQ(cl.migrations_committed(), 0u);
  EXPECT_TRUE(cl.vm(vm).retired);
  EXPECT_FALSE(cl.vm_resident(vm));
  EXPECT_EQ(cl.audit_violations(), 0u) << cl.audit_summary();
}

// --- placer & degraded hosts ---

TEST(ClusterPlacerTest, AdmissionPrefersTheLeastLoadedHost) {
  sim::Simulator s;
  Cluster cl(s, small_config(3));
  // Pile weight onto hosts 0 and 1; the next tenant must land on 2.
  ASSERT_EQ(cl.vm(cl.admit(tenant("A", 4))).host, 0u);
  ASSERT_EQ(cl.vm(cl.admit(tenant("B", 4))).host, 1u);
  EXPECT_EQ(cl.vm(cl.admit(tenant("C", 1))).host, 2u);
}

TEST(ClusterPlacerTest, DegradedHostIsSkippedAndRecovers) {
  sim::Simulator s;
  Cluster cl(s, small_config(2));
  faults::FaultPlan plan;
  faults::HostFaultSpec f;
  f.kind = faults::HostFaultKind::kHostDegraded;
  f.host = 0;
  f.at = secs(0.05);
  f.duration = secs(0.2);
  plan.host.push_back(f);
  cl.inject(plan);
  cl.start();
  ClusterVmId hot = cluster::kInvalidClusterVmId;
  s.at(secs(0.1), [&] { hot = cl.admit(tenant("Hot")); });
  s.run_until(secs(0.5));
  cl.check_now();
  ASSERT_NE(hot, cluster::kInvalidClusterVmId);
  EXPECT_EQ(cl.vm(hot).host, 1u);  // host 0 was degraded at admit time
  EXPECT_EQ(cl.degraded_windows(), 1u);
  EXPECT_FALSE(cl.host_degraded(0));  // window ended, PCPUs back online
  EXPECT_EQ(cl.host(0).online_pcpus(), cl.host(1).online_pcpus());
  EXPECT_EQ(cl.audit_violations(), 0u) << cl.audit_summary();
}

TEST(ClusterPlacerTest, EqualScoresGoToTheLowerIndex) {
  sim::Simulator s;
  Cluster cl(s, small_config(3));
  EXPECT_EQ(cl.pick_host(), 0u);
  EXPECT_EQ(cl.pick_host(0), 1u);
  // Identical tenants: each admission leaves the chosen host one step
  // ahead, so the fleet fills round-robin by index.
  for (std::uint32_t i = 0; i < 7; ++i)
    EXPECT_EQ(cl.vm(cl.admit(tenant("T" + std::to_string(i)))).host, i % 3)
        << "tenant " << i;
}

TEST(ClusterPlacerTest, ExcludedDegradedAndCrashedHostsAreSkipped) {
  sim::Simulator s;
  Cluster cl(s, small_config(4));
  faults::FaultPlan plan;
  faults::HostFaultSpec f;
  f.kind = faults::HostFaultKind::kHostDegraded;
  f.host = 1;
  f.at = secs(0.05);
  f.duration = Cycles{0};  // degraded for the rest of the run
  plan.host.push_back(f);
  cl.inject(plan);
  cl.start();
  s.at(secs(0.1), [&] {
    cl.crash_host_now(0);
    EXPECT_EQ(cl.pick_host(), 2u);
    EXPECT_EQ(cl.pick_host(2), 3u);
    EXPECT_EQ(cl.vm(cl.admit(tenant("A"))).host, 2u);
    EXPECT_EQ(cl.vm(cl.admit(tenant("B"))).host, 3u);
    EXPECT_EQ(cl.vm(cl.admit(tenant("C"))).host, 2u);
    cl.crash_host_now(3);
    EXPECT_EQ(cl.pick_host(), 2u);
    EXPECT_EQ(cl.pick_host(2), cluster::kInvalidHostId);
  });
  s.run_until(secs(0.2));
  EXPECT_TRUE(cl.host_degraded(1));
  EXPECT_EQ(cl.audit_violations(), 0u) << cl.audit_summary();
}

/// Four 4-PCPU hosts capped at one weighted VCPU per online PCPU, so
/// admission headroom depends on online PCPUs while the placer's score is
/// load per online PCPU: the two orders disagree.
ClusterConfig capped_config() {
  ClusterConfig cc = small_config(4);
  cc.machine.num_pcpus = 4;
  cc.admission.max_vcpus_per_pcpu = 1.0;
  return cc;
}

/// Leave only host `h`'s first `n` PCPUs online.
void keep_pcpus_online(Cluster& cl, HostId h, hw::PcpuId n) {
  for (hw::PcpuId p = n; p < 4; ++p) cl.host(h).fault_pcpu_offline(p);
}

TEST(ClusterPlacerTest, RejectedAdmissionFallsThroughInScoreIndexOrder) {
  sim::Simulator s;
  Cluster cl(s, capped_config());
  // Host 0: score 0.25 with room for 3 VCPUs. Hosts 1 and 2: idle (score
  // 0) on 1 and 2 online PCPUs, no room for 3. Host 3: idle, 4 PCPUs.
  ASSERT_NE(cl.host(0).create_vm("pre0", 256, 1), vmm::kInvalidVmId);
  keep_pcpus_online(cl, 1, 1);
  keep_pcpus_online(cl, 2, 2);

  // (0, 1) and (0, 2) reject; (0, 3) accepts before (0.25, 0) is tried.
  const ClusterVmId t = cl.admit(tenant("T", 3));
  ASSERT_NE(t, cluster::kInvalidClusterVmId);
  EXPECT_EQ(cl.vm(t).host, 3u);
  // Now host 3 scores 0.75: (0, 1), (0, 2) reject, (0.25, 0) accepts.
  const ClusterVmId u = cl.admit(tenant("U", 3));
  ASSERT_NE(u, cluster::kInvalidClusterVmId);
  EXPECT_EQ(cl.vm(u).host, 0u);
  // Nothing fits anywhere: all four reject, the fleet counts one.
  EXPECT_EQ(cl.admit(tenant("W", 3)), cluster::kInvalidClusterVmId);
  EXPECT_EQ(cl.admission_rejects(), 1u);
  const std::uint64_t want[] = {1, 3, 3, 1};
  for (HostId h = 0; h < 4; ++h)
    EXPECT_EQ(cl.host(h).admission_rejects(), want[h]) << "host " << h;
}

TEST(ClusterCrashTest, ReadmissionFallsThroughInScoreIndexOrder) {
  sim::Simulator s;
  Cluster cl(s, capped_config());
  const ClusterVmId x = cl.admit(tenant("X", 3));
  ASSERT_EQ(cl.vm(x).host, 0u);  // an all-idle fleet: index breaks the tie
  // Survivors: host 1 at 0.5 (no room for 3), host 2 at 0.25 (room for 3),
  // host 3 idle on one online PCPU (score 0, no room).
  ASSERT_NE(cl.host(1).create_vm("pre1", 256, 2), vmm::kInvalidVmId);
  ASSERT_NE(cl.host(2).create_vm("pre2", 256, 1), vmm::kInvalidVmId);
  keep_pcpus_online(cl, 3, 1);
  cl.start();
  s.at(secs(0.05), [&] { cl.crash_host_now(0); });
  s.run_until(secs(0.1));
  // (0, 3) rejects, (0.25, 2) accepts; (0.5, 1) is never tried.
  EXPECT_EQ(cl.vms_replaced(), 1u);
  EXPECT_EQ(cl.vm(x).host, 2u);
  EXPECT_EQ(cl.host(3).admission_rejects(), 1u);
  EXPECT_EQ(cl.host(2).admission_rejects(), 0u);
  EXPECT_EQ(cl.host(1).admission_rejects(), 0u);
  EXPECT_EQ(cl.audit_violations(), 0u) << cl.audit_summary();
}

// --- host crash recovery ---

TEST(ClusterCrashTest, CrashedHostsVmsComeBackWithHeartbeatCredit) {
  sim::Simulator s;
  Cluster cl(s, small_config(2));
  const ClusterVmId a = cl.admit(tenant("A"));
  const ClusterVmId b = cl.admit(tenant("B"));
  // Both on distinct hosts; push B's host over so A and B share host 0?
  // Admission is load-ordered, so A landed on 0 and B on 1. Crash 0.
  cl.start();
  s.at(secs(0.3), [&] { cl.crash_host_now(0); });
  s.run_until(secs(0.6));
  cl.check_now();
  EXPECT_EQ(cl.host_crashes(), 1u);
  EXPECT_FALSE(cl.host_alive(0));
  EXPECT_EQ(cl.vms_lost(), 0u);
  EXPECT_EQ(cl.vms_replaced(), 1u);  // A re-admitted on host 1
  EXPECT_TRUE(cl.vm_resident(a));
  EXPECT_TRUE(cl.vm_resident(b));
  EXPECT_EQ(cl.vm(a).host, 1u);
  EXPECT_EQ(cl.vm(a).replacements, 1u);
  EXPECT_EQ(cl.audit_violations(), 0u) << cl.audit_summary();
}

// --- the ISSUE's parameterized sweep: crash at every FSM phase ---

struct PhaseCrashCase {
  MigrationPhase phase;  // crash when the migration enters this phase
  bool crash_src;        // else crash the destination
};

class PhaseCrashTest : public ::testing::TestWithParam<PhaseCrashCase> {};

TEST_P(PhaseCrashTest, RollbackIsAuditCleanAndReproducible) {
  const PhaseCrashCase pc = GetParam();
  const auto run = [&](std::uint64_t seed) -> std::uint64_t {
    sim::Simulator s;
    Cluster cl(s, small_config(3));
    // A little fleet so the crashed host has bystander VMs to recover
    // besides the migrating one.
    const ClusterVmId mover =
        cl.admit(tenant("Mover" + std::to_string(seed), 2, 512));
    cl.admit(tenant("Bystander0", 1));
    cl.admit(tenant("Bystander1", 1));
    cl.admit(tenant("Bystander2", 2));
    cl.start();
    HostId src = cluster::kInvalidHostId;
    HostId dst = cluster::kInvalidHostId;
    s.at(secs(0.05), [&] {
      src = cl.vm(mover).host;
      dst = cl.pick_host(src);
      ASSERT_TRUE(cl.migrate(mover, dst));
    });
    bool armed = false;
    cl.set_phase_hook([&](ClusterVmId id, MigrationPhase, MigrationPhase to) {
      if (armed || id != mover || to != pc.phase) return;
      armed = true;
      // Defer one cycle: the hook fires inside the seam, mid-event.
      s.after(Cycles{1}, [&cl, &pc, src, dst] {
        cl.crash_host_now(pc.crash_src ? src : dst);
      });
    });
    s.run_until(secs(1.0));
    cl.check_now();
    EXPECT_TRUE(armed) << "migration never reached the target phase";
    EXPECT_EQ(cl.host_crashes(), 1u);
    EXPECT_EQ(cl.vms_lost(), 0u);
    // The mover survived the crash whichever side died: either the
    // commit had not happened (source authoritative / re-admitted from
    // the heartbeat) or it had (resident on the destination).
    EXPECT_TRUE(cl.vm_resident(mover));
    EXPECT_EQ(cl.migration_phase(mover), MigrationPhase::kIdle);
    EXPECT_EQ(cl.audit_violations(), 0u) << cl.audit_summary();
    return counters_digest(cl);
  };
  // Bit-reproducible: the same seed replays the identical run.
  EXPECT_EQ(run(5), run(5));
}

INSTANTIATE_TEST_SUITE_P(
    EveryPhaseBoundary, PhaseCrashTest,
    ::testing::Values(PhaseCrashCase{MigrationPhase::kPreCopy, true},
                      PhaseCrashCase{MigrationPhase::kPreCopy, false},
                      PhaseCrashCase{MigrationPhase::kStopAndCopy, true},
                      PhaseCrashCase{MigrationPhase::kStopAndCopy, false},
                      // kCommit/kAbort are atomic within one event; the
                      // crash lands at the first boundary after them.
                      PhaseCrashCase{MigrationPhase::kCommit, true},
                      PhaseCrashCase{MigrationPhase::kCommit, false}),
    [](const ::testing::TestParamInfo<PhaseCrashCase>& param_info) {
      std::string n = cluster::to_string(param_info.param.phase);
      for (char& c : n)
        if (c == '-') c = '_';
      return n + (param_info.param.crash_src ? "_src" : "_dst");
    });

// --- scenario-level runs (the acceptance shape) ---

TEST(ClusterScenarioTest, DemoFleetRunsCleanAndLosesNothing) {
  namespace ex = asman::experiments;
  ex::ClusterScenario sc = ex::cluster_scenario(core::SchedulerKind::kAsman, 7);
  sc.audit = true;
  const ex::ClusterRunResult rr = ex::run_cluster_scenario(sc);
  EXPECT_EQ(rr.migrations_committed, 3u);
  EXPECT_EQ(rr.host_crashes, 1u);
  EXPECT_EQ(rr.vms_lost, 0u);
  EXPECT_GT(rr.vms_replaced, 0u);
  EXPECT_EQ(rr.audit_violations, 0u) << rr.audit_summary;
}

TEST(ClusterScenarioTest, ChaosFingerprintIsBitReproducible) {
  namespace ex = asman::experiments;
  const ex::ClusterScenario sc =
      ex::cluster_chaos_scenario(core::SchedulerKind::kAsman, 8, 32, 3);
  const ex::ClusterRunResult r1 = ex::run_cluster_scenario(sc);
  const ex::ClusterRunResult r2 = ex::run_cluster_scenario(sc);
  EXPECT_EQ(r1.fingerprint, r2.fingerprint);
  EXPECT_EQ(r1.events, r2.events);
  // Attaching the auditors must not perturb the schedule.
  ex::ClusterScenario audited = sc;
  audited.audit = true;
  const ex::ClusterRunResult r3 = ex::run_cluster_scenario(audited);
  EXPECT_EQ(r1.fingerprint, r3.fingerprint);
  EXPECT_EQ(r3.audit_violations, 0u) << r3.audit_summary;
}

TEST(ClusterScenarioTest, SixteenHostStormSurvivesAudited) {
  namespace ex = asman::experiments;
  ex::ClusterScenario sc =
      ex::cluster_chaos_scenario(core::SchedulerKind::kAsman, 16, 64, 9);
  sc.audit = true;
  const ex::ClusterRunResult rr = ex::run_cluster_scenario(sc);
  EXPECT_EQ(rr.host_crashes, 2u);
  EXPECT_EQ(rr.vms_lost, 0u);
  EXPECT_GT(rr.vms_replaced, 0u);
  EXPECT_GT(rr.migrations_committed, 0u);
  EXPECT_EQ(rr.audit_violations, 0u) << rr.audit_summary;
  EXPECT_GT(rr.audit_checks, 0u);
}

TEST(ClusterScenarioTest, EverySchedulerSurvivesTheStorm) {
  namespace ex = asman::experiments;
  for (const core::SchedulerKind k :
       {core::SchedulerKind::kCredit, core::SchedulerKind::kCon,
        core::SchedulerKind::kAsman}) {
    ex::ClusterScenario sc = ex::cluster_chaos_scenario(k, 4, 16, 5);
    sc.audit = true;
    const ex::ClusterRunResult rr = ex::run_cluster_scenario(sc);
    EXPECT_EQ(rr.vms_lost, 0u) << core::to_string(k);
    EXPECT_EQ(rr.audit_violations, 0u)
        << core::to_string(k) << "\n"
        << rr.audit_summary;
  }
}

}  // namespace
}  // namespace asman
