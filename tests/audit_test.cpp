// Auditor tests: a clean scheduler run audits clean, and each invariant
// class is provably detected via seeded violations (deliberate corruption
// of hypervisor state, or synthetic sink streams for the stateful checks).
#include "audit/auditor.h"

#include <gtest/gtest.h>

#include "core/schedulers.h"
#include "experiments/scenario.h"
#include "hw/memsys/footprint.h"
#include "simcore/simulator.h"
#include "vmm/hypervisor.h"

namespace asman::audit {
namespace {

using vmm::Vcpu;
using vmm::VcpuState;
using vmm::VmId;

hw::MachineConfig small_machine(std::uint32_t pcpus) {
  hw::MachineConfig m;
  m.num_pcpus = pcpus;
  return m;
}

sim::Cycles seconds(double s) { return sim::kDefaultClock.from_seconds_f(s); }

/// Two compute-only VMs on 4 PCPUs under ASMan, auditor attached.
struct Rig {
  sim::Simulator sim;
  core::AdaptiveScheduler hv;
  VmId v0, v1;
  Auditor auditor;

  explicit Rig(AuditorConfig cfg = {})
      : hv(sim, small_machine(4), vmm::SchedMode::kNonWorkConserving),
        v0(hv.create_vm("V0", 256, 2)),
        v1(hv.create_vm("V1", 128, 3)),
        auditor(sim, hv, cfg) {}
};

std::uint64_t violations(const Auditor& a, Invariant inv) {
  return a.report().entry(inv).violations;
}

TEST(Auditor, CleanRunReportsNoViolations) {
  Rig r;
  r.hv.start();
  r.sim.run_until(seconds(0.5));
  // Raise V1 to HIGH mid-run so the gang-coherence scan has a gang to audit.
  r.hv.do_vcrd_op(r.v1, vmm::Vcrd::kHigh);
  r.sim.run_until(seconds(1.0));
  r.auditor.check_now();
  const AuditReport& rep = r.auditor.report();
  EXPECT_GT(rep.events, 100u);
  EXPECT_GT(rep.full_scans, 100u);
  EXPECT_GT(rep.entry(Invariant::kCreditBounds).checks, 0u);
  EXPECT_GT(rep.entry(Invariant::kCreditConservation).checks, 0u);
  EXPECT_GT(rep.entry(Invariant::kQueuePartition).checks, 0u);
  EXPECT_GT(rep.entry(Invariant::kStateMachine).checks, 0u);
  EXPECT_GT(rep.entry(Invariant::kGangCoherence).checks, 0u);
  EXPECT_GT(rep.entry(Invariant::kTimeMonotonic).checks, 0u);
  EXPECT_EQ(rep.total_violations(), 0u);
  EXPECT_TRUE(rep.clean());
}

TEST(Auditor, StrideSkipsFullScansButKeepsLedgerChecks) {
  AuditorConfig cfg;
  cfg.stride = 64;
  Rig dense;
  Rig sparse(cfg);
  dense.hv.start();
  sparse.hv.start();
  dense.sim.run_until(seconds(0.5));
  sparse.sim.run_until(seconds(0.5));
  EXPECT_LT(sparse.auditor.report().full_scans,
            dense.auditor.report().full_scans / 8);
  EXPECT_EQ(sparse.auditor.report()
                .entry(Invariant::kCreditConservation)
                .checks,
            dense.auditor.report()
                .entry(Invariant::kCreditConservation)
                .checks);
  EXPECT_TRUE(sparse.auditor.report().clean());
}

TEST(Auditor, DetectsCreditBoundViolation) {
  Rig r;
  r.hv.start();
  r.sim.run_until(seconds(0.1));
  r.hv.vm(r.v1).vcpus[0].credit = 10 * r.hv.credit_cap();
  r.auditor.check_now();
  EXPECT_GE(violations(r.auditor, Invariant::kCreditBounds), 1u);
  EXPECT_FALSE(r.auditor.report().clean());
  EXPECT_NE(r.auditor.report()
                .entry(Invariant::kCreditBounds)
                .first_offender.find("v1.0"),
            std::string::npos);
}

TEST(Auditor, DetectsVcpuDuplicatedAcrossRunQueues) {
  Rig r;
  r.hv.start();
  r.sim.run_until(seconds(0.1));
  // Find a queued VCPU and push the same record onto another PCPU's queue —
  // exactly the double-enqueue bug class the partition invariant exists for.
  Vcpu* dup = nullptr;
  for (hw::PcpuId p = 0; p < r.hv.machine().num_pcpus && !dup; ++p)
    for (Vcpu* v : r.hv.runqueue(p).entries()) {
      dup = v;
      break;
    }
  ASSERT_NE(dup, nullptr) << "expected at least one queued VCPU";
  const hw::PcpuId other =
      static_cast<hw::PcpuId>((dup->where + 1) % r.hv.machine().num_pcpus);
  r.hv.mutable_runqueue(other).push(dup);
  r.auditor.check_now();
  EXPECT_GE(violations(r.auditor, Invariant::kQueuePartition), 1u);
}

TEST(Auditor, DetectsVcpuQueuedTwiceOnItsOwnPcpu) {
  Rig r;
  r.hv.start();
  r.sim.run_until(seconds(0.1));
  Vcpu* dup = nullptr;
  for (hw::PcpuId p = 0; p < r.hv.machine().num_pcpus && !dup; ++p)
    for (Vcpu* v : r.hv.runqueue(p).entries()) {
      dup = v;
      break;
    }
  ASSERT_NE(dup, nullptr) << "expected at least one queued VCPU";
  // Both entries sit on the queue `where` names and the VCPU is runnable,
  // so every per-entry check passes: only the reference count (2) can see
  // the duplicate.
  r.hv.mutable_runqueue(dup->where).push(dup);
  r.auditor.check_now();
  EXPECT_EQ(violations(r.auditor, Invariant::kQueuePartition), 1u);
  EXPECT_EQ(r.auditor.report().entry(Invariant::kQueuePartition).first_offender,
            "v" + std::to_string(dup->key.vm) + "." +
                std::to_string(dup->key.idx) +
                " runnable but queued on 2 queue(s), current on 0 PCPU(s)");
  EXPECT_EQ(r.auditor.report().total_violations(), 1u)
      << r.auditor.report().summary();
  ASSERT_TRUE(r.hv.mutable_runqueue(dup->where).remove(dup));
}

TEST(Auditor, DetectsBlockedVcpuHomedOutsideTheMachine) {
  Rig r;
  r.hv.start();
  r.sim.run_until(seconds(0.1));
  ASSERT_FALSE(r.hv.gang_scheduled(r.v0));
  r.hv.vcpu_block(r.v0, 1);
  Vcpu& c = r.hv.vm(r.v0).vcpus[1];
  ASSERT_EQ(c.state, VcpuState::kBlocked);
  const AuditReport start = r.auditor.report();
  r.auditor.check_now();
  const AuditReport clean = r.auditor.report();
  ASSERT_TRUE(clean.clean()) << clean.summary();
  // A blocked VCPU sits in no queue, so no reference names its home; only
  // the range check can notice that `where` points past the last PCPU.
  const std::uint32_t n = r.hv.machine().num_pcpus;
  c.where = n + 3;
  r.auditor.check_now();
  const AuditReport& after = r.auditor.report();
  EXPECT_EQ(violations(r.auditor, Invariant::kQueuePartition), 1u);
  EXPECT_EQ(after.total_violations(), 1u) << after.summary();
  EXPECT_EQ(after.entry(Invariant::kQueuePartition).first_offender,
            "v0.1 where=P" + std::to_string(n + 3) + " outside the " +
                std::to_string(n) + " PCPUs");
  // The finding rides on the VCPU's existing check: each invariant's count
  // moves by exactly what the clean scan added.
  for (std::size_t i = 0; i < kNumInvariants; ++i) {
    const auto inv = static_cast<Invariant>(i);
    EXPECT_EQ(after.entry(inv).checks - clean.entry(inv).checks,
              clean.entry(inv).checks - start.entry(inv).checks)
        << to_string(inv);
  }
}

TEST(Auditor, DetectsGangMemberHomedOutsideTheMachine) {
  Rig r;
  r.hv.start();
  r.sim.run_until(seconds(0.1));
  r.hv.do_vcrd_op(r.v1, vmm::Vcrd::kHigh);
  ASSERT_TRUE(r.hv.gang_scheduled(r.v1));
  r.hv.vcpu_block(r.v1, 2);
  Vcpu& c = r.hv.vm(r.v1).vcpus[2];
  ASSERT_EQ(c.state, VcpuState::kBlocked);
  // The gang walk places members by `where`; an out-of-range home must be
  // reported, never used as a PCPU index.
  c.where = r.hv.machine().num_pcpus + 3;
  r.auditor.check_now();
  EXPECT_EQ(violations(r.auditor, Invariant::kQueuePartition), 1u);
  EXPECT_EQ(violations(r.auditor, Invariant::kGangCoherence), 0u);
}

TEST(Auditor, DetectsOrphanedRunnableVcpu) {
  Rig r;
  r.hv.start();
  r.sim.run_until(seconds(0.1));
  Vcpu* orphan = nullptr;
  for (hw::PcpuId p = 0; p < r.hv.machine().num_pcpus && !orphan; ++p)
    for (Vcpu* v : r.hv.runqueue(p).entries()) {
      orphan = v;
      break;
    }
  ASSERT_NE(orphan, nullptr);
  // Drop it from its queue while leaving it kRunnable: now nothing will
  // ever dispatch it (a lost-VCPU bug).
  ASSERT_TRUE(r.hv.mutable_runqueue(orphan->where).remove(orphan));
  r.auditor.check_now();
  EXPECT_GE(violations(r.auditor, Invariant::kQueuePartition), 1u);
}

TEST(Auditor, DetectsCreditConservationViolation) {
  Rig r;
  r.hv.start();
  r.sim.run_until(seconds(0.1));
  // Replay an accounting pass by hand: snapshot the pools, then corrupt a
  // credit before reporting the mint. The recomputed redistribution no
  // longer matches the live state.
  r.auditor.on_sched_event(vmm::AuditPoint::kAccountingBegin);
  r.hv.vm(r.v1).vcpus[1].credit += 12345;
  r.auditor.on_accounting(r.v1, 0);
  EXPECT_GE(violations(r.auditor, Invariant::kCreditConservation), 1u);
}

TEST(Auditor, DetectsOverMint) {
  Rig r;
  r.hv.start();
  r.sim.run_until(seconds(0.1));
  r.auditor.on_sched_event(vmm::AuditPoint::kAccountingBegin);
  const std::int64_t total = static_cast<std::int64_t>(4) *
                             vmm::kCreditPerSlot *
                             r.hv.machine().slots_per_accounting;
  r.auditor.on_accounting(r.v1, total + 1);
  EXPECT_GE(violations(r.auditor, Invariant::kCreditConservation), 1u);
}

TEST(Auditor, DetectsCycleConservationViolation) {
  Rig r;
  r.hv.start();
  r.sim.run_until(seconds(0.1));
  EXPECT_GT(r.auditor.report().entry(Invariant::kCycleConservation).checks,
            0u);
  EXPECT_EQ(violations(r.auditor, Invariant::kCycleConservation), 0u);
  // Inflate a VM's consumed-cycles ledger without touching any PCPU's busy
  // counter: the VM side of the conservation equation no longer matches.
  r.hv.vm(r.v1).total_online += sim::Cycles{12345};
  r.auditor.check_now();
  EXPECT_GE(violations(r.auditor, Invariant::kCycleConservation), 1u);
  EXPECT_FALSE(r.auditor.report().clean());
}

TEST(Auditor, DetectsUnquantizedAttributionUnderSampledAccounting) {
  Rig r;
  r.hv.start();
  r.sim.run_until(seconds(0.1));
  // Stochastic/tick-sampled accounting attributes whole slots only; a
  // stray sub-slot remainder means someone charged outside the seam.
  r.hv.vm(r.v0).cycles_attributed += sim::Cycles{1};
  r.auditor.check_now();
  EXPECT_GE(violations(r.auditor, Invariant::kCycleConservation), 1u);
}

TEST(Auditor, DetectsAttributionGapUnderExactAccounting) {
  Rig r;
  vmm::ResilienceConfig res;
  res.accounting = vmm::AccountingMode::kExact;
  r.hv.set_resilience(res);
  r.hv.start();
  r.sim.run_until(seconds(0.1));
  EXPECT_EQ(violations(r.auditor, Invariant::kCycleConservation), 0u);
  // Exact accounting promises attributed == consumed per VM. Open a gap
  // on both sides of the VM ledger so the conservation sum stays intact
  // and only the per-VM attribution check can catch it.
  vmm::Vm& m = r.hv.vm(r.v0);
  m.cycles_attributed = sim::Cycles{m.total_online.v / 2};
  r.auditor.check_now();
  EXPECT_GE(violations(r.auditor, Invariant::kCycleConservation), 1u);
}

TEST(Auditor, OneScanReportsEveryBrokenInvariant) {
  Rig r;
  r.hv.start();
  r.sim.run_until(seconds(0.1));
  const vmm::Credit cap = r.hv.credit_cap();
  r.hv.vm(r.v1).vcpus[0].credit = 10 * cap;
  r.hv.vm(r.v1).total_online += sim::Cycles{12345};
  std::uint64_t busy = 0;
  for (hw::PcpuId p = 0; p < r.hv.machine().num_pcpus; ++p)
    busy += r.hv.pcpu_busy_total(p).v;
  r.auditor.check_now();
  const AuditReport& rep = r.auditor.report();
  EXPECT_EQ(rep.total_violations(), 2u) << rep.summary();
  EXPECT_EQ(rep.entry(Invariant::kCreditBounds).first_offender,
            "v1.0 credit " + std::to_string(10 * cap) + " outside [-" +
                std::to_string(cap) + ", " + std::to_string(cap) + "]");
  EXPECT_EQ(rep.entry(Invariant::kCycleConservation).first_offender,
            "consumed-cycle ledger split: VMs consumed " +
                std::to_string(busy + 12345) + " cycles but PCPUs were busy " +
                std::to_string(busy));
  EXPECT_EQ(rep.entry(Invariant::kCreditBounds).first_at, r.sim.now());
  EXPECT_EQ(rep.entry(Invariant::kCycleConservation).first_at, r.sim.now());
}

TEST(Auditor, DetectsIllegalStateTransition) {
  Rig r;
  r.hv.start();
  r.sim.run_until(seconds(0.1));
  // Blocked -> Running without passing through a run queue is never legal.
  r.auditor.on_state_change(vmm::VcpuKey{r.v1, 0}, VcpuState::kBlocked,
                            VcpuState::kRunning);
  EXPECT_GE(violations(r.auditor, Invariant::kStateMachine), 1u);
}

TEST(Auditor, DetectsStateMutatedOutsideTransitionPaths) {
  Rig r;
  r.hv.start();
  r.sim.run_until(seconds(0.1));
  // Flip a state directly, bypassing the scheduler's transition seams: the
  // shadow state machine notices the divergence on the next full scan.
  Vcpu& c = r.hv.vm(r.v0).vcpus[0];
  c.state = c.state == VcpuState::kBlocked ? VcpuState::kRunnable
                                           : VcpuState::kBlocked;
  r.auditor.check_now();
  EXPECT_GE(violations(r.auditor, Invariant::kStateMachine), 1u);
}

TEST(Auditor, DetectsGangIncoherence) {
  Rig r;
  r.hv.start();
  r.sim.run_until(seconds(0.1));
  r.hv.do_vcrd_op(r.v1, vmm::Vcrd::kHigh);  // relocates onto distinct PCPUs
  ASSERT_TRUE(r.hv.gang_scheduled(r.v1));
  r.auditor.check_now();
  EXPECT_EQ(violations(r.auditor, Invariant::kGangCoherence), 0u);
  // Co-locate two members of the gang. Prefer a queued member so the move
  // can keep queue and `where` in step (isolating the gang check from the
  // partition check); fall back to rewriting a running member's home.
  vmm::Vm& gang = r.hv.vm(r.v1);
  Vcpu* moved = nullptr;
  for (Vcpu& c : gang.vcpus)
    if (c.state == VcpuState::kRunnable) moved = &c;
  if (moved == nullptr) moved = &gang.vcpus[0];
  Vcpu* sibling = nullptr;
  for (Vcpu& c : gang.vcpus)
    if (&c != moved) sibling = &c;
  ASSERT_NE(sibling, nullptr);
  if (moved->state == VcpuState::kRunnable) {
    ASSERT_TRUE(r.hv.mutable_runqueue(moved->where).remove(moved));
    moved->where = sibling->where;
    r.hv.mutable_runqueue(moved->where).push(moved);
  } else {
    moved->where = sibling->where;
  }
  r.auditor.check_now();
  EXPECT_GE(violations(r.auditor, Invariant::kGangCoherence), 1u);
}

TEST(Auditor, DetectsTopologyPlacementViolation) {
  // Paper topology rig: after a HIGH-VCRD relocation the gang packs into
  // one socket; teleporting a non-running member into the other socket is
  // exactly the spread the topology-placement invariant must flag.
  sim::Simulator sim;
  hw::MachineConfig m = small_machine(8);
  m.topology = hw::Topology::paper();
  core::AdaptiveScheduler hv(sim, m, vmm::SchedMode::kNonWorkConserving);
  hv.create_vm("Dom0", 256, 2);
  const VmId gang = hv.create_vm("Gang", 256, 4);
  Auditor auditor(sim, hv, {});
  hv.start();
  sim.run_until(seconds(0.1));
  // Block one member so relocation leaves a non-running record whose home
  // we can corrupt without involving run queues or the socket set the
  // running members pin.
  hv.vcpu_block(gang, 3);
  hv.do_vcrd_op(gang, vmm::Vcrd::kHigh);  // relocates; auditor checks here
  ASSERT_TRUE(hv.gang_scheduled(gang));
  EXPECT_GT(auditor.report().entry(Invariant::kTopologyPlacement).checks, 0u);
  EXPECT_EQ(violations(auditor, Invariant::kTopologyPlacement), 0u);
  Vcpu& blocked = hv.vm(gang).vcpus[3];
  ASSERT_EQ(blocked.state, VcpuState::kBlocked);
  const std::uint32_t home_socket = hv.topology().socket_of(blocked.where);
  const std::uint32_t other = home_socket == 0 ? 1 : 0;
  blocked.where = hv.topology().pcpus_in_socket(other).front();
  ASSERT_TRUE(hv.placement_spans_excess_sockets(gang));
  auditor.on_relocated(gang);
  EXPECT_GE(violations(auditor, Invariant::kTopologyPlacement), 1u);
  EXPECT_NE(auditor.report()
                .entry(Invariant::kTopologyPlacement)
                .first_offender.find("Gang"),
            std::string::npos);
}

TEST(Auditor, LifecycleChurnAuditsCleanAndExtendsTheShadow) {
  Rig r;
  r.hv.start();
  r.sim.run_until(seconds(0.1));
  // Hot lifecycle ops are legal scheduling events: destroy one boot VM,
  // create another, resize it — the shadow state machine follows along.
  ASSERT_TRUE(r.hv.destroy_vm(r.v1));
  const VmId hot = r.hv.create_vm("Hot", 256, 2);
  ASSERT_EQ(hot, 2u);
  r.sim.run_until(seconds(0.2));
  ASSERT_TRUE(r.hv.resize_vm(hot, 4));
  r.sim.run_until(seconds(0.3));
  ASSERT_TRUE(r.hv.resize_vm(hot, 1));
  r.sim.run_until(seconds(0.4));
  r.auditor.check_now();
  EXPECT_TRUE(r.auditor.report().clean()) << r.auditor.report().summary();
}

TEST(Auditor, DetectsTombstoneResurrectedIntoARunQueue) {
  Rig r;
  r.hv.start();
  r.sim.run_until(seconds(0.1));
  ASSERT_TRUE(r.hv.destroy_vm(r.v1));
  // Push a destroyed VCPU's record back onto a queue — the exact
  // use-after-destroy bug class the partition invariant now covers.
  Vcpu& ghost = r.hv.vm(r.v1).vcpus[0];
  ASSERT_EQ(ghost.state, VcpuState::kDestroyed);
  r.hv.mutable_runqueue(ghost.where).push(&ghost);
  r.auditor.check_now();
  EXPECT_GE(violations(r.auditor, Invariant::kQueuePartition), 1u);
  ASSERT_TRUE(r.hv.mutable_runqueue(ghost.where).remove(&ghost));
}

TEST(Auditor, DetectsIllegalTransitionOutOfDestroyed) {
  Rig r;
  r.hv.start();
  r.sim.run_until(seconds(0.1));
  ASSERT_TRUE(r.hv.destroy_vm(r.v1));
  // A tombstone is terminal; Running -> Destroyed is also never direct.
  r.auditor.on_state_change(vmm::VcpuKey{r.v1, 0}, VcpuState::kDestroyed,
                            VcpuState::kRunnable);
  r.auditor.on_state_change(vmm::VcpuKey{r.v1, 1}, VcpuState::kRunning,
                            VcpuState::kDestroyed);
  EXPECT_GE(violations(r.auditor, Invariant::kStateMachine), 2u);
}

TEST(Auditor, DetectsNonMonotonicTime) {
  Rig r;
  sim::Cycles fake{1000};
  bool first = true;
  r.auditor.set_clock([&first, &fake] {
    if (!first) fake = sim::Cycles{fake.v / 2};  // clock running backwards
    first = false;
    return fake;
  });
  r.auditor.on_sched_event(vmm::AuditPoint::kTick);
  r.auditor.on_sched_event(vmm::AuditPoint::kTick);
  EXPECT_GE(violations(r.auditor, Invariant::kTimeMonotonic), 1u);
}

TEST(Auditor, ReportSummaryNamesEveryInvariant) {
  Rig r;
  r.hv.start();
  r.sim.run_until(seconds(0.1));
  const std::string s = r.auditor.report().summary();
  for (std::size_t i = 0; i < kNumInvariants; ++i)
    EXPECT_NE(s.find(to_string(static_cast<Invariant>(i))), std::string::npos)
        << s;
}

TEST(Auditor, ScenarioRunnerAttachesAuditorOnRequest) {
  experiments::Scenario sc;
  sc.machine = small_machine(4);
  sc.scheduler = core::SchedulerKind::kAsman;
  experiments::VmSpec v0;
  v0.name = "V0";
  v0.weight = 256;
  v0.vcpus = 2;
  experiments::VmSpec v1;
  v1.name = "V1";
  v1.weight = 128;
  v1.vcpus = 2;
  sc.vms.push_back(v0);
  sc.vms.push_back(v1);
  sc.horizon = seconds(0.5);
  sc.audit = true;
  const experiments::RunResult rr = experiments::run_scenario(sc);
  EXPECT_GT(rr.audit_checks, 0u);
  EXPECT_EQ(rr.audit_violations, 0u);
  EXPECT_NE(rr.audit_summary.find("queue-partition"), std::string::npos);

  experiments::Scenario off = sc;
  off.audit = false;
  const experiments::RunResult rr_off = experiments::run_scenario(off);
  EXPECT_EQ(rr_off.audit_checks, 0u);
  EXPECT_TRUE(rr_off.audit_summary.empty());
}

// ------------------------- pressure-conservation seeded violations --------
// These live here, not in contention_test.cpp: that binary runs in the
// audited-fatal `contention` lane, where a deliberately planted violation
// would abort the process instead of being counted.

constexpr std::uint64_t kMiB = 1ull << 20;

hw::MachineConfig pressured_machine() {
  hw::MachineConfig m;
  m.num_pcpus = 8;
  m.topology = hw::Topology::paper();
  m.llc_bytes = 2 * kMiB;
  m.socket_mem_bw_bytes_per_s = 1'000'000'000ull;
  return m;
}

/// Two footprinted VMs on the pressured paper host, auditor attached.
/// Footprints overflow the 2 MiB LLCs, so every engine pass rations.
struct PressureRig {
  sim::Simulator sim;
  core::AdaptiveScheduler hv;
  VmId v0, v1;
  Auditor auditor;

  PressureRig()
      : hv(sim, pressured_machine(), vmm::SchedMode::kNonWorkConserving),
        v0(hv.create_vm("V0", 256, 2)),
        v1(hv.create_vm("V1", 128, 3)),
        auditor(sim, hv, {}) {
    hv.set_vm_footprint(v0, hw::memsys::make_footprint(
                                4 * kMiB, 2'000'000'000ull, 600));
    hv.set_vm_footprint(v1, hw::memsys::make_footprint(
                                6 * kMiB, 3'000'000'000ull, 300));
    hv.start();
  }
};

std::uint64_t conservation_violations(const Auditor& a) {
  return a.report().entry(Invariant::kPressureConservation).violations;
}

TEST(ContentionSeeded, CleanPressuredRigAuditsClean) {
  PressureRig r;
  r.sim.run_until(seconds(0.5));
  r.auditor.check_now();
  EXPECT_GT(r.hv.pressure_periods(), 0u);
  EXPECT_GT(r.hv.pressure_degraded_total(), 0u);
  EXPECT_GT(
      r.auditor.report().entry(Invariant::kPressureConservation).checks, 0u);
  EXPECT_EQ(conservation_violations(r.auditor), 0u)
      << r.auditor.report().summary();
}

TEST(ContentionSeeded, DetectsALedgerWriteOutsideTheSeam) {
  // The bug class the full-scan half exists for: someone adjusts a VM's
  // degraded total without going through apply_contention.
  PressureRig r;
  r.sim.run_until(seconds(0.3));
  r.hv.vm(r.v1).pressure_degraded += 12'345;
  r.auditor.check_now();
  EXPECT_GE(conservation_violations(r.auditor), 1u);
  EXPECT_NE(r.auditor.report()
                .entry(Invariant::kPressureConservation)
                .first_offender.find("V1"),
            std::string::npos)
      << r.auditor.report().summary();
}

TEST(ContentionSeeded, DetectsMachineTotalsDriftingFromTheVmSums) {
  PressureRig r;
  r.sim.run_until(seconds(0.3));
  // Corrupt both halves of one VM's split so the per-VM identity still
  // holds but the machine totals no longer match the sums.
  r.hv.vm(r.v0).pressure_degraded += 1'000;
  r.hv.vm(r.v0).pressure_effective -= 1'000;
  r.auditor.check_now();
  EXPECT_GE(conservation_violations(r.auditor), 1u);
}

TEST(ContentionSeeded, DetectsACorruptedOccupancyPartition) {
  // The event-scoped half: the published grant matrix stops being an
  // exact partition (here: one LLC's granted total inflated), caught at
  // the next contention hook.
  PressureRig r;
  r.sim.run_until(seconds(0.3));
  ASSERT_GT(r.hv.pressure_periods(), 0u);
  r.hv.mutable_pressure().llc_granted[0] += 64 * 1024;
  r.auditor.on_contention();
  EXPECT_GE(conservation_violations(r.auditor), 1u)
      << r.auditor.report().summary();
}

TEST(ContentionSeeded, DetectsAGrantExceedingDemand) {
  PressureRig r;
  r.sim.run_until(seconds(0.3));
  ASSERT_GT(r.hv.pressure_periods(), 0u);
  auto& pass = r.hv.mutable_pressure();
  pass.vm_llc_granted[r.v0][0] = pass.vm_llc_demand[r.v0][0] + 4096;
  r.auditor.on_contention();
  EXPECT_GE(conservation_violations(r.auditor), 1u);
}

TEST(ContentionSeeded, RecomputationNeverIndexesAHomeOutsideTheMachine) {
  // The recomputation leaves a VCPU homed past the last PCPU out of the
  // engine input instead of reading the topology at that index; under the
  // sanitizer presets such a read aborts here.
  PressureRig r;
  r.sim.run_until(seconds(0.3));
  ASSERT_GT(r.hv.pressure_periods(), 0u);
  r.hv.vcpu_block(r.v1, 2);
  Vcpu& c = r.hv.vm(r.v1).vcpus[2];
  ASSERT_EQ(c.state, VcpuState::kBlocked);
  c.where = r.hv.machine().num_pcpus + 3;
  const std::uint64_t before =
      r.auditor.report().entry(Invariant::kPressureConservation).checks;
  r.auditor.on_contention();
  // Partition check, one per LLC, the recomputation, one per live VCPU.
  EXPECT_EQ(r.auditor.report().entry(Invariant::kPressureConservation).checks,
            before + 1 + r.hv.topology().num_llcs() + 1 + 5);
}

using AuditorDeathTest = ::testing::Test;

TEST(AuditorDeathTest, FatalModeAbortsOnFirstViolation) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        AuditorConfig cfg;
        cfg.fatal = true;
        Rig r(cfg);
        r.hv.start();
        r.sim.run_until(seconds(0.05));
        r.hv.vm(r.v1).vcpus[0].credit = 10 * r.hv.credit_cap();
        r.auditor.check_now();
      },
      "ASMAN_AUDIT_FATAL: invariant credit-bounds violated");
}

TEST(AuditorDeathTest, FatalModeAbortsOnCreditBoundsBeforeTheCycleLedger) {
  // The scan meets the cycle ledger before any credit, but findings are
  // flagged invariant by invariant: credit bounds come first.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        AuditorConfig cfg;
        cfg.fatal = true;
        Rig r(cfg);
        r.hv.start();
        r.sim.run_until(seconds(0.05));
        r.hv.vm(r.v1).vcpus[0].credit = 10 * r.hv.credit_cap();
        r.hv.vm(r.v1).total_online += sim::Cycles{12345};
        r.auditor.check_now();
      },
      "ASMAN_AUDIT_FATAL: invariant credit-bounds violated at [0-9]+: v1.0 "
      "credit");
}

}  // namespace
}  // namespace asman::audit
