// VMM edge cases: relocation overflow, stealing constraints, boost expiry,
// charge statistics, strictness interactions, the steal-candidate count,
// and the cluster transfer seams (pause/resume, migrate_out, halt) driven
// directly.
#include <gtest/gtest.h>

#include <memory>

#include "core/schedulers.h"
#include "guest/guest_kernel.h"
#include "simcore/simulator.h"

namespace asman::vmm {
namespace {

using core::SchedulerKind;

hw::MachineConfig machine(std::uint32_t pcpus) {
  hw::MachineConfig m;
  m.num_pcpus = pcpus;
  return m;
}

Cycles seconds(double s) { return sim::kDefaultClock.from_seconds_f(s); }

class HogGuest final : public GuestPort {
 public:
  void vcpu_online(std::uint32_t) override {}
  void vcpu_offline(std::uint32_t) override {}
};

TEST(Relocation, MoreVcpusThanPcpusDoesNotCrash) {
  sim::Simulator s;
  auto hv = core::make_scheduler(SchedulerKind::kAsman, s, machine(2),
                                 SchedMode::kWorkConserving);
  HogGuest g;
  const VmId a = hv->create_vm("wide", 256, 5);  // 5 VCPUs on 2 PCPUs
  hv->attach_guest(a, &g);
  hv->start();
  s.run_until(seconds(0.1));
  hv->do_vcrd_op(a, Vcrd::kHigh);
  s.run_until(s.now() + seconds(0.5));
  // No crash, and the VM still makes progress.
  EXPECT_GT(hv->vm(a).total_online.v, 0u);
}

TEST(Relocation, SingleVcpuVmIsTrivial) {
  sim::Simulator s;
  auto hv = core::make_scheduler(SchedulerKind::kAsman, s, machine(2),
                                 SchedMode::kWorkConserving);
  HogGuest g;
  const VmId a = hv->create_vm("uni", 256, 1);
  hv->attach_guest(a, &g);
  hv->start();
  s.run_until(seconds(0.05));
  hv->do_vcrd_op(a, Vcrd::kHigh);
  s.run_until(s.now() + seconds(0.2));
  EXPECT_GT(hv->vm(a).total_online.ratio(s.now()), 0.9);
}

TEST(Stealing, IdlePcpuPullsQueuedWork) {
  // 1 VM with 2 hog VCPUs initially stacked by construction order on a
  // 2-PCPU machine: stealing must spread them within a couple of slots.
  sim::Simulator s;
  CreditScheduler hv(s, machine(2), SchedMode::kWorkConserving);
  HogGuest g;
  const VmId a = hv.create_vm("A", 256, 2);
  hv.attach_guest(a, &g);
  hv.start();
  s.run_until(seconds(0.5));
  EXPECT_GT(hv.vm(a).total_online.ratio(s.now()), 1.8)
      << "both VCPUs should run nearly continuously on the two PCPUs";
}

TEST(Stealing, GangMembersNeverColocatedByBalancer) {
  sim::Simulator s;
  auto hv = core::make_scheduler(SchedulerKind::kCon, s, machine(4),
                                 SchedMode::kWorkConserving);
  HogGuest g0, g1;
  const VmId conc = hv->create_vm("conc", 256, 4, VmType::kConcurrent);
  hv->attach_guest(conc, &g0);
  hv->attach_guest(hv->create_vm("bg", 256, 2), &g1);
  hv->start();
  // Sample: the concurrent VM's online members always sit on distinct
  // PCPUs (relocation invariant preserved under stealing).
  for (int i = 0; i < 200; ++i) {
    s.run_until(s.now() + sim::kDefaultClock.from_us(700));
    std::vector<int> on_pcpu(4, 0);
    for (const Vcpu& c : hv->vm(conc).vcpus)
      if (c.state == VcpuState::kRunning) ++on_pcpu[c.where];
    for (int n : on_pcpu) EXPECT_LE(n, 1);
  }
}

TEST(Charge, LongRunShareMatchesWeightsDespiteQuantization) {
  // The probabilistic slot-quantum charging must be unbiased: over a long
  // horizon, 3:1 weights give 3:1 time, across seeds.
  for (std::uint64_t seed : {7ull, 8ull, 9ull}) {
    sim::Simulator s;
    CreditScheduler hv(s, machine(2), SchedMode::kWorkConserving, nullptr,
                       seed);
    HogGuest g0, g1;
    const VmId a = hv.create_vm("A", 384, 2);
    const VmId b = hv.create_vm("B", 128, 2);
    hv.attach_guest(a, &g0);
    hv.attach_guest(b, &g1);
    hv.start();
    s.run_until(seconds(6.0));
    const double ratio = static_cast<double>(hv.vm(a).total_online.v) /
                         static_cast<double>(hv.vm(b).total_online.v);
    EXPECT_NEAR(ratio, 3.0, 0.45) << "seed " << seed;
  }
}

TEST(Boost, CoschedBoostExpiresWithoutRefresh) {
  sim::Simulator s;
  auto hv = core::make_scheduler(SchedulerKind::kAsman, s, machine(2),
                                 SchedMode::kWorkConserving);
  HogGuest g0, g1;
  const VmId a = hv->create_vm("a", 256, 2);
  hv->attach_guest(a, &g0);
  hv->attach_guest(hv->create_vm("b", 256, 2), &g1);
  hv->start();
  s.run_until(seconds(0.2));
  hv->do_vcrd_op(a, Vcrd::kHigh);
  s.run_until(s.now() + seconds(0.05));
  hv->do_vcrd_op(a, Vcrd::kLow);
  // After LOW, launches stop and every boost must decay within ~1 slot.
  s.run_until(s.now() + seconds(0.05));
  for (const Vcpu& c : hv->vm(a).vcpus) EXPECT_FALSE(c.cosched_boost);
}

TEST(Vcrd, HypercallForUnknownStateTransitions) {
  sim::Simulator s;
  auto hv = core::make_scheduler(SchedulerKind::kAsman, s, machine(2),
                                 SchedMode::kWorkConserving);
  HogGuest g;
  const VmId a = hv->create_vm("a", 256, 2);
  hv->attach_guest(a, &g);
  hv->start();
  s.run_until(seconds(0.01));
  // LOW -> LOW is a no-op.
  hv->do_vcrd_op(a, Vcrd::kLow);
  s.run_until(s.now() + seconds(0.01));
  EXPECT_EQ(hv->vm(a).vcrd_high_transitions, 0u);
}

TEST(CreditBaseline, IgnoresVcrdAndTypes) {
  // The stock scheduler must not gang-schedule no matter what the VCRD or
  // VM type says.
  sim::Simulator s;
  CreditScheduler hv(s, machine(2), SchedMode::kWorkConserving);
  HogGuest g0, g1;
  const VmId a = hv.create_vm("a", 256, 2, VmType::kConcurrent);
  hv.attach_guest(a, &g0);
  hv.attach_guest(hv.create_vm("b", 256, 2), &g1);
  hv.start();
  s.run_until(seconds(0.1));
  hv.do_vcrd_op(a, Vcrd::kHigh);  // recorded, but inert
  s.run_until(s.now() + seconds(0.5));
  EXPECT_EQ(hv.vm(a).vcrd, Vcrd::kHigh);
  EXPECT_EQ(hv.cosched_events(), 0u);
  EXPECT_EQ(hv.ipi_bus().sent(), 0u);
}

TEST(Block, BlockingAQueuedVcpuRemovesIt) {
  sim::Simulator s;
  CreditScheduler hv(s, machine(1), SchedMode::kWorkConserving);
  HogGuest g;
  const VmId a = hv.create_vm("a", 256, 2);  // 2 VCPUs on 1 PCPU
  hv.attach_guest(a, &g);
  hv.start();
  s.run_until(seconds(0.005));
  // One runs, one queues; block the queued one.
  const std::uint32_t queued = hv.vcpu_is_online(a, 0) ? 1 : 0;
  hv.vcpu_block(a, queued);
  s.run_until(s.now() + seconds(0.2));
  EXPECT_FALSE(hv.vcpu_is_online(a, queued));
  // The remaining VCPU owns the PCPU.
  EXPECT_GT(hv.vm(a).total_online.ratio(s.now()), 0.85);
}

// --- the steal-candidate count ---------------------------------------------
//
// Each PCPU counts its queued VCPUs that an idle PCPU's first steal pass
// may take (Vcpu::steal_candidate), and that pass skips a queue whose count
// is 0. These tests run in non-work-conserving mode, where only that pass
// steals: each shows a VCPU becoming a candidate while it sits in a busy
// PCPU's queue, and an idle PCPU taking it at the first scheduling event
// after, which a count left behind by the change would forbid.

/// Two PCPUs: a heavy hog on P0 and a blocked VM homed on P1, so that P1
/// idles. A VM migrated in at 32 ms lands in P0's queue with the carried
/// credit.
struct MigratedInRig {
  sim::Simulator s;
  CreditScheduler hv{s, machine(2), SchedMode::kNonWorkConserving};
  HogGuest g;
  VmId migrated{kInvalidVmId};

  explicit MigratedInRig(Credit pool) {
    hv.attach_guest(hv.create_vm("hog", 1024, 1), &g);  // homed on P0
    const VmId idle = hv.create_vm("idle", 256, 1);      // homed on P1
    hv.attach_guest(idle, &g);
    hv.start();
    s.run_until(seconds(0.001));
    hv.vcpu_block(idle, 0);
    s.run_until(seconds(0.032));  // past the accounting pass at 30 ms
    MigrationTicket t;
    t.name = "in";
    t.weight = 256;
    t.n_vcpus = 1;
    t.credit_pool = pool;
    migrated = hv.migrate_in(t);
    hv.attach_guest(migrated, &g);
  }
  const Vcpu& vcpu() const { return hv.vm(migrated).vcpus[0]; }
};

TEST(StealCount, MigratedInVcpuSeededNegativeIsNotStolen) {
  MigratedInRig r(-50'000);
  ASSERT_NE(r.migrated, kInvalidVmId);
  // P1 dispatched right after the admission and at its ticks at 40 and
  // 50 ms; none of them may take an OVER VCPU.
  r.s.run_until(seconds(0.059));
  EXPECT_EQ(r.hv.running_on(1), nullptr);
  EXPECT_EQ(r.vcpu().state, VcpuState::kRunnable);
  EXPECT_EQ(r.vcpu().credit, -50'000);
  EXPECT_TRUE(r.hv.runqueue(0).contains(&r.vcpu()));
  EXPECT_EQ(r.vcpu().queued_on, 0u);
}

TEST(StealCount, AccountingLiftsQueuedCreditAndAnIdlePcpuSteals) {
  MigratedInRig r(-50'000);
  r.s.run_until(seconds(0.059));
  ASSERT_TRUE(r.hv.runqueue(0).contains(&r.vcpu()));
  // The pass at 60 ms mints the VM 100 000 (weight 256 of 1536 on a
  // 600 000 pool), and its dispatch of the idle P1 steals the VCPU.
  r.s.run_until(seconds(0.060));
  EXPECT_EQ(r.vcpu().credit, 50'000);
  EXPECT_EQ(r.vcpu().state, VcpuState::kRunning);
  EXPECT_EQ(r.vcpu().where, 1u);
  EXPECT_EQ(r.vcpu().queued_on, kNotQueued);
}

/// Two always-coscheduled gangs fill four PCPUs. A member of gang `a`
/// evacuated from a hot-unplugged PCPU lands in the queue of a PCPU that
/// runs a boosted member of gang `b`, which neither a dispatch nor an IPI
/// preempts.
struct TwoGangRig {
  sim::Simulator s;
  std::unique_ptr<Hypervisor> hv;
  HogGuest g;
  VmId a{kInvalidVmId};
  VmId b{kInvalidVmId};

  explicit TwoGangRig(Hypervisor::Strictness strictness)
      : hv(core::make_scheduler(SchedulerKind::kCon, s, machine(4),
                                SchedMode::kNonWorkConserving)) {
    hv->set_cosched_strictness(strictness);
    a = hv->create_vm("a", 256, 2, VmType::kConcurrent);
    b = hv->create_vm("b", 256, 2, VmType::kConcurrent);
    hv->attach_guest(a, &g);
    hv->attach_guest(b, &g);
    hv->start();
    s.run_until(seconds(0.1));
  }
};

TEST(StealCount, CoStopOfAQueuedGangMemberLetsAnIdlePcpuSteal) {
  // A strict gang that loses a member to hot-unplug is co-stopped, which
  // strips the evacuee's boost in its new queue.
  TwoGangRig r(Hypervisor::Strictness::kStrict);
  Vcpu& moved = r.hv->vm(r.a).vcpus[1];
  ASSERT_EQ(moved.state, VcpuState::kRunning);
  ASSERT_TRUE(moved.cosched_boost);
  const PcpuId unplugged = moved.where;
  r.hv->fault_pcpu_offline(unplugged);
  ASSERT_FALSE(moved.cosched_boost);
  const PcpuId host = moved.queued_on;
  ASSERT_NE(host, kNotQueued);
  ASSERT_NE(r.hv->running_on(host), nullptr);
  ASSERT_EQ(r.hv->running_on(host)->key.vm, r.b);
  ASSERT_GE(moved.credit, 0);
  r.hv->fault_pcpu_online(unplugged);
  EXPECT_EQ(moved.state, VcpuState::kRunning);
  EXPECT_EQ(moved.where, unplugged);
}

TEST(StealCount, CoschedBoostExpiryWhileQueuedLetsAnIdlePcpuSteal) {
  // Relaxed gangs have no co-stop: the evacuee keeps its boost in its new
  // queue until the boost runs out.
  TwoGangRig r(Hypervisor::Strictness::kRelaxed);
  Vcpu& moved = r.hv->vm(r.a).vcpus[1];
  ASSERT_EQ(moved.state, VcpuState::kRunning);
  ASSERT_TRUE(moved.cosched_boost);
  const PcpuId unplugged = moved.where;
  r.hv->fault_pcpu_offline(unplugged);
  ASSERT_EQ(moved.state, VcpuState::kRunnable);
  ASSERT_TRUE(moved.cosched_boost) << "the evacuee lost its boost";
  const PcpuId host = moved.queued_on;
  ASSERT_NE(host, kNotQueued);
  ASSERT_NE(r.hv->running_on(host), nullptr);
  ASSERT_EQ(r.hv->running_on(host)->key.vm, r.b);
  // Nobody refreshes it now: the boost runs out within a slot.
  r.s.run_until(r.s.now() + seconds(0.025));
  ASSERT_FALSE(moved.cosched_boost);
  ASSERT_EQ(moved.queued_on, host) << "the expired evacuee left its queue";
  ASSERT_GE(moved.credit, 0);
  // The next scheduling event of an idle PCPU, the hotplug's own dispatch,
  // steals it.
  r.hv->fault_pcpu_online(unplugged);
  EXPECT_EQ(moved.state, VcpuState::kRunning);
  EXPECT_EQ(moved.where, unplugged);
}

/// Exact accounting on three PCPUs: a hog runs on P0 and P2 is unplugged.
/// A VCPU migrated in with 40 000 credit is woken with BOOST on P1, and P1
/// goes offline before its next tick: the VCPU, billed to -10 000 but
/// still woken, waits in P0's queue behind the hog.
struct WokenOverRig {
  sim::Simulator s;
  CreditScheduler hv{s, machine(3), SchedMode::kNonWorkConserving};
  HogGuest g;
  VmId w{kInvalidVmId};

  WokenOverRig() {
    ResilienceConfig res;
    res.accounting = AccountingMode::kExact;
    hv.set_resilience(res);
    hv.attach_guest(hv.create_vm("hog", 256, 1), &g);  // homed on P0
    hv.start();
    s.run_until(seconds(0.001));
    hv.fault_pcpu_offline(2);
    MigrationTicket t;
    t.name = "waker";
    t.weight = 256;
    t.n_vcpus = 1;
    t.credit_pool = 40'000;
    w = hv.migrate_in(t);  // homed on P1
    hv.attach_guest(w, &g);
    s.run_until(seconds(0.0015));
    hv.vcpu_block(w, 0);  // 0.5 ms billed: 35 000 left
    s.run_until(seconds(0.002));
    hv.vcpu_kick(w, 0);  // positive credit: woken with BOOST, runs on P1
    // 4.5 ms later, before P1's next tick at 6.67 ms clears the boost, P1
    // goes offline: the VCPU is billed 45 000 and evacuated behind the hog.
    s.run_until(seconds(0.0065));
    hv.fault_pcpu_offline(1);
  }
  const Vcpu& vcpu() const { return hv.vm(w).vcpus[0]; }
};

TEST(StealCount, WakeBoostMakesANegativeCreditVcpuStealable) {
  WokenOverRig r;
  const Vcpu& v = r.vcpu();
  ASSERT_EQ(v.credit, -10'000);
  ASSERT_TRUE(v.wake_boost);
  ASSERT_EQ(v.queued_on, 0u);
  // OVER, but woken: the plugged-in P2's dispatch steals it.
  r.hv.fault_pcpu_online(2);
  EXPECT_EQ(v.state, VcpuState::kRunning);
  EXPECT_EQ(v.where, 2u);
}

TEST(StealCount, TheTickThatClearsTheWakeBoostEndsTheCandidacy) {
  WokenOverRig r;
  const Vcpu& v = r.vcpu();
  ASSERT_TRUE(v.wake_boost);
  // P0's tick at 13.33 ms clears the boost of the VCPU in its queue.
  r.s.run_until(seconds(0.014));
  ASSERT_FALSE(v.wake_boost);
  r.hv.fault_pcpu_online(2);
  EXPECT_EQ(r.hv.running_on(2), nullptr);
  EXPECT_EQ(v.state, VcpuState::kRunnable);
  EXPECT_EQ(v.queued_on, 0u);
}

TEST(StealCount, DestroyingAWokenQueuedVcpuLeavesNoCandidate) {
  WokenOverRig r;
  ASSERT_TRUE(r.vcpu().wake_boost);
  ASSERT_EQ(r.vcpu().queued_on, 0u);
  ASSERT_TRUE(r.hv.destroy_vm(r.w));  // evicted from P0's queue, unboosted
  EXPECT_EQ(r.vcpu().queued_on, kNotQueued);
  r.hv.fault_pcpu_online(2);
  EXPECT_EQ(r.hv.running_on(2), nullptr);
  EXPECT_TRUE(r.hv.runqueue(0).empty());
}

// --- transfer seams: pause/resume, migrate_out vs destroy_vm, halt ---------

__int128 credit_sum(const Vm& v) {
  __int128 sum = 0;
  for (const Vcpu& c : v.vcpus) sum += c.credit;
  return sum;
}

TEST(TransferSeams, PauseParksEveryVcpuAndResumeWakesOnlyTheLatched) {
  sim::Simulator s;
  CreditScheduler hv(s, machine(2), SchedMode::kWorkConserving);
  HogGuest g;
  const VmId a = hv.create_vm("a", 256, 4);  // 4 VCPUs on 2 PCPUs
  hv.attach_guest(a, &g);
  hv.start();
  s.run_until(seconds(0.05));
  hv.vcpu_block(a, 3);
  ASSERT_EQ(hv.vm(a).vcpus[3].state, VcpuState::kBlocked);

  ASSERT_TRUE(hv.pause_vm(a));
  for (const Vcpu& c : hv.vm(a).vcpus) {
    EXPECT_EQ(c.state, VcpuState::kBlocked) << c.key.idx;
    EXPECT_EQ(c.paused_pending, c.key.idx != 3) << c.key.idx;
  }
  for (PcpuId p = 0; p < 2; ++p) EXPECT_EQ(hv.running_on(p), nullptr);

  s.run_until(s.now() + seconds(0.02));
  ASSERT_TRUE(hv.resume_vm(a));
  for (const Vcpu& c : hv.vm(a).vcpus) {
    EXPECT_FALSE(c.paused_pending) << c.key.idx;
    EXPECT_EQ(c.state == VcpuState::kBlocked, c.key.idx == 3) << c.key.idx;
  }
  EXPECT_EQ(hv.vm_online_count(a), 2u);  // the woken three fill both PCPUs
}

TEST(TransferSeams, MigrateOutAndDestroyLeaveTheSameTombstones) {
  sim::Simulator s;
  CreditScheduler hv(s, machine(4), SchedMode::kWorkConserving);
  HogGuest ga, gb;
  const VmId a = hv.create_vm("a", 256, 3);
  const VmId b = hv.create_vm("b", 256, 3);
  hv.attach_guest(a, &ga);
  hv.attach_guest(b, &gb);
  hv.start();
  s.run_until(seconds(0.1));
  ASSERT_TRUE(hv.pause_vm(a));  // stop-and-copy latches a's wakes

  const __int128 pool = credit_sum(hv.vm(a));
  const MigrationTicket t = hv.migrate_out(a);
  EXPECT_TRUE(hv.destroy_vm(b));  // its twin, at the same instant
  ASSERT_TRUE(t.valid());
  EXPECT_EQ(t.n_vcpus, 3u);
  EXPECT_EQ(t.weight, 256u);
  EXPECT_TRUE(t.credit_pool == pool);
  EXPECT_EQ(hv.vm_migrations_out(), 1u);
  EXPECT_EQ(hv.vm_destroys(), 1u);
  for (const VmId id : {a, b}) {
    const Vm& v = hv.vm(id);
    EXPECT_FALSE(hv.vm_alive(id));
    EXPECT_EQ(v.destroyed_at, s.now());
    EXPECT_EQ(v.guest, nullptr);
    for (const Vcpu& c : v.vcpus) {
      EXPECT_EQ(c.state, VcpuState::kDestroyed) << v.name << c.key.idx;
      EXPECT_EQ(c.credit, 0) << v.name << c.key.idx;
      EXPECT_FALSE(c.paused_pending) << v.name << c.key.idx;
    }
  }
  // Retiring twice is refused either way.
  EXPECT_FALSE(hv.destroy_vm(a));
  EXPECT_FALSE(hv.migrate_out(b).valid());
}

TEST(TransferSeams, HaltFreezesTheHostAndBouncesHypercalls) {
  sim::Simulator s;
  CreditScheduler hv(s, machine(2), SchedMode::kWorkConserving);
  HogGuest g;
  const VmId a = hv.create_vm("a", 256, 3);
  hv.attach_guest(a, &g);
  hv.start();
  s.run_until(seconds(0.05));

  hv.halt();
  ASSERT_TRUE(hv.halted());
  for (const Vcpu& c : hv.vm(a).vcpus)
    EXPECT_EQ(c.state, VcpuState::kBlocked) << c.key.idx;
  const Cycles halted_at = s.now();
  const Cycles idle0 = hv.pcpu_idle_total(0);
  const Cycles idle1 = hv.pcpu_idle_total(1);
  const std::uint64_t slots = hv.slots_elapsed();

  s.run_until(halted_at + seconds(0.1));
  EXPECT_EQ(hv.pcpu_idle_total(0), idle0 + seconds(0.1));
  EXPECT_EQ(hv.pcpu_idle_total(1), idle1 + seconds(0.1));
  EXPECT_EQ(hv.slots_elapsed(), slots);

  const std::uint64_t rejects = hv.hypercall_rejects();
  hv.vcpu_kick(a, 0);
  EXPECT_EQ(hv.hypercall_rejects(), rejects + 1);
  hv.vcpu_block(a, 0);
  EXPECT_EQ(hv.hypercall_rejects(), rejects + 2);
  hv.do_vcrd_op(a, Vcrd::kHigh);
  EXPECT_EQ(hv.hypercall_rejects(), rejects + 3);

  // A second halt changes nothing.
  const __int128 pool = credit_sum(hv.vm(a));
  const Cycles idle_before = hv.pcpu_idle_total(0);
  hv.halt();
  for (const Vcpu& c : hv.vm(a).vcpus)
    EXPECT_EQ(c.state, VcpuState::kBlocked) << c.key.idx;
  EXPECT_TRUE(credit_sum(hv.vm(a)) == pool);
  EXPECT_EQ(hv.pcpu_idle_total(0), idle_before);
  EXPECT_EQ(hv.hypercall_rejects(), rejects + 3);

  // The frozen records still hand their full pool to a migration.
  const MigrationTicket t = hv.migrate_out(a);
  ASSERT_TRUE(t.valid());
  EXPECT_TRUE(t.credit_pool == pool);
  for (const Vcpu& c : hv.vm(a).vcpus)
    EXPECT_EQ(c.state, VcpuState::kDestroyed) << c.key.idx;
}

class OnlineRateAccuracy
    : public ::testing::TestWithParam<std::pair<std::uint32_t, double>> {};

TEST_P(OnlineRateAccuracy, NonWcObservedMatchesNominal) {
  sim::Simulator s;
  CreditScheduler hv(s, machine(8), SchedMode::kNonWorkConserving);
  const VmId dom0 = hv.create_vm("V0", 256, 8);
  guest::IdleGuest idle(s, hv, dom0, 8);
  hv.attach_guest(dom0, &idle);
  HogGuest hog;
  const VmId v1 = hv.create_vm("V1", GetParam().first, 4);
  hv.attach_guest(v1, &hog);
  hv.start();
  s.run_until(seconds(6.0));
  EXPECT_NEAR(hv.vm(v1).total_online.ratio(s.now()) / 4.0, GetParam().second,
              0.05);
}

INSTANTIATE_TEST_SUITE_P(
    PaperWeights, OnlineRateAccuracy,
    ::testing::Values(std::pair<std::uint32_t, double>{128, 0.6667},
                      std::pair<std::uint32_t, double>{64, 0.40},
                      std::pair<std::uint32_t, double>{32, 0.2222}));

}  // namespace
}  // namespace asman::vmm
