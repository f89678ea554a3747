// VMM edge cases: relocation overflow, stealing constraints, boost expiry,
// charge statistics, strictness interactions, and the cluster transfer
// seams (pause/resume, migrate_out, halt) driven directly.
#include <gtest/gtest.h>

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
