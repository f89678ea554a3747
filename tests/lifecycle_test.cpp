// Runtime VM lifecycle tests: hot create/destroy/resize at scheduling
// events, credit minting for late arrivals, mid-gang destruction, the
// admission controller and the overload governor (docs/MODEL.md "VM
// lifecycle & admission").
#include "vmm/hypervisor.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/schedulers.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"
#include "vmm/admission.h"

namespace asman::vmm {
namespace {

hw::MachineConfig small_machine(std::uint32_t pcpus) {
  hw::MachineConfig m;
  m.num_pcpus = pcpus;
  return m;
}

Cycles ms(std::uint64_t n) { return sim::kDefaultClock.from_ms(n); }

/// Hog guest: VCPUs never block. Sized independently of the VM so hot
/// resize growth can deliver callbacks for indices past the boot width.
class RecordingGuest final : public GuestPort {
 public:
  explicit RecordingGuest(std::uint32_t capacity) : online_(capacity, false) {}
  void vcpu_online(std::uint32_t v) override {
    if (v < online_.size()) online_[v] = true;
  }
  void vcpu_offline(std::uint32_t v) override {
    if (v < online_.size()) online_[v] = false;
  }
  bool online(std::uint32_t v) const { return online_[v]; }

 private:
  std::vector<bool> online_;
};

std::vector<Credit> credits_of(const Hypervisor& hv, VmId id) {
  std::vector<Credit> c;
  for (const Vcpu& v : hv.vm(id).vcpus) c.push_back(v.credit);
  return c;
}

bool vm_referenced_anywhere(const Hypervisor& hv, VmId id,
                            std::uint32_t pcpus) {
  for (PcpuId p = 0; p < pcpus; ++p) {
    if (const Vcpu* cur = hv.running_on(p))
      if (cur->key.vm == id) return true;
    for (const Vcpu* q : hv.runqueue(p).entries())
      if (q->key.vm == id) return true;
  }
  return false;
}

TEST(Lifecycle, HotCreateMintsNextPeriodWithoutTouchingExistingCredits) {
  sim::Simulator s;
  core::AdaptiveScheduler hv(s, small_machine(4),
                             SchedMode::kNonWorkConserving);
  RecordingGuest g0(2), g1(2), gh(2);
  hv.attach_guest(hv.create_vm("A", 256, 2), &g0);
  hv.attach_guest(hv.create_vm("B", 128, 2), &g1);
  hv.start();
  s.run_until(ms(35));  // mid second accounting period

  const std::vector<Credit> a = credits_of(hv, 0);
  const std::vector<Credit> b = credits_of(hv, 1);
  const VmId hot = hv.create_vm("Hot", 256, 2);
  ASSERT_EQ(hot, 2u);
  hv.attach_guest(hot, &gh);

  // Zero credit at birth; nobody else's ledger moved at the create instant.
  for (const Vcpu& c : hv.vm(hot).vcpus) EXPECT_EQ(c.credit, 0);
  EXPECT_EQ(credits_of(hv, 0), a);
  EXPECT_EQ(credits_of(hv, 1), b);
  EXPECT_EQ(hv.vm_creates(), 1u);

  // Next accounting period mints the newcomer its share and it runs.
  s.run_until(ms(100));
  EXPECT_GT(hv.vm(hot).total_online.v, 0u);
  EXPECT_GT(hv.weight_proportion(hot), 0.0);
}

TEST(Lifecycle, VmIdsAreDenseAndNeverReused) {
  sim::Simulator s;
  core::AdaptiveScheduler hv(s, small_machine(2),
                             SchedMode::kWorkConserving);
  RecordingGuest g0(1), g1(1), g2(1);
  hv.attach_guest(hv.create_vm("A", 256, 1), &g0);
  hv.attach_guest(hv.create_vm("B", 256, 1), &g1);
  hv.start();
  s.run_until(ms(15));

  EXPECT_TRUE(hv.destroy_vm(1));
  const VmId next = hv.create_vm("C", 256, 1);
  hv.attach_guest(next, &g2);
  EXPECT_EQ(next, 2u) << "a tombstoned id must never be handed out again";
  EXPECT_EQ(hv.num_vms(), 3u);
  EXPECT_EQ(hv.num_live_vms(), 2u);
  EXPECT_FALSE(hv.vm_alive(1));
  EXPECT_EQ(hv.vm(1).name, "B") << "the tombstone keeps its record";
}

TEST(Lifecycle, DestroyDrainsEveryQueueAndTombstonesEveryVcpu) {
  sim::Simulator s;
  core::AdaptiveScheduler hv(s, small_machine(2),
                             SchedMode::kWorkConserving);
  RecordingGuest g0(2), g1(2);
  hv.attach_guest(hv.create_vm("A", 256, 2), &g0);
  hv.attach_guest(hv.create_vm("B", 256, 2), &g1);
  hv.start();
  s.run_until(ms(25));  // both VMs oversubscribe 2 PCPUs: queues populated

  ASSERT_TRUE(hv.destroy_vm(0));
  for (const Vcpu& c : hv.vm(0).vcpus) {
    EXPECT_EQ(c.state, VcpuState::kDestroyed);
    EXPECT_EQ(c.credit, 0);
  }
  EXPECT_FALSE(vm_referenced_anywhere(hv, 0, 2));
  EXPECT_EQ(hv.vm_destroys(), 1u);
  EXPECT_FALSE(hv.destroy_vm(0)) << "double destroy is a counted no-op";
  EXPECT_EQ(hv.vm_destroys(), 1u);

  // The freed PCPUs keep scheduling the survivor.
  s.run_until(ms(60));
  EXPECT_GT(hv.vm(1).total_online.v, 0u);
  EXPECT_FALSE(vm_referenced_anywhere(hv, 0, 2));
}

TEST(Lifecycle, MidGangDestructionAbortsTheGangCleanly) {
  sim::Simulator s;
  core::StaticCoScheduler hv(s, small_machine(4),
                             SchedMode::kNonWorkConserving);
  RecordingGuest gg(4), gh(2);
  const VmId gang = hv.create_vm("Gang", 256, 4, VmType::kConcurrent);
  hv.attach_guest(gang, &gg);
  hv.attach_guest(hv.create_vm("Hog", 128, 2), &gh);
  hv.start();
  s.run_until(ms(45));
  ASSERT_TRUE(hv.gang_scheduled(gang));

  ASSERT_TRUE(hv.destroy_vm(gang));
  EXPECT_FALSE(hv.gang_scheduled(gang));
  for (const Vcpu& c : hv.vm(gang).vcpus) {
    EXPECT_EQ(c.state, VcpuState::kDestroyed);
    EXPECT_FALSE(c.cosched_boost);
  }
  EXPECT_FALSE(vm_referenced_anywhere(hv, gang, 4));

  // The armed gang machinery (watchdog, pending launches) must not fire
  // into the tombstone later.
  s.run_until(ms(300));
  EXPECT_EQ(hv.gang_watchdog_fires(), 0u);
  EXPECT_FALSE(vm_referenced_anywhere(hv, gang, 4));
}

TEST(Lifecycle, ResizeGrowsAndShrinksUnderTheScheduler) {
  sim::Simulator s;
  core::AdaptiveScheduler hv(s, small_machine(4),
                             SchedMode::kWorkConserving);
  RecordingGuest g(8);
  const VmId id = hv.create_vm("A", 256, 2);
  hv.attach_guest(id, &g);
  hv.start();
  s.run_until(ms(15));

  ASSERT_TRUE(hv.resize_vm(id, 4));
  EXPECT_EQ(hv.vm(id).num_vcpus(), 4u);
  EXPECT_EQ(hv.vm(id).vcpus[3].key.idx, 3u);
  s.run_until(ms(45));
  EXPECT_TRUE(g.online(2) || g.online(3)) << "hot-added VCPUs must run";

  ASSERT_TRUE(hv.resize_vm(id, 1));
  EXPECT_EQ(hv.vm(id).num_vcpus(), 1u);
  for (PcpuId p = 0; p < 4; ++p) {
    if (const Vcpu* cur = hv.running_on(p)) {
      EXPECT_LT(cur->key.idx, 1u);
    }
    for (const Vcpu* q : hv.runqueue(p).entries()) {
      if (q->key.vm == id) {
        EXPECT_LT(q->key.idx, 1u);
      }
    }
  }
  EXPECT_EQ(hv.vm_resizes(), 2u);

  EXPECT_TRUE(hv.resize_vm(id, 1)) << "no-op resize succeeds";
  EXPECT_EQ(hv.vm_resizes(), 2u);
  EXPECT_FALSE(hv.resize_vm(id, 0));
  EXPECT_FALSE(hv.resize_vm(99, 2));
  s.run_until(ms(90));  // survivor keeps running
  EXPECT_GT(hv.vm(id).total_online.v, 0u);
}

TEST(Lifecycle, GangShrinkRespreadsSurvivorsOntoDistinctPcpus) {
  sim::Simulator s;
  core::StaticCoScheduler hv(s, small_machine(4),
                             SchedMode::kNonWorkConserving);
  RecordingGuest g(4);
  const VmId gang = hv.create_vm("Gang", 256, 4, VmType::kConcurrent);
  hv.attach_guest(gang, &g);
  hv.start();
  s.run_until(ms(45));

  ASSERT_TRUE(hv.resize_vm(gang, 2));
  ASSERT_TRUE(hv.gang_scheduled(gang));
  const Vm& v = hv.vm(gang);
  ASSERT_EQ(v.num_vcpus(), 2u);
  EXPECT_NE(v.vcpus[0].where, v.vcpus[1].where)
      << "survivors must sit on pairwise-distinct PCPUs";
  s.run_until(ms(120));
  EXPECT_EQ(hv.gang_watchdog_fires(), 0u);
}

TEST(Lifecycle, AdmissionRejectsWhenSaturatedAndLeavesLedgersUntouched) {
  sim::Simulator s;
  core::AdaptiveScheduler hv(s, small_machine(2),
                             SchedMode::kNonWorkConserving);
  AdmissionConfig a;
  a.max_vcpus_per_pcpu = 1.0;  // capacity: 2 weighted VCPUs total
  hv.set_admission(a);
  RecordingGuest g(1);
  const VmId ok = hv.create_vm("A", kReferenceWeight, 1);  // load 0.5
  ASSERT_NE(ok, kInvalidVmId);
  hv.attach_guest(ok, &g);
  hv.start();
  s.run_until(ms(25));

  const std::vector<Credit> before = credits_of(hv, ok);
  EXPECT_EQ(hv.create_vm("B", kReferenceWeight, 2), kInvalidVmId);
  EXPECT_EQ(hv.admission_rejects(), 1u);
  EXPECT_EQ(hv.num_vms(), 1u) << "a rejected create leaves no record";
  EXPECT_EQ(credits_of(hv, ok), before)
      << "rejection must not disturb existing credit shares";

  EXPECT_FALSE(hv.resize_vm(ok, 3)) << "growth past the cap is rejected too";
  EXPECT_EQ(hv.admission_rejects(), 2u);
  EXPECT_EQ(hv.vm(ok).num_vcpus(), 1u);

  // A light VM still fits: weight scales the load (weight 64 = 0.25/VCPU).
  EXPECT_NE(hv.create_vm("Light", 64, 1), kInvalidVmId);
}

TEST(Lifecycle, OverloadGovernorShedsCoschedulingAndRestoresWithBackoff) {
  sim::Simulator s;
  core::StaticCoScheduler hv(s, small_machine(4),
                             SchedMode::kNonWorkConserving);
  AdmissionConfig a;
  a.max_vcpus_per_pcpu = 2.5;  // shed past 8.5 total, restore at <= 6.0
  hv.set_admission(a);
  RecordingGuest gg(4), gd(2), gh(3);
  const VmId gang = hv.create_vm("Gang", 256, 4, VmType::kConcurrent);
  hv.attach_guest(gang, &gg);
  hv.attach_guest(hv.create_vm("Dom0", 256, 2), &gd);  // boot load: 6.0
  hv.start();
  s.run_until(ms(45));
  ASSERT_TRUE(hv.gang_scheduled(gang));
  ASSERT_FALSE(hv.overload_shed_active());

  const VmId burst = hv.create_vm("Burst", 256, 3);  // load 9.0 > 8.5
  ASSERT_NE(burst, kInvalidVmId);
  hv.attach_guest(burst, &gh);
  EXPECT_TRUE(hv.overload_shed_active());
  EXPECT_EQ(hv.overload_sheds(), 1u);
  EXPECT_FALSE(hv.gang_scheduled(gang))
      << "shedding strips coscheduling eligibility before fairness degrades";

  // Load drops back immediately, but the governor waits out its 12-slot
  // backoff: the shed at 45 ms may lift from 165 ms on.
  ASSERT_TRUE(hv.destroy_vm(burst));
  EXPECT_TRUE(hv.overload_shed_active());
  s.run_until(ms(150));  // an accounting boundary inside the backoff
  EXPECT_TRUE(hv.overload_shed_active());

  s.run_until(ms(180));  // past backoff + an accounting boundary
  EXPECT_FALSE(hv.overload_shed_active());
  EXPECT_EQ(hv.overload_restores(), 1u);
  EXPECT_TRUE(hv.gang_scheduled(gang)) << "eligibility restored";
}

/// The load ledger's oracle, from the public VM records: the sum over
/// live VMs of num_vcpus x (weight / kReferenceWeight), left to right, per
/// online PCPU.
double walked_load(const Hypervisor& hv) {
  double load = 0.0;
  for (VmId id = 0; id < hv.num_vms(); ++id) {
    const Vm& v = hv.vm(id);
    if (v.alive)
      load += static_cast<double>(v.num_vcpus()) *
              (static_cast<double>(v.weight) / kReferenceWeight);
  }
  return hv.online_pcpus() == 0 ? load : load / hv.online_pcpus();
}

TEST(Lifecycle, LoadLedgerMatchesTheRecordWalkBitForBit) {
  sim::Simulator s;
  core::AdaptiveScheduler hv(s, small_machine(8),
                             SchedMode::kNonWorkConserving);
  AdmissionConfig a;
  a.max_vcpus_per_pcpu = 3.0;  // tight: creates and grows get rejected
  hv.set_admission(a);
  hv.create_vm("Boot", kReferenceWeight, 2);
  hv.start();
  // Weights off the power-of-two grid too, so loads carry fraction bits;
  // 65536 (the bounds ceiling) is always an admission reject here.
  const std::uint32_t weights[] = {1, 64, 100, 128, 256, 333, 1000, 65536};
  sim::Rng rng(24);
  std::uint64_t grows = 0, grow_rejects = 0, shrinks = 0, migrations = 0,
                offlines = 0, onlines = 0;
  for (int step = 0; step < 600; ++step) {
    std::vector<VmId> live;
    for (VmId id = 0; id < hv.num_vms(); ++id)
      if (hv.vm_alive(id)) live.push_back(id);
    const VmId pick =
        live.empty() ? kInvalidVmId : live[rng.next_below(live.size())];
    const auto p = static_cast<PcpuId>(rng.next_below(8));
    switch (rng.next_below(6)) {
      case 0:
        hv.create_vm("V" + std::to_string(step),
                     weights[rng.next_below(std::size(weights))],
                     static_cast<std::uint32_t>(1 + rng.next_below(4)));
        break;
      case 1:
        hv.destroy_vm(pick);
        break;
      case 2:
        if (pick == kInvalidVmId) break;
        if (hv.resize_vm(pick, static_cast<std::uint32_t>(
                                   hv.vm(pick).num_vcpus() + 1 +
                                   rng.next_below(3))))
          ++grows;
        else
          ++grow_rejects;
        break;
      case 3:
        if (pick != kInvalidVmId && hv.vm(pick).num_vcpus() > 1 &&
            hv.resize_vm(pick, static_cast<std::uint32_t>(
                                   hv.vm(pick).num_vcpus() - 1)))
          ++shrinks;
        break;
      case 4:
        if (pick == kInvalidVmId) break;
        hv.migrate_in(hv.migrate_out(pick));
        ++migrations;
        break;
      default:
        if (hv.pcpu_is_online(p)) {
          hv.fault_pcpu_offline(p);
          if (!hv.pcpu_is_online(p)) ++offlines;
        } else {
          hv.fault_pcpu_online(p);
          ++onlines;
        }
        break;
    }
    s.run_until(s.now() + ms(1));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(hv.weighted_vcpu_load()),
              std::bit_cast<std::uint64_t>(walked_load(hv)))
        << "step " << step << ": ledger " << hv.weighted_vcpu_load()
        << " vs walk " << walked_load(hv);
  }
  // Every kind of step happened, rejects included.
  EXPECT_GT(hv.vm_creates(), 0u);
  EXPECT_GT(hv.vm_destroys(), 0u);
  EXPECT_GT(hv.admission_rejects(), grow_rejects) << "create rejects";
  EXPECT_GT(grows, 0u);
  EXPECT_GT(grow_rejects, 0u);
  EXPECT_GT(shrinks, 0u);
  EXPECT_GT(migrations, 0u);
  EXPECT_GT(offlines, 0u);
  EXPECT_GT(onlines, 0u);
}

TEST(Lifecycle, ResizePastTheBoundsSpecIsRefused) {
  sim::Simulator s;
  core::AdaptiveScheduler hv(s, small_machine(2),
                             SchedMode::kNonWorkConserving);
  const VmId id = hv.create_vm("A", kReferenceWeight, 1);
  ASSERT_NE(id, kInvalidVmId);
  EXPECT_EQ(hv.create_vm("B", kReferenceWeight, kMaxVmVcpus + 1),
            kInvalidVmId);
  EXPECT_FALSE(hv.resize_vm(id, kMaxVmVcpus + 1))
      << "no VM grows past the n_vcpus bound, admission control or not";
  EXPECT_EQ(hv.vm(id).num_vcpus(), 1u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(hv.weighted_vcpu_load()),
            std::bit_cast<std::uint64_t>(walked_load(hv)));
}

TEST(Lifecycle, DestroyedVmHypercallsBounceCounted) {
  sim::Simulator s;
  core::AdaptiveScheduler hv(s, small_machine(2),
                             SchedMode::kWorkConserving);
  RecordingGuest g(2);
  const VmId id = hv.create_vm("A", 256, 2);
  hv.attach_guest(id, &g);
  hv.start();
  s.run_until(ms(15));
  ASSERT_TRUE(hv.destroy_vm(id));

  const std::uint64_t before = hv.hypercall_rejects();
  hv.vcpu_kick(id, 0);
  hv.vcpu_block(id, 1);
  hv.do_vcrd_op(id, Vcrd::kHigh);
  EXPECT_EQ(hv.hypercall_rejects(), before + 3);
  for (const Vcpu& c : hv.vm(id).vcpus)
    EXPECT_EQ(c.state, VcpuState::kDestroyed) << "tombstones never move";
}

}  // namespace
}  // namespace asman::vmm
