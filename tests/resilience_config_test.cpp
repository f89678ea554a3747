// The resilience and admission knobs scenarios set, and the graceful-
// degradation and overload-governor constants that replaced the rest, at
// their boundaries: the IPI retry budget (2 re-sends, 8 bus latencies
// apart), the gang watchdog (3 partial releases 2 slots apart demote), the
// flap limiter (8 LOW->HIGH transitions per 5-slot window), the demotion
// backoff (12 slots, lifted at an accounting pass) and the overload
// governor's shed level (0.85 x cap) and restore backoff (12 slots).
// vcrd_ttl keeps zero as "disabled".
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/schedulers.h"
#include "hw/ipi.h"
#include "simcore/simulator.h"
#include "simcore/trace.h"
#include "vmm/admission.h"
#include "vmm/hypervisor.h"

namespace asman::vmm {
namespace {

hw::MachineConfig small_machine(std::uint32_t pcpus) {
  hw::MachineConfig m;
  m.num_pcpus = pcpus;
  return m;
}

Cycles ms(std::uint64_t n) { return sim::kDefaultClock.from_ms(n); }

/// Start a hypervisor with the given knobs and return them as start()
/// left them.
ResilienceConfig resolved(const ResilienceConfig& r) {
  sim::Simulator s;
  core::AdaptiveScheduler hv(s, small_machine(2),
                             SchedMode::kNonWorkConserving);
  hv.set_resilience(r);
  hv.create_vm("A", 256, 1);
  hv.start();
  return hv.resilience();
}

/// One LOW->HIGH transition of `id` (and back to LOW) right now.
void flap(Hypervisor& hv, VmId id) {
  hv.do_vcrd_op(id, Vcrd::kHigh);
  hv.do_vcrd_op(id, Vcrd::kLow);
}

/// A bus that loses every IPI: no gang launch is ever answered.
class DropAll final : public hw::IpiFaultPlan {
 public:
  hw::IpiDecision on_send(PcpuId, PcpuId, std::uint32_t) override {
    hw::IpiDecision d;
    d.drop = true;
    return d;
  }
};

/// A strict CON gang and a hog, both never blocking, on 2 PCPUs whose bus
/// drops every IPI (which also arms the gang watchdog), traced for 1 s.
struct LossyGangRun {
  hw::MachineConfig m = small_machine(2);
  sim::Simulator s;
  sim::Trace trace;
  DropAll drop;
  core::StaticCoScheduler hv{s, m, SchedMode::kNonWorkConserving, &trace};

  LossyGangRun() {
    trace.enable(true);
    hv.ipi_bus().set_fault_plan(&drop);
    hv.create_vm("Gang", 256, 2, VmType::kConcurrent);
    hv.create_vm("Hog", 256, 2);
    hv.start();
    s.run_until(ms(1000));
  }

  /// Whether a kCosched record containing `what` was emitted at `at`.
  bool traced_at(Cycles at, const std::string& what) const {
    return std::any_of(trace.records().begin(), trace.records().end(),
                       [&](const sim::TraceRecord& r) {
                         return r.cat == sim::TraceCat::kCosched &&
                                r.at == at &&
                                r.msg.find(what) != std::string::npos;
                       });
  }
};

TEST(ResilienceDefaults, VcrdTtlZeroMeansDisabledNotDefaulted) {
  EXPECT_EQ(resolved({}).vcrd_ttl.v, 0u);
}

TEST(ResilienceDefaults, NonZeroValuesSurviveStartUntouched) {
  ResilienceConfig r;
  r.vcrd_ttl = Cycles{555};
  r.accounting = AccountingMode::kTickSampled;
  r.sample_offset_jitter = true;
  r.boost_limit = 7;
  r.vcrd_min_yields = 9;
  const ResilienceConfig got = resolved(r);
  EXPECT_EQ(got.vcrd_ttl.v, 555u);
  EXPECT_EQ(got.accounting, AccountingMode::kTickSampled);
  EXPECT_TRUE(got.sample_offset_jitter);
  EXPECT_EQ(got.boost_limit, 7u);
  EXPECT_EQ(got.vcrd_min_yields, 9u);
}

TEST(ResilienceConstants, LostIpiIsResentTwiceEightLatenciesApart) {
  // Each unanswered launch IPI is acked 8 latencies later, re-sent, and
  // after the second re-send's ack the gang start is abandoned: every
  // abandonment of sibling K follows K's retries 2 and 1 by 8 and 16
  // latencies, and no third retry exists.
  const LossyGangRun run;
  const Cycles ack = run.m.ipi_latency() * 8;
  std::size_t abandons = 0;
  for (const sim::TraceRecord& r : run.trace.records()) {
    const std::size_t at = r.msg.find("gang start abandoned for this slot (");
    if (r.cat != sim::TraceCat::kCosched || at == std::string::npos) continue;
    const std::size_t key_at = r.msg.find('(', at) + 1;
    const std::string key =
        r.msg.substr(key_at, r.msg.find(' ', key_at) - key_at);
    ++abandons;
    EXPECT_TRUE(run.traced_at(r.at - ack, "IPI retry 2 for " + key)) << key;
    EXPECT_TRUE(run.traced_at(r.at - ack * 2, "IPI retry 1 for " + key))
        << key;
  }
  EXPECT_GT(abandons, 0u);
  for (const sim::TraceRecord& r : run.trace.records())
    EXPECT_EQ(r.msg.find("IPI retry 3"), std::string::npos) << r.msg;
}

TEST(ResilienceConstants, ThreePartialGangReleasesTwoSlotsApartDemote) {
  // The watchdog re-arms every 2 slots while the gang is eligible; the
  // third partial release in a row demotes the VM, so each watchdog
  // demotion comes with releases 0, 2 and 4 slots before it and none 6
  // slots before (that one would have demoted the VM 2 slots earlier).
  const LossyGangRun run;
  const Cycles period = run.m.slot_cycles() * 2;
  const std::string release = "gang watchdog: partial gang released";
  std::size_t demotions = 0;
  for (const sim::TraceRecord& r : run.trace.records()) {
    if (r.msg.find("demoted to stock credit treatment (gang watchdog "
                   "streak)") == std::string::npos)
      continue;
    ++demotions;
    EXPECT_TRUE(run.traced_at(r.at, release));
    EXPECT_TRUE(run.traced_at(r.at - period, release));
    EXPECT_TRUE(run.traced_at(r.at - period * 2, release));
    EXPECT_FALSE(run.traced_at(r.at - period * 3, release));
  }
  EXPECT_GT(demotions, 0u);
}

TEST(ResilienceConstants, EightFlapsInFiveSlotsDoNotDemoteTheNinthDoes) {
  // The flap window opens at the first transition and still holds one
  // exactly 5 slots later; a cycle after that a fresh window opens and
  // the ninth transition is its first.
  const hw::MachineConfig m = small_machine(2);
  for (const std::uint64_t late : {0u, 1u}) {
    sim::Simulator s;
    core::AdaptiveScheduler hv(s, m, SchedMode::kNonWorkConserving);
    const VmId id = hv.create_vm("V0", 256, 2);
    hv.start();
    const Cycles opened = ms(5);
    s.run_until(opened);
    for (int i = 0; i < 8; ++i) flap(hv, id);
    EXPECT_FALSE(hv.vm_degraded(id)) << "8 transitions are within the limit";
    s.run_until(opened + m.slot_cycles() * 5 + Cycles{late});
    flap(hv, id);
    EXPECT_EQ(hv.vm_degraded(id), late == 0) << "late=" << late;
    EXPECT_EQ(hv.vcrd_demotions(), late == 0 ? 1u : 0u) << "late=" << late;
  }
}

TEST(ResilienceConstants, DemotionLiftsAtTheFirstAccountingPassTwelveSlotsOn) {
  // Accounting passes fall every 3 slots (30 ms). "Early" is demoted at 0
  // and may regain coscheduling at 120 ms, a pass; "Late" is demoted at
  // 5 ms, may regain it at 125 ms, and waits for the pass at 150 ms.
  const hw::MachineConfig m = small_machine(2);
  sim::Simulator s;
  core::AdaptiveScheduler hv(s, m, SchedMode::kNonWorkConserving);
  const VmId early = hv.create_vm("Early", 256, 2);
  const VmId late = hv.create_vm("Late", 256, 2);
  hv.start();
  for (int i = 0; i < 9; ++i) flap(hv, early);
  s.run_until(ms(5));
  for (int i = 0; i < 9; ++i) flap(hv, late);
  ASSERT_TRUE(hv.vm_degraded(early));
  ASSERT_TRUE(hv.vm_degraded(late));
  s.run_until(ms(119));
  EXPECT_TRUE(hv.vm_degraded(early)) << "the pass at 90 ms is too early";
  s.run_until(ms(120));
  EXPECT_FALSE(hv.vm_degraded(early));
  EXPECT_TRUE(hv.vm_degraded(late)) << "the pass at 120 ms is too early";
  s.run_until(ms(149));
  EXPECT_TRUE(hv.vm_degraded(late));
  s.run_until(ms(150));
  EXPECT_FALSE(hv.vm_degraded(late));
}

TEST(ResilienceConstants, OverloadShedsOnlyAboveItsLevel) {
  // 4 PCPUs capped at 2.5 weighted VCPUs each: the shed line is
  // 0.85 x 2.5 x 4 = 8.5 weighted VCPUs. A weight-640 VCPU (2.5) brings
  // the boot load of 6.0 exactly to it and keeps coscheduling; a
  // weight-641 one crosses it.
  sim::Simulator s;
  core::StaticCoScheduler hv(s, small_machine(4),
                             SchedMode::kNonWorkConserving);
  AdmissionConfig a;
  a.max_vcpus_per_pcpu = 2.5;
  hv.set_admission(a);
  hv.create_vm("Gang", 256, 4, VmType::kConcurrent);
  hv.create_vm("Dom0", 256, 2);
  hv.start();
  s.run_until(ms(5));
  const VmId at_line = hv.create_vm("AtLine", 640, 1);
  ASSERT_NE(at_line, kInvalidVmId);
  EXPECT_FALSE(hv.overload_shed_active());
  ASSERT_TRUE(hv.destroy_vm(at_line));
  ASSERT_NE(hv.create_vm("Over", 641, 1), kInvalidVmId);
  EXPECT_TRUE(hv.overload_shed_active());
  EXPECT_EQ(hv.overload_sheds(), 1u);
}

TEST(ResilienceConstants, OverloadRestoreWaitsTwelveSlots) {
  // Load falls back under the restore level right after the shed, but
  // neither the accounting passes nor a shrink one cycle short of the
  // 12-slot backoff restore coscheduling; a destroy at the backoff does.
  const hw::MachineConfig m = small_machine(4);
  sim::Simulator s;
  core::StaticCoScheduler hv(s, m, SchedMode::kNonWorkConserving);
  AdmissionConfig a;
  a.max_vcpus_per_pcpu = 2.5;  // shed past 8.5 weighted VCPUs, restore <= 6.0
  hv.set_admission(a);
  hv.create_vm("Gang", 256, 4, VmType::kConcurrent);
  const VmId dom0 = hv.create_vm("Dom0", 256, 2);  // boot load: 6.0
  hv.start();
  const Cycles shed_at = ms(45);
  s.run_until(shed_at);
  const VmId burst = hv.create_vm("Burst", 256, 3);  // load 9.0
  ASSERT_NE(burst, kInvalidVmId);
  ASSERT_TRUE(hv.overload_shed_active());
  ASSERT_TRUE(hv.destroy_vm(burst));  // load 6.0 again
  const Cycles restore_at = shed_at + m.slot_cycles() * 12;
  s.run_until(restore_at - Cycles{1});
  ASSERT_TRUE(hv.resize_vm(dom0, 1));
  EXPECT_TRUE(hv.overload_shed_active());
  EXPECT_EQ(hv.overload_restores(), 0u);
  s.run_until(restore_at);
  ASSERT_TRUE(hv.destroy_vm(dom0));
  EXPECT_FALSE(hv.overload_shed_active());
  EXPECT_EQ(hv.overload_restores(), 1u);
}

}  // namespace
}  // namespace asman::vmm
