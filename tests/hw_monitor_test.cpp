// Out-of-VM VCRD inference (HwAdaptiveScheduler) and coscheduling
// strictness modes.
#include "core/hw_monitor.h"

#include <gtest/gtest.h>

#include "core/schedulers.h"
#include "experiments/paper.h"
#include "workloads/npb.h"

namespace asman::core {
namespace {

using vmm::SchedMode;
using vmm::VmId;

sim::Cycles ms(std::uint64_t v) { return sim::kDefaultClock.from_ms(v); }

class HogGuest final : public vmm::GuestPort {
 public:
  void vcpu_online(std::uint32_t) override {}
  void vcpu_offline(std::uint32_t) override {}
};

hw::MachineConfig machine(std::uint32_t pcpus) {
  hw::MachineConfig m;
  m.num_pcpus = pcpus;
  return m;
}

/// Counts relocate_vm passes (on_relocated); every other hook is a no-op.
class RelocationCounter final : public vmm::AuditSink {
 public:
  void on_sched_event(vmm::AuditPoint) override {}
  void on_state_change(vmm::VcpuKey, vmm::VcpuState,
                       vmm::VcpuState) override {}
  void on_accounting(vmm::VmId, std::int64_t) override {}
  void on_relocated(vmm::VmId) override { ++relocations; }
  std::uint64_t relocations{0};
};

TEST(HwMonitor, YieldStormRaisesVcrd) {
  sim::Simulator s;
  HwAdaptiveScheduler hv(s, machine(2), SchedMode::kWorkConserving);
  HogGuest g;
  const VmId a = hv.create_vm("a", 256, 2);
  hv.attach_guest(a, &g);
  hv.start();
  s.run_until(ms(5));
  EXPECT_EQ(hv.vm(a).vcrd, vmm::Vcrd::kLow);
  // 100 yields in ~10 ms >> the 3/ms threshold... no: 100/10ms = 10/ms.
  for (int i = 0; i < 100; ++i) {
    hv.vcpu_yield_hint(a, 0);
    s.run_until(s.now() + sim::kDefaultClock.from_us(100));
  }
  s.run_until(s.now() + ms(15));
  EXPECT_EQ(hv.vm(a).vcrd, vmm::Vcrd::kHigh);
  EXPECT_EQ(hv.yield_hints(), 100u);
  EXPECT_GE(hv.evaluations(), 1u);
}

TEST(HwMonitor, QuietVmDropsAfterHysteresis) {
  sim::Simulator s;
  HwAdaptiveScheduler hv(s, machine(2), SchedMode::kWorkConserving);
  HogGuest g;
  const VmId a = hv.create_vm("a", 256, 2);
  hv.attach_guest(a, &g);
  hv.start();
  for (int i = 0; i < 100; ++i) {
    hv.vcpu_yield_hint(a, 0);
    s.run_until(s.now() + sim::kDefaultClock.from_us(100));
  }
  s.run_until(s.now() + ms(5));
  ASSERT_EQ(hv.vm(a).vcrd, vmm::Vcrd::kHigh);
  // Silence: drops only after low_windows_to_drop (3) quiet 10 ms windows
  // (window phase is anchored to the first hint, so allow one window of
  // slack on each side).
  s.run_until(s.now() + ms(10));
  EXPECT_EQ(hv.vm(a).vcrd, vmm::Vcrd::kHigh) << "hysteresis too eager";
  s.run_until(s.now() + ms(45));
  EXPECT_EQ(hv.vm(a).vcrd, vmm::Vcrd::kLow);
}

TEST(HwMonitor, SparseYieldsDoNotTrigger) {
  sim::Simulator s;
  HwAdaptiveScheduler hv(s, machine(2), SchedMode::kWorkConserving);
  HogGuest g;
  const VmId a = hv.create_vm("a", 256, 2);
  hv.attach_guest(a, &g);
  hv.start();
  // ~1 yield/ms < the 3/ms threshold.
  for (int i = 0; i < 50; ++i) {
    hv.vcpu_yield_hint(a, 0);
    s.run_until(s.now() + ms(1));
  }
  EXPECT_EQ(hv.vm(a).vcrd, vmm::Vcrd::kLow);
}

TEST(HwMonitor, EndToEndRecoversLuWithoutGuestModification) {
  namespace ex = asman::experiments;
  auto runtime = [](SchedulerKind k) {
    ex::Scenario sc = ex::single_vm_scenario(
        k, 32, [](sim::Simulator& sim2, std::uint64_t seed) {
          workloads::PhaseParams p =
              workloads::npb_params(workloads::NpbBenchmark::kLU);
          p.steps /= 4;
          return std::make_unique<workloads::PhaseWorkload>(sim2, "LU/4", p,
                                                            seed);
        });
    const ex::RunResult r = ex::run_scenario(sc);
    return std::pair{r.vm("V1").runtime_seconds,
                     r.vm("V1").vcrd_transitions};
  };
  const auto [credit, ct] = runtime(SchedulerKind::kCredit);
  const auto [hw, ht] = runtime(SchedulerKind::kAsmanHw);
  EXPECT_EQ(ct, 0u);
  EXPECT_GT(ht, 0u) << "yield-rate inference never raised the VCRD";
  EXPECT_LT(hw, credit * 0.95);
}

TEST(HwMonitor, DemotedVmIsNotRelocated) {
  // A VM the flap limiter demotes while HIGH gets stock credit treatment:
  // like ASMan, ASMan-HW relocates it neither at the hypercall nor at the
  // accounting passes of its 12-slot backoff.
  sim::Simulator s;
  HwAdaptiveScheduler hv(s, machine(4), SchedMode::kWorkConserving);
  HogGuest g;
  const VmId a = hv.create_vm("a", 256, 2);
  hv.attach_guest(a, &g);
  hv.start();
  RelocationCounter sink;
  hv.set_audit_sink(&sink);
  for (int i = 0; i < 8; ++i) {  // 8 LOW->HIGH transitions: the limit
    hv.do_vcrd_op(a, vmm::Vcrd::kHigh);
    hv.do_vcrd_op(a, vmm::Vcrd::kLow);
  }
  EXPECT_EQ(sink.relocations, 8u) << "each eligible transition relocates";
  hv.do_vcrd_op(a, vmm::Vcrd::kHigh);  // the ninth demotes
  ASSERT_TRUE(hv.vm_degraded(a));
  ASSERT_EQ(hv.vm(a).vcrd, vmm::Vcrd::kHigh);
  s.run_until(ms(100));  // accounting passes at 30, 60 and 90 ms
  EXPECT_TRUE(hv.vm_degraded(a));
  EXPECT_EQ(sink.relocations, 8u);
  hv.set_audit_sink(nullptr);
}

TEST(Strictness, RelaxedModeSkipsCostop) {
  for (auto strict : {vmm::Hypervisor::Strictness::kStrict,
                      vmm::Hypervisor::Strictness::kRelaxed}) {
    sim::Simulator s;
    StaticCoScheduler hv(s, machine(2), SchedMode::kWorkConserving);
    hv.set_cosched_strictness(strict);
    HogGuest g0, g1;
    const VmId conc = hv.create_vm("conc", 256, 2, vmm::VmType::kConcurrent);
    const VmId hog = hv.create_vm("hog", 256, 2);
    hv.attach_guest(conc, &g0);
    hv.attach_guest(hog, &g1);
    hv.start();
    s.run_until(sim::kDefaultClock.from_seconds_f(1.0));
    // Both modes keep proportional share.
    EXPECT_NEAR(hv.vm(conc).total_online.ratio(s.now()) / 2.0, 0.5, 0.12);
    EXPECT_NEAR(hv.vm(hog).total_online.ratio(s.now()) / 2.0, 0.5, 0.12);
  }
}

TEST(Strictness, StrictAlignsBetterThanRelaxed) {
  auto alignment = [](vmm::Hypervisor::Strictness strict) {
    sim::Simulator s;
    StaticCoScheduler hv(s, machine(2), SchedMode::kWorkConserving);
    hv.set_cosched_strictness(strict);
    HogGuest g0, g1;
    const VmId conc = hv.create_vm("conc", 256, 2, vmm::VmType::kConcurrent);
    hv.attach_guest(conc, &g0);
    hv.attach_guest(hv.create_vm("hog", 256, 2), &g1);
    hv.start();
    s.run_until(sim::kDefaultClock.from_seconds_f(0.5));
    std::uint64_t any = 0, all = 0;
    const sim::Cycles step = sim::kDefaultClock.from_us(500);
    const sim::Cycles end = s.now() + sim::kDefaultClock.from_seconds_f(2.0);
    while (s.now() < end) {
      s.run_until(s.now() + step);
      const auto n = hv.vm_online_count(conc);
      if (n > 0) {
        ++any;
        if (n == 2) ++all;
      }
    }
    return any ? static_cast<double>(all) / static_cast<double>(any) : 0.0;
  };
  const double strict = alignment(vmm::Hypervisor::Strictness::kStrict);
  const double relaxed = alignment(vmm::Hypervisor::Strictness::kRelaxed);
  EXPECT_GT(strict, 0.8);
  EXPECT_GT(strict, relaxed);
}

TEST(Factory, MakesHwKind) {
  sim::Simulator s;
  auto hv = make_scheduler(SchedulerKind::kAsmanHw, s, machine(2),
                           SchedMode::kWorkConserving);
  ASSERT_NE(hv, nullptr);
  EXPECT_STREQ(to_string(SchedulerKind::kAsmanHw), "ASMan-HW");
}

}  // namespace
}  // namespace asman::core
