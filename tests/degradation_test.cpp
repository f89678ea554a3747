// Graceful-degradation chaos suite: every fault class from the fault model
// runs under all three schedulers with the invariant auditor attached, and
// the scheduler must (a) keep every invariant, (b) keep making progress to
// the horizon (no deadlock), and (c) degrade observably where the fault
// demands it (flapping guests demoted, stale VCRDs dropped, offlined PCPUs
// evacuated with credit preserved).
#include <gtest/gtest.h>

#include <string>

#include "core/schedulers.h"
#include "experiments/chaos.h"
#include "experiments/scenario.h"
#include "guest/guest_kernel.h"
#include "hw/ipi.h"
#include "simcore/simulator.h"

namespace asman::experiments {
namespace {

Cycles ms(std::uint64_t n) { return sim::kDefaultClock.from_ms(n); }

// --- the chaos matrix: every fault class x every scheduler ------------------

class ChaosMatrix
    : public ::testing::TestWithParam<std::tuple<core::SchedulerKind,
                                                 ChaosClass>> {};

TEST_P(ChaosMatrix, AuditedRunSurvivesToHorizonWithZeroViolations) {
  const auto [sched, cls] = GetParam();
  Scenario sc = chaos_scenario(sched, cls, 42);
  sc.audit = true;
  const RunResult rr = run_scenario(sc);
  EXPECT_GT(rr.audit_checks, 0u);
  EXPECT_EQ(rr.audit_violations, 0u) << rr.audit_summary;
  // No deadlock: the run reaches the horizon (the workloads are sized to
  // outlast it) and PCPUs were not idling the run away. Tick jitter can
  // leave the final event a hair short of the horizon, hence >= 99%.
  const double horizon_s = sim::kDefaultClock.to_seconds(sc.horizon);
  EXPECT_GE(rr.elapsed_seconds, 0.99 * horizon_s);
  EXPECT_LT(rr.idle_fraction, 0.9);
  EXPECT_GT(rr.context_switches, 0u);
}

std::string chaos_case_name(
    const ::testing::TestParamInfo<ChaosMatrix::ParamType>& pinfo) {
  std::string name = core::to_string(std::get<0>(pinfo.param));
  name += "_";
  name += to_string(std::get<1>(pinfo.param));
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulersAllFaults, ChaosMatrix,
    ::testing::Combine(::testing::Values(core::SchedulerKind::kCredit,
                                         core::SchedulerKind::kCon,
                                         core::SchedulerKind::kAsman),
                       ::testing::ValuesIn(all_chaos_classes())),
    chaos_case_name);

// --- degradation is observable, not silent ----------------------------------

TEST(Degradation, FlappingGuestIsDemotedToStockTreatment) {
  Scenario sc = chaos_scenario(core::SchedulerKind::kAsman,
                               ChaosClass::kVcrdFlap, 42);
  sc.audit = true;
  const RunResult rr = run_scenario(sc);
  EXPECT_GT(rr.injected_flaps, 0u);
  EXPECT_GE(rr.vcrd_demotions, 1u)
      << "a 500 Hz VCRD flapper must trip the rate limiter";
  EXPECT_GE(rr.vm("Gang").demotions, 1u);
  EXPECT_EQ(rr.audit_violations, 0u) << rr.audit_summary;
}

TEST(Degradation, CorruptHypercallsAreRejectedWithoutStateDamage) {
  Scenario sc = chaos_scenario(core::SchedulerKind::kAsman,
                               ChaosClass::kVcrdCorrupt, 42);
  sc.audit = true;
  const RunResult rr = run_scenario(sc);
  EXPECT_EQ(rr.injected_corrupt_ops, 60u);
  EXPECT_EQ(rr.hypercall_rejects, 60u)
      << "every corrupt do_vcrd_op must bounce, none may assert or mutate";
  EXPECT_EQ(rr.audit_violations, 0u) << rr.audit_summary;
}

TEST(Degradation, HotplugEvacuatesWithCreditPreserved) {
  Scenario sc = chaos_scenario(core::SchedulerKind::kAsman,
                               ChaosClass::kHotplug, 42);
  sc.audit = true;  // credit conservation is one of the audited invariants
  const RunResult rr = run_scenario(sc);
  EXPECT_EQ(rr.pcpu_offline_events, 2u);
  EXPECT_GE(rr.evacuated_vcpus, 1u)
      << "8 VCPUs on 4 PCPUs: an offlined PCPU cannot have an empty queue";
  EXPECT_EQ(rr.audit_violations, 0u) << rr.audit_summary;
}

TEST(Degradation, StaleVcrdIsDroppedByTtl) {
  // Unit-level TTL check, independent of whether the chaos workload
  // happens to be HIGH when the monitor goes silent: force HIGH once,
  // never report again, and let accounting passes apply the TTL.
  sim::Simulator s;
  hw::MachineConfig m;
  m.num_pcpus = 2;
  core::AdaptiveScheduler hv(s, m, vmm::SchedMode::kNonWorkConserving);
  vmm::ResilienceConfig rc;
  rc.vcrd_ttl = ms(90);
  hv.set_resilience(rc);
  const vmm::VmId id = hv.create_vm("V0", 256, 2);
  hv.start();
  hv.do_vcrd_op(id, vmm::Vcrd::kHigh);
  ASSERT_EQ(hv.vm(id).vcrd, vmm::Vcrd::kHigh);
  s.run_until(ms(200));  // several accounting passes beyond the TTL
  EXPECT_EQ(hv.vm(id).vcrd, vmm::Vcrd::kLow);
  EXPECT_EQ(hv.stale_vcrd_drops(), 1u);
}

TEST(Degradation, DemotionLiftsAfterBackoff) {
  sim::Simulator s;
  hw::MachineConfig m;
  m.num_pcpus = 2;
  core::AdaptiveScheduler hv(s, m, vmm::SchedMode::kNonWorkConserving);
  const vmm::VmId id = hv.create_vm("V0", 256, 2);
  hv.start();
  // Flap well past the limit (8 LOW->HIGH transitions per 5-slot window)
  // inside one window.
  for (int i = 0; i < 16; ++i) {
    hv.do_vcrd_op(id, vmm::Vcrd::kHigh);
    hv.do_vcrd_op(id, vmm::Vcrd::kLow);
  }
  s.run_until(ms(10));
  EXPECT_TRUE(hv.vm_degraded(id));
  EXPECT_FALSE(hv.gang_scheduled(id)) << "degraded VMs get stock treatment";
  EXPECT_GE(hv.vcrd_demotions(), 1u);
  // Quiet guest: the demotion lifts at the first accounting pass past the
  // 12-slot backoff, the pass at 120 ms.
  s.run_until(ms(120));
  EXPECT_FALSE(hv.vm_degraded(id));
}

TEST(Degradation, LastOnlinePcpuCannotBeOfflined) {
  sim::Simulator s;
  hw::MachineConfig m;
  m.num_pcpus = 2;
  core::AdaptiveScheduler hv(s, m, vmm::SchedMode::kNonWorkConserving);
  hv.create_vm("V0", 256, 2);
  hv.start();
  s.run_until(ms(5));
  hv.fault_pcpu_offline(0);
  EXPECT_FALSE(hv.pcpu_is_online(0));
  EXPECT_EQ(hv.online_pcpus(), 1u);
  hv.fault_pcpu_offline(1);  // refused: last one standing
  EXPECT_TRUE(hv.pcpu_is_online(1));
  EXPECT_EQ(hv.online_pcpus(), 1u);
  EXPECT_EQ(hv.pcpu_offline_events(), 1u);
  hv.fault_pcpu_online(0);
  EXPECT_EQ(hv.online_pcpus(), 2u);
  s.run_until(ms(20));
}

TEST(Degradation, LossyBusArmsRetriesAndGangStartsRecover) {
  // Drop-everything plan on a strict CON gang: the retry path and the
  // co-stop watchdog must keep the system live (and counted), never
  // deadlocked waiting on IPIs that will not arrive.
  Scenario sc = chaos_scenario(core::SchedulerKind::kCon,
                               ChaosClass::kIpiLoss, 42);
  sc.audit = true;
  sc.faults.ipi.drop_p = 1.0;  // nothing ever arrives
  sc.faults.ipi.dup_p = 0.0;
  sc.faults.ipi.delay_p = 0.0;
  const RunResult rr = run_scenario(sc);
  EXPECT_GT(rr.ipi_dropped, 0u);
  EXPECT_GT(rr.ipi_retries, 0u) << "lossy bus must arm the retry machinery";
  EXPECT_GT(rr.gang_ipi_aborts, 0u)
      << "with 100% loss every launch must eventually abandon the slot";
  EXPECT_EQ(rr.audit_violations, 0u) << rr.audit_summary;
  EXPECT_DOUBLE_EQ(rr.elapsed_seconds,
                   sim::kDefaultClock.to_seconds(sc.horizon));
}

TEST(Degradation, CrashedVcpuDoesNotStallItsGang) {
  Scenario sc = chaos_scenario(core::SchedulerKind::kCon,
                               ChaosClass::kVcpuCrash, 42);
  sc.audit = true;
  const RunResult rr = run_scenario(sc);
  EXPECT_EQ(rr.audit_violations, 0u) << rr.audit_summary;
  // The remaining members keep running: the Gang VM still accumulates
  // online time after the crash at 400 ms.
  EXPECT_GT(rr.vm("Gang").observed_online_rate, 0.0);
  EXPECT_DOUBLE_EQ(rr.elapsed_seconds,
                   sim::kDefaultClock.to_seconds(sc.horizon));
}

}  // namespace
}  // namespace asman::experiments
