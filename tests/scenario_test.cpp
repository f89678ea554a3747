// Scenario runner end-to-end behaviour (small, fast configurations).
#include "experiments/scenario.h"

#include <gtest/gtest.h>

#include "bench_util.h"
#include "experiments/paper.h"
#include "workloads/synthetic.h"

namespace asman::experiments {
namespace {

Scenario tiny_scenario(core::SchedulerKind k) {
  Scenario sc;
  sc.machine.num_pcpus = 2;
  sc.scheduler = k;
  sc.mode = vmm::SchedMode::kWorkConserving;
  sc.horizon = sim::kDefaultClock.from_seconds_f(5.0);
  VmSpec v;
  v.name = "V1";
  v.vcpus = 2;
  v.workload = [](sim::Simulator&, std::uint64_t seed) {
    return std::make_unique<workloads::LockHammerWorkload>(
        2, 100, sim::kDefaultClock.from_us(50),
        sim::kDefaultClock.from_us(10), seed);
  };
  sc.vms.push_back(std::move(v));
  return sc;
}

TEST(Scenario, FiniteWorkloadRunsToCompletion) {
  const RunResult r = run_scenario(tiny_scenario(core::SchedulerKind::kCredit));
  ASSERT_EQ(r.vms.size(), 1u);
  const VmResult& v = r.vm("V1");
  EXPECT_TRUE(v.finished);
  EXPECT_GT(v.runtime_seconds, 0.0);
  EXPECT_LT(v.runtime_seconds, 5.0);  // stopped before the horizon
  EXPECT_EQ(v.workload_name, "lock-hammer");
  EXPECT_GT(r.events, 100u);
}

TEST(Scenario, VmLookupByNameThrowsOnUnknown) {
  const RunResult r = run_scenario(tiny_scenario(core::SchedulerKind::kCredit));
  EXPECT_NO_THROW(r.vm("V1"));
  EXPECT_THROW(r.vm("nope"), std::out_of_range);
}

TEST(Scenario, IdleVmContributesNothing) {
  Scenario sc = tiny_scenario(core::SchedulerKind::kCredit);
  VmSpec idle;
  idle.name = "V0";
  idle.vcpus = 2;
  idle.workload = nullptr;
  sc.vms.insert(sc.vms.begin(), std::move(idle));
  const RunResult r = run_scenario(sc);
  EXPECT_LT(r.vm("V0").observed_online_rate, 0.02);
}

TEST(Scenario, DeterministicForSeed) {
  Scenario sc = tiny_scenario(core::SchedulerKind::kCredit);
  sc.seed = 99;
  const RunResult a = run_scenario(sc);
  const RunResult b = run_scenario(sc);
  EXPECT_DOUBLE_EQ(a.vm("V1").runtime_seconds, b.vm("V1").runtime_seconds);
  EXPECT_EQ(a.events, b.events);
  sc.seed = 100;
  const RunResult c = run_scenario(sc);
  EXPECT_NE(a.vm("V1").runtime_seconds, c.vm("V1").runtime_seconds);
}

TEST(Scenario, StopAfterRoundsHonoured) {
  Scenario sc;
  sc.machine.num_pcpus = 2;
  sc.horizon = sim::kDefaultClock.from_seconds_f(30.0);
  sc.stop_after_rounds = 2;
  VmSpec v;
  v.name = "V1";
  v.vcpus = 2;
  v.workload = [](sim::Simulator& s, std::uint64_t seed) {
    workloads::PhaseParams p;
    p.threads = 2;
    p.steps = 10;
    p.compute_mean = sim::kDefaultClock.from_us(100);
    p.rounds = 50;
    return std::make_unique<workloads::PhaseWorkload>(s, "r", p, seed);
  };
  sc.vms.push_back(std::move(v));
  const RunResult r = run_scenario(sc);
  const VmResult& res = r.vm("V1");
  EXPECT_GE(res.round_seconds.size(), 2u);
  EXPECT_LE(res.round_seconds.size(), 4u);  // stopped soon after round 2
  EXPECT_GT(res.mean_round_seconds(2), 0.0);
}

TEST(Scenario, MonitorAttachedOnlyUnderAsman) {
  for (core::SchedulerKind k :
       {core::SchedulerKind::kCredit, core::SchedulerKind::kAsman}) {
    Scenario sc = tiny_scenario(k);
    const RunResult r = run_scenario(sc);
    if (k == core::SchedulerKind::kAsman) {
      SUCCEED();  // adjusting events may or may not occur in 5 s
    } else {
      EXPECT_EQ(r.vm("V1").adjusting_events, 0u);
      EXPECT_EQ(r.vm("V1").vcrd_transitions, 0u);
    }
  }
}

TEST(PaperConfigs, SingleVmScenarioShape) {
  Scenario sc = single_vm_scenario(core::SchedulerKind::kAsman, 64,
                                   npb_factory(workloads::NpbBenchmark::kEP));
  ASSERT_EQ(sc.vms.size(), 2u);
  EXPECT_EQ(sc.vms[0].name, "V0");
  EXPECT_EQ(sc.vms[0].vcpus, 8u);
  EXPECT_EQ(sc.vms[0].weight, 256u);
  EXPECT_FALSE(static_cast<bool>(sc.vms[0].workload));
  EXPECT_EQ(sc.vms[1].weight, 64u);
  EXPECT_EQ(sc.vms[1].vcpus, 4u);
  EXPECT_EQ(sc.mode, vmm::SchedMode::kNonWorkConserving);
  EXPECT_EQ(sc.machine.num_pcpus, 8u);
}

TEST(PaperConfigs, MultiVmScenarioShape) {
  Scenario sc = multi_vm_scenario(
      core::SchedulerKind::kCon,
      {{"a", gcc_factory(5)}, {"b", npb_factory(workloads::NpbBenchmark::kSP)}},
      {false, true}, 3);
  ASSERT_EQ(sc.vms.size(), 3u);  // dom0 + 2
  EXPECT_EQ(sc.mode, vmm::SchedMode::kWorkConserving);
  EXPECT_EQ(sc.stop_after_rounds, 3u);
  EXPECT_EQ(sc.vms[1].type, vmm::VmType::kGeneral);
  EXPECT_EQ(sc.vms[2].type, vmm::VmType::kConcurrent);
}

TEST(PaperConfigs, RatePointsMatchEquation2) {
  for (const RatePoint& rp : kRatePoints) {
    const double omega =
        static_cast<double>(rp.weight) / (256.0 + rp.weight);
    EXPECT_NEAR(8.0 * omega / 4.0, rp.rate, 5e-4);
  }
}

TEST(Runner, SweepPreservesOrder) {
  // bench::Sweep is the fan-out every bench binary ships with.
  bench::Sweep sweep;
  std::vector<Scenario> scenarios;
  for (int i = 0; i < 3; ++i) {
    Scenario sc = tiny_scenario(core::SchedulerKind::kCredit);
    sc.seed = static_cast<std::uint64_t>(i + 1);
    scenarios.push_back(sc);
    sweep.add("p" + std::to_string(i), std::move(sc));
  }
  sweep.execute();
  ASSERT_EQ(sweep.labels(), (std::vector<std::string>{"p0", "p1", "p2"}));
  // Each label gets its own scenario's result, not a neighbour's: seeds
  // differ so runtimes differ, and the pooled run equals a serial one
  // (determinism through the pool).
  std::vector<double> runtimes;
  for (std::size_t i = 0; i < 3; ++i) {
    const RunResult& r = sweep.get(sweep.labels()[i]);
    EXPECT_TRUE(r.vm("V1").finished);
    EXPECT_DOUBLE_EQ(r.vm("V1").runtime_seconds,
                     run_scenario(scenarios[i]).vm("V1").runtime_seconds);
    runtimes.push_back(r.vm("V1").runtime_seconds);
  }
  EXPECT_NE(runtimes[0], runtimes[1]);
  EXPECT_NE(runtimes[1], runtimes[2]);
  EXPECT_NE(runtimes[0], runtimes[2]);
}

}  // namespace
}  // namespace asman::experiments
