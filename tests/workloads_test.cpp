// Workload models: NPB parameter table, phase model behaviour, SPEC CPU
// rate, SPECjbb, synthetic programs, and a trace pin of the guest paths
// they drive.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "experiments/paper.h"
#include "experiments/scenario.h"
#include "guest_test_util.h"
#include "trace_blob.h"
#include "workloads/kernbench.h"
#include "workloads/npb.h"
#include "workloads/speccpu.h"
#include "workloads/specjbb.h"
#include "workloads/synthetic.h"

namespace asman::workloads {
namespace {

using testutil::TestHv;
using testutil::quiet_config;

Cycles us(std::uint64_t n) { return sim::kDefaultClock.from_us(n); }

TEST(Npb, NameRoundTrip) {
  for (NpbBenchmark b : kAllNpb) EXPECT_EQ(npb_from_name(to_string(b)), b);
  EXPECT_THROW(npb_from_name("ZZ"), std::invalid_argument);
}

TEST(Npb, SyncGranularityOrdering) {
  // Finer granularity = smaller compute between syncs: LU < CG < SP < MG <
  // BT < FT < EP, matching the real suite's sync intensity ordering.
  const auto mean = [](NpbBenchmark b) { return npb_params(b).compute_mean.v; };
  EXPECT_LT(mean(NpbBenchmark::kLU), mean(NpbBenchmark::kCG));
  EXPECT_LT(mean(NpbBenchmark::kCG), mean(NpbBenchmark::kSP));
  EXPECT_LT(mean(NpbBenchmark::kSP), mean(NpbBenchmark::kMG));
  EXPECT_LT(mean(NpbBenchmark::kMG), mean(NpbBenchmark::kBT));
  EXPECT_LT(mean(NpbBenchmark::kBT), mean(NpbBenchmark::kFT));
  EXPECT_LT(mean(NpbBenchmark::kFT), mean(NpbBenchmark::kEP));
}

TEST(Npb, TotalWorkComparableAcrossBenchmarks) {
  // Every benchmark carries ~2.5 s of per-thread work per round.
  for (NpbBenchmark b : kAllNpb) {
    const PhaseParams p = npb_params(b);
    const double work = sim::kDefaultClock.to_seconds(
        Cycles{p.compute_mean.v * p.steps});
    EXPECT_NEAR(work, 2.5, 0.3) << to_string(b);
  }
}

TEST(Npb, OnlyLuUsesNeighborChain) {
  for (NpbBenchmark b : kAllNpb) {
    const PhaseParams p = npb_params(b);
    if (b == NpbBenchmark::kLU) {
      EXPECT_EQ(p.sync, PhaseParams::Sync::kNeighborChain);
      EXPECT_TRUE(p.neighbor_pure_spin);
    } else {
      EXPECT_EQ(p.sync, PhaseParams::Sync::kBarrierAll);
    }
  }
}

TEST(PhaseModel, CompletesAndRecordsRounds) {
  sim::Simulator s;
  TestHv hv(2);
  guest::GuestKernel g(s, hv, 0, quiet_config(2));
  hv.bind(&g);
  PhaseParams p;
  p.threads = 2;
  p.steps = 20;
  p.compute_mean = sim::kDefaultClock.from_us(50);
  p.rounds = 3;
  PhaseWorkload wl(s, "tiny", p, 42);
  wl.deploy(g);
  hv.map(0);
  hv.map(1);
  s.run_while(sim::kDefaultClock.from_seconds_f(10.0),
              [&g] { return !g.all_threads_done(); });
  ASSERT_TRUE(g.all_threads_done());
  EXPECT_EQ(wl.rounds_completed(), 3u);
  const auto times = wl.round_times();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_LT(times[0], times[1]);
  EXPECT_LT(times[1], times[2]);
}

TEST(PhaseModel, NeighborChainCompletes) {
  sim::Simulator s;
  TestHv hv(4);
  guest::GuestKernel g(s, hv, 0, quiet_config(4));
  hv.bind(&g);
  PhaseParams p;
  p.threads = 4;
  p.steps = 50;
  p.compute_mean = sim::kDefaultClock.from_us(30);
  p.sync = PhaseParams::Sync::kNeighborChain;
  p.global_barrier_every = 10;
  PhaseWorkload wl(s, "chain", p, 7);
  wl.deploy(g);
  for (std::uint32_t v = 0; v < 4; ++v) hv.map(v);
  s.run_while(sim::kDefaultClock.from_seconds_f(10.0),
              [&g] { return !g.all_threads_done(); });
  EXPECT_TRUE(g.all_threads_done()) << "neighbour pipeline deadlocked";
}

TEST(SpecCpu, ParamsMatchBenchmarkScale) {
  EXPECT_LT(spec_gcc_params().work_per_copy, spec_bzip2_params().work_per_copy);
  EXPECT_EQ(spec_gcc_params(5).rounds, 5u);
}

TEST(SpecCpu, RoundsCompleteWhenAllCopiesFinish) {
  sim::Simulator s;
  TestHv hv(2);
  guest::GuestKernel g(s, hv, 0, quiet_config(2));
  hv.bind(&g);
  SpecCpuParams p;
  p.copies = 2;
  p.work_per_copy = sim::kDefaultClock.from_us(4'000);
  p.chunk = sim::kDefaultClock.from_us(500);
  p.rounds = 2;
  SpecCpuRateWorkload wl(s, "mini", p, 3);
  wl.deploy(g);
  hv.map(0);
  hv.map(1);
  s.run_while(sim::kDefaultClock.from_seconds_f(5.0),
              [&g] { return !g.all_threads_done(); });
  ASSERT_TRUE(g.all_threads_done());
  EXPECT_EQ(wl.rounds_completed(), 2u);
  // Each copy is ~4 ms of work on its own VCPU; rounds land near 4/8 ms.
  const auto times = wl.round_times();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_NEAR(sim::kDefaultClock.to_seconds(times[0]), 0.004, 0.002);
}

TEST(SpecJbb, CountsTransactions) {
  sim::Simulator s;
  TestHv hv(2);
  guest::GuestKernel g(s, hv, 0, quiet_config(2));
  hv.bind(&g);
  SpecJbbParams p;
  p.warehouses = 2;
  SpecJbbWorkload wl(s, p, 5);
  wl.deploy(g);
  hv.map(0);
  hv.map(1);
  EXPECT_FALSE(wl.finite());
  s.run_until(sim::kDefaultClock.from_seconds_f(0.5));
  // ~0.45 ms per txn on 2 warehouses -> roughly 2000 txns in 0.5 s.
  EXPECT_GT(wl.work_units(), 1000u);
  EXPECT_LT(wl.work_units(), 4000u);
}

TEST(SpecJbb, MoreWarehousesMoreThroughputUpToVcpus) {
  auto txns = [](std::uint32_t wh) {
    sim::Simulator s;
    TestHv hv(4);
    guest::GuestKernel g(s, hv, 0, quiet_config(4));
    hv.bind(&g);
    SpecJbbParams p;
    p.warehouses = wh;
    SpecJbbWorkload wl(s, p, 5);
    wl.deploy(g);
    for (std::uint32_t v = 0; v < 4; ++v) hv.map(v);
    s.run_until(sim::kDefaultClock.from_seconds_f(0.5));
    return wl.work_units();
  };
  const auto t1 = txns(1), t4 = txns(4);
  EXPECT_GT(static_cast<double>(t4), 3.0 * static_cast<double>(t1));
}

TEST(Kernbench, PassesCompleteAndJobsAreCounted) {
  sim::Simulator s;
  TestHv hv(2);
  guest::GuestKernel g(s, hv, 0, quiet_config(2));
  hv.bind(&g);
  KernbenchParams p;
  p.workers = 2;
  p.jobs_per_pass = 30;
  p.job_mean = sim::kDefaultClock.from_us(200);
  p.link_cost = sim::kDefaultClock.from_us(500);
  p.passes = 2;
  KernbenchWorkload wl(s, p, 5);
  wl.deploy(g);
  hv.map(0);
  hv.map(1);
  s.run_while(sim::kDefaultClock.from_seconds_f(10.0),
              [&g] { return !g.all_threads_done(); });
  ASSERT_TRUE(g.all_threads_done());
  EXPECT_EQ(wl.rounds_completed(), 2u);
  EXPECT_EQ(wl.work_units(), 60u);
  // The join is blocking: workers sleep while worker 0 links.
  EXPECT_GE(g.stats().futex_waits, 1u);
}

TEST(Kernbench, MostlyVirtualizationTolerant) {
  // Blocking queue+join synchronization: unlike the spin-wait NPB codes,
  // kernbench at a low online rate stays near the 1/rate ideal (this is
  // the contrast [28]'s kernbench-only evaluation missed).
  namespace ex = asman::experiments;
  auto run = [](std::uint32_t weight) {
    ex::Scenario sc = ex::single_vm_scenario(
        core::SchedulerKind::kCredit, weight,
        [](sim::Simulator& s2, std::uint64_t seed) {
          KernbenchParams p;
          p.workers = 4;
          p.passes = 2;
          return std::make_unique<KernbenchWorkload>(s2, p, seed);
        });
    return ex::run_scenario(sc).vm("V1").runtime_seconds;
  };
  const double base = run(256);
  const double capped = run(32);
  // Some excess from the serial link stage and pass joins, but nothing
  // like the spin-wait codes' 1.7x.
  EXPECT_LT(capped / base, 4.5 * 1.45);
  EXPECT_GT(capped / base, 3.6);  // sleep phases bank credit, so < 1/rate
}

TEST(Synthetic, ScriptProgramReplaysThenDone) {
  ScriptProgram p(std::vector<guest::Op>{guest::Op::compute(Cycles{5}),
                                         guest::Op::barrier(3)});
  EXPECT_EQ(p.next().kind, guest::Op::Kind::kCompute);
  EXPECT_EQ(p.next().obj, 3u);
  EXPECT_EQ(p.next().kind, guest::Op::Kind::kDone);
  EXPECT_EQ(p.next().kind, guest::Op::Kind::kDone);
}

TEST(Synthetic, LambdaProgramDelegates) {
  int calls = 0;
  LambdaProgram p([&calls] {
    ++calls;
    return guest::Op::done();
  });
  p.next();
  p.next();
  EXPECT_EQ(calls, 2);
}

TEST(Synthetic, DeterministicAcrossIdenticalDeployments) {
  auto finish = [](std::uint64_t seed) {
    sim::Simulator s;
    TestHv hv(2);
    guest::GuestKernel g(s, hv, 0, quiet_config(2));
    hv.bind(&g);
    PhaseParams p;
    p.threads = 2;
    p.steps = 30;
    p.compute_mean = sim::kDefaultClock.from_us(40);
    PhaseWorkload wl(s, "d", p, seed);
    wl.deploy(g);
    hv.map(0);
    hv.map(1);
    s.run_while(sim::kDefaultClock.from_seconds_f(5.0),
                [&g] { return !g.all_threads_done(); });
    return g.last_finish_time();
  };
  EXPECT_EQ(finish(11), finish(11));
  EXPECT_NE(finish(11), finish(12));
}

/// Spin-then-block join barriers: the link stage outlasts the spin budget,
/// so waiters yield (with remote runqueue probes) and then futex-sleep.
std::unique_ptr<Workload> short_kernbench(sim::Simulator& s,
                                          std::uint64_t seed) {
  KernbenchParams p;
  p.jobs_per_pass = 16;
  p.job_mean = us(2'000);
  p.link_cost = us(5'000);
  p.passes = 50;
  return std::make_unique<KernbenchWorkload>(s, p, seed);
}

/// Semaphore down() sleeps and up() direct hand-offs.
std::unique_ptr<Workload> ping_pong(sim::Simulator&, std::uint64_t seed) {
  return std::make_unique<SemaphorePingPongWorkload>(1, 100'000, us(40),
                                                     seed);
}

/// A spin-only safepoint barrier and timed daemon sleeps.
std::unique_ptr<Workload> specjbb(sim::Simulator& s, std::uint64_t seed) {
  return std::make_unique<SpecJbbWorkload>(s, SpecJbbParams{}, seed);
}

TEST(WorkloadTrace, GuestPathsArePinned) {
  // Determinism.TraceTextIsPinned holds mutex futexes, ticks and spinlocks
  // record by record. This pin holds the guest paths it misses, on a host
  // three times over-committed: the barrier spin-and-yield loop with its
  // remote runqueue probe and a barrier waiter's futex sleep (kernbench),
  // the semaphore sleep and hand-off (ping-pong), and a spin-only barrier
  // with timed sleeps (SPECjbb). The count and digest were recorded before
  // the guest kernel's paths were folded. With asserts on, kernbench here
  // trips lock_acquire's executing-thread assert (ROADMAP item 1), which is
  // why the pin lives in this guest_abort-labelled suite.
  std::vector<guest::GuestStats> stats;
  const std::string blob =
      testutil::trace_blob(17, {short_kernbench, ping_pong, specjbb}, &stats);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_GT(stats[0].barrier_kernel_sleeps, 0u);
  EXPECT_GT(stats[0].futex_waits, 0u);
  EXPECT_GT(stats[0].futex_wakes, 0u);
  EXPECT_GT(stats[1].sem_waits.total(), 0u);
  EXPECT_GT(stats[2].barrier_arrivals, 0u);
  EXPECT_EQ(stats[2].barrier_kernel_sleeps, 0u);  // spin-only safepoints
  EXPECT_EQ(std::count(blob.begin(), blob.end(), '\n'), 40839);
  EXPECT_EQ(testutil::fnv1a(blob), 0xCFC33E2A49EDAA3DULL);
}

}  // namespace
}  // namespace asman::workloads
