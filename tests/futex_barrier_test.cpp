// Barrier (spin-then-block), futex-backed mutex, and semaphore semantics.
#include <gtest/gtest.h>

#include <algorithm>

#include "guest_test_util.h"
#include "workloads/synthetic.h"

namespace asman::guest {
namespace {

using testutil::TestHv;
using testutil::quiet_config;
using workloads::LambdaProgram;
using workloads::ScriptProgram;

Cycles us(std::uint64_t n) { return sim::kDefaultClock.from_us(n); }

TEST(Barrier, ReleasesAllParties) {
  sim::Simulator s;
  TestHv hv(4);
  GuestKernel g(s, hv, 0, quiet_config(4));
  hv.bind(&g);
  const std::uint32_t bar = g.create_barrier(4);
  for (std::uint32_t t = 0; t < 4; ++t) {
    g.spawn(std::make_unique<ScriptProgram>(std::vector<Op>{
                Op::compute(us(10 * (t + 1))), Op::barrier(bar)}),
            t);
    hv.map(t);
  }
  testutil::run_guest(s, g);
  EXPECT_TRUE(g.all_threads_done());
  // Everyone leaves at (roughly) the last arrival.
  EXPECT_GE(g.last_finish_time(), us(40));
  EXPECT_LT(g.last_finish_time(), us(80));
}

TEST(Barrier, FastPathStaysInUserSpace) {
  sim::Simulator s;
  TestHv hv(2);
  GuestKernel g(s, hv, 0, quiet_config(2));
  hv.bind(&g);
  const std::uint32_t bar = g.create_barrier(2);
  for (std::uint32_t t = 0; t < 2; ++t) {
    g.spawn(std::make_unique<ScriptProgram>(std::vector<Op>{
                Op::compute(us(5)), Op::barrier(bar)}),
            t);
    hv.map(t);
  }
  testutil::run_guest(s, g);
  EXPECT_TRUE(g.all_threads_done());
  EXPECT_EQ(g.stats().barrier_kernel_sleeps, 0u);  // resolved by spinning
  EXPECT_EQ(g.stats().futex_waits, 0u);
}

TEST(Barrier, SlowArrivalFallsBackToFutexSleep) {
  sim::Simulator s;
  TestHv hv(2);
  GuestKernel::Config cfg = quiet_config(2);
  GuestKernel g(s, hv, 0, cfg);
  hv.bind(&g);
  const std::uint32_t bar = g.create_barrier(2);
  // Thread 1 arrives far beyond thread 0's spin budget.
  const Cycles skew{GuestKernel::kUserSpinLimit.v * 5};
  g.spawn(std::make_unique<ScriptProgram>(std::vector<Op>{Op::barrier(bar)}),
          0);
  g.spawn(std::make_unique<ScriptProgram>(
              std::vector<Op>{Op::compute(skew), Op::barrier(bar)}),
          1);
  hv.map(0);
  hv.map(1);
  testutil::run_guest(s, g);
  EXPECT_TRUE(g.all_threads_done());
  EXPECT_GE(g.stats().barrier_kernel_sleeps, 1u);
  EXPECT_GE(g.stats().futex_waits, 1u);
  EXPECT_GE(g.stats().futex_wakes, 1u);
  // The sleeper's VCPU halted while it waited.
  EXPECT_FALSE(hv.blocks.empty());
}

TEST(Barrier, SpinOnlyBarrierNeverSleeps) {
  sim::Simulator s;
  TestHv hv(2);
  GuestKernel::Config cfg = quiet_config(2);
  GuestKernel g(s, hv, 0, cfg);
  hv.bind(&g);
  const std::uint32_t bar = g.create_barrier(2, /*spin_only=*/true);
  const Cycles skew{GuestKernel::kUserSpinLimit.v * 5};
  g.spawn(std::make_unique<ScriptProgram>(std::vector<Op>{Op::barrier(bar)}),
          0);
  g.spawn(std::make_unique<ScriptProgram>(
              std::vector<Op>{Op::compute(skew), Op::barrier(bar)}),
          1);
  hv.map(0);
  hv.map(1);
  testutil::run_guest(s, g);
  EXPECT_TRUE(g.all_threads_done());
  EXPECT_EQ(g.stats().barrier_kernel_sleeps, 0u);
  EXPECT_EQ(g.stats().futex_waits, 0u);
  // ... but the waiter's sched_yield cadence produced kernel lock traffic.
  EXPECT_GT(g.stats().spin_acquisitions, 5u);
}

TEST(Barrier, ReleaseRepurposesTheSpinOfAnOfflineSpinner) {
  // The spinner's user-spin burn is paused (its event withdrawn into the
  // activity) when the last arrival releases the barrier; the release
  // replaces it with the 120-cycle exit burn, which runs once the
  // spinner's VCPU is mapped again.
  sim::Simulator s;
  TestHv hv(2);
  GuestKernel g(s, hv, 0, quiet_config(2));
  hv.bind(&g);
  const std::uint32_t bar = g.create_barrier(2);
  const Tid spinner = g.spawn(
      std::make_unique<ScriptProgram>(std::vector<Op>{Op::barrier(bar)}), 0);
  const Tid last = g.spawn(std::make_unique<ScriptProgram>(std::vector<Op>{
                               Op::compute(us(40)), Op::barrier(bar)}),
                           1);
  hv.map(0);
  hv.map(1);
  // The spinner arrives at 150 cycles and spins in user space until
  // 150 + kSpinYieldPeriod; its VCPU goes offline inside that burn.
  ASSERT_GT(Cycles{150} + GuestKernel::kSpinYieldPeriod, us(20));
  s.run_until(us(20));
  hv.unmap(0);
  s.run_until(us(100));
  EXPECT_TRUE(g.thread_done(last));
  EXPECT_FALSE(g.thread_done(spinner));
  hv.map(0);
  testutil::run_guest(s, g);
  EXPECT_TRUE(g.all_threads_done());
  EXPECT_EQ(g.thread_finish_time(spinner), us(100) + Cycles{120});
  EXPECT_EQ(g.stats().futex_waits, 0u);
}

TEST(Barrier, RepeatedIterationsNoLostWakeups) {
  sim::Simulator s;
  TestHv hv(2);
  GuestKernel g(s, hv, 0, quiet_config(2));
  hv.bind(&g);
  const std::uint32_t bar = g.create_barrier(2);
  sim::Rng rng(99);
  for (std::uint32_t t = 0; t < 2; ++t) {
    std::vector<Op> ops;
    for (int i = 0; i < 150; ++i) {
      ops.push_back(Op::compute(
          Cycles{rng.uniform(100, 2'200'000)}));  // straddles spin budget
      ops.push_back(Op::barrier(bar));
    }
    g.spawn(std::make_unique<ScriptProgram>(std::move(ops)), t);
    hv.map(t);
  }
  s.run_while(sim::kDefaultClock.from_seconds_f(20.0),
              [&g] { return !g.all_threads_done(); });
  EXPECT_TRUE(g.all_threads_done()) << "lost wakeup: barrier deadlocked";
}

TEST(Mutex, CriticalSectionsNeverOverlap) {
  sim::Simulator s;
  TestHv hv(4);
  GuestKernel g(s, hv, 0, quiet_config(4));
  hv.bind(&g);
  const std::uint32_t mtx = g.create_mutex();
  struct Span {
    Cycles begin, end;
  };
  auto spans = std::make_shared<std::vector<Span>>();
  constexpr std::uint64_t kHold = 40'000;
  for (std::uint32_t t = 0; t < 4; ++t) {
    auto state = std::make_shared<int>(0);
    auto in_cs = std::make_shared<Cycles>();
    g.spawn(std::make_unique<LambdaProgram>(
                [&s, spans, state, in_cs, mtx]() -> Op {
                  // Phases: 0 request, 1..5 track completion of the
                  // previous critical op.
                  if (*state > 0 && *state <= 5) {
                    // Previous op was kCritical: it just finished.
                    spans->push_back(
                        Span{s.now() - Cycles{kHold + 100}, s.now()});
                  }
                  if (*state >= 5) return Op::done();
                  ++*state;
                  return Op::critical(mtx, Cycles{kHold});
                }),
            t);
    hv.map(t);
  }
  testutil::run_guest(s, g);
  EXPECT_TRUE(g.all_threads_done());
  ASSERT_EQ(spans->size(), 20u);
  std::sort(spans->begin(), spans->end(),
            [](const Span& a, const Span& b) { return a.begin < b.begin; });
  for (std::size_t i = 1; i < spans->size(); ++i) {
    EXPECT_GE((*spans)[i].begin, (*spans)[i - 1].end - Cycles{200})
        << "critical sections overlapped at index " << i;
  }
}

TEST(Mutex, ContendedWaitersAllProceed) {
  sim::Simulator s;
  TestHv hv(2);
  GuestKernel g(s, hv, 0, quiet_config(2));
  hv.bind(&g);
  workloads::LockHammerWorkload wl(4, 50, us(20), us(5), 7);
  wl.deploy(g);
  for (std::uint32_t v = 0; v < 2; ++v) hv.map(v);
  s.run_while(sim::kDefaultClock.from_seconds_f(5.0),
              [&g] { return !g.all_threads_done(); });
  EXPECT_TRUE(g.all_threads_done());
}

TEST(Semaphore, CountingSemantics) {
  sim::Simulator s;
  TestHv hv(1);
  GuestKernel g(s, hv, 0, quiet_config(1));
  hv.bind(&g);
  const std::uint32_t sem = g.create_semaphore(2);
  // Two waits pass immediately; the third blocks forever (no post).
  g.spawn(std::make_unique<ScriptProgram>(std::vector<Op>{
              Op::sem_wait(sem), Op::sem_wait(sem), Op::sem_wait(sem)}),
          0);
  hv.map(0);
  s.run_until(sim::kDefaultClock.from_seconds_f(0.5));
  EXPECT_FALSE(g.all_threads_done());
  EXPECT_EQ(g.stats().futex_waits, 0u);  // semaphores have their own queue
  EXPECT_FALSE(hv.blocks.empty());       // VCPU halted on the third wait
}

TEST(Semaphore, PostWakesInFifoOrder) {
  sim::Simulator s;
  TestHv hv(3);
  GuestKernel g(s, hv, 0, quiet_config(3));
  hv.bind(&g);
  const std::uint32_t sem = g.create_semaphore(0);
  // Consumers block in a deterministic order (staggered arrival).
  const Tid c0 = g.spawn(std::make_unique<ScriptProgram>(
                             std::vector<Op>{Op::sem_wait(sem)}),
                         0);
  const Tid c1 = g.spawn(std::make_unique<ScriptProgram>(std::vector<Op>{
                             Op::compute(us(50)), Op::sem_wait(sem)}),
                         1);
  g.spawn(std::make_unique<ScriptProgram>(std::vector<Op>{
              Op::compute(us(500)), Op::sem_post(sem),
              Op::compute(us(500)), Op::sem_post(sem)}),
          2);
  for (std::uint32_t v = 0; v < 3; ++v) hv.map(v);
  testutil::run_guest(s, g);
  EXPECT_TRUE(g.all_threads_done());
  EXPECT_LT(g.thread_finish_time(c0), g.thread_finish_time(c1));
}

TEST(Semaphore, PingPongCompletesAndWaitsStaySmall) {
  sim::Simulator s;
  TestHv hv(2);
  GuestKernel g(s, hv, 0, quiet_config(2));
  hv.bind(&g);
  workloads::SemaphorePingPongWorkload wl(1, 500, us(30), 3);
  wl.deploy(g);
  hv.map(0);
  hv.map(1);
  s.run_while(sim::kDefaultClock.from_seconds_f(5.0),
              [&g] { return !g.all_threads_done(); });
  EXPECT_TRUE(g.all_threads_done());
  EXPECT_LT(g.stats().sem_waits.max_value(), sim::pow2_cycles(16));
  EXPECT_EQ(g.stats().sem_waits.total(), 1000u);
}

}  // namespace
}  // namespace asman::guest
