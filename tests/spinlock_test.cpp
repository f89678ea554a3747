// Lock-holder preemption semantics of the guest kernel's spinlocks,
// exercised through the public futex paths (a holder whose VCPU goes
// offline mid-critical-section strands every spinner until it returns).
#include <gtest/gtest.h>

#include "guest_test_util.h"
#include "workloads/synthetic.h"

namespace asman::guest {
namespace {

using testutil::TestHv;
using testutil::quiet_config;
using workloads::ScriptProgram;

Cycles ms(double v) { return sim::kDefaultClock.from_seconds_f(v * 1e-3); }

class CountingObserver final : public SpinlockObserver {
 public:
  void on_spin_acquired(Cycles waited) override {
    ++acquired;
    if (waited > max_wait) max_wait = waited;
  }
  void on_over_threshold() override { ++over; }
  std::uint64_t acquired{0};
  std::uint64_t over{0};
  Cycles max_wait{0};
};

TEST(Spinlock, UncontendedAcquisitionsAreFast) {
  sim::Simulator s;
  TestHv hv(1);
  GuestKernel g(s, hv, 0, quiet_config(1));
  hv.bind(&g);
  const std::uint32_t sem = g.create_semaphore(5);
  // Five uncontended sem_waits: every internal spinlock acquire is fast.
  std::vector<Op> ops;
  for (int i = 0; i < 5; ++i) ops.push_back(Op::sem_wait(sem));
  g.spawn(std::make_unique<ScriptProgram>(std::move(ops)), 0);
  hv.map(0);
  testutil::run_guest(s, g);
  EXPECT_TRUE(g.all_threads_done());
  EXPECT_EQ(g.stats().spin_contended, 0u);
  EXPECT_LT(g.stats().spin_waits.max_value(), Cycles{1024});
}

// Builds the canonical LHP situation: thread A (vcpu0) sleeps on a futex
// while we deschedule vcpu0 exactly inside its 7000-cycle bucket-lock
// hold; thread B (vcpu1) then posts/wakes, which needs the same bucket
// lock, and must spin for the whole offline span.
class LhpFixture : public ::testing::Test {
 protected:
  void run_lhp(Cycles offline_span) {
    sim::Simulator s;
    TestHv hv(2);
    GuestKernel::Config cfg = quiet_config(2);
    GuestKernel g(s, hv, 0, cfg);
    hv.bind(&g);
    g.set_observer(&obs_);
    const std::uint32_t sem = g.create_semaphore(0);
    // A: waits on the semaphore (enqueue path holds the bucket lock).
    g.spawn(std::make_unique<ScriptProgram>(
                std::vector<Op>{Op::sem_wait(sem)}),
            0);
    // B: computes long enough for A to be mid-enqueue, then posts.
    g.spawn(std::make_unique<ScriptProgram>(std::vector<Op>{
                Op::compute(Cycles{GuestKernel::kSyscallEntry.v + 2'000}),
                Op::sem_post(sem)}),
            1);
    hv.map(0);
    hv.map(1);
    // A's timeline: kSyscallEntry, uncontended acquire, then a 7000-cycle
    // kernel hold. Deschedule vcpu0 1000 cycles into the hold.
    const Cycles preempt_at = GuestKernel::kSyscallEntry + Cycles{1'000};
    s.run_until(preempt_at);
    hv.unmap(0);
    s.run_until(preempt_at + offline_span);
    hv.map(0);
    s.run_while(sim::kDefaultClock.from_seconds_f(1.0),
                [&g] { return !g.all_threads_done(); });
    ASSERT_TRUE(g.all_threads_done());
    stats_contended_ = g.stats().spin_contended;
    max_wait_ = g.stats().spin_waits.max_value();
  }

  CountingObserver obs_;
  std::uint64_t stats_contended_{0};
  Cycles max_wait_{0};
};

TEST_F(LhpFixture, WaiterStallsForOfflineSpan) {
  run_lhp(ms(2.0));
  EXPECT_GE(stats_contended_, 1u);
  // The waker's measured spinlock wait covers the holder's offline span.
  EXPECT_GT(max_wait_, ms(1.8));
  EXPECT_LT(max_wait_, ms(3.0));
}

TEST_F(LhpFixture, OverThresholdReportedForLongStall) {
  run_lhp(ms(2.0));  // 2 ms = ~4.7M cycles > 2^20
  EXPECT_GE(obs_.over, 1u);
}

TEST_F(LhpFixture, ShortPreemptionIsNotOverThreshold) {
  run_lhp(Cycles{100'000});  // ~43 us < 2^20 cycles
  EXPECT_EQ(obs_.over, 0u);
  EXPECT_GE(stats_contended_, 1u);
}

TEST(Spinlock, OverThresholdReportedOncePerWait) {
  // A very long stall must produce exactly one adjusting trigger from the
  // same waiter (reported flag), not one per crossing check.
  sim::Simulator s;
  TestHv hv(2);
  GuestKernel::Config cfg = quiet_config(2);
  GuestKernel g(s, hv, 0, cfg);
  hv.bind(&g);
  CountingObserver obs;
  g.set_observer(&obs);
  const std::uint32_t sem = g.create_semaphore(0);
  g.spawn(std::make_unique<ScriptProgram>(std::vector<Op>{Op::sem_wait(sem)}),
          0);
  g.spawn(std::make_unique<ScriptProgram>(std::vector<Op>{
              Op::compute(Cycles{GuestKernel::kSyscallEntry.v + 2'000}),
              Op::sem_post(sem)}),
          1);
  hv.map(0);
  hv.map(1);
  s.run_until(GuestKernel::kSyscallEntry + Cycles{1'000});
  hv.unmap(0);
  s.run_until(s.now() + ms(10.0));  // many threshold multiples
  hv.map(0);
  s.run_while(sim::kDefaultClock.from_seconds_f(1.0),
              [&g] { return !g.all_threads_done(); });
  EXPECT_EQ(obs.over, 1u);
}

TEST(Spinlock, SemaphoreWaitsStaySmallDespiteStalls) {
  // Even with the LHP stall above, the *semaphore* histogram only sees the
  // down() path overhead (the stall is attributed to the spinlock).
  sim::Simulator s;
  TestHv hv(2);
  GuestKernel::Config cfg = quiet_config(2);
  GuestKernel g(s, hv, 0, cfg);
  hv.bind(&g);
  const std::uint32_t sem = g.create_semaphore(0);
  g.spawn(std::make_unique<ScriptProgram>(std::vector<Op>{Op::sem_wait(sem)}),
          0);
  g.spawn(std::make_unique<ScriptProgram>(std::vector<Op>{
              Op::compute(Cycles{GuestKernel::kSyscallEntry.v + 2'000}),
              Op::sem_post(sem)}),
          1);
  hv.map(0);
  hv.map(1);
  s.run_until(GuestKernel::kSyscallEntry + Cycles{1'000});
  hv.unmap(0);
  s.run_until(s.now() + ms(5.0));
  hv.map(0);
  s.run_while(sim::kDefaultClock.from_seconds_f(1.0),
              [&g] { return !g.all_threads_done(); });
  EXPECT_TRUE(g.all_threads_done());
  EXPECT_LT(g.stats().sem_waits.max_value(), sim::pow2_cycles(16));
}

}  // namespace
}  // namespace asman::guest
