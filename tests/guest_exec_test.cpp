// Guest execution engine: activities progress only while the VCPU is
// online; pause/resume accounting; round-robin; idle-halt; retirement.
#include <gtest/gtest.h>

#include "guest_test_util.h"
#include "workloads/synthetic.h"

namespace asman::guest {
namespace {

using testutil::TestHv;
using testutil::quiet_config;
using workloads::LambdaProgram;
using workloads::ScriptProgram;

Cycles us(std::uint64_t n) { return sim::kDefaultClock.from_us(n); }

TEST(GuestExec, ComputeCompletesAfterExactCycles) {
  sim::Simulator s;
  TestHv hv(1);
  GuestKernel g(s, hv, 0, quiet_config(1));
  hv.bind(&g);
  g.spawn(std::make_unique<ScriptProgram>(
              std::vector<Op>{Op::compute(Cycles{10'000})}),
          0);
  hv.map(0);
  s.run_until(Cycles{9'999});
  EXPECT_FALSE(g.all_threads_done());
  s.run_until(Cycles{10'000});
  EXPECT_TRUE(g.all_threads_done());
  EXPECT_EQ(g.last_finish_time(), Cycles{10'000});
}

TEST(GuestExec, NoProgressWhileOffline) {
  sim::Simulator s;
  TestHv hv(1);
  GuestKernel g(s, hv, 0, quiet_config(1));
  hv.bind(&g);
  g.spawn(std::make_unique<ScriptProgram>(
              std::vector<Op>{Op::compute(us(100))}),
          0);
  // Never mapped: nothing happens.
  s.run_until(us(1'000));
  EXPECT_FALSE(g.all_threads_done());
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(GuestExec, PauseResumePreservesRemainingWork) {
  sim::Simulator s;
  TestHv hv(1);
  GuestKernel g(s, hv, 0, quiet_config(1));
  hv.bind(&g);
  g.spawn(std::make_unique<ScriptProgram>(
              std::vector<Op>{Op::compute(us(100))}),
          0);
  hv.map(0);
  s.run_until(us(40));
  hv.unmap(0);          // 60 us of work left
  s.run_until(us(500));  // long offline gap
  hv.map(0);
  s.run_until(us(559));
  EXPECT_FALSE(g.all_threads_done());
  s.run_until(us(561));
  EXPECT_TRUE(g.all_threads_done());
}

TEST(GuestExec, BurnPausedAcrossThreeGapsEndsExactlyAndContinuesOnce) {
  // A paused burn's completion event waits withdrawn in the activity and
  // is scheduled again on resume; each gap must move the end by exactly
  // its length, and the continuation must run once.
  sim::Simulator s;
  TestHv hv(1);
  GuestKernel g(s, hv, 0, quiet_config(1));
  hv.bind(&g);
  int pulls = 0;  // ops handed out: the compute, then kDone
  g.spawn(std::make_unique<LambdaProgram>([&pulls] {
            return ++pulls == 1 ? Op::compute(us(100)) : Op::done();
          }),
          0);
  hv.map(0);
  // Offline for 50, 70 and 90 us after 10, 20 and 20 us of work.
  struct Gap {
    std::uint64_t off_us, on_us;
  };
  for (const Gap gap : {Gap{10, 60}, Gap{80, 150}, Gap{170, 260}}) {
    s.run_until(us(gap.off_us));
    hv.unmap(0);
    s.run_until(us(gap.on_us));
    EXPECT_EQ(pulls, 1);
    hv.map(0);
  }
  // 50 us of work remain.
  s.run_until(us(310) - Cycles{1});
  EXPECT_FALSE(g.all_threads_done());
  s.run_until(us(310));
  EXPECT_TRUE(g.all_threads_done());
  EXPECT_EQ(g.last_finish_time(), us(310));
  s.run_until(us(1'000));
  EXPECT_EQ(pulls, 2);
}

TEST(GuestExec, MultipleOpsRunInSequence) {
  sim::Simulator s;
  TestHv hv(1);
  GuestKernel g(s, hv, 0, quiet_config(1));
  hv.bind(&g);
  g.spawn(std::make_unique<ScriptProgram>(std::vector<Op>{
              Op::compute(Cycles{1'000}), Op::compute(Cycles{2'000}),
              Op::compute(Cycles{3'000})}),
          0);
  hv.map(0);
  testutil::run_guest(s, g);
  EXPECT_TRUE(g.all_threads_done());
  EXPECT_EQ(g.last_finish_time(), Cycles{6'000});
}

TEST(GuestExec, EachRetirementBumpsTheProgressEpoch) {
  // Run loops learn that threads finished from the progress epoch: each
  // retirement bumps it once.
  sim::Simulator s;
  TestHv hv(2);
  GuestKernel g(s, hv, 0, quiet_config(2));
  hv.bind(&g);
  g.spawn(std::make_unique<ScriptProgram>(
              std::vector<Op>{Op::compute(Cycles{100})}),
          0);
  g.spawn(std::make_unique<ScriptProgram>(
              std::vector<Op>{Op::compute(Cycles{200})}),
          1);
  hv.map(0);
  hv.map(1);
  const std::uint64_t epoch = s.progress();
  // Stop at the first bump: exactly one thread has retired.
  s.run_while(Cycles{1'000'000}, [&] { return s.progress() == epoch; });
  EXPECT_EQ(g.threads_done(), 1u);
  EXPECT_FALSE(g.all_threads_done());
  testutil::run_guest(s, g);
  EXPECT_EQ(s.progress() - epoch, 2u);
  EXPECT_TRUE(g.all_threads_done());
  EXPECT_EQ(g.threads_done(), 2u);
}

TEST(GuestExec, PerThreadFinishTimes) {
  sim::Simulator s;
  TestHv hv(2);
  GuestKernel g(s, hv, 0, quiet_config(2));
  hv.bind(&g);
  const Tid t0 = g.spawn(std::make_unique<ScriptProgram>(
                             std::vector<Op>{Op::compute(Cycles{500})}),
                         0);
  const Tid t1 = g.spawn(std::make_unique<ScriptProgram>(
                             std::vector<Op>{Op::compute(Cycles{900})}),
                         1);
  hv.map(0);
  hv.map(1);
  testutil::run_guest(s, g);
  EXPECT_TRUE(g.thread_done(t0));
  EXPECT_EQ(g.thread_finish_time(t0), Cycles{500});
  EXPECT_EQ(g.thread_finish_time(t1), Cycles{900});
}

TEST(GuestExec, RoundRobinSharesOneVcpu) {
  sim::Simulator s;
  TestHv hv(1);
  GuestKernel g(s, hv, 0, quiet_config(1));
  hv.bind(&g);
  // Two 30 ms compute threads on one VCPU, 6 ms quantum: they interleave,
  // so both finish near 60 ms rather than one at 30 ms.
  const Tid t0 = g.spawn(std::make_unique<ScriptProgram>(std::vector<Op>{
                             Op::compute(sim::kDefaultClock.from_ms(30))}),
                         0);
  const Tid t1 = g.spawn(std::make_unique<ScriptProgram>(std::vector<Op>{
                             Op::compute(sim::kDefaultClock.from_ms(30))}),
                         0);
  hv.map(0);
  testutil::run_guest(s, g);
  const double f0 = sim::kDefaultClock.to_ms(g.thread_finish_time(t0));
  const double f1 = sim::kDefaultClock.to_ms(g.thread_finish_time(t1));
  EXPECT_GT(f0, 50.0);
  EXPECT_GT(f1, 50.0);
  EXPECT_LE(std::max(f0, f1), 61.0);
}

TEST(GuestExec, IdleVcpuIssuesHaltHypercall) {
  sim::Simulator s;
  TestHv hv(1);
  GuestKernel g(s, hv, 0, quiet_config(1));
  hv.bind(&g);
  g.spawn(std::make_unique<ScriptProgram>(
              std::vector<Op>{Op::compute(Cycles{1'000})}),
          0);
  hv.map(0);
  testutil::run_guest(s, g);
  EXPECT_TRUE(g.all_threads_done());
  // The halt hypercall follows after the idle grace period.
  s.run_until(s.now() + Cycles{100'000});
  ASSERT_FALSE(hv.blocks.empty());
  EXPECT_EQ(hv.blocks.front(), 0u);
  EXPECT_FALSE(hv.mapped(0));
}

TEST(GuestExec, StatsCountContextSwitches) {
  sim::Simulator s;
  TestHv hv(1);
  GuestKernel g(s, hv, 0, quiet_config(1));
  hv.bind(&g);
  g.spawn(std::make_unique<ScriptProgram>(std::vector<Op>{
              Op::compute(sim::kDefaultClock.from_ms(20))}),
          0);
  g.spawn(std::make_unique<ScriptProgram>(std::vector<Op>{
              Op::compute(sim::kDefaultClock.from_ms(20))}),
          0);
  hv.map(0);
  testutil::run_guest(s, g);
  EXPECT_GE(g.stats().context_switches, 6u);  // ~40ms / 6ms quantum
}

TEST(GuestExec, TickRunsWhileOnlineAndTakesTimerLock) {
  sim::Simulator s;
  TestHv hv(1);
  guest::GuestKernel::Config cfg;  // default config: ticks on
  cfg.n_vcpus = 1;
  GuestKernel g(s, hv, 0, cfg);
  hv.bind(&g);
  g.spawn(std::make_unique<ScriptProgram>(std::vector<Op>{
              Op::compute(sim::kDefaultClock.from_ms(50))}),
          0);
  hv.map(0);
  s.run_while(sim::kDefaultClock.from_seconds_f(1.0),
              [&g] { return !g.all_threads_done(); });
  EXPECT_TRUE(g.all_threads_done());
  EXPECT_GE(g.stats().ticks, 10u);  // ~50 ms / 4 ms
  EXPECT_GE(g.stats().spin_acquisitions, 10u);  // timer lock per tick
  // Ticks stole handler time, so completion is later than the pure work.
  EXPECT_GT(g.last_finish_time(), sim::kDefaultClock.from_ms(50));
}

}  // namespace
}  // namespace asman::guest
