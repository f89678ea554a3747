// Allocation gate: the per-event path of a simulation must not touch the
// heap. Event callbacks and guest continuations live inline
// (sim::InlineFunction), the event queue reuses its slots, and trace text
// is built only when a trace is attached; a regression in any of them
// shows up here as a deterministic allocation count, not as timing noise.
//
// This binary replaces the global operator new with a counting one. The
// simulations are single-threaded, so a plain counter is exact.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "cluster/cluster.h"
#include "core/schedulers.h"
#include "experiments/chaos.h"
#include "experiments/churn.h"
#include "experiments/contention.h"
#include "experiments/paper.h"
#include "simcore/simulator.h"

namespace {
std::uint64_t g_allocs = 0;
}  // namespace

// All out of line: once inlined, GCC's -Wmismatched-new-delete would pair
// the malloc()/free() inside them with the callers' new/delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace asman::experiments {
namespace {

/// Steady-state budget. Events outnumber the remaining allocations (run
/// queue deque blocks, wake lists, result vectors) by far more than 10:1.
constexpr double kMaxAllocsPerEvent = 0.1;

/// Budget of an audited host under chaos and churn. The auditor's scans and
/// the contention engine reuse their buffers, so what remains is the
/// lifecycle itself: VMs created and resized mid-run, and violation-free
/// fault handling.
constexpr double kMaxAuditedAllocsPerEvent = 0.02;

/// Runs `sc` and checks its heap allocations per event against `budget`.
/// Set-up (VM, guest and workload construction, result collection) is a
/// fixed cost; a zero-horizon run of the same scenario measures it so the
/// budget judges the per-event path alone.
void expect_steady_allocs_within(const Scenario& sc, double budget) {
  Scenario zero = sc;
  zero.horizon = sim::Cycles{0};
  std::uint64_t a0 = g_allocs;
  const RunResult setup = run_scenario(zero);
  const std::uint64_t setup_allocs = g_allocs - a0;
  a0 = g_allocs;
  const RunResult full = run_scenario(sc);
  const std::uint64_t full_allocs = g_allocs - a0;

  ASSERT_GT(full.events, setup.events + 10'000);
  EXPECT_EQ(full.audit_violations, 0u) << full.audit_summary;
  const double per_event =
      static_cast<double>(full_allocs - setup_allocs) /
      static_cast<double>(full.events - setup.events);
  ::testing::Test::RecordProperty("allocs_per_event",
                                  std::to_string(per_event));
  EXPECT_LE(per_event, budget)
      << (full_allocs - setup_allocs) << " allocations over "
      << (full.events - setup.events) << " events";
}

TEST(Allocations, ConstructingASimulatorAllocatesNothing) {
  const std::uint64_t before = g_allocs;
  {
    sim::Simulator s;
    EXPECT_EQ(s.pending_events(), 0u);
  }
  EXPECT_EQ(g_allocs - before, 0u);
}

TEST(Allocations, SchedulingAndRunningReuseQueueStorage) {
  sim::Simulator s;
  std::uint64_t fired = 0;
  // Warm the queue to its peak depth, then measure a steady state of the
  // same depth: every event reschedules itself once.
  for (int i = 0; i < 64; ++i)
    s.after(sim::Cycles{static_cast<std::uint64_t>(i + 1)}, [&fired] {
      ++fired;
    });
  s.run_all();
  const std::uint64_t before = g_allocs;
  for (int i = 0; i < 64; ++i)
    s.after(sim::Cycles{static_cast<std::uint64_t>(i + 1)}, [&fired] {
      ++fired;
    });
  s.run_all();
  EXPECT_EQ(g_allocs - before, 0u);
  EXPECT_EQ(fired, 128u);
}

/// A periodic timer: re-arms itself one lane delay ahead every time.
struct LaneTimer {
  sim::Simulator* s;
  sim::Lane lane;
  std::uint64_t* fired;
  void operator()() const {
    ++*fired;
    s->after(lane, *this);
  }
};

TEST(Allocations, LaneRearmsReuseQueueStorage) {
  constexpr std::uint64_t kTimers = 256;
  sim::Simulator s;
  const sim::Lane lane = s.lane(sim::Cycles{kTimers});
  std::uint64_t fired = 0;
  // Staggered first firings, then a steady state of kTimers pending lane
  // re-arms. Warm up for four periods, so the lane's ring has grown to
  // its peak, then measure 36 more.
  for (std::uint64_t i = 0; i < kTimers; ++i)
    s.after(sim::Cycles{i + 1}, LaneTimer{&s, lane, &fired});
  s.run_until(sim::Cycles{kTimers * 4});
  const std::uint64_t before = g_allocs;
  s.run_until(sim::Cycles{kTimers * 40});
  EXPECT_EQ(g_allocs - before, 0u);
  EXPECT_EQ(s.pending_events(), kTimers);
  EXPECT_EQ(fired, kTimers * 40);
}

TEST(Allocations, FleetPlacementPicksWithoutTheHeap) {
  constexpr std::uint32_t kHosts = 16;
  sim::Simulator s;
  cluster::ClusterConfig cc;
  cc.num_hosts = kHosts;
  cluster::Cluster cl(s, cc);
  for (std::uint32_t i = 0; i < 3 * kHosts; ++i) {
    cluster::ClusterVmSpec v;
    v.name = "vm" + std::to_string(i);
    v.weight = 128u << (i % 3);
    v.vcpus = 1 + i % 4;
    ASSERT_NE(cl.admit(v), cluster::kInvalidClusterVmId);
  }
  cl.start();
  s.run_until(sim::kDefaultClock.from_ms(50));  // warm-up
  // Every host excluded once, and none: each pick scores the whole fleet.
  std::array<cluster::HostId, kHosts + 1> picks{};
  const std::uint64_t before = g_allocs;
  for (cluster::HostId x = 0; x <= kHosts; ++x)
    picks[x] = cl.pick_host(x == kHosts ? cluster::kInvalidHostId : x);
  EXPECT_EQ(g_allocs - before, 0u);
  for (cluster::HostId x = 0; x <= kHosts; ++x) {
    EXPECT_NE(picks[x], x);
    EXPECT_LT(picks[x], kHosts);
  }
}

struct Fig07Point {
  core::SchedulerKind sched;
  std::uint32_t weight;
};

class Fig07Allocations : public ::testing::TestWithParam<Fig07Point> {};

TEST_P(Fig07Allocations, SteadyStateStaysUnderBudget) {
  const Fig07Point pt = GetParam();
  const Scenario sc = single_vm_scenario(
      pt.sched, pt.weight, npb_factory(workloads::NpbBenchmark::kLU));
  expect_steady_allocs_within(sc, kMaxAllocsPerEvent);
}

std::string point_name(const ::testing::TestParamInfo<Fig07Point>& info) {
  return std::string(core::to_string(info.param.sched)) + "_weight" +
         std::to_string(info.param.weight);
}

std::vector<Fig07Point> fig07_points() {
  std::vector<Fig07Point> pts;
  for (const core::SchedulerKind k :
       {core::SchedulerKind::kCredit, core::SchedulerKind::kAsman})
    for (const RatePoint& rp : kRatePoints) pts.push_back({k, rp.weight});
  return pts;
}

INSTANTIATE_TEST_SUITE_P(Fig07, Fig07Allocations,
                         ::testing::ValuesIn(fig07_points()), point_name);

TEST(Allocations, AuditedChaosChurnHostStaysUnderBudget) {
  // The contention host under every chaos fault class, plus the churn VM
  // and create/destroy/resize schedule of the churn scenario on the same
  // seed, with every scheduling event fully audited.
  constexpr std::uint64_t kSeed = 1;
  Scenario sc = contention_scenario(core::SchedulerKind::kAsman, kSeed);
  apply_chaos(sc, ChaosClass::kEverything);
  const Scenario churn = churn_scenario(core::SchedulerKind::kAsman, kSeed);
  sc.vms.push_back(churn.vms.back());
  sc.churn = churn.churn;
  sc.audit = true;
  sc.audit_stride = 1;
  expect_steady_allocs_within(sc, kMaxAuditedAllocsPerEvent);
}

}  // namespace
}  // namespace asman::experiments
