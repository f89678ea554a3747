// Microbenchmarks of the simulation engine itself (conventional
// google-benchmark usage — loops, real timing). These bound the cost of
// the figure reproductions: event throughput determines how much virtual
// time a sweep can cover.
#include <benchmark/benchmark.h>

#include "experiments/paper.h"
#include "simcore/event_queue.h"
#include "simcore/histogram.h"
#include "simcore/rng.h"
#include "simcore/simulator.h"

using namespace asman;

namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < n; ++i)
      q.schedule(sim::Cycles{(i * 2654435761u) % 1000000},
                 [&fired] { ++fired; });
    while (!q.empty()) q.pop_and_run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_EventQueueCancel(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    std::vector<sim::EventId> ids;
    ids.reserve(10'000);
    for (std::size_t i = 0; i < 10'000; ++i)
      ids.push_back(q.schedule(sim::Cycles{i}, [] {}));
    for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
    while (!q.empty()) q.pop_and_run();
  }
  state.SetItemsProcessed(10'000 * state.iterations());
}
BENCHMARK(BM_EventQueueCancel);

// The hold model: the queue stays `depth` deep while each iteration pops
// the earliest event and schedules one successor at now + 1 + rng % 1e6,
// the shape of a simulation's steady state. The workloads of
// perfbench/ peak at 40 to 891 pending events.
void BM_EventQueueHold(benchmark::State& state) {
  constexpr std::uint64_t kSpread = 1'000'000;
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::SplitMix64 rng(42);
  sim::EventQueue q;
  std::uint64_t fired = 0;
  for (std::size_t i = 0; i < depth; ++i)
    q.schedule(sim::Cycles{rng.next() % kSpread}, [&fired] { ++fired; });
  for (auto _ : state) {
    const sim::Cycles now = q.pop_and_run();
    q.schedule(sim::Cycles{now.v + 1 + rng.next() % kSpread},
               [&fired] { ++fired; });
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHold)->Arg(40)->Arg(1024);

// The guest burn's shape: the queue stays `depth` deep, and each callback
// schedules its own successor from inside itself, a short delay after its
// own time, while it still runs in its slot (BM_EventQueueHold schedules
// from outside the callback).
void BM_EventQueueChain(benchmark::State& state) {
  constexpr std::uint64_t kDelay = 100'000;
  struct Link {
    sim::EventQueue* q;
    sim::SplitMix64* rng;
    sim::Cycles at;
    void operator()() const {
      const sim::Cycles next{at.v + 1 + rng->next() % kDelay};
      q->schedule(next, Link{q, rng, next});
    }
  };
  const auto depth = static_cast<std::size_t>(state.range(0));
  sim::SplitMix64 rng(42);
  sim::EventQueue q;
  for (std::size_t i = 0; i < depth; ++i) {
    const sim::Cycles at{rng.next() % kDelay};
    q.schedule(at, Link{&q, &rng, at});
  }
  for (auto _ : state) benchmark::DoNotOptimize(q.pop_and_run());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueChain)->Arg(40);

// cluster_storm's shape: `ticks` periodic timers staggered across one
// period, each re-armed one period ahead when it fires, above 600 keys far
// in the future (the storm's fleet operations, all armed at t = 0).
// TickLane re-arms in a delay lane with a fresh closure; TickHeap is its
// heap-only twin; TickRearm re-arms the running closure in the lane with
// EventQueue::rearm, as the VMM's ticks do.
enum class Rearm : std::uint8_t { kHeap, kLane, kInPlace };

template <Rearm kHow>
void tick_model(benchmark::State& state) {
  constexpr std::uint64_t kPeriod = 23'300'000;  // 10 ms at 2.33 GHz
  constexpr std::uint64_t kFar = std::uint64_t{1} << 62;
  const auto ticks = static_cast<std::uint64_t>(state.range(0));
  sim::EventQueue q;
  std::uint64_t fired = 0;
  for (std::uint64_t i = 0; i < 600; ++i)
    q.schedule(sim::Cycles{kFar + i}, [&fired] { ++fired; });
  const sim::Lane lane =
      kHow == Rearm::kHeap ? sim::Lane{} : q.lane(sim::Cycles{kPeriod});
  for (std::uint64_t i = 0; i < ticks; ++i) {
    const sim::Cycles first{kPeriod * (i + 1) / ticks};
    if constexpr (kHow == Rearm::kInPlace)
      q.schedule(first, [&q, &fired, lane, at = first]() mutable {
        ++fired;
        at += sim::Cycles{kPeriod};
        q.rearm(lane, at);
      });
    else
      q.schedule(first, [&fired] { ++fired; });
  }
  for (auto _ : state) {
    const sim::Cycles next = q.pop_and_run() + sim::Cycles{kPeriod};
    if constexpr (kHow == Rearm::kLane)
      q.schedule(lane, next, [&fired] { ++fired; });
    else if constexpr (kHow == Rearm::kHeap)
      q.schedule(next, [&fired] { ++fired; });
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
void BM_EventQueueTickLane(benchmark::State& state) {
  tick_model<Rearm::kLane>(state);
}
void BM_EventQueueTickHeap(benchmark::State& state) {
  tick_model<Rearm::kHeap>(state);
}
void BM_EventQueueTickRearm(benchmark::State& state) {
  tick_model<Rearm::kInPlace>(state);
}
BENCHMARK(BM_EventQueueTickLane)->Arg(256);
BENCHMARK(BM_EventQueueTickHeap)->Arg(256);
BENCHMARK(BM_EventQueueTickRearm)->Arg(256);

void BM_RngU64(benchmark::State& state) {
  sim::Rng rng(42);
  std::uint64_t acc = 0;
  for (auto _ : state) acc ^= rng.next_u64();
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngU64);

void BM_RngNormal(benchmark::State& state) {
  sim::Rng rng(42);
  double acc = 0;
  for (auto _ : state) acc += rng.normal(0.0, 1.0);
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNormal);

void BM_HistogramAdd(benchmark::State& state) {
  sim::Log2Histogram h;
  sim::Rng rng(7);
  for (auto _ : state) h.add(sim::Cycles{rng.next_below(1u << 26)});
  benchmark::DoNotOptimize(h.total());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramAdd);

// End-to-end simulator throughput: a short LU run; items = events.
void BM_FullSimulation(benchmark::State& state) {
  namespace ex = asman::experiments;
  for (auto _ : state) {
    ex::Scenario sc = ex::single_vm_scenario(
        core::SchedulerKind::kCredit, 128,
        ex::npb_factory(workloads::NpbBenchmark::kFT));
    ex::RunResult r = ex::run_scenario(sc);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(r.events) + state.items_processed());
    benchmark::DoNotOptimize(r.elapsed_seconds);
  }
}
BENCHMARK(BM_FullSimulation)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

BENCHMARK_MAIN();
