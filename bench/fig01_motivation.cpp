// Figure 1 (+ the §2.2 observations): the motivation experiment.
//
// LU (NPB, 4 threads) runs in VM V1 (4 VCPUs) on the stock Credit
// scheduler, non-work-conserving, while an idle Domain-0 holds half the
// weight; V1's weight sweeps {256,128,64,32} -> VCPU online rates
// {100, 66.7, 40, 22.2}%.
//
//  (a) run time rises much faster than 1/online-rate (Fig 1a);
//  (b) spinlock waits > 2^10 and > 2^20 cycles per 30 s of observation
//      (Fig 1b): totals fall with the online rate (less work executes) but
//      the over-threshold tail explodes;
//  (c) semaphore (blocking) waits stay below 2^16 cycles even at 22.2 %.
#include "bench_util.h"
#include "workloads/synthetic.h"

using namespace asman;
using namespace asman::bench;

namespace {

Sweep build_sweep() {
  Sweep s;
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    ex::Scenario sc = ex::single_vm_scenario(
        core::SchedulerKind::kCredit, rp.weight,
        ex::npb_factory(workloads::NpbBenchmark::kLU));
    s.add(rate_label(core::SchedulerKind::kCredit, rp.rate), std::move(sc));
  }
  // Semaphore observation at the worst operating point (weight 32).
  ex::Scenario sem = ex::single_vm_scenario(
      core::SchedulerKind::kCredit, 32,
      [](sim::Simulator&, std::uint64_t seed) {
        return std::make_unique<workloads::SemaphorePingPongWorkload>(
            /*pairs=*/2, /*exchanges=*/4000,
            sim::kDefaultClock.from_us(300), seed);
      });
  s.add("Credit/semaphores", std::move(sem));
  return s;
}

void print_tables(const Sweep& s) {
  std::printf("\n== Figure 1(a): LU run time vs VCPU online rate (Credit) ==\n");
  ex::TextTable a({"online rate", "run time (s)", "slowdown",
                   "observed rate"});
  double base = 0.0;
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    const ex::VmResult& v1 =
        s.get(rate_label(core::SchedulerKind::kCredit, rp.rate)).vm("V1");
    if (rp.rate == 1.0) base = v1.runtime_seconds;
    a.add_row({ex::fmt_pct(rp.rate), ex::fmt_f(v1.runtime_seconds),
               ex::fmt_f(base > 0 ? v1.runtime_seconds / base : 1.0),
               ex::fmt_pct(v1.observed_online_rate)});
  }
  std::printf("%s", a.str().c_str());

  std::printf(
      "\n== Figure 1(b): spinlock waits per 30 s of virtual time (Credit) ==\n");
  ex::TextTable b({"online rate", ">2^10 cycles", ">2^20 cycles",
                   "max (log2)"});
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    const ex::VmResult& v1 =
        s.get(rate_label(core::SchedulerKind::kCredit, rp.rate)).vm("V1");
    const double scale =
        v1.runtime_seconds > 0 ? 30.0 / v1.runtime_seconds : 0.0;
    b.add_row(
        {ex::fmt_pct(rp.rate),
         ex::fmt_f(static_cast<double>(v1.stats.spin_waits.count_above(10)) *
                       scale,
                   0),
         ex::fmt_f(static_cast<double>(v1.stats.spin_waits.count_above(20)) *
                       scale,
                   0),
         std::to_string(sim::log2_floor(v1.stats.spin_waits.max_value()))});
  }
  std::printf("%s", b.str().c_str());

  const auto& sem = s.get("Credit/semaphores");
  const ex::VmResult& v1 = sem.vm("V1");
  std::printf(
      "\n== §2.2 observation: semaphore waits at 22.2%% online rate ==\n"
      "  semaphore ops: %llu, max wait: 2^%u cycles (paper: all < 2^16)\n",
      static_cast<unsigned long long>(v1.stats.sem_waits.total()),
      sim::log2_floor(v1.stats.sem_waits.max_value()));
}

}  // namespace

int main() {
  Sweep sweep = build_sweep();
  return run_bench_main(sweep, print_tables);
}
