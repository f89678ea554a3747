// Figure 8: detailed spinlock waiting times under ASMan (compare Fig 2).
//
// Same setup as fig02 but with the Adaptive Scheduler + Monitoring Module.
// Expected shape: the over-threshold tail largely disappears — a few
// residual spikes remain (the first over-threshold wait of each locality,
// which is what *triggers* coscheduling), but far fewer than under Credit.
#include "bench_util.h"

using namespace asman;
using namespace asman::bench;

namespace {

constexpr core::SchedulerKind kScheds[] = {core::SchedulerKind::kCredit,
                                           core::SchedulerKind::kAsman};

Sweep build_sweep() {
  Sweep s;
  for (core::SchedulerKind k : kScheds) {
    for (const ex::RatePoint& rp : ex::kRatePoints) {
      ex::Scenario sc = ex::single_vm_scenario(
          k, rp.weight, ex::npb_factory(workloads::NpbBenchmark::kLU));
      sc.keep_wait_samples = true;
      s.add(rate_label(k, rp.rate), std::move(sc));
    }
  }
  return s;
}

void print_tables(const Sweep& s) {
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    const ex::VmResult& a =
        s.get(rate_label(core::SchedulerKind::kAsman, rp.rate)).vm("V1");
    std::printf(
        "\n== Figure 8: spinlock wait distribution, ASMan @ %s online rate "
        "(waits > 2^10: %llu, max 2^%u, adjusting events: %llu) ==\n%s",
        ex::fmt_pct(rp.rate).c_str(),
        static_cast<unsigned long long>(a.stats.spin_waits.count_above(10)),
        sim::log2_floor(a.stats.spin_waits.max_value()),
        static_cast<unsigned long long>(a.adjusting_events),
        a.stats.spin_waits.render(10, 28).c_str());
  }
  std::printf(
      "\n== Over-threshold (>2^20) wait counts: Credit vs ASMan ==\n");
  ex::TextTable t({"online rate", "Credit", "ASMan", "reduction"});
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    const auto cc =
        s.get(rate_label(core::SchedulerKind::kCredit, rp.rate))
            .vm("V1")
            .stats.spin_waits.count_above(20);
    const auto aa = s.get(rate_label(core::SchedulerKind::kAsman, rp.rate))
                        .vm("V1")
                        .stats.spin_waits.count_above(20);
    t.add_row({ex::fmt_pct(rp.rate), std::to_string(cc), std::to_string(aa),
               cc > 0 ? ex::fmt_pct(1.0 - static_cast<double>(aa) /
                                              static_cast<double>(cc))
                      : std::string("-")});
  }
  std::printf("%s", t.str().c_str());
}

}  // namespace

int main() {
  Sweep sweep = build_sweep();
  return run_bench_main(sweep, print_tables);
}
