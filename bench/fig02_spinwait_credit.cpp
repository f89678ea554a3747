// Figure 2: detailed spinlock waiting times under the Credit scheduler.
//
// LU in VM V1 at online rates 100/66.7/40/22.2 %; for each rate the full
// per-acquisition wait distribution is printed (the paper plots them as
// per-spinlock scatter; we print the log2 histogram and dump the raw
// samples to CSV for re-plotting). Expected shape: at 100 % everything is
// below ~2^13; as the rate drops, a heavy tail above 2^20 appears (lock-
// holder preemption) and clusters (locality of synchronization).
#include "bench_util.h"

using namespace asman;
using namespace asman::bench;

namespace {

Sweep build_sweep() {
  Sweep s;
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    ex::Scenario sc = ex::single_vm_scenario(
        core::SchedulerKind::kCredit, rp.weight,
        ex::npb_factory(workloads::NpbBenchmark::kLU));
    sc.keep_wait_samples = true;
    s.add(rate_label(core::SchedulerKind::kCredit, rp.rate), std::move(sc));
  }
  return s;
}

void print_tables(const Sweep& s) {
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    const ex::VmResult& v1 =
        s.get(rate_label(core::SchedulerKind::kCredit, rp.rate)).vm("V1");
    std::printf(
        "\n== Figure 2: spinlock wait distribution, Credit @ %s online "
        "rate (waits > 2^10: %llu, max 2^%u) ==\n%s",
        ex::fmt_pct(rp.rate).c_str(),
        static_cast<unsigned long long>(v1.stats.spin_waits.count_above(10)),
        sim::log2_floor(v1.stats.spin_waits.max_value()),
        v1.stats.spin_waits.render(10, 28).c_str());
    // Raw samples (>= 2^10) for scatter-style re-plotting.
    std::vector<std::vector<std::string>> rows;
    std::uint64_t idx = 0;
    for (sim::Cycles c : v1.stats.spin_waits.samples()) {
      if (c < sim::pow2_cycles(10)) continue;
      rows.push_back({std::to_string(idx++), std::to_string(c.v)});
    }
    char path[64];
    std::snprintf(path, sizeof path, "fig02_credit_rate%.0f.csv",
                  rp.rate * 100.0);
    ex::write_csv(path, {"index", "wait_cycles"}, rows);
    std::printf("  (%zu samples >= 2^10 written to %s)\n", rows.size(), path);
  }
}

}  // namespace

int main() {
  Sweep sweep = build_sweep();
  return run_bench_main(sweep, print_tables);
}
