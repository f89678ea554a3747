// Figure 7: LU run time under Credit vs ASMan across VCPU online rates.
//
// Expected shape: identical at 100 %; as the online rate drops, Credit
// degrades super-linearly (lock-holder preemption + busy-wait convoys)
// while ASMan detects over-threshold spinlocks, coschedules the VCPUs and
// stays close to the 1/rate ideal.
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
      s.add(rate_label(k, rp.rate),
            ex::single_vm_scenario(
                k, rp.weight, ex::npb_factory(workloads::NpbBenchmark::kLU)));
    }
  }
  return s;
}

void print_tables(const Sweep& s) {
  std::printf("\n== Figure 7: LU run time (s), Credit vs ASMan ==\n");
  ex::TextTable t({"online rate", "Credit", "ASMan", "saving",
                   "ASMan VCRD-HIGH", "ideal (1/rate)"});
  double base = 0.0;
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    const ex::VmResult& c =
        s.get(rate_label(core::SchedulerKind::kCredit, rp.rate)).vm("V1");
    const ex::VmResult& a =
        s.get(rate_label(core::SchedulerKind::kAsman, rp.rate)).vm("V1");
    if (rp.rate == 1.0) base = c.runtime_seconds;
    t.add_row({ex::fmt_pct(rp.rate), ex::fmt_f(c.runtime_seconds),
               ex::fmt_f(a.runtime_seconds),
               ex::fmt_pct(1.0 - a.runtime_seconds / c.runtime_seconds),
               ex::fmt_pct(a.vcrd_high_fraction),
               ex::fmt_f(base / rp.rate)});
  }
  std::printf("%s", t.str().c_str());
}

}  // namespace

int main() {
  Sweep sweep = build_sweep();
  return run_bench_main(sweep, print_tables);
}
