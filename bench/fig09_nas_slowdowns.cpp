// Figure 9: slowdowns of all seven NAS parallel benchmarks.
//
// Slowdown of benchmark B at online rate r = T_sched(B, r) / T_credit(B,
// 100%). Panels (a)-(c): per-benchmark slowdown at 66.7/40/22.2 % under
// Credit and ASMan; panel (d): the per-rate average. Expected shape:
// ASMan <= Credit everywhere; EP (no synchronization) is insensitive to
// the scheduler; the sync-heavy codes (LU, CG, SP) degrade worst under
// Credit; at 22.2 % ASMan recovers a large fraction of the excess
// slowdown.
#include "bench_util.h"
#include "workloads/npb.h"

using namespace asman;
using namespace asman::bench;

namespace {

constexpr core::SchedulerKind kScheds[] = {core::SchedulerKind::kCredit,
                                           core::SchedulerKind::kAsman};

std::string label(workloads::NpbBenchmark b, core::SchedulerKind k,
                  double rate) {
  return std::string(workloads::to_string(b)) + "/" + rate_label(k, rate);
}

Sweep build_sweep() {
  Sweep s;
  for (workloads::NpbBenchmark b : workloads::kAllNpb) {
    // Baseline: Credit at 100 %.
    s.add(label(b, core::SchedulerKind::kCredit, 1.0),
          ex::single_vm_scenario(core::SchedulerKind::kCredit, 256,
                                 ex::npb_factory(b)));
    for (core::SchedulerKind k : kScheds) {
      for (const ex::RatePoint& rp : ex::kRatePoints) {
        if (rp.rate == 1.0) continue;
        s.add(label(b, k, rp.rate),
              ex::single_vm_scenario(k, rp.weight, ex::npb_factory(b)));
      }
    }
  }
  return s;
}

double runtime_of(const Sweep& s, const std::string& l) {
  return s.get(l).vm("V1").runtime_seconds;
}

void print_tables(const Sweep& s) {
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    if (rp.rate == 1.0) continue;
    std::printf("\n== Figure 9: NPB slowdowns @ %s online rate ==\n",
                ex::fmt_pct(rp.rate).c_str());
    ex::TextTable t({"benchmark", "Credit", "ASMan", "ideal"});
    double sum_c = 0, sum_a = 0;
    for (workloads::NpbBenchmark b : workloads::kAllNpb) {
      const double base =
          runtime_of(s, label(b, core::SchedulerKind::kCredit, 1.0));
      const double c =
          runtime_of(s, label(b, core::SchedulerKind::kCredit, rp.rate)) /
          base;
      const double a =
          runtime_of(s, label(b, core::SchedulerKind::kAsman, rp.rate)) /
          base;
      sum_c += c;
      sum_a += a;
      t.add_row({workloads::to_string(b), ex::fmt_f(c), ex::fmt_f(a),
                 ex::fmt_f(1.0 / rp.rate)});
    }
    const double n = static_cast<double>(workloads::kAllNpb.size());
    t.add_row({"average", ex::fmt_f(sum_c / n), ex::fmt_f(sum_a / n),
               ex::fmt_f(1.0 / rp.rate)});
    std::printf("%s", t.str().c_str());
    std::printf("  (Fig 9d) average slowdown saving: %s\n",
                ex::fmt_pct(1.0 - sum_a / sum_c).c_str());
  }
}

}  // namespace

int main() {
  Sweep sweep = build_sweep();
  return run_bench_main(sweep, print_tables);
}
