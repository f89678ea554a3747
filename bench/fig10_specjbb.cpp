// Figure 10: SPECjbb2005 throughput in VM V1, Credit vs ASMan.
//
// Warehouses sweep 1..8 on the 4-VCPU VM at online rates 66.7/40/22.2 %;
// throughput = transactions completed per second of virtual time ("bops").
// The SPECjbb score is the average of the throughputs for warehouse counts
// >= the number of VCPUs (4..8). Expected shape: throughput scales up to 4
// warehouses then flattens; at low online rates ASMan beats Credit
// (shared-structure lock convoys are rescued by coscheduling), by up to
// ~25 % at 22.2 %.
#include "bench_util.h"

using namespace asman;
using namespace asman::bench;

namespace {

constexpr core::SchedulerKind kScheds[] = {core::SchedulerKind::kCredit,
                                           core::SchedulerKind::kAsman};
constexpr std::uint32_t kMaxWh = 8;
constexpr double kWindowSeconds = 8.0;

std::string label(core::SchedulerKind k, double rate, std::uint32_t wh) {
  return rate_label(k, rate) + "/wh" + std::to_string(wh);
}

Sweep build_sweep() {
  Sweep s;
  for (core::SchedulerKind k : kScheds) {
    for (const ex::RatePoint& rp : ex::kRatePoints) {
      if (rp.rate == 1.0) continue;
      for (std::uint32_t wh = 1; wh <= kMaxWh; ++wh) {
        ex::Scenario sc = ex::single_vm_scenario(k, rp.weight,
                                                 ex::specjbb_factory(wh));
        sc.horizon = sim::kDefaultClock.from_seconds_f(kWindowSeconds);
        s.add(label(k, rp.rate, wh), std::move(sc));
      }
    }
  }
  return s;
}

double bops(const Sweep& s, const std::string& l) {
  const ex::RunResult& rr = s.get(l);
  const ex::VmResult& v1 = rr.vm("V1");
  return static_cast<double>(v1.work_units) / rr.elapsed_seconds;
}

void print_tables(const Sweep& s) {
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    if (rp.rate == 1.0) continue;
    std::printf("\n== Figure 10: SPECjbb throughput (bops) @ %s ==\n",
                ex::fmt_pct(rp.rate).c_str());
    ex::TextTable t({"warehouses", "Credit", "ASMan", "gain"});
    for (std::uint32_t wh = 1; wh <= kMaxWh; ++wh) {
      const double c = bops(s, label(core::SchedulerKind::kCredit, rp.rate, wh));
      const double a = bops(s, label(core::SchedulerKind::kAsman, rp.rate, wh));
      t.add_row({std::to_string(wh), ex::fmt_f(c, 0), ex::fmt_f(a, 0),
                 ex::fmt_pct(a / c - 1.0)});
    }
    std::printf("%s", t.str().c_str());
  }
  std::printf("\n== Figure 10(d): SPECjbb score (avg bops, warehouses>=4) ==\n");
  ex::TextTable t({"online rate", "Credit", "ASMan", "gain"});
  for (const ex::RatePoint& rp : ex::kRatePoints) {
    if (rp.rate == 1.0) continue;
    double c = 0, a = 0;
    for (std::uint32_t wh = 4; wh <= kMaxWh; ++wh) {
      c += bops(s, label(core::SchedulerKind::kCredit, rp.rate, wh));
      a += bops(s, label(core::SchedulerKind::kAsman, rp.rate, wh));
    }
    c /= kMaxWh - 3;
    a /= kMaxWh - 3;
    t.add_row({ex::fmt_pct(rp.rate), ex::fmt_f(c, 0), ex::fmt_f(a, 0),
               ex::fmt_pct(a / c - 1.0)});
  }
  std::printf("%s", t.str().c_str());
}

}  // namespace

int main() {
  Sweep sweep = build_sweep();
  return run_bench_main(sweep, print_tables);
}
