// Figure 12: six VMs running simultaneously (work-conserving mode).
//
//  (a) 4 high-throughput + 2 concurrent: bzip2, bzip2, gcc, gcc, SP, LU;
//  (b) 2 high-throughput + 4 concurrent: bzip2, gcc, SP, SP, LU, LU.
//
// Expected shape (paper §5.3): coscheduling saves up to ~45 % of SP's and
// ~70 % of LU's run time in (a), ~30 %/~60 % in (b); the throughput VMs
// degrade at most ~8 % under ASMan but ~18 % under CON (static
// over-coscheduling steals the extra time load balancing would hand them).
#include "bench_util.h"
#include "simcore/stats.h"
#include "workloads/npb.h"

using namespace asman;
using namespace asman::bench;

namespace {

constexpr std::uint64_t kRounds = 6;  // 6 VMs: keep the Credit runs inside the horizon
constexpr std::uint64_t kFactoryRounds = 40;

constexpr core::SchedulerKind kScheds[] = {core::SchedulerKind::kCredit,
                                           core::SchedulerKind::kAsman,
                                           core::SchedulerKind::kCon};

struct Combo {
  const char* name;
  std::vector<std::pair<std::string, ex::WorkloadFactory>> vms;
  std::vector<bool> concurrent;
};

std::vector<Combo> combos() {
  std::vector<Combo> out;
  out.push_back(Combo{
      "a",
      {{"256.bzip2", ex::bzip2_factory(kFactoryRounds)},
       {"256.bzip2", ex::bzip2_factory(kFactoryRounds)},
       {"176.gcc", ex::gcc_factory(kFactoryRounds)},
       {"176.gcc", ex::gcc_factory(kFactoryRounds)},
       {"SP", ex::npb_factory(workloads::NpbBenchmark::kSP, 4, kFactoryRounds)},
       {"LU", ex::npb_factory(workloads::NpbBenchmark::kLU, 4, kFactoryRounds)}},
      {false, false, false, false, true, true}});
  out.push_back(Combo{
      "b",
      {{"256.bzip2", ex::bzip2_factory(kFactoryRounds)},
       {"176.gcc", ex::gcc_factory(kFactoryRounds)},
       {"SP", ex::npb_factory(workloads::NpbBenchmark::kSP, 4, kFactoryRounds)},
       {"SP", ex::npb_factory(workloads::NpbBenchmark::kSP, 4, kFactoryRounds)},
       {"LU", ex::npb_factory(workloads::NpbBenchmark::kLU, 4, kFactoryRounds)},
       {"LU", ex::npb_factory(workloads::NpbBenchmark::kLU, 4, kFactoryRounds)}},
      {false, false, true, true, true, true}});
  return out;
}

Sweep build_sweep() {
  Sweep s;
  for (const Combo& c : combos()) {
    for (core::SchedulerKind k : kScheds) {
      auto vms = c.vms;
      ex::Scenario sc =
          ex::multi_vm_scenario(k, std::move(vms), c.concurrent, kRounds);
      s.add(std::string("combo") + c.name + "/" + core::to_string(k),
            std::move(sc));
    }
  }
  return s;
}

void print_combo(const Sweep& s, const Combo& c, const char* figure) {
  std::printf("\n== Figure %s: mean round time (s, first %llu rounds) ==\n",
              figure, static_cast<unsigned long long>(kRounds));
  std::vector<std::string> head{"workload (VM)"};
  for (core::SchedulerKind k : kScheds) head.push_back(core::to_string(k));
  head.push_back("ASMan vs Credit");
  head.push_back("CON vs Credit");
  head.push_back("cv (ASMan)");
  ex::TextTable t(head);
  for (std::size_t i = 0; i < c.vms.size(); ++i) {
    std::vector<std::string> row{c.vms[i].first + " (V" +
                                 std::to_string(i + 1) + ")"};
    double credit = 0, asman = 0, con = 0;
    for (core::SchedulerKind k : kScheds) {
      const ex::RunResult& rr =
          s.get(std::string("combo") + c.name + "/" + core::to_string(k));
      const double v = rr.vms[i + 1].mean_round_seconds(kRounds);
      row.push_back(ex::fmt_f(v));
      if (k == core::SchedulerKind::kCredit) credit = v;
      if (k == core::SchedulerKind::kAsman) asman = v;
      if (k == core::SchedulerKind::kCon) con = v;
    }
    row.push_back(ex::fmt_pct(1.0 - asman / credit));
    row.push_back(ex::fmt_pct(1.0 - con / credit));
    // Paper protocol (§5.3): means are reported with cv below 10 %.
    {
      const ex::RunResult& rr =
          s.get(std::string("combo") + c.name + "/ASMan");
      sim::Summary sum;
      const auto& rs = rr.vms[i + 1].round_seconds;
      for (std::size_t ri = 0; ri < rs.size() && ri < kRounds; ++ri)
        sum.add(rs[ri]);
      row.push_back(ex::fmt_pct(sum.cv()));
    }
    t.add_row(std::move(row));
  }
  std::printf("%s", t.str().c_str());
}

void print_tables(const Sweep& s) {
  const auto cs = combos();
  print_combo(s, cs[0], "12(a)");
  print_combo(s, cs[1], "12(b)");
  std::printf(
      "\n(positive saving = coscheduling helped; for the throughput VMs a\n"
      " negative value is their degradation — expected small for ASMan,\n"
      " larger for CON.)\n");
}

}  // namespace

int main() {
  Sweep sweep = build_sweep();
  return run_bench_main(sweep, print_tables);
}
