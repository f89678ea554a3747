// Figure 11: four VMs running simultaneously (work-conserving mode).
//
//  (a) mixed tenancy: 256.bzip2, 176.gcc (high-throughput, 4 copies each)
//      + SP, LU (concurrent, 4 threads each);
//  (b) all concurrent: LU, LU, SP, SP.
//
// Every VM has 4 VCPUs and weight 256; each benchmark repeats in rounds
// and the mean of the first 10 round times is reported (the paper's
// protocol). Schedulers: Credit, ASMan, CON (static coscheduling — the
// concurrent VMs are manually typed). Expected shape: coscheduling
// (ASMan/CON) cuts the run time of SP and LU sharply; the throughput VMs
// pay a small penalty, smaller under ASMan than under CON
// (over-coscheduling).
#include "bench_util.h"
#include "simcore/stats.h"
#include "workloads/npb.h"

using namespace asman;
using namespace asman::bench;

namespace {

constexpr std::uint64_t kRounds = 10;
constexpr std::uint64_t kFactoryRounds = 40;  // keep running past round 10

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
       {"176.gcc", ex::gcc_factory(kFactoryRounds)},
       {"SP", ex::npb_factory(workloads::NpbBenchmark::kSP, 4, kFactoryRounds)},
       {"LU", ex::npb_factory(workloads::NpbBenchmark::kLU, 4, kFactoryRounds)}},
      {false, false, true, true}});
  out.push_back(Combo{
      "b",
      {{"LU", ex::npb_factory(workloads::NpbBenchmark::kLU, 4, kFactoryRounds)},
       {"LU", ex::npb_factory(workloads::NpbBenchmark::kLU, 4, kFactoryRounds)},
       {"SP", ex::npb_factory(workloads::NpbBenchmark::kSP, 4, kFactoryRounds)},
       {"SP", ex::npb_factory(workloads::NpbBenchmark::kSP, 4, kFactoryRounds)}},
      {true, true, true, true}});
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
  head.push_back("cv (ASMan)");
  ex::TextTable t(head);
  for (std::size_t i = 0; i < c.vms.size(); ++i) {
    std::vector<std::string> row{c.vms[i].first + " (V" +
                                 std::to_string(i + 1) + ")"};
    for (core::SchedulerKind k : kScheds) {
      const ex::RunResult& rr =
          s.get(std::string("combo") + c.name + "/" + core::to_string(k));
      row.push_back(ex::fmt_f(rr.vms[i + 1].mean_round_seconds(kRounds)));
    }
    // Paper protocol (§5.3): the mean is only reported when the rounds'
    // coefficient of variation is below 10 %.
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
  print_combo(s, cs[0], "11(a)");
  print_combo(s, cs[1], "11(b)");
}

}  // namespace

int main() {
  Sweep sweep = build_sweep();
  return run_bench_main(sweep, print_tables);
}
