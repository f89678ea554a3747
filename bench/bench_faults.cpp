// Degradation-overhead bench: what does surviving faults cost?
//
// For each scheduler the sweep runs the chaos workload fault-free (the
// baseline) and once per fault class, and the table reports gang progress
// (spinlock acquisitions — one per lock-hammer iteration) retained under
// fault relative to the baseline, next to the degradation counters that
// explain where the loss went (retries, watchdog fires, demotions,
// evacuations). The fault-free row doubles as a regression guard: its
// counters must all be zero, i.e. the resilience machinery is
// pay-for-what-you-break.
#include "bench_util.h"
#include "experiments/chaos.h"

using namespace asman;
using namespace asman::bench;

namespace {

constexpr core::SchedulerKind kScheds[] = {core::SchedulerKind::kCredit,
                                           core::SchedulerKind::kCon,
                                           core::SchedulerKind::kAsman};

std::string chaos_label(core::SchedulerKind k, const char* cls) {
  return std::string(core::to_string(k)) + "/" + cls;
}

Sweep build_sweep() {
  Sweep s;
  for (core::SchedulerKind k : kScheds) {
    ex::Scenario base = ex::chaos_scenario(k, ex::ChaosClass::kEverything, 42);
    base.faults = faults::FaultPlan{};  // same workload, zero faults
    base.resilience = vmm::ResilienceConfig{};
    s.add(chaos_label(k, "baseline"), std::move(base));
    for (const ex::ChaosClass c : ex::all_chaos_classes())
      s.add(chaos_label(k, ex::to_string(c)), ex::chaos_scenario(k, c, 42));
  }
  return s;
}

void print_tables(const Sweep& s) {
  for (core::SchedulerKind k : kScheds) {
    const ex::RunResult& base = s.get(chaos_label(k, "baseline"));
    const double base_work =
        static_cast<double>(base.vm("Gang").stats.spin_acquisitions);
    std::printf("\n== Degradation overhead under %s (gang throughput "
                "retained vs fault-free) ==\n",
                core::to_string(k));
    ex::TextTable t({"fault class", "gang work", "retained", "retries",
                     "aborts", "wdog", "demote", "evac"});
    t.add_row({"(none)",
               std::to_string(base.vm("Gang").stats.spin_acquisitions),
               "100.0%", std::to_string(base.ipi_retries),
               std::to_string(base.gang_ipi_aborts),
               std::to_string(base.gang_watchdog_fires),
               std::to_string(base.vcrd_demotions),
               std::to_string(base.evacuated_vcpus)});
    for (const ex::ChaosClass c : ex::all_chaos_classes()) {
      const ex::RunResult& rr = s.get(chaos_label(k, ex::to_string(c)));
      const auto acq = rr.vm("Gang").stats.spin_acquisitions;
      const double work = static_cast<double>(acq);
      t.add_row({ex::to_string(c), std::to_string(acq),
                 base_work > 0 ? ex::fmt_pct(work / base_work)
                               : std::string("-"),
                 std::to_string(rr.ipi_retries),
                 std::to_string(rr.gang_ipi_aborts),
                 std::to_string(rr.gang_watchdog_fires),
                 std::to_string(rr.vcrd_demotions),
                 std::to_string(rr.evacuated_vcpus)});
    }
    std::printf("%s", t.str().c_str());
  }
}

}  // namespace

int main() {
  Sweep sweep = build_sweep();
  return run_bench_main(sweep, print_tables);
}
