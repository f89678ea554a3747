// Lifecycle-churn bench: what does runtime VM churn cost the tenants that
// stay?
//
// For each scheduler the sweep runs the chaos workload without churn (the
// baseline), with churn composed onto every fault class, and once against
// the admission-saturated arrival storm. The table reports gang progress
// retained relative to the churn-free baseline next to the lifecycle
// counters (creates/destroys/resizes, admission rejects, overload
// sheds/restores) that explain where scheduling time went. The baseline
// row doubles as a regression guard: with no churn scheduled, every
// lifecycle counter must be zero.
#include "bench_util.h"
#include "experiments/chaos.h"
#include "experiments/churn.h"

using namespace asman;
using namespace asman::bench;

namespace {

constexpr core::SchedulerKind kScheds[] = {core::SchedulerKind::kCredit,
                                           core::SchedulerKind::kCon,
                                           core::SchedulerKind::kAsman};

std::string churn_label(core::SchedulerKind k, const char* cls) {
  return std::string(core::to_string(k)) + "/" + cls;
}

Sweep build_sweep() {
  Sweep s;
  for (core::SchedulerKind k : kScheds) {
    // Same tenant mix the churn scenarios start from, but no churn events:
    // the cost baseline.
    s.add(churn_label(k, "baseline"), ex::chaos_base_scenario(k, 42));
    s.add(churn_label(k, "churn"), ex::churn_scenario(k, 42));
    for (const ex::ChaosClass c : ex::all_chaos_classes())
      s.add(churn_label(k, ex::to_string(c)),
            ex::churn_chaos_scenario(k, c, 42));
    s.add(churn_label(k, "saturated"), ex::saturated_churn_scenario(k, 42));
  }
  return s;
}

void add_row(ex::TextTable& t, const char* label, const ex::RunResult& rr,
             double base_work) {
  const auto acq = rr.vm("Gang").stats.spin_acquisitions;
  t.add_row({label, std::to_string(acq),
             base_work > 0
                 ? ex::fmt_pct(static_cast<double>(acq) / base_work)
                 : std::string("-"),
             std::to_string(rr.vm_creates), std::to_string(rr.vm_destroys),
             std::to_string(rr.vm_resizes),
             std::to_string(rr.admission_rejects),
             std::to_string(rr.overload_sheds),
             std::to_string(rr.overload_restores)});
}

void print_tables(const Sweep& s) {
  for (core::SchedulerKind k : kScheds) {
    const ex::RunResult& base = s.get(churn_label(k, "baseline"));
    const double base_work =
        static_cast<double>(base.vm("Gang").stats.spin_acquisitions);
    std::printf("\n== Churn overhead under %s (gang throughput retained "
                "vs churn-free) ==\n",
                core::to_string(k));
    ex::TextTable t({"scenario", "gang work", "retained", "create",
                     "destroy", "resize", "reject", "shed", "restore"});
    add_row(t, "(no churn)", base, base_work);
    add_row(t, "churn", s.get(churn_label(k, "churn")), base_work);
    for (const ex::ChaosClass c : ex::all_chaos_classes())
      add_row(t, ex::to_string(c), s.get(churn_label(k, ex::to_string(c))),
              base_work);
    add_row(t, "saturated", s.get(churn_label(k, "saturated")),
            base_work);
    std::printf("%s", t.str().c_str());
  }
}

}  // namespace

int main() {
  Sweep sweep = build_sweep();
  return run_bench_main(sweep, print_tables);
}
