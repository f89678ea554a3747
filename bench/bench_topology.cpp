// Topology bench: what does socket-aware placement save on the paper's
// dual-socket host?
//
// For each scheduler the sweep runs the consolidated fleet on the 2x2x2
// paper topology twice — topology-aware and topology-blind — and repeats
// the pair under socket-offline chaos (all of socket 1 hotplugged away
// mid-run). Both variants pay the same warm-cache migration cost model,
// so the table's cross-socket and penalty columns isolate what placement
// alone buys; gang progress shows the fairness side of the trade. Run
// with ASMAN_AUDIT=1 to get credit conservation and the
// topology-placement invariant checked on every point.
#include "bench_util.h"
#include "experiments/chaos.h"

using namespace asman;
using namespace asman::bench;

namespace {

constexpr core::SchedulerKind kScheds[] = {core::SchedulerKind::kCredit,
                                           core::SchedulerKind::kCon,
                                           core::SchedulerKind::kAsman};

constexpr std::uint64_t kSeed = 42;

std::string topo_label(core::SchedulerKind k, bool aware, bool chaos) {
  return std::string(core::to_string(k)) + "/" +
         (aware ? "aware" : "blind") + (chaos ? "+socket-offline" : "");
}

ex::Scenario build_point(core::SchedulerKind k, bool aware, bool chaos) {
  ex::Scenario sc = ex::topology_scenario(k, kSeed, aware);
  if (chaos) {
    sc.faults.seed = kSeed ^ 0xC4A05ULL;
    ex::apply_chaos(sc, ex::ChaosClass::kSocketOffline);
  }
  return sc;
}

Sweep build_sweep() {
  Sweep s;
  for (core::SchedulerKind k : kScheds)
    for (const bool chaos : {false, true})
      for (const bool aware : {true, false})
        s.add(topo_label(k, aware, chaos), build_point(k, aware, chaos));
  return s;
}

void add_row(ex::TextTable& t, const char* label, const ex::RunResult& rr) {
  t.add_row({label, std::to_string(rr.vm("Gang").stats.spin_acquisitions),
             std::to_string(rr.migrations),
             std::to_string(rr.cross_llc_migrations),
             std::to_string(rr.cross_socket_migrations),
             std::to_string(rr.migration_penalty_cycles),
             std::to_string(rr.topology_steal_rejects)});
}

void print_tables(const Sweep& s) {
  for (core::SchedulerKind k : kScheds) {
    std::printf("\n== Placement on 2 sockets x 2 LLCs x 2 PCPUs under %s "
                "(aware vs blind, equal cost model) ==\n",
                core::to_string(k));
    ex::TextTable t({"scenario", "gang work", "migrations", "cross-LLC",
                     "cross-socket", "penalty (cyc)", "steal rejects"});
    add_row(t, "aware", s.get(topo_label(k, true, false)));
    add_row(t, "blind", s.get(topo_label(k, false, false)));
    add_row(t, "aware+socket-offline", s.get(topo_label(k, true, true)));
    add_row(t, "blind+socket-offline", s.get(topo_label(k, false, true)));
    std::printf("%s", t.str().c_str());
  }
}

}  // namespace

int main() {
  Sweep sweep = build_sweep();
  return run_bench_main(sweep, print_tables);
}
