// Cluster fabric bench: a 16-host fleet under the full robustness storm.
//
// For each scheduler the point runs cluster_chaos_scenario at 16 hosts /
// 200 tenants: seeded churn of live migrations, retirements and hot
// admissions, two host crashes (with crash recovery re-placing every
// surviving VM), a degraded-host window and a migration-link-loss window.
// Run with ASMAN_AUDIT=1 to get all ten invariants — including
// single-ownership and cluster credit conservation — checked on every
// point; violations fail the binary, and so does a VM lost to a crash.
#include "bench_util.h"
#include "experiments/cluster.h"

using namespace asman;
using namespace asman::bench;

namespace {

using ClusterSweep = BasicSweep<ex::ClusterScenario, ex::ClusterRunResult,
                                ex::run_cluster_scenario>;

constexpr core::SchedulerKind kScheds[] = {core::SchedulerKind::kCredit,
                                           core::SchedulerKind::kCon,
                                           core::SchedulerKind::kAsman};

constexpr std::uint32_t kHosts = 16;
constexpr std::uint32_t kVms = 200;
constexpr std::uint64_t kSeed = 42;

ClusterSweep build_sweep() {
  ClusterSweep s;
  for (core::SchedulerKind k : kScheds)
    s.add(core::to_string(k),
          ex::cluster_chaos_scenario(k, kHosts, kVms, kSeed));
  return s;
}

void print_table(const ClusterSweep& s) {
  std::printf("\n== cluster fabric storm (%u hosts, %u tenants, seed %llu) "
              "==\n",
              kHosts, kVms, static_cast<unsigned long long>(kSeed));
  ex::TextTable t({"scheduler", "events", "committed", "aborted", "crashes",
                   "replaced", "lost", "violations"});
  for (const std::string& label : s.labels()) {
    const ex::ClusterRunResult& rr = s.get(label);
    t.add_row({label, std::to_string(rr.events),
               std::to_string(rr.migrations_committed),
               std::to_string(rr.migrations_aborted),
               std::to_string(rr.host_crashes),
               std::to_string(rr.vms_replaced), std::to_string(rr.vms_lost),
               std::to_string(rr.audit_violations)});
  }
  std::printf("%s", t.str().c_str());
}

}  // namespace

int main() {
  ClusterSweep sweep = build_sweep();
  const int rc = run_bench_main(sweep, print_table);
  // Crash recovery is a hard gate alongside the audit verdict.
  std::uint64_t lost = 0;
  for (const std::string& label : sweep.labels())
    lost += sweep.get(label).vms_lost;
  if (lost > 0) {
    std::fprintf(stderr, "[bench] FAILED: %llu VM(s) lost\n",
                 static_cast<unsigned long long>(lost));
    return 1;
  }
  return rc;
}
