// Schedule timeline dumper: runs a short scenario with tracing enabled and
// writes a gantt-style CSV of VCPU online spans plus the coscheduling
// events, so the gang behaviour can be eyeballed (or re-plotted).
//
//   $ ./schedule_timeline [credit|asman|con] [seconds]
//   -> schedule_timeline.csv  (vm, vcpu, online_at_ms, offline_at_ms)
//   and a console summary of coscheduling activity.
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/schedulers.h"
#include "experiments/paper.h"
#include "experiments/tables.h"
#include "guest/guest_kernel.h"
#include "simcore/trace.h"
#include "workloads/npb.h"

using namespace asman;

int main(int argc, char** argv) {
  core::SchedulerKind kind = core::SchedulerKind::kAsman;
  if (argc > 1) {
    if (!std::strcmp(argv[1], "credit")) kind = core::SchedulerKind::kCredit;
    if (!std::strcmp(argv[1], "con")) kind = core::SchedulerKind::kCon;
  }
  const double seconds = argc > 2 ? std::atof(argv[2]) : 1.0;

  sim::Simulator s;
  sim::Trace trace;
  const hw::MachineConfig mach{};  // the paper's testbed
  auto hv = core::make_scheduler(kind, s, mach,
                                 vmm::SchedMode::kNonWorkConserving, &trace);

  const vmm::VmId dom0 = hv->create_vm("V0", 256, 8);
  guest::IdleGuest idle(s, *hv, dom0, 8);
  hv->attach_guest(dom0, &idle);

  const vmm::VmId v1 = hv->create_vm("V1", 32, 4, vmm::VmType::kConcurrent);
  guest::GuestKernel guest_kernel(s, *hv, v1, {.n_vcpus = 4, .seed = 7});
  core::MonitoringModule monitor(s, *hv, v1, {});
  if (kind == core::SchedulerKind::kAsman)
    guest_kernel.set_observer(&monitor);
  auto wl = workloads::make_npb(s, workloads::NpbBenchmark::kLU, 7);
  wl->deploy(guest_kernel);
  hv->attach_guest(v1, &guest_kernel);

  hv->start();
  trace.enable(true);
  s.run_until(sim::kDefaultClock.from_seconds_f(seconds));

  // Reconstruct online spans of V1's VCPUs from the sched trace.
  const sim::ClockDomain clock = mach.clock();
  std::map<std::string, double> online_at;
  std::vector<std::vector<std::string>> rows;
  for (const auto& rec : trace.filter(sim::TraceCat::kSched)) {
    // messages look like "v1.2 online on P3" / "v1.2 offline from P3"
    const std::size_t sp = rec.msg.find(' ');
    if (sp == std::string::npos) continue;
    const std::string who = rec.msg.substr(0, sp);
    if (who.rfind("v1.", 0) != 0) continue;  // only VM V1
    const double t_ms = clock.to_ms(rec.at);
    if (rec.msg.find(" online ") != std::string::npos) {
      online_at[who] = t_ms;
    } else if (auto it = online_at.find(who); it != online_at.end()) {
      rows.push_back({who, experiments::fmt_f(it->second, 3),
                      experiments::fmt_f(t_ms, 3)});
      online_at.erase(it);
    }
  }
  experiments::write_csv("schedule_timeline.csv",
                         {"vcpu", "online_ms", "offline_ms"}, rows);

  const auto cosched = trace.filter(sim::TraceCat::kCosched);
  std::printf(
      "%s, %.1fs of virtual time: %zu online spans of V1's VCPUs written\n"
      "to schedule_timeline.csv; %zu coscheduling trace events, %llu\n"
      "cosched launches, %llu IPIs, VCRD HIGH %.1f%% of the time.\n",
      core::to_string(kind), seconds, rows.size(), cosched.size(),
      static_cast<unsigned long long>(hv->cosched_events()),
      static_cast<unsigned long long>(hv->ipi_bus().sent()),
      100.0 * (hv->vm(v1).vcrd_high_time +
               (hv->vm(v1).vcrd == vmm::Vcrd::kHigh
                    ? s.now() - hv->vm(v1).vcrd_high_since
                    : sim::Cycles{0}))
                  .ratio(s.now()));
  std::printf("\nfirst cosched trace lines:\n%s",
              sim::Trace().enabled() ? "" : "");
  std::size_t shown = 0;
  for (const auto& rec : cosched) {
    if (shown++ >= 8) break;
    std::printf("  [%8.2f ms] %s\n", clock.to_ms(rec.at), rec.msg.c_str());
  }
  return 0;
}
