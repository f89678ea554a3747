// Ablation study of ASMan's design choices (not a paper figure; supports
// the design discussion in DESIGN.md).
//
//  1. Over-threshold exponent delta: the paper picks delta = 20. Smaller
//     deltas trigger coscheduling on benign contention (overhead); larger
//     ones miss lock-holder preemption events (under-coverage).
//  2. Learned window vs fixed window: Algorithm 1's Roth-Erev estimator
//     against hand-picked constants.
//  3. IPI latency sensitivity: the coscheduling mechanism's cost knob.
//
// All points run LU at the worst operating point (22.2 % online rate).
#include "bench_util.h"

using namespace asman;
using namespace asman::bench;

namespace {

ex::Scenario lu_asman() {
  return ex::single_vm_scenario(core::SchedulerKind::kAsman, 32,
                                ex::npb_factory(workloads::NpbBenchmark::kLU));
}

Sweep build_sweep() {
  Sweep s;
  s.add("baseline/credit",
        ex::single_vm_scenario(core::SchedulerKind::kCredit, 32,
                               ex::npb_factory(workloads::NpbBenchmark::kLU)));
  for (unsigned delta : {16u, 18u, 20u, 22u, 24u}) {
    ex::Scenario sc = lu_asman();
    sc.monitor.delta_exp = delta;
    s.add("delta/" + std::to_string(delta), std::move(sc));
  }
  for (unsigned ms : {10u, 30u, 100u, 300u}) {
    ex::Scenario sc = lu_asman();
    sc.monitor.fixed_window = sim::kDefaultClock.from_ms(ms);
    s.add("fixed_window/" + std::to_string(ms) + "ms", std::move(sc));
  }
  s.add("window/learned", lu_asman());
  for (unsigned us : {2u, 50u, 500u}) {
    ex::Scenario sc = lu_asman();
    sc.machine.ipi_latency_us = us;
    s.add("ipi_latency/" + std::to_string(us) + "us", std::move(sc));
  }
  // Out-of-VM VCRD inference (no guest modification; the paper's §7
  // future work) against the in-guest Monitoring Module.
  {
    ex::Scenario sc = lu_asman();
    sc.scheduler = core::SchedulerKind::kAsmanHw;
    s.add("monitor/out-of-vm", std::move(sc));
  }
  // Relaxed (VMware-style, boost-only) vs strict (co-start/co-stop) gangs.
  {
    ex::Scenario sc = lu_asman();
    sc.strictness = vmm::Hypervisor::Strictness::kRelaxed;
    s.add("gang/relaxed", std::move(sc));
  }
  // Detection-signal ablation: without the remote-runqueue probing of the
  // guest's tick/yield paths, lock-holder preemption goes largely unseen.
  {
    ex::Scenario sc = lu_asman();
    ex::VmSpec& v1 = sc.vms[1];
    v1.guest.balance_every_ticks = 0;
    v1.guest.yield_balance_every = 0;
    s.add("signal/no-remote-probing", std::move(sc));
  }
  return s;
}

void row(ex::TextTable& t, const Sweep& s, const std::string& l,
         const std::string& name) {
  const ex::VmResult& v1 = s.get(l).vm("V1");
  t.add_row({name, ex::fmt_f(v1.runtime_seconds),
             std::to_string(v1.adjusting_events),
             ex::fmt_pct(v1.vcrd_high_fraction)});
}

void print_tables(const Sweep& s) {
  std::printf("\n== Ablation: LU @ 22.2%% online rate (ASMan) ==\n");
  ex::TextTable t({"variant", "run time (s)", "adjusting events",
                   "VCRD-HIGH time"});
  row(t, s, "baseline/credit", "Credit (no cosched)");
  for (unsigned delta : {16u, 18u, 20u, 22u, 24u})
    row(t, s, "delta/" + std::to_string(delta),
        "delta = 2^" + std::to_string(delta));
  row(t, s, "window/learned", "window: learned (Alg 1-2)");
  for (unsigned ms : {10u, 30u, 100u, 300u})
    row(t, s, "fixed_window/" + std::to_string(ms) + "ms",
        "window: fixed " + std::to_string(ms) + "ms");
  for (unsigned us : {2u, 50u, 500u})
    row(t, s, "ipi_latency/" + std::to_string(us) + "us",
        "IPI latency " + std::to_string(us) + "us");
  row(t, s, "monitor/out-of-vm", "out-of-VM monitor (yield rate)");
  row(t, s, "gang/relaxed", "relaxed gangs (boost only)");
  row(t, s, "signal/no-remote-probing", "no remote rq probing in guest");
  std::printf("%s", t.str().c_str());
}

}  // namespace

int main() {
  Sweep sweep = build_sweep();
  return run_bench_main(sweep, print_tables);
}
