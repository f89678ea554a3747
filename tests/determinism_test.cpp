// Determinism regression: the simulator is a deterministic discrete-event
// machine, so the same scenario with the same seed must reproduce every
// statistic bit-for-bit and every trace record byte-for-byte. A diff here
// means nondeterminism leaked in (unordered containers in a hot path,
// pointer-keyed iteration, uninitialized reads) — exactly the bug class
// that silently invalidates the paper's figures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <string>

#include "core/schedulers.h"
#include "experiments/scenario.h"
#include "guest/guest_kernel.h"
#include "run_fingerprint.h"
#include "simcore/simulator.h"
#include "simcore/trace.h"
#include "workloads/synthetic.h"

namespace asman::experiments {
namespace {

using testutil::append;
using testutil::fingerprint;

Cycles ms(std::uint64_t n) { return sim::kDefaultClock.from_ms(n); }
Cycles us(std::uint64_t n) { return sim::kDefaultClock.from_us(n); }

hw::MachineConfig small_machine(std::uint32_t pcpus) {
  hw::MachineConfig m;
  m.num_pcpus = pcpus;
  return m;
}

Scenario lock_hammer_scenario(core::SchedulerKind sched, std::uint64_t seed) {
  Scenario sc;
  sc.machine = small_machine(4);
  sc.scheduler = sched;
  sc.seed = seed;
  sc.horizon = ms(1'500);
  VmSpec v0;
  v0.name = "V0";
  v0.weight = 256;
  v0.vcpus = 2;
  v0.workload = [](sim::Simulator&, std::uint64_t s) {
    return std::make_unique<workloads::LockHammerWorkload>(4, 400, us(120),
                                                           us(15), s);
  };
  VmSpec v1;
  v1.name = "V1";
  v1.weight = 128;
  v1.vcpus = 4;
  v1.workload = [](sim::Simulator&, std::uint64_t s) {
    return std::make_unique<workloads::CpuHogWorkload>(4, us(200), s);
  };
  sc.vms.push_back(std::move(v0));
  sc.vms.push_back(std::move(v1));
  return sc;
}

TEST(Determinism, IdenticalSeedsGiveBitIdenticalResults) {
  for (const core::SchedulerKind sched :
       {core::SchedulerKind::kCredit, core::SchedulerKind::kAsman}) {
    const Scenario sc = lock_hammer_scenario(sched, 42);
    const std::string a = fingerprint(run_scenario(sc));
    const std::string b = fingerprint(run_scenario(sc));
    EXPECT_GT(a.size(), 0u);
    EXPECT_EQ(a, b) << "scheduler " << core::to_string(sched)
                    << " is nondeterministic";
  }
}

TEST(Determinism, DifferentSeedsActuallyDiverge) {
  // Guards the fingerprint itself: if it ever degenerates into something
  // seed-insensitive, the bit-identical test above stops proving anything.
  const std::string a =
      fingerprint(run_scenario(lock_hammer_scenario(
          core::SchedulerKind::kAsman, 42)));
  const std::string b =
      fingerprint(run_scenario(lock_hammer_scenario(
          core::SchedulerKind::kAsman, 43)));
  EXPECT_NE(a, b);
}

TEST(Determinism, TopologyRunsAreBitIdentical) {
  // Same guarantee on the paper's 2x2x2 topology: aware placement, the
  // cost model, and the new counters are all deterministic.
  for (const core::SchedulerKind sched :
       {core::SchedulerKind::kCredit, core::SchedulerKind::kAsman}) {
    Scenario sc = lock_hammer_scenario(sched, 42);
    sc.machine.num_pcpus = 8;
    sc.machine.topology = hw::Topology::paper();
    const std::string a = fingerprint(run_scenario(sc));
    const std::string b = fingerprint(run_scenario(sc));
    EXPECT_GT(a.size(), 0u);
    EXPECT_EQ(a, b) << "scheduler " << core::to_string(sched)
                    << " is nondeterministic under topology";
  }
}

TEST(Determinism, FlatVariantsMatchDefault) {
  // The flat-topology bit-compat contract: leaving machine.topology unset,
  // spelling the flat topology out explicitly, and turning the placement
  // policy off must all reproduce the exact same run — the topology
  // subsystem is inert unless the machine is multi-domain.
  const Scenario base = lock_hammer_scenario(core::SchedulerKind::kAsman, 42);
  const std::string fp = fingerprint(run_scenario(base));

  Scenario explicit_flat = base;
  explicit_flat.machine.topology = hw::Topology::flat(4);
  EXPECT_EQ(fp, fingerprint(run_scenario(explicit_flat)));

  Scenario blind = base;
  blind.topology_aware = false;
  EXPECT_EQ(fp, fingerprint(run_scenario(blind)));
}

TEST(Determinism, AuditedRunMatchesUnauditedRun) {
  // Observation must not perturb the system: the auditor only reads
  // hypervisor state, so attaching it cannot change any statistic.
  Scenario plain = lock_hammer_scenario(core::SchedulerKind::kAsman, 7);
  Scenario audited = plain;
  audited.audit = true;
  RunResult ra = run_scenario(audited);
  const std::string fa = fingerprint(ra);
  EXPECT_GT(ra.audit_checks, 0u);
  EXPECT_EQ(ra.audit_violations, 0u);
  EXPECT_EQ(fingerprint(run_scenario(plain)), fa);
}

/// Every trace record of a short lock-hammer run, hypervisor and guest,
/// one per line.
std::string trace_blob(std::uint64_t seed) {
  sim::Simulator s;
  sim::Trace trace;
  trace.enable(true);
  core::AdaptiveScheduler hv(s, small_machine(2),
                             vmm::SchedMode::kNonWorkConserving, &trace);
  const vmm::VmId id = hv.create_vm("V0", 256, 2);
  guest::GuestKernel::Config gc;
  gc.n_vcpus = 2;
  gc.seed = seed;
  guest::GuestKernel g(s, hv, id, gc, &trace);
  workloads::LockHammerWorkload wl(3, 200, us(100), us(12), seed);
  wl.deploy(g);
  hv.attach_guest(id, &g);
  hv.start();
  s.run_until(ms(800));
  std::string blob;
  for (const sim::TraceRecord& r : trace.records())
    append(blob, "%" PRIu64 " %s %s\n", r.at.v, sim::trace_cat_name(r.cat),
           r.msg.c_str());
  return blob;
}

TEST(Determinism, GuestTraceIsBitIdentical) {
  const std::string a = trace_blob(99);
  EXPECT_GT(a.size(), 0u);
  EXPECT_EQ(a, trace_blob(99));
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

TEST(Determinism, TraceTextIsPinned) {
  // Trace text is built only when a trace is attached, inside each call
  // site's message callable. The record count and digest were recorded
  // before the text moved into those callables; any drift in a message or
  // in which records are emitted fails here.
  const std::string blob = trace_blob(99);
  EXPECT_EQ(std::count(blob.begin(), blob.end(), '\n'), 1628);
  EXPECT_EQ(fnv1a(blob), 0xE616D9567EA6985EULL);
}

}  // namespace
}  // namespace asman::experiments
