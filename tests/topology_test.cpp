// Processor-topology subsystem tests: the Topology shape/distance model,
// typed MachineConfig validation, socket-aware boot placement and gang
// relocation, the warm-cache steal gate, the cost counters, and audited
// topology runs (gang coherence and the topology-placement invariant
// hold under aware placement and under socket-offline chaos).
#include "hw/topology.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/schedulers.h"
#include "experiments/chaos.h"
#include "hw/machine.h"
#include "simcore/simulator.h"
#include "vmm/hypervisor.h"

namespace asman {
namespace {

namespace ex = asman::experiments;

sim::Cycles seconds(double s) { return sim::kDefaultClock.from_seconds_f(s); }

constexpr core::SchedulerKind kAllScheds[] = {core::SchedulerKind::kCredit,
                                              core::SchedulerKind::kCon,
                                              core::SchedulerKind::kAsman};

TEST(TopologyShape, PaperTestbedIsTwoByTwoByTwo) {
  const hw::Topology t = hw::Topology::paper();
  EXPECT_TRUE(t.specified());
  EXPECT_FALSE(t.is_flat());
  EXPECT_EQ(t.num_pcpus(), 8u);
  EXPECT_EQ(t.num_sockets(), 2u);
  EXPECT_EQ(t.num_llcs(), 4u);
  // Socket-major ids: P0-P3 on socket 0, P4-P7 on socket 1.
  for (hw::PcpuId p = 0; p < 8; ++p)
    EXPECT_EQ(t.socket_of(p), p < 4 ? 0u : 1u) << "P" << p;
  EXPECT_EQ(t.pcpus_in_socket(1).front(), 4u);
  EXPECT_EQ(t.pcpus_in_socket(1).size(), 4u);
}

TEST(TopologyShape, DistanceClassesMatchTheHarpertownLayout) {
  const hw::Topology t = hw::Topology::paper();
  EXPECT_EQ(t.distance(0, 0), hw::TopoDistance::kSelf);
  EXPECT_EQ(t.distance(0, 1), hw::TopoDistance::kSameLlc);   // shared L2
  EXPECT_EQ(t.distance(0, 2), hw::TopoDistance::kSameSocket);
  EXPECT_EQ(t.distance(0, 4), hw::TopoDistance::kCrossSocket);
  EXPECT_EQ(t.distance(4, 0), hw::TopoDistance::kCrossSocket);
  EXPECT_STREQ(hw::to_string(hw::TopoDistance::kSelf), "self");
  EXPECT_STREQ(hw::to_string(hw::TopoDistance::kSameLlc), "same-llc");
  EXPECT_STREQ(hw::to_string(hw::TopoDistance::kSameSocket), "same-socket");
  EXPECT_STREQ(hw::to_string(hw::TopoDistance::kCrossSocket),
               "cross-socket");
}

TEST(TopologyShape, FlatTopologyCollapsesEveryDistance) {
  const hw::Topology t = hw::Topology::flat(4);
  EXPECT_TRUE(t.specified());
  EXPECT_TRUE(t.is_flat());
  EXPECT_EQ(t.num_sockets(), 1u);
  for (hw::PcpuId a = 0; a < 4; ++a)
    for (hw::PcpuId b = 0; b < 4; ++b)
      EXPECT_EQ(t.distance(a, b), a == b ? hw::TopoDistance::kSelf
                                         : hw::TopoDistance::kSameLlc);
  EXPECT_FALSE(hw::Topology{}.specified());
}

TEST(ConfigValidation, DefaultConfigIsValid) {
  EXPECT_TRUE(hw::validate_config(hw::MachineConfig{}).empty());
}

TEST(ConfigValidation, EveryZeroFieldIsACountedTypedError) {
  hw::MachineConfig m;
  m.num_pcpus = 0;
  m.freq_hz = 0;
  m.slot_ms = 0;
  m.slots_per_accounting = 0;
  m.slots_per_timeslice = 0;
  const std::vector<hw::ConfigIssue> issues = hw::validate_config(m);
  ASSERT_EQ(issues.size(), 5u);
  EXPECT_EQ(issues[0].kind, hw::ConfigError::kNoPcpus);
  EXPECT_EQ(issues[1].kind, hw::ConfigError::kZeroFrequency);
  EXPECT_EQ(issues[2].kind, hw::ConfigError::kZeroSlot);
  EXPECT_EQ(issues[3].kind, hw::ConfigError::kZeroAccounting);
  EXPECT_EQ(issues[4].kind, hw::ConfigError::kZeroTimeslice);
  for (const hw::ConfigIssue& i : issues) EXPECT_FALSE(i.what.empty());
  EXPECT_STREQ(hw::to_string(hw::ConfigError::kNoPcpus), "no-pcpus");
}

TEST(ConfigValidation, TopologyLeafCountMustMatchPcpuCount) {
  hw::MachineConfig m;
  m.num_pcpus = 4;
  m.topology = hw::Topology::paper();  // 8 leaves over 4 PCPUs
  const std::vector<hw::ConfigIssue> issues = hw::validate_config(m);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].kind, hw::ConfigError::kTopologyLeafMismatch);
  EXPECT_NE(issues[0].what.find("8"), std::string::npos);
  EXPECT_NE(issues[0].what.find("4"), std::string::npos);
}

TEST(ConfigValidation, HypervisorRefusesToConstructOverABrokenConfig) {
  sim::Simulator s;
  hw::MachineConfig m;
  m.num_pcpus = 0;
  EXPECT_THROW(vmm::CreditScheduler(s, m, vmm::SchedMode::kWorkConserving),
               std::invalid_argument);
  hw::MachineConfig mismatch;
  mismatch.num_pcpus = 4;
  mismatch.topology = hw::Topology::paper();
  EXPECT_THROW(
      vmm::CreditScheduler(s, mismatch, vmm::SchedMode::kWorkConserving),
      std::invalid_argument);
}

hw::MachineConfig paper_machine() {
  hw::MachineConfig m;
  m.num_pcpus = 8;
  m.topology = hw::Topology::paper();
  return m;
}

TEST(TopologyPlacement, BootPlacementPacksEachVmIntoItsStartingSocket) {
  sim::Simulator s;
  core::AdaptiveScheduler hv(s, paper_machine(),
                             vmm::SchedMode::kNonWorkConserving);
  const vmm::VmId dom0 = hv.create_vm("Dom0", 256, 2);
  const vmm::VmId gang = hv.create_vm("Gang", 256, 4);
  // Socket-major round robin starting at socket (id % sockets): Dom0
  // (id 0) packs into socket 0, the gang (id 1) fills socket 1 exactly.
  EXPECT_EQ(hv.vm(dom0).vcpus[0].where, 0u);
  EXPECT_EQ(hv.vm(dom0).vcpus[1].where, 1u);
  for (std::uint32_t i = 0; i < 4; ++i)
    EXPECT_EQ(hv.vm(gang).vcpus[i].where, 4u + i) << "gang VCPU " << i;
}

TEST(TopologyPlacement, BlindPlacementMatchesTheFlatScheduler) {
  // topology_aware=false must reproduce flat boot placement exactly: the
  // cost model may charge, but homes are chosen like pre-topology builds.
  sim::Simulator s_flat, s_topo;
  hw::MachineConfig flat;
  flat.num_pcpus = 8;
  vmm::CreditScheduler hv_flat(s_flat, flat,
                               vmm::SchedMode::kNonWorkConserving);
  vmm::CreditScheduler hv_topo(s_topo, paper_machine(),
                               vmm::SchedMode::kNonWorkConserving);
  hv_topo.set_topology_aware(false);
  for (vmm::Hypervisor* hv : {static_cast<vmm::Hypervisor*>(&hv_flat),
                              static_cast<vmm::Hypervisor*>(&hv_topo)}) {
    hv->create_vm("Dom0", 256, 2);
    hv->create_vm("Gang", 256, 4);
    hv->create_vm("Hog", 128, 3);
  }
  for (vmm::VmId id = 0; id < 3; ++id)
    for (std::uint32_t i = 0; i < hv_flat.vm(id).num_vcpus(); ++i)
      EXPECT_EQ(hv_flat.vm(id).vcpus[i].where, hv_topo.vm(id).vcpus[i].where)
          << "v" << id << "." << i;
}

TEST(TopologyPlacement, HighVcrdRelocationPacksTheGangIntoOneSocket) {
  sim::Simulator s;
  core::AdaptiveScheduler hv(s, paper_machine(),
                             vmm::SchedMode::kNonWorkConserving);
  hv.create_vm("Dom0", 256, 2);
  const vmm::VmId gang = hv.create_vm("Gang", 256, 4);
  hv.start();
  s.run_until(seconds(0.1));
  // Park every member so no running VCPU pins its socket: the relocation
  // starts from a clean slate and the greedy socket choice is on its own.
  for (std::uint32_t i = 0; i < 4; ++i) hv.vcpu_block(gang, i);
  hv.do_vcrd_op(gang, vmm::Vcrd::kHigh);
  ASSERT_TRUE(hv.gang_scheduled(gang));
  // Pairwise-distinct PCPUs (Algorithm 3's contract) inside one socket
  // (the topology extension): a 4-VCPU gang fits one Harpertown socket.
  const vmm::Vm& v = hv.vm(gang);
  std::vector<bool> used(8, false);
  std::vector<bool> sockets(2, false);
  for (const vmm::Vcpu& c : v.vcpus) {
    EXPECT_FALSE(used[c.where]) << "two gang members on P" << c.where;
    used[c.where] = true;
    sockets[hv.topology().socket_of(c.where)] = true;
  }
  EXPECT_EQ(static_cast<int>(sockets[0]) + static_cast<int>(sockets[1]), 1)
      << "a 4-VCPU gang fits one Harpertown socket and must not span two";
  EXPECT_FALSE(hv.placement_spans_excess_sockets(gang));
}

TEST(TopologyPlacement, RelocationNeverSpreadsPastTheRunningMembersPins) {
  // Live variant: after 0.1 s of drift some members are mid-slot and pin
  // their sockets. Relocation may not always reach a single socket, but it
  // must never exceed the minimal socket set the checker computes.
  sim::Simulator s;
  core::AdaptiveScheduler hv(s, paper_machine(),
                             vmm::SchedMode::kNonWorkConserving);
  hv.create_vm("Dom0", 256, 2);
  const vmm::VmId gang = hv.create_vm("Gang", 256, 4);
  hv.start();
  s.run_until(seconds(0.1));
  hv.do_vcrd_op(gang, vmm::Vcrd::kHigh);
  ASSERT_TRUE(hv.gang_scheduled(gang));
  const vmm::Vm& v = hv.vm(gang);
  std::vector<bool> used(8, false);
  for (const vmm::Vcpu& c : v.vcpus) {
    EXPECT_FALSE(used[c.where]) << "two gang members on P" << c.where;
    used[c.where] = true;
  }
  EXPECT_FALSE(hv.placement_spans_excess_sockets(gang));
}

TEST(TopologySteal, DefaultPenaltiesNeverRejectASteal) {
  // 20/60 us penalties against a 10 ms slot: the gate exists but never
  // fires at the paper's cost scale.
  const ex::RunResult rr =
      ex::run_scenario(ex::topology_scenario(core::SchedulerKind::kAsman, 1));
  EXPECT_EQ(rr.topology_steal_rejects, 0u);
}

TEST(TopologySteal, CrankedPenaltiesGateCostlySteals) {
  // With a refill cost past one slot, stealing a warm VCPU across domains
  // loses more than it gains: the gate must start refusing candidates.
  ex::Scenario sc = ex::topology_scenario(core::SchedulerKind::kAsman, 1);
  sc.machine.cross_llc_penalty_us = 60'000;
  sc.machine.cross_socket_penalty_us = 60'000;
  sc.machine.warm_cache_slots = 50;
  const ex::RunResult rr = ex::run_scenario(sc);
  EXPECT_GT(rr.topology_steal_rejects, 0u);
}

TEST(TopologyCounters, FlatRunsPayNoMigrationCost) {
  // The 4-PCPU chaos base host is flat: every topology counter must stay
  // zero (the bit-compat contract's observable face).
  const ex::RunResult rr =
      ex::run_scenario(ex::chaos_base_scenario(core::SchedulerKind::kAsman, 1));
  EXPECT_EQ(rr.cross_llc_migrations, 0u);
  EXPECT_EQ(rr.cross_socket_migrations, 0u);
  EXPECT_EQ(rr.migration_penalty_cycles, 0u);
  EXPECT_EQ(rr.topology_steal_rejects, 0u);
  for (const ex::VmResult& v : rr.vms) {
    EXPECT_EQ(v.cross_llc_migrations, 0u);
    EXPECT_EQ(v.cross_socket_migrations, 0u);
    EXPECT_EQ(v.migration_penalty_cycles, 0u);
  }
}

TEST(TopologyCounters, PerVmCountersSumToTheRunTotals) {
  const ex::RunResult rr =
      ex::run_scenario(ex::topology_scenario(core::SchedulerKind::kAsman, 1));
  std::uint64_t llc = 0, sock = 0, pen = 0;
  for (const ex::VmResult& v : rr.vms) {
    llc += v.cross_llc_migrations;
    sock += v.cross_socket_migrations;
    pen += v.migration_penalty_cycles;
  }
  EXPECT_EQ(llc, rr.cross_llc_migrations);
  EXPECT_EQ(sock, rr.cross_socket_migrations);
  EXPECT_EQ(pen, rr.migration_penalty_cycles);
}

TEST(TopologyPlacement, AwareAsmanUndercutsBlindCrossSocketMigrations) {
  // The tentpole's headline: at an identical cost model, socket-aware
  // ASMan placement migrates across the FSB less than the blind baseline.
  const ex::RunResult aware = ex::run_scenario(
      ex::topology_scenario(core::SchedulerKind::kAsman, 42, true));
  const ex::RunResult blind = ex::run_scenario(
      ex::topology_scenario(core::SchedulerKind::kAsman, 42, false));
  EXPECT_LT(aware.cross_socket_migrations, blind.cross_socket_migrations);
}

TEST(TopologyAudit, AwareTopologyRunsAuditClean) {
  // The PR-1 would_collide rule (no two gang members share a home) and
  // the new topology-placement invariant both hold under aware placement,
  // for every scheduler.
  for (const core::SchedulerKind sched : kAllScheds) {
    ex::Scenario sc = ex::topology_scenario(sched, 1);
    sc.audit = true;
    const ex::RunResult rr = ex::run_scenario(sc);
    EXPECT_EQ(rr.audit_violations, 0u)
        << core::to_string(sched) << "\n" << rr.audit_summary;
    EXPECT_GT(rr.audit_checks, 0u) << core::to_string(sched);
  }
}

TEST(TopologyChaos, SocketOfflineAuditsCleanForEveryScheduler) {
  // Socket 1 goes away in a staggered burst (P7 permanently): evacuation,
  // repacking onto socket 0, and re-spreading on return all audit clean.
  for (const core::SchedulerKind sched : kAllScheds) {
    ex::Scenario sc =
        ex::chaos_scenario(sched, ex::ChaosClass::kSocketOffline, 1);
    sc.audit = true;
    const ex::RunResult rr = ex::run_scenario(sc);
    EXPECT_GT(rr.pcpu_offline_events, 0u) << core::to_string(sched);
    EXPECT_GT(rr.evacuated_vcpus, 0u) << core::to_string(sched);
    EXPECT_EQ(rr.audit_violations, 0u)
        << core::to_string(sched) << "\n" << rr.audit_summary;
  }
}

}  // namespace
}  // namespace asman
