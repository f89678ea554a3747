// Memory-system contention tests (docs/MODEL.md §2.8): the footprint
// curve model, the integer partition/slowdown arithmetic, the inertness
// gates (flat topology, zero footprints, zero capacities -> bit-identical
// runs and all-zero counters), the pressure-conservation invariant across
// audited churn/chaos/adversary runs, the balancer's hysteresis, typed
// zero-capacity configuration errors, and bit-reproducibility per seed.
// (The seeded-violation proofs live in audit_test.cpp — see the note at
// the end of this file.)
#include "hw/memsys/contention.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/schedulers.h"
#include "experiments/adversary.h"
#include "experiments/chaos.h"
#include "experiments/contention.h"
#include "experiments/scenario.h"
#include "hw/memsys/footprint.h"
#include "run_fingerprint.h"
#include "simcore/simulator.h"
#include "vmm/hypervisor.h"
#include "workloads/adversary.h"
#include "workloads/synthetic.h"

namespace asman {
namespace {

namespace ex = asman::experiments;
namespace ms = asman::hw::memsys;
using testutil::fingerprint;

using ms::make_footprint;

constexpr std::uint64_t kMiB = 1ull << 20;

sim::Cycles seconds(double s) { return sim::kDefaultClock.from_seconds_f(s); }

constexpr core::SchedulerKind kAllScheds[] = {core::SchedulerKind::kCredit,
                                              core::SchedulerKind::kCon,
                                              core::SchedulerKind::kAsman};

// ---------------------------------------------------------------- model --

TEST(Footprint, CurveIsMonotoneAndAnchoredAtTheBaseline) {
  for (const std::uint32_t loc : {0u, 250u, 500u, 750u, 1000u}) {
    const ms::MemFootprint f = make_footprint(8 * kMiB, 1'000'000'000, loc);
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_GE(f.miss_permille[i], f.miss_permille[i + 1]) << "loc " << loc;
    EXPECT_EQ(f.extra_miss_at(1000), 0u) << "fully resident pays nothing";
    for (std::uint32_t r = 0; r <= 1000; r += 50)
      EXPECT_LE(f.miss_at(r), 1000u);
  }
  // Cache-friendly sets pay the most for losing residency.
  const ms::MemFootprint friendly = make_footprint(kMiB, 0, 900);
  const ms::MemFootprint streaming = make_footprint(kMiB, 0, 100);
  EXPECT_GT(friendly.extra_miss_at(0), streaming.extra_miss_at(0));
  EXPECT_GT(streaming.miss_permille[4], friendly.miss_permille[4]);
}

TEST(Footprint, MissCurveInterpolatesBetweenSamples) {
  ms::MemFootprint f;
  f.working_set_bytes = kMiB;
  f.miss_permille = {{800, 600, 400, 200, 0}};
  EXPECT_EQ(f.miss_at(0), 800u);
  EXPECT_EQ(f.miss_at(125), 700u);
  EXPECT_EQ(f.miss_at(250), 600u);
  EXPECT_EQ(f.miss_at(500), 400u);
  EXPECT_EQ(f.miss_at(1000), 0u);
  EXPECT_EQ(f.miss_at(2000), 0u);  // clamped past full residency
  EXPECT_EQ(f.extra_miss_at(500), 400u);
}

TEST(Contention, VcpuShareSplitsTheWorkingSetExactly) {
  for (const std::uint32_t n : {1u, 2u, 3u, 4u, 7u}) {
    std::uint64_t sum = 0;
    for (std::uint32_t i = 0; i < n; ++i)
      sum += ms::vcpu_ws_share(10 * kMiB + 3, n, i);
    EXPECT_EQ(sum, 10 * kMiB + 3) << n << " VCPUs";
  }
  EXPECT_EQ(ms::vcpu_ws_share(kMiB, 0, 0), 0u);
}

TEST(Contention, SlowdownSaturatesAndDegradationNeverExceedsBusy) {
  EXPECT_EQ(ms::slowdown_ppm(0, 0), 0u);
  EXPECT_EQ(ms::slowdown_ppm(100, 0), 100u * ms::kSlowdownPpmPerExtraMissPermille);
  EXPECT_EQ(ms::slowdown_ppm(10'000, 1'000'000), ms::kMaxSlowdownPpm);
  for (const std::uint64_t busy : {1ull, 999ull, 1ull << 40}) {
    const std::uint64_t d = ms::degraded_cycles(busy, ms::kMaxSlowdownPpm);
    EXPECT_LT(d, busy) << "a VCPU always makes some progress";
    EXPECT_EQ(ms::degraded_cycles(busy, 0), 0u);
  }
}

TEST(Contention, GrantPassIsAnExactPartitionUnderOverflow) {
  const hw::Topology topo = hw::Topology::paper();
  // Three footprinted VMs all homed on LLC 0 (P0): 3 + 5 + 7 MiB of demand
  // against a 6 MiB cache forces rationing with nontrivial remainders.
  std::vector<ms::VmLoad> loads(3);
  const ms::MemFootprint fps[3] = {make_footprint(3 * kMiB, 1'000'000, 500),
                                   make_footprint(5 * kMiB, 1'000'000, 500),
                                   make_footprint(7 * kMiB, 1'000'000, 500)};
  for (std::size_t i = 0; i < 3; ++i) {
    loads[i].fp = &fps[i];
    loads[i].vcpu_llc = {0};
    loads[i].vcpu_socket = {0};
  }
  ms::ContentionPass pass;
  ms::compute_contention(topo, 6 * kMiB, 1'000'000'000, loads, pass);
  ASSERT_EQ(pass.llc_demand.size(), topo.num_llcs());
  EXPECT_EQ(pass.llc_demand[0], 15 * kMiB);
  EXPECT_EQ(pass.llc_granted[0], 6 * kMiB) << "grants sum to capacity exactly";
  std::uint64_t granted = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_LE(pass.vm_llc_granted[i][0], pass.vm_llc_demand[i][0]);
    EXPECT_GT(pass.vm_llc_extra_miss[i][0], 0u) << "partial residency costs";
    granted += pass.vm_llc_granted[i][0];
  }
  EXPECT_EQ(granted, 6 * kMiB);
  for (std::uint32_t l = 1; l < topo.num_llcs(); ++l)
    EXPECT_EQ(pass.llc_demand[l], 0u);
  // Under-capacity domains grant everything and charge nothing extra.
  ms::ContentionPass roomy;
  ms::compute_contention(topo, 64 * kMiB, 1'000'000'000, loads, roomy);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(roomy.vm_llc_granted[i][0], roomy.vm_llc_demand[i][0]);
    EXPECT_EQ(roomy.vm_llc_extra_miss[i][0], 0u);
  }
}

// ---------------------------------------------------------- inert gates --

TEST(ContentionGates, FlatTopologyKeepsTheEngineInertAndBitIdentical) {
  // Footprints + capacities on a flat machine: the engine must stay off
  // (one shared domain has no contention *placement* story) and the run
  // must be bit-identical to one with no memory model declared at all.
  ex::Scenario with = ex::contention_scenario(core::SchedulerKind::kAsman, 7);
  with.machine.topology = hw::Topology{};
  with.machine.num_pcpus = 4;
  ex::Scenario without = with;
  without.machine.llc_bytes = 0;
  without.machine.socket_mem_bw_bytes_per_s = 0;
  const ex::RunResult a = ex::run_scenario(with);
  const ex::RunResult b = ex::run_scenario(without);
  EXPECT_EQ(a.pressure_periods, 0u);
  EXPECT_EQ(a.pressure_accounted, 0u);
  EXPECT_EQ(a.pressure_rebalances, 0u);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(ContentionGates, ZeroFootprintFleetKeepsThePaperTopologyBitIdentical) {
  // The paper topology with capacities declared but no footprint anywhere:
  // engine inert, and bit-identical to the established topology scenario.
  ex::Scenario with = ex::topology_scenario(core::SchedulerKind::kAsman, 7);
  with.machine.llc_bytes = ex::kContentionLlcBytes;
  with.machine.socket_mem_bw_bytes_per_s = ex::kContentionSocketBw;
  const ex::RunResult a = ex::run_scenario(with);
  const ex::RunResult b =
      ex::run_scenario(ex::topology_scenario(core::SchedulerKind::kAsman, 7));
  EXPECT_EQ(a.pressure_periods, 0u);
  EXPECT_EQ(a.pressure_accounted, 0u);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(ContentionGates, ZeroCapacityWithFootprintsIsATypedConfigError) {
  // Footprints declared but MachineConfig left llc_bytes / bandwidth at
  // zero: the engine must not silently disable — both holes are counted,
  // typed configuration errors.
  ex::Scenario sc = ex::contention_scenario(core::SchedulerKind::kAsman, 1);
  sc.machine.llc_bytes = 0;
  sc.machine.socket_mem_bw_bytes_per_s = 0;
  const ex::RunResult rr = ex::run_scenario(sc);
  EXPECT_EQ(rr.footprint_config_errors, 2u);
  EXPECT_EQ(rr.pressure_periods, 0u);
  // The typed issues themselves, straight from the validator.
  hw::MachineConfig m = sc.machine;
  const auto issues = hw::validate_footprint_config(m, true);
  ASSERT_EQ(issues.size(), 2u);
  EXPECT_EQ(issues[0].kind, hw::ConfigError::kZeroLlcCapacity);
  EXPECT_EQ(issues[1].kind, hw::ConfigError::kZeroMemBandwidth);
  EXPECT_STREQ(hw::to_string(hw::ConfigError::kZeroLlcCapacity),
               "zero-llc-capacity");
  EXPECT_STREQ(hw::to_string(hw::ConfigError::kZeroMemBandwidth),
               "zero-mem-bandwidth");
  // A fully provisioned config raises none; so does a flat machine (one
  // domain => the whole model is out of scope by the gate).
  EXPECT_TRUE(hw::validate_footprint_config(
                  ex::contention_scenario(core::SchedulerKind::kAsman, 1)
                      .machine,
                  true)
                  .empty());
  hw::MachineConfig flat;
  flat.num_pcpus = 4;
  EXPECT_TRUE(hw::validate_footprint_config(flat, true).empty());
  EXPECT_TRUE(hw::validate_footprint_config(m, false).empty());
}

// ------------------------------------------------------------- behaviour --

TEST(ContentionRuns, EngineChargesAndThePartitionLedgerBalances) {
  // Pressure-blind on purpose: blind placement reliably stacks the
  // streamer's working set onto one LLC, so the engine always has an
  // overflow to charge for. (Aware placement can land at zero degraded
  // cycles — which is its job, and the aware-vs-blind test below's
  // concern, not this ledger test's.)
  for (const core::SchedulerKind sched : kAllScheds) {
    const ex::RunResult rr = ex::run_scenario(
        ex::contention_scenario(sched, 1, /*pressure_aware=*/false));
    EXPECT_GT(rr.pressure_periods, 0u) << core::to_string(sched);
    EXPECT_GT(rr.pressure_accounted, 0u) << core::to_string(sched);
    EXPECT_GT(rr.pressure_degraded, 0u)
        << core::to_string(sched) << ": an overflowing LLC must cost cycles";
    EXPECT_EQ(rr.pressure_accounted,
              rr.pressure_degraded + rr.pressure_effective)
        << core::to_string(sched);
    std::uint64_t acc = 0, deg = 0, eff = 0;
    for (const ex::VmResult& v : rr.vms) {
      EXPECT_EQ(v.pressure_accounted,
                v.pressure_degraded + v.pressure_effective)
          << v.name;
      acc += v.pressure_accounted;
      deg += v.pressure_degraded;
      eff += v.pressure_effective;
    }
    EXPECT_EQ(acc, rr.pressure_accounted) << core::to_string(sched);
    EXPECT_EQ(deg, rr.pressure_degraded) << core::to_string(sched);
    EXPECT_EQ(eff, rr.pressure_effective) << core::to_string(sched);
  }
}

TEST(ContentionRuns, RunsAreBitReproduciblePerSeed) {
  for (const std::uint64_t seed : {1ull, 42ull}) {
    const ex::RunResult a = ex::run_scenario(
        ex::contention_scenario(core::SchedulerKind::kAsman, seed));
    const ex::RunResult b = ex::run_scenario(
        ex::contention_scenario(core::SchedulerKind::kAsman, seed));
    EXPECT_EQ(fingerprint(a), fingerprint(b)) << "seed " << seed;
  }
  const ex::RunResult a =
      ex::run_scenario(ex::contention_scenario(core::SchedulerKind::kAsman, 1));
  const ex::RunResult b =
      ex::run_scenario(ex::contention_scenario(core::SchedulerKind::kAsman, 2));
  EXPECT_NE(fingerprint(a), fingerprint(b)) << "seeds must actually matter";
}

TEST(ContentionRuns, BalancerHysteresisBoundsRebalances) {
  // The cooldown admits at most one home swap per 4 engine periods, and
  // the band keeps borderline imbalances from swapping at all — so across
  // seeds the swap count stays far under the theoretical churn limit.
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const ex::RunResult rr = ex::run_scenario(
        ex::contention_scenario(core::SchedulerKind::kAsman, seed));
    ASSERT_GT(rr.pressure_periods, 4u);
    EXPECT_LE(rr.pressure_rebalances, rr.pressure_periods / 4 + 1)
        << "seed " << seed << ": balancer ping-pongs past its cooldown";
  }
}

TEST(ContentionRuns, PressureAwarePlacementReducesDegradedCycles) {
  // The tentpole's headline: identical contention physics, identical
  // fleet — pressure-aware placement must waste fewer cycles than blind.
  std::uint64_t aware_deg = 0, blind_deg = 0;
  std::uint64_t aware_acc = 0, blind_acc = 0;
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const ex::RunResult aware = ex::run_scenario(
        ex::contention_scenario(core::SchedulerKind::kAsman, seed, true));
    const ex::RunResult blind = ex::run_scenario(
        ex::contention_scenario(core::SchedulerKind::kAsman, seed, false));
    aware_deg += aware.pressure_degraded;
    blind_deg += blind.pressure_degraded;
    aware_acc += aware.pressure_accounted;
    blind_acc += blind.pressure_accounted;
    EXPECT_EQ(blind.pressure_rebalances, 0u)
        << "blind runs must not touch the balancer";
    EXPECT_EQ(blind.pressure_steal_rejects, 0u);
  }
  // Compare degraded *fractions* so a throughput delta cannot mask the
  // placement effect.
  EXPECT_LT(static_cast<double>(aware_deg) / static_cast<double>(aware_acc),
            static_cast<double>(blind_deg) / static_cast<double>(blind_acc));
}

// --------------------------------------------------------------- audited --

TEST(ContentionAudit, ContentionRunsAuditCleanForEveryScheduler) {
  for (const core::SchedulerKind sched : kAllScheds) {
    ex::Scenario sc = ex::contention_scenario(sched, 1);
    sc.audit = true;
    const ex::RunResult rr = ex::run_scenario(sc);
    EXPECT_EQ(rr.audit_violations, 0u)
        << core::to_string(sched) << "\n" << rr.audit_summary;
    EXPECT_GT(rr.audit_checks, 0u) << core::to_string(sched);
  }
}

TEST(ContentionAudit, ChurnPlusChaosOnThePressuredHostAuditsClean) {
  // The hard lane: every fault class at once, plus hot create/destroy of
  // a footprinted tenant mid-run, on the overflowing host — conservation
  // must survive tombstones, evacuations and the balancer's swaps.
  ex::Scenario sc = ex::contention_scenario(core::SchedulerKind::kAsman, 3);
  sc.faults.seed = sc.seed ^ 0xC4A05ULL;
  ex::apply_chaos(sc, ex::ChaosClass::kEverything);
  ex::ChurnEvent create;
  create.at = seconds(0.4);
  create.kind = ex::ChurnEvent::Kind::kCreate;
  create.spec.name = "HotStream";
  create.spec.weight = 128;
  create.spec.vcpus = 2;
  create.spec.workload = [](sim::Simulator&, std::uint64_t s) {
    auto w = std::make_unique<workloads::CpuHogWorkload>(
        2, sim::kDefaultClock.from_us(200), s);
    w->set_footprint(make_footprint(6 * kMiB, 4'000'000'000ull, 300));
    return w;
  };
  sc.churn.push_back(std::move(create));
  ex::ChurnEvent destroy;
  destroy.at = seconds(1.2);
  destroy.kind = ex::ChurnEvent::Kind::kDestroy;
  destroy.target = "Stream";
  sc.churn.push_back(std::move(destroy));
  sc.audit = true;
  const ex::RunResult rr = ex::run_scenario(sc);
  EXPECT_GT(rr.vm_creates, 0u);
  EXPECT_GT(rr.vm_destroys, 0u);
  EXPECT_GT(rr.pressure_periods, 0u);
  EXPECT_EQ(rr.audit_violations, 0u) << rr.audit_summary;
}

TEST(ContentionAudit, AdversaryWithAFootprintAuditsClean) {
  // An attacker that also hammers the memory system: the AdversaryTuning
  // footprint knob feeds the same engine, and conservation holds while
  // the attack runs on the pressured paper host.
  ex::Scenario sc = ex::adversary_scenario(
      core::SchedulerKind::kAsman, workloads::AttackKind::kTickDodge, true, 1);
  sc.machine.num_pcpus = 8;
  sc.machine.topology = hw::Topology::paper();
  sc.machine.llc_bytes = ex::kContentionLlcBytes;
  sc.machine.socket_mem_bw_bytes_per_s = ex::kContentionSocketBw;
  for (ex::VmSpec& spec : sc.vms) {
    if (spec.name != "Attacker") continue;
    workloads::AdversaryTuning tune;
    tune.slot = sc.machine.slot_cycles();
    tune.num_pcpus = sc.machine.num_pcpus;
    tune.footprint_ws_bytes = 8 * kMiB;
    tune.footprint_bw_bytes_per_s = 5'000'000'000ull;
    spec.workload = [tune](sim::Simulator& s, std::uint64_t wseed) {
      return workloads::make_adversary(workloads::AttackKind::kTickDodge, s,
                                       4, wseed, tune);
    };
  }
  sc.audit = true;
  const ex::RunResult rr = ex::run_scenario(sc);
  EXPECT_GT(rr.pressure_periods, 0u) << "the attacker's footprint must arm "
                                        "the engine";
  EXPECT_EQ(rr.audit_violations, 0u) << rr.audit_summary;
}

// The pressure-conservation seeded-violation tests (the proof that the
// auditor actually fires on corrupted ledgers and partitions) live in
// audit_test.cpp with every other invariant's seeded tests: this binary
// runs in the audited-fatal `contention` lane, where a deliberately
// planted violation would abort the process instead of being counted.

}  // namespace
}  // namespace asman
