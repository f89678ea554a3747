// Churn x chaos soak harness: every ChaosClass composed with runtime VM
// lifecycle churn (hot creates, destroys incl. mid-gang destruction,
// resizes), audited to zero invariant violations and bit-reproducible per
// seed. This is the nightly-style robustness gate: the `soak` ctest label
// (and the soak/soak-asan CMake presets) run it with ASMAN_AUDIT_FATAL=1
// so the first violation aborts at the offending event.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <string>

#include "core/schedulers.h"
#include "experiments/adversary.h"
#include "experiments/chaos.h"
#include "experiments/churn.h"
#include "experiments/cluster.h"
#include "experiments/scenario.h"
#include "run_fingerprint.h"

namespace asman::experiments {
namespace {

using testutil::fingerprint;

RunResult run_audited(Scenario sc) {
  sc.audit = true;
  return run_scenario(sc);
}

constexpr core::SchedulerKind kScheds[] = {core::SchedulerKind::kCredit,
                                           core::SchedulerKind::kCon,
                                           core::SchedulerKind::kAsman};

TEST(Soak, ChurnTimesEveryChaosClassAuditsClean) {
  for (const core::SchedulerKind sched : kScheds) {
    for (const ChaosClass c : all_chaos_classes()) {
      SCOPED_TRACE(std::string(core::to_string(sched)) + " x " +
                   to_string(c));
      const RunResult rr =
          run_audited(churn_chaos_scenario(sched, c, /*seed=*/11));
      std::printf("[soak] %-6s x %-12s events=%" PRIu64 " creates=%" PRIu64
                  " destroys=%" PRIu64 " resizes=%" PRIu64
                  " violations=%" PRIu64 "\n",
                  core::to_string(sched), to_string(c), rr.events,
                  rr.vm_creates, rr.vm_destroys, rr.vm_resizes,
                  rr.audit_violations);
      EXPECT_EQ(rr.audit_violations, 0u) << rr.audit_summary;
      EXPECT_GT(rr.audit_checks, 0u);
      // The churn actually happened: arrivals, departures (incl. the
      // mid-gang destruction) and Elastic resizes all fired.
      EXPECT_GT(rr.vm_creates, 0u);
      EXPECT_GT(rr.vm_destroys, 0u);
      EXPECT_GT(rr.vm_resizes, 0u);
      EXPECT_TRUE(rr.vm("Gang").destroyed);
      EXPECT_GT(rr.vm("Gang").runtime_seconds, 0.0);
    }
  }
}

TEST(Soak, ChurnChaosRunsAreBitReproduciblePerSeed) {
  for (const ChaosClass c : all_chaos_classes()) {
    SCOPED_TRACE(to_string(c));
    const Scenario sc =
        churn_chaos_scenario(core::SchedulerKind::kAsman, c, /*seed=*/23);
    const std::string a = fingerprint(run_scenario(sc));
    const std::string b = fingerprint(run_scenario(sc));
    EXPECT_GT(a.size(), 0u);
    EXPECT_EQ(a, b) << "churn x " << to_string(c) << " is nondeterministic";
  }
  // Guard the fingerprint: different seeds must actually diverge.
  const std::string a = fingerprint(run_scenario(churn_chaos_scenario(
      core::SchedulerKind::kAsman, ChaosClass::kEverything, 23)));
  const std::string b = fingerprint(run_scenario(churn_chaos_scenario(
      core::SchedulerKind::kAsman, ChaosClass::kEverything, 24)));
  EXPECT_NE(a, b);
}

TEST(Soak, SaturatedChurnCountsRejectionsWithSharesIntact) {
  for (const core::SchedulerKind sched : kScheds) {
    SCOPED_TRACE(core::to_string(sched));
    const RunResult rr = run_audited(saturated_churn_scenario(sched, 7));
    std::printf("[soak] %-6s saturated: rejects=%" PRIu64 " sheds=%" PRIu64
                " violations=%" PRIu64 "\n",
                core::to_string(sched), rr.admission_rejects,
                rr.overload_sheds, rr.audit_violations);
    EXPECT_GT(rr.admission_rejects, 0u)
        << "a 12-arrival storm against a 2.5/PCPU cap must see rejections";
    // "Existing shares unchanged" is enforced by the credit-conservation
    // invariant: the auditor recomputes every VM's expected credit split
    // at each accounting pass, so zero violations means no rejected (or
    // admitted) request ever perturbed another VM's ledger.
    EXPECT_EQ(rr.audit_violations, 0u) << rr.audit_summary;
    // Boot-time tenants all survived the storm and kept running.
    for (const char* name : {"Dom0", "Gang", "Hog", "Elastic"}) {
      EXPECT_FALSE(rr.vm(name).destroyed) << name;
      EXPECT_GT(rr.vm(name).observed_online_rate, 0.0) << name;
    }
  }
}

// The adversarial lane: every attack class composed with lifecycle churn
// and one chaos fault family against the hardened host. Fairness must
// hold (attacker within epsilon of share, zero stolen cycles) through
// faults and churn, with a clean audit — and stay bit-reproducible.
TEST(Soak, AdversaryTimesChurnTimesChaosHoldsFairness) {
  // One representative fault family per attack keeps the lane under a
  // second; the full cross product lives in the chaos sweep above.
  const ChaosClass kFault[] = {ChaosClass::kTickJitter, ChaosClass::kIpiLoss,
                               ChaosClass::kVcrdFlap, ChaosClass::kHotplug};
  for (const core::SchedulerKind sched : kScheds) {
    std::size_t fi = 0;
    for (const workloads::AttackKind a : workloads::kAllAttacks) {
      const ChaosClass c = kFault[fi++ % std::size(kFault)];
      SCOPED_TRACE(std::string(core::to_string(sched)) + " x " +
                   workloads::to_string(a) + " x " + to_string(c));
      const RunResult rr =
          run_audited(adversary_churn_chaos_scenario(sched, a, c, 11));
      std::printf("[soak] %-6s x %-12s x %-12s att=%.3f theft=%" PRIu64
                  " violations=%" PRIu64 "\n",
                  core::to_string(sched), workloads::to_string(a),
                  to_string(c), rr.vm("Attacker").observed_online_rate,
                  rr.theft_cycles, rr.audit_violations);
      EXPECT_EQ(rr.audit_violations, 0u) << rr.audit_summary;
      EXPECT_LE(rr.vm("Attacker").observed_online_rate,
                kAttackerFairShare + kFairnessEpsilon);
      EXPECT_EQ(rr.theft_cycles, 0u);
      EXPECT_GT(rr.vm_creates, 0u);
      EXPECT_GT(rr.vm_destroys, 0u);
    }
  }
  // Bit-reproducibility of one full attack+churn+chaos composition.
  const Scenario sc = adversary_churn_chaos_scenario(
      core::SchedulerKind::kAsman, workloads::AttackKind::kTickDodge,
      ChaosClass::kEverything, 23);
  EXPECT_EQ(fingerprint(run_scenario(sc)), fingerprint(run_scenario(sc)));
}

// The cluster lane: fleet churn (admissions, retirements, live
// migrations) crossed with host crashes, a degraded window and link loss,
// for every scheduler — audited to zero violations of all ten invariants
// (including single-ownership and cluster credit conservation), no VM
// lost to a crash, and bit-reproducible per seed.
TEST(Soak, ClusterChurnTimesHostCrashAuditsCleanForEveryScheduler) {
  for (const core::SchedulerKind sched : kScheds) {
    SCOPED_TRACE(core::to_string(sched));
    ClusterScenario sc = cluster_chaos_scenario(sched, /*hosts=*/8,
                                                /*n_vms=*/48, /*seed=*/11);
    sc.audit = true;
    const ClusterRunResult rr = run_cluster_scenario(sc);
    std::printf("[soak] %-6s cluster: events=%" PRIu64 " committed=%" PRIu64
                " aborted=%" PRIu64 " crashes=%" PRIu64 " replaced=%" PRIu64
                " violations=%" PRIu64 "\n",
                core::to_string(sched), rr.events, rr.migrations_committed,
                rr.migrations_aborted, rr.host_crashes, rr.vms_replaced,
                rr.audit_violations);
    EXPECT_EQ(rr.audit_violations, 0u) << rr.audit_summary;
    EXPECT_GT(rr.audit_checks, 0u);
    // The storm actually happened, and recovery held: crashes landed,
    // every resident VM of a dead host came back elsewhere.
    EXPECT_EQ(rr.host_crashes, 2u);
    EXPECT_GT(rr.migrations_committed, 0u);
    EXPECT_GT(rr.vms_replaced, 0u);
    EXPECT_EQ(rr.vms_lost, 0u);
  }
  // Bit-reproducibility per seed, divergence across seeds.
  const ClusterScenario sc =
      cluster_chaos_scenario(core::SchedulerKind::kAsman, 8, 48, 23);
  const ClusterRunResult a = run_cluster_scenario(sc);
  const ClusterRunResult b = run_cluster_scenario(sc);
  EXPECT_EQ(a.fingerprint, b.fingerprint) << "cluster run is nondeterministic";
  const ClusterRunResult c = run_cluster_scenario(
      cluster_chaos_scenario(core::SchedulerKind::kAsman, 8, 48, 24));
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

TEST(Soak, FaultFreeChurnAuditsCleanForEveryScheduler) {
  for (const core::SchedulerKind sched : kScheds) {
    SCOPED_TRACE(core::to_string(sched));
    const RunResult rr = run_audited(churn_scenario(sched, 5));
    EXPECT_EQ(rr.audit_violations, 0u) << rr.audit_summary;
    EXPECT_GT(rr.vm_creates, 0u);
    EXPECT_GT(rr.vm_destroys, 0u);
  }
}

}  // namespace
}  // namespace asman::experiments
