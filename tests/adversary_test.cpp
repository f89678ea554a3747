// Adversarial-tenancy tests (docs/MODEL.md "Threat model & fairness
// guarantees"): the attacks work against the faithful-vulnerable
// scheduler, the hardened defense stack bounds every attack to epsilon of
// fair share with a clean audit, and both sides are bit-reproducible.
#include <string>

#include <gtest/gtest.h>

#include "experiments/adversary.h"
#include "run_fingerprint.h"

namespace asman::experiments {
namespace {

using testutil::fingerprint;

using workloads::AttackKind;

const core::SchedulerKind kSchedulers[] = {core::SchedulerKind::kCredit,
                                           core::SchedulerKind::kAsman,
                                           core::SchedulerKind::kCon};

RunResult run_audited(Scenario sc) {
  sc.audit = true;
  return run_scenario(sc);
}

// The arXiv 1103.0759 cycle stealer against tick-sampled accounting: the
// attacker must measurably exceed its weighted fair share, and the theft
// counters must name the mechanism (unattributed cycles, dodged samples).
TEST(AdversaryAttacks, TickDodgeStealsUnhardened) {
  for (core::SchedulerKind sk : kSchedulers) {
    const RunResult rr = run_scenario(
        adversary_scenario(sk, AttackKind::kTickDodge, /*hardened=*/false, 7));
    const VmResult& att = rr.vm("Attacker");
    EXPECT_GE(att.observed_online_rate, kAttackerFairShare + 0.10)
        << core::to_string(sk);
    EXPECT_GT(att.theft_cycles, 0u);
    EXPECT_GT(att.dodged_samples, 0u);
    EXPECT_GT(rr.theft_cycles, 0u);
    // The dodger eats what would have been the victim's share.
    EXPECT_LT(rr.vm("Victim").observed_online_rate, 0.45);
  }
}

// Randomizing the sampling offsets alone (no exact accounting) already
// breaks the dodger's grid model: share and theft both collapse.
TEST(AdversaryAttacks, SampleJitterMitigatesTickDodge) {
  for (core::SchedulerKind sk : kSchedulers) {
    Scenario soft =
        adversary_scenario(sk, AttackKind::kTickDodge, /*hardened=*/false, 7);
    Scenario mitigated = soft;
    apply_mitigated_sampling(mitigated);
    const RunResult rs = run_scenario(soft);
    const RunResult rm = run_scenario(mitigated);
    EXPECT_LT(rm.vm("Attacker").observed_online_rate,
              rs.vm("Attacker").observed_online_rate - 0.10)
        << core::to_string(sk);
    EXPECT_LT(rm.theft_cycles, rs.theft_cycles / 4);
  }
}

// The headline guarantee: with the full defense stack on, every attack
// class against every scheduler stays within kFairnessEpsilon of its fair
// share, steals nothing, and the run audits clean under the new
// cycle-conservation invariant.
TEST(AdversaryHardening, EveryAttackBoundedWithCleanAudit) {
  for (AttackKind a : workloads::kAllAttacks) {
    for (core::SchedulerKind sk : kSchedulers) {
      const RunResult rr = run_audited(
          adversary_scenario(sk, a, /*hardened=*/true, 7));
      SCOPED_TRACE(std::string(workloads::to_string(a)) + " vs " +
                   core::to_string(sk));
      EXPECT_LE(rr.vm("Attacker").observed_online_rate,
                kAttackerFairShare + kFairnessEpsilon);
      EXPECT_EQ(rr.theft_cycles, 0u);
      EXPECT_EQ(rr.dodged_samples, 0u);
      EXPECT_GT(rr.audit_checks, 0u);
      EXPECT_EQ(rr.audit_violations, 0u) << rr.audit_summary;
      // The honest tenants get their shares back.
      EXPECT_GE(rr.vm("Victim").observed_online_rate, 0.40);
      EXPECT_GT(rr.fairness_periods, 0u);
    }
  }
}

// Theft arithmetic: theft == max(0, consumed - attributed) per VM;
// tick-sampled attribution is quantized to whole slots; exact accounting
// attributes every consumed cycle.
TEST(AdversaryCounters, TheftArithmeticAndQuantization) {
  Scenario soft = adversary_scenario(core::SchedulerKind::kAsman,
                                     AttackKind::kTickDodge,
                                     /*hardened=*/false, 7);
  const std::uint64_t slot = soft.machine.slot_cycles().v;
  const RunResult rs = run_scenario(soft);
  for (const VmResult& v : rs.vms) {
    const std::uint64_t expect =
        v.cycles_consumed > v.cycles_attributed
            ? v.cycles_consumed - v.cycles_attributed
            : 0;
    EXPECT_EQ(v.theft_cycles, expect) << v.name;
    EXPECT_EQ(v.cycles_attributed % slot, 0u) << v.name;
  }

  const RunResult rh = run_scenario(adversary_scenario(
      core::SchedulerKind::kAsman, AttackKind::kTickDodge,
      /*hardened=*/true, 7));
  for (const VmResult& v : rh.vms) {
    EXPECT_EQ(v.cycles_attributed, v.cycles_consumed) << v.name;
    EXPECT_EQ(v.theft_cycles, 0u) << v.name;
  }
}

// The BOOST limiter: the farm harvests thousands of free grants from the
// vulnerable scheduler; hardened, the window cap converts the excess into
// counted denials.
TEST(AdversaryHardening, BoostFarmRateLimited) {
  for (core::SchedulerKind sk :
       {core::SchedulerKind::kCredit, core::SchedulerKind::kAsman}) {
    const RunResult rs = run_scenario(
        adversary_scenario(sk, AttackKind::kBoostFarm, /*hardened=*/false, 7));
    const RunResult rh = run_scenario(
        adversary_scenario(sk, AttackKind::kBoostFarm, /*hardened=*/true, 7));
    EXPECT_GT(rs.boost_grants, 1000u) << core::to_string(sk);
    EXPECT_EQ(rs.boost_denials, 0u);
    EXPECT_GT(rh.boost_denials, 0u);
    EXPECT_LT(rh.boost_grants, rs.boost_grants / 4);
    EXPECT_GT(rh.vm("Attacker").boost_denials, 0u);
  }
}

// The VCRD plausibility clamp: the liar's HIGH claims are rejected (no
// yield stream to back them), while the honest NPB gang — whose barrier
// spins emit real yield hints — keeps its coscheduling service.
TEST(AdversaryHardening, VcrdLiarCaughtHonestGangServed) {
  for (core::SchedulerKind sk :
       {core::SchedulerKind::kAsman, core::SchedulerKind::kCon}) {
    const RunResult rr = run_scenario(
        adversary_scenario(sk, AttackKind::kVcrdLie, /*hardened=*/true, 7));
    EXPECT_GT(rr.implausible_vcrds, 0u) << core::to_string(sk);
    EXPECT_GT(rr.vm("Attacker").implausible_vcrds, 0u);
    EXPECT_EQ(rr.vm("Gang").implausible_vcrds, 0u);
    EXPECT_GT(rr.cosched_events, 0u);
  }
}

// Bit-reproducibility: the same (scheduler, attack, hardening, seed)
// quadruple yields identical results — including under the seeded random
// sampling offsets, whose draws come from the hypervisor's own stream.
TEST(AdversaryDeterminism, BitReproduciblePerSeed) {
  for (bool hardened : {false, true}) {
    Scenario a = adversary_scenario(core::SchedulerKind::kAsman,
                                    AttackKind::kTickDodge, hardened, 42);
    if (!hardened) apply_mitigated_sampling(a);  // exercise the jitter RNG
    Scenario b = a;
    EXPECT_EQ(fingerprint(run_scenario(a)), fingerprint(run_scenario(b)))
        << (hardened ? "hardened" : "mitigated");
  }
}

// The worst case the soak harness sweeps: attack + chaos faults +
// lifecycle churn on the hardened host. The defense stack must keep the
// attacker bounded and the audit clean through all of it.
TEST(AdversaryComposition, SurvivesChurnAndChaos) {
  const RunResult rr = run_audited(adversary_churn_chaos_scenario(
      core::SchedulerKind::kAsman, AttackKind::kTickDodge,
      ChaosClass::kEverything, 11));
  EXPECT_LE(rr.vm("Attacker").observed_online_rate,
            kAttackerFairShare + kFairnessEpsilon);
  EXPECT_EQ(rr.theft_cycles, 0u);
  EXPECT_EQ(rr.audit_violations, 0u) << rr.audit_summary;
  EXPECT_EQ(rr.vm_creates, 1u);
  EXPECT_EQ(rr.vm_destroys, 1u);
  EXPECT_EQ(rr.vm_resizes, 2u);
}

}  // namespace
}  // namespace asman::experiments
