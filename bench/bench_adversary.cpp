// Adversary bench: what does each attack class cost, and what does each
// defense level buy back?
//
// For every scheduler x attack the sweep runs the adversarial host (honest
// NPB/LU gang + CPU victim + one attacker VM, capped mode) at three
// defense levels: unhardened (tick-sampled accounting, the faithful
// arXiv 1103.0759 victim), mitigated (tick-sampled with seeded random
// sampling offsets) and hardened (exact accounting + BOOST rate limiter +
// VCRD plausibility clamp). The tables show the attacker's share against
// its 25% fair cap, the cycles it stole, and the defense counters that
// explain where the attack died. Run with ASMAN_AUDIT=1 to get the
// cycle-conservation invariant checked on every point.
#include "bench_util.h"
#include "experiments/adversary.h"

using namespace asman;
using namespace asman::bench;

namespace {

constexpr core::SchedulerKind kScheds[] = {core::SchedulerKind::kCredit,
                                           core::SchedulerKind::kCon,
                                           core::SchedulerKind::kAsman};

constexpr const char* kLevels[] = {"unhardened", "mitigated", "hardened"};

constexpr std::uint64_t kSeed = 42;

std::string adv_label(core::SchedulerKind k, workloads::AttackKind a,
                      const char* level) {
  return std::string(core::to_string(k)) + "/" + workloads::to_string(a) +
         "/" + level;
}

ex::Scenario build_point(core::SchedulerKind k, workloads::AttackKind a,
                         const std::string& level) {
  ex::Scenario sc =
      ex::adversary_scenario(k, a, /*hardened=*/level == "hardened", kSeed);
  if (level == "mitigated") ex::apply_mitigated_sampling(sc);
  return sc;
}

Sweep build_sweep() {
  Sweep s;
  for (core::SchedulerKind k : kScheds)
    for (workloads::AttackKind a : workloads::kAllAttacks)
      for (const char* level : kLevels)
        s.add(adv_label(k, a, level), build_point(k, a, level));
  return s;
}

void add_row(ex::TextTable& t, const char* label, const ex::RunResult& rr) {
  char stolen[32];
  std::snprintf(stolen, sizeof stolen, "%.2f",
                static_cast<double>(rr.theft_cycles) / 1e9);
  t.add_row({label, ex::fmt_pct(rr.vm("Attacker").observed_online_rate),
             ex::fmt_pct(rr.vm("Victim").observed_online_rate), stolen,
             std::to_string(rr.dodged_samples),
             std::to_string(rr.boost_denials),
             std::to_string(rr.implausible_vcrds)});
}

void print_tables(const Sweep& s) {
  for (core::SchedulerKind k : kScheds) {
    for (workloads::AttackKind a : workloads::kAllAttacks) {
      std::printf("\n== %s under %s (attacker fair share 25%%) ==\n",
                  workloads::to_string(a), core::to_string(k));
      ex::TextTable t({"defense level", "attacker", "victim",
                       "stolen Gcyc", "dodged", "boost denials",
                       "implausible VCRDs"});
      for (const char* level : kLevels)
        add_row(t, level, s.get(adv_label(k, a, level)));
      std::printf("%s", t.str().c_str());
    }
  }
}

}  // namespace

int main() {
  Sweep sweep = build_sweep();
  return run_bench_main(sweep, print_tables);
}
