// Golden fingerprints: one exact digest per pinned run, across every
// scenario family — the paper's fig07 sweep (single host), churn, chaos,
// adversary, contention, topology and the cluster fabric.
//
// Where determinism_test proves a run reproduces itself, this file proves
// it reproduces the committed past: a refactor or optimisation that moves
// any counter, any hex-float statistic or any event count of these runs
// fails here. When a change is meant to alter results, the failure message
// carries the new digest; update the table and say why in CHANGES.md.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "core/schedulers.h"
#include "experiments/adversary.h"
#include "experiments/chaos.h"
#include "experiments/churn.h"
#include "experiments/cluster.h"
#include "experiments/contention.h"
#include "experiments/paper.h"
#include "run_fingerprint.h"

namespace asman::experiments {
namespace {

constexpr std::uint64_t kSeed = 42;
constexpr core::SchedulerKind kAsman = core::SchedulerKind::kAsman;

struct Golden {
  std::string label;  // gtest parameter name: [A-Za-z0-9_]
  std::function<Scenario()> scenario;
  std::uint64_t digest;
};

// gtest names a failing parameter by its label, not its bytes.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.label; }

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

std::vector<Golden> goldens() {
  std::vector<Golden> g;
  // Figure 7: LU under Credit and ASMan at the four online rates.
  const std::uint64_t kFig07[2][4] = {
      {0x8cd2e2a45216c36eull, 0x6cd8401a89c1938full, 0xb4dc4e857d22cbfbull,
       0x684f2cf93e1bd76cull},
      {0x1b729e4e8474c05bull, 0xf721da296982f6c7ull, 0xa74952962b15061bull,
       0xb3533491a351f4e1ull}};
  const core::SchedulerKind kFig07Scheds[2] = {core::SchedulerKind::kCredit,
                                               kAsman};
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t r = 0; r < kRatePoints.size(); ++r) {
      const core::SchedulerKind k = kFig07Scheds[s];
      const RatePoint rp = kRatePoints[r];
      g.push_back({std::string("fig07_") + core::to_string(k) + "_weight" +
                       std::to_string(rp.weight),
                   [k, rp] {
                     return single_vm_scenario(
                         k, rp.weight,
                         npb_factory(workloads::NpbBenchmark::kLU));
                   },
                   kFig07[s][r]});
    }
  }
  g.push_back({"churn", [] { return churn_scenario(kAsman, kSeed); },
               0x35ce61d1d4ab6a72ull});
  g.push_back({"chaos_everything",
               [] {
                 return chaos_scenario(kAsman, ChaosClass::kEverything, kSeed);
               },
               0xe9739c9eddda7992ull});
  g.push_back({"adversary_tick_dodge_hardened",
               [] {
                 return adversary_scenario(kAsman,
                                           workloads::AttackKind::kTickDodge,
                                           /*hardened=*/true, kSeed);
               },
               0x030dfffaeba0561aull});
  g.push_back({"contention",
               [] { return contention_scenario(kAsman, kSeed); },
               0x55d31ae59b2ed7d3ull});
  g.push_back({"topology", [] { return topology_scenario(kAsman, kSeed); },
               0x47f5b71d0277e34eull});
  return g;
}

class GoldenRun : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenRun, FingerprintMatchesTheCommittedDigest) {
  const Golden& g = GetParam();
  const std::uint64_t got =
      testutil::digest(testutil::fingerprint(run_scenario(g.scenario())));
  EXPECT_EQ(hex(got), hex(g.digest)) << g.label << " moved";
}

INSTANTIATE_TEST_SUITE_P(
    Families, GoldenRun, ::testing::ValuesIn(goldens()),
    [](const ::testing::TestParamInfo<Golden>& p) { return p.param.label; });

// The cluster run's own fingerprint already folds every fabric counter and
// each host's scheduler state (run_cluster_scenario). Same storm as
// bench_cluster's ASMan point.
TEST(GoldenCluster, ChaosStormFingerprintMatchesTheCommittedValue) {
  const ClusterRunResult rr =
      run_cluster_scenario(cluster_chaos_scenario(kAsman, 16, 200, kSeed));
  EXPECT_EQ(hex(rr.fingerprint), hex(0x0534a1f8f22dcb91ull));
}

}  // namespace
}  // namespace asman::experiments
