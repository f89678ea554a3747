// Kernbench-style compile-farm workload.
//
// Friebel & Biemueller's lock-holder-preemption study ([28] in the paper)
// evaluated with kernbench: `make -jN` over a kernel tree — a pool of
// worker threads pulling independent compile jobs from a queue, with a
// serial link stage at the end of each pass. Synchronization is
// queue-centric (semaphores, i.e. blocking) with a single barrier-like
// join, which makes it an interesting middle ground between the pure-spin
// NPB codes and the SPEC rate workloads: mostly virtualization-tolerant,
// with a small coschedulable tail at the join.
#pragma once

#include <memory>

#include "simcore/rng.h"
#include "simcore/simulator.h"
#include "workloads/workload.h"

namespace asman::workloads {

struct KernbenchParams {
  std::uint32_t workers{4};
  /// Compile jobs per pass and their cost distribution.
  std::uint32_t jobs_per_pass{120};
  Cycles job_mean{sim::kDefaultClock.from_us(8'000)};
  double job_cv{0.8};  // compile times are heavy-tailed
  /// Serial link stage at the end of each pass (one worker does it while
  /// the others wait at the join).
  Cycles link_cost{sim::kDefaultClock.from_us(40'000)};
  std::uint64_t passes{3};
  /// Memory footprint for the contention engine. Default: each compile
  /// job streams sources, ASTs and objects through ~1.5 MB per worker
  /// with little cross-job reuse — a bandwidth-heavy, cache-indifferent
  /// profile.
  hw::memsys::MemFootprint footprint{
      hw::memsys::make_footprint(4ULL * 1536 * 1024, 3'000'000'000ULL, 300)};
};

class KernbenchWorkload final : public Workload {
 public:
  KernbenchWorkload(sim::Simulator& simulation, KernbenchParams params,
                    std::uint64_t seed);
  ~KernbenchWorkload() override;

  void deploy(guest::GuestKernel& g) override;
  std::string name() const override { return "kernbench"; }
  /// Jobs compiled so far.
  std::uint64_t work_units() const override;
  hw::memsys::MemFootprint footprint() const override {
    return params_.footprint;
  }

  struct Shared;

 private:
  sim::Simulator& sim_;
  KernbenchParams params_;
  std::uint64_t seed_;
  std::unique_ptr<Shared> shared_;
};

}  // namespace asman::workloads
