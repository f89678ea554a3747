// Phase-structured parallel program model.
//
// Models the execution skeleton shared by the NAS Parallel Benchmarks:
// each of T threads alternates a jittered compute phase with a
// synchronization operation, for a fixed number of steps, optionally
// repeated in rounds. Two synchronization topologies are modelled:
//
//   * kBarrierAll      — all threads meet at a global OpenMP barrier
//                        (BT/CG/EP/FT/MG/SP reductions and sweeps);
//   * kNeighborChain   — pairwise pipeline synchronization between
//                        neighbouring threads plus a periodic global
//                        barrier (LU's wavefront sweeps — the finest
//                        granularity in the suite).
//
// What matters for the paper's results is the *synchronization rate and
// granularity*, not the solver arithmetic, so benchmarks are characterized
// by (steps, compute mean, imbalance cv, topology); see npb.h for the
// calibrated per-benchmark table.
#pragma once

#include <memory>

#include "simcore/rng.h"
#include "simcore/simulator.h"
#include "workloads/workload.h"

namespace asman::workloads {

struct PhaseParams {
  std::uint32_t threads{4};
  /// Synchronization steps per round.
  std::uint64_t steps{1000};
  /// Mean compute between consecutive syncs, and its coefficient of
  /// variation (load imbalance drives threads into the futex slow path).
  Cycles compute_mean{sim::kDefaultClock.from_us(1000)};
  double compute_cv{0.15};

  enum class Sync : std::uint8_t { kBarrierAll, kNeighborChain, kNone };
  Sync sync{Sync::kBarrierAll};
  /// With kNeighborChain, a global barrier is inserted every this many
  /// steps (an LU time-step boundary).
  std::uint64_t global_barrier_every{50};
  /// Neighbour sync uses flush/flag busy-waiting (NPB-OMP pipelines spin in
  /// user space and never block in the kernel).
  bool neighbor_pure_spin{true};
  /// Global barriers busy-wait too. gcc-4.x-era libgomp defaulted to
  /// OMP_WAIT_POLICY=active (spin, never sleep), which is the behaviour the
  /// paper's testbed ran; passive (spin-then-futex) is what a JVM-style
  /// runtime does.
  bool global_pure_spin{false};

  /// Rounds to repeat (>=1). Round boundaries always end with a global
  /// barrier; the completion time of each round is recorded.
  std::uint64_t rounds{1};

  /// Memory footprint for the contention engine (zero by default; the
  /// NPB table in npb.cpp fills in calibrated per-benchmark values).
  hw::memsys::MemFootprint footprint{};
};

class PhaseWorkload final : public Workload {
 public:
  PhaseWorkload(sim::Simulator& simulation, std::string workload_name,
                PhaseParams params, std::uint64_t seed);
  ~PhaseWorkload() override;

  void deploy(guest::GuestKernel& g) override;
  std::string name() const override { return name_; }
  hw::memsys::MemFootprint footprint() const override {
    return params_.footprint;
  }
  const PhaseParams& params() const { return params_; }

  struct Shared;  // implementation detail shared by the thread programs

 private:
  sim::Simulator& sim_;
  std::string name_;
  PhaseParams params_;
  std::uint64_t seed_;
  std::unique_ptr<Shared> shared_;
};

}  // namespace asman::workloads
