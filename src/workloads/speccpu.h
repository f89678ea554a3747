// SPEC CPU2000 rate model (paper §5.3: 176.gcc and 256.bzip2, 4 copies).
//
// The SPEC rate metric runs N independent copies of a compute-bound
// benchmark; there is no synchronization between copies, which is exactly
// why the paper uses it as the "high-throughput" workload: its performance
// depends only on the CPU share a VM receives, not on VCPU alignment.
// The model: N threads, each burning a fixed amount of compute per round
// (in chunks, so guest preemption behaves realistically), repeated in
// rounds; a round completes when every copy finished it.
#pragma once

#include <memory>
#include <string>

#include "simcore/simulator.h"
#include "workloads/workload.h"

namespace asman::workloads {

struct SpecCpuParams {
  std::uint32_t copies{4};
  /// Total compute per copy per round.
  Cycles work_per_copy{sim::kDefaultClock.from_seconds_f(2.5)};
  /// Chunk size (one kCompute op).
  Cycles chunk{sim::kDefaultClock.from_us(2'000)};
  double chunk_cv{0.05};
  std::uint64_t rounds{1};
  /// Memory footprint for the contention engine; the canonical parameter
  /// sets below fill in calibrated values (gcc: pointer-chasing over a
  /// moderate set; bzip2: block-streaming).
  hw::memsys::MemFootprint footprint{};
};

/// Canonical parameter sets for the two benchmarks used in the paper.
/// Relative weights approximate the real Class-ref run-time ratio.
SpecCpuParams spec_gcc_params(std::uint64_t rounds = 1);
SpecCpuParams spec_bzip2_params(std::uint64_t rounds = 1);

class SpecCpuRateWorkload final : public Workload {
 public:
  SpecCpuRateWorkload(sim::Simulator& simulation, std::string workload_name,
                      SpecCpuParams params, std::uint64_t seed);
  ~SpecCpuRateWorkload() override;

  void deploy(guest::GuestKernel& g) override;
  std::string name() const override { return name_; }
  hw::memsys::MemFootprint footprint() const override {
    return params_.footprint;
  }

  struct Shared;

 private:
  sim::Simulator& sim_;
  std::string name_;
  SpecCpuParams params_;
  std::uint64_t seed_;
  std::unique_ptr<Shared> shared_;
};

}  // namespace asman::workloads
