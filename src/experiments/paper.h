// Canonical experiment configurations from the paper's evaluation (§5).
//
// §5.2 (single VM): administrator VM V0 with 8 VCPUs and weight 256 carries
// no workload; VM V1 has 4 VCPUs, 1 GB (memory is not modelled) and weight
// in {256, 128, 64, 32}, giving VCPU online rates of 100 / 66.7 / 40 /
// 22.2 % by Equations (1)-(2); the scheduler runs in non-work-conserving
// mode. §5.3 (multiple VMs): 4 or 6 VMs with 4 VCPUs and weight 256 each,
// work-conserving mode, benchmarks repeated in rounds and the first 10
// round times averaged.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "experiments/scenario.h"
#include "workloads/npb.h"
#include "workloads/specjbb.h"
#include "workloads/speccpu.h"

namespace asman::experiments {

struct RatePoint {
  double rate;           // nominal VCPU online rate of V1
  std::uint32_t weight;  // V1 weight producing it (V0 fixed at 256)
};
/// The four §5.2 operating points.
inline constexpr std::array<RatePoint, 4> kRatePoints{
    RatePoint{1.0, 256}, RatePoint{0.667, 128}, RatePoint{0.40, 64},
    RatePoint{0.222, 32}};

// --- workload factories ---
WorkloadFactory npb_factory(workloads::NpbBenchmark b,
                            std::uint32_t threads = 4,
                            std::uint64_t rounds = 1);
WorkloadFactory specjbb_factory(std::uint32_t warehouses);
WorkloadFactory gcc_factory(std::uint64_t rounds = 1);
WorkloadFactory bzip2_factory(std::uint64_t rounds = 1);

// --- scenario builders ---

/// §5.2 topology: idle Domain-0 (8 VCPUs, weight 256) + V1 (4 VCPUs,
/// weight `v1_weight`) running `wl`, non-work-conserving.
Scenario single_vm_scenario(core::SchedulerKind sched, std::uint32_t v1_weight,
                            WorkloadFactory wl, std::uint64_t seed = 1);

/// §5.3 topology: idle Domain-0 + one VM per workload (4 VCPUs, weight 256
/// each), work-conserving, stopping after `rounds` completed rounds per VM.
/// `concurrent[i]` marks VM i as the CON scheduler's "concurrent" type.
Scenario multi_vm_scenario(core::SchedulerKind sched,
                           std::vector<std::pair<std::string, WorkloadFactory>>
                               workloads_by_vm,
                           const std::vector<bool>& concurrent,
                           std::uint64_t rounds, std::uint64_t seed = 1);

}  // namespace asman::experiments
