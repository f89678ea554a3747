#include "experiments/paper.h"

namespace asman::experiments {

WorkloadFactory npb_factory(workloads::NpbBenchmark b, std::uint32_t threads,
                            std::uint64_t rounds) {
  return [b, threads, rounds](sim::Simulator& s, std::uint64_t seed) {
    return workloads::make_npb(s, b, seed, threads, rounds);
  };
}

WorkloadFactory specjbb_factory(std::uint32_t warehouses) {
  return [warehouses](sim::Simulator& s, std::uint64_t seed) {
    workloads::SpecJbbParams p;
    p.warehouses = warehouses;
    return std::make_unique<workloads::SpecJbbWorkload>(s, p, seed);
  };
}

WorkloadFactory gcc_factory(std::uint64_t rounds) {
  return [rounds](sim::Simulator& s, std::uint64_t seed) {
    return std::make_unique<workloads::SpecCpuRateWorkload>(
        s, "176.gcc", workloads::spec_gcc_params(rounds), seed);
  };
}

WorkloadFactory bzip2_factory(std::uint64_t rounds) {
  return [rounds](sim::Simulator& s, std::uint64_t seed) {
    return std::make_unique<workloads::SpecCpuRateWorkload>(
        s, "256.bzip2", workloads::spec_bzip2_params(rounds), seed);
  };
}

Scenario single_vm_scenario(core::SchedulerKind sched, std::uint32_t v1_weight,
                            WorkloadFactory wl, std::uint64_t seed) {
  Scenario sc;  // sc.machine: the testbed, hw::MachineConfig's defaults
  sc.mode = vmm::SchedMode::kNonWorkConserving;
  sc.scheduler = sched;
  sc.seed = seed;

  VmSpec dom0;
  dom0.name = "V0";
  dom0.weight = 256;
  dom0.vcpus = 8;
  dom0.workload = nullptr;
  sc.vms.push_back(dom0);

  VmSpec v1;
  v1.name = "V1";
  v1.weight = v1_weight;
  v1.vcpus = 4;
  v1.type = vmm::VmType::kConcurrent;  // read only by the CON baseline
  v1.workload = std::move(wl);
  sc.vms.push_back(std::move(v1));
  return sc;
}

Scenario multi_vm_scenario(core::SchedulerKind sched,
                           std::vector<std::pair<std::string, WorkloadFactory>>
                               workloads_by_vm,
                           const std::vector<bool>& concurrent,
                           std::uint64_t rounds, std::uint64_t seed) {
  Scenario sc;  // sc.machine: the testbed, hw::MachineConfig's defaults
  sc.mode = vmm::SchedMode::kWorkConserving;
  sc.scheduler = sched;
  sc.seed = seed;
  sc.stop_after_rounds = rounds;
  sc.horizon = sim::kDefaultClock.from_seconds_f(600.0);

  VmSpec dom0;
  dom0.name = "V0";
  dom0.weight = 256;
  dom0.vcpus = 8;
  sc.vms.push_back(dom0);

  for (std::size_t i = 0; i < workloads_by_vm.size(); ++i) {
    VmSpec v;
    v.name = "V" + std::to_string(i + 1);
    v.weight = 256;
    v.vcpus = 4;
    if (i < concurrent.size() && concurrent[i])
      v.type = vmm::VmType::kConcurrent;
    v.workload = std::move(workloads_by_vm[i].second);
    sc.vms.push_back(std::move(v));
  }
  return sc;
}

}  // namespace asman::experiments
