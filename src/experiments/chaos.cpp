#include "experiments/chaos.h"

#include <memory>
#include <utility>

#include "workloads/synthetic.h"

namespace asman::experiments {

namespace {

Cycles ms(std::uint64_t n) { return sim::kDefaultClock.from_ms(n); }
Cycles us(std::uint64_t n) { return sim::kDefaultClock.from_us(n); }

Scenario chaos_base(core::SchedulerKind sched, std::uint64_t seed,
                    std::uint32_t n_vms) {
  Scenario sc;
  sc.machine.num_pcpus = 4;
  sc.scheduler = sched;
  sc.seed = seed;
  sc.horizon = ms(2'000);

  VmSpec dom0;
  dom0.name = "Dom0";
  dom0.weight = 256;
  dom0.vcpus = 2;
  sc.vms.push_back(std::move(dom0));

  // The gang candidate: synchronization-heavy, so ASMan raises its VCRD
  // and CON (typed kConcurrent) always coschedules it.
  VmSpec gang;
  gang.name = "Gang";
  gang.weight = 256;
  gang.vcpus = 4;
  gang.type = vmm::VmType::kConcurrent;
  gang.workload = [](sim::Simulator&, std::uint64_t s) {
    return std::make_unique<workloads::LockHammerWorkload>(
        4, 1'000'000, us(120), us(15), s);
  };
  sc.vms.push_back(std::move(gang));

  VmSpec hog;
  hog.name = "Hog";
  hog.weight = 128;
  hog.vcpus = 2;
  hog.workload = [](sim::Simulator&, std::uint64_t s) {
    return std::make_unique<workloads::CpuHogWorkload>(2, us(200), s);
  };
  sc.vms.push_back(std::move(hog));

  // Fleet sizing beyond the 3-VM base: extra 1-VCPU background hogs with
  // small weights, so big fleets stress bookkeeping without drowning the
  // gang candidate.
  for (std::uint32_t i = 3; i < n_vms; ++i) {
    VmSpec extra;
    extra.name = "Hog" + std::to_string(i - 2);
    extra.weight = 64;
    extra.vcpus = 1;
    extra.workload = [](sim::Simulator&, std::uint64_t s) {
      return std::make_unique<workloads::CpuHogWorkload>(1, us(200), s);
    };
    sc.vms.push_back(std::move(extra));
  }
  return sc;
}

constexpr vmm::VmId kGangVm = 1;

void add_ipi_loss(Scenario& sc) {
  sc.faults.ipi.drop_p = 0.25;
  sc.faults.ipi.dup_p = 0.10;
  sc.faults.ipi.delay_p = 0.25;
  sc.faults.ipi.max_delay = us(50);
}

void add_tick_jitter(Scenario& sc) {
  sc.faults.tick.max_jitter = us(500);
}

void add_hotplug(Scenario& sc) {
  // One excursion and one permanent loss; never touches P0 so the refusal
  // path for the last online PCPU stays out of the way.
  sc.faults.hotplug.push_back({3, ms(300), ms(400)});
  sc.faults.hotplug.push_back({2, ms(900), Cycles{0}});
}

void add_vcrd_silence(Scenario& sc) {
  faults::VcrdFaultSpec spec;
  spec.vm = kGangVm;
  spec.silence_after = ms(200);
  sc.faults.vcrd.push_back(spec);
  // The TTL is what degrades gracefully here: a silent monitor must not
  // hold VCRD HIGH forever.
  sc.resilience.vcrd_ttl = ms(90);
}

void add_vcrd_flap(Scenario& sc) {
  faults::VcrdFaultSpec spec;
  spec.vm = kGangVm;
  spec.flap_start = ms(100);
  spec.flap_period = ms(2);
  spec.flap_toggles = 120;
  sc.faults.vcrd.push_back(spec);
}

void add_vcrd_corrupt(Scenario& sc) {
  faults::VcrdFaultSpec spec;
  spec.vm = kGangVm;
  spec.corrupt_start = ms(100);
  spec.corrupt_period = ms(5);
  spec.corrupt_ops = 60;
  sc.faults.vcrd.push_back(spec);
}

void add_vcpu_hang(Scenario& sc) {
  sc.faults.vcpu.push_back(
      {kGangVm, 1, ms(400), faults::VcpuFaultKind::kHang});
}

void add_vcpu_crash(Scenario& sc) {
  sc.faults.vcpu.push_back(
      {kGangVm, 2, ms(400), faults::VcpuFaultKind::kCrash});
}

void add_socket_offline(Scenario& sc) {
  // The only chaos class that rewrites the machine: the whole of socket 1
  // (P4-P7 on the paper's 2x4 topology) goes away in a staggered burst, so
  // evacuation and topology-aware relocation must repack the fleet onto
  // socket 0, then re-spread when P4-P6 return. P7 stays down permanently.
  sc.machine.num_pcpus = 8;
  sc.machine.topology = hw::Topology::paper();
  sc.faults.hotplug.push_back({4, ms(300), ms(500)});
  sc.faults.hotplug.push_back({5, ms(350), ms(450)});
  sc.faults.hotplug.push_back({6, ms(400), ms(400)});
  sc.faults.hotplug.push_back({7, ms(450), Cycles{0}});
}

}  // namespace

const char* to_string(ChaosClass c) {
  switch (c) {
    case ChaosClass::kIpiLoss:
      return "ipi-loss";
    case ChaosClass::kTickJitter:
      return "tick-jitter";
    case ChaosClass::kHotplug:
      return "hotplug";
    case ChaosClass::kVcrdSilence:
      return "vcrd-silence";
    case ChaosClass::kVcrdFlap:
      return "vcrd-flap";
    case ChaosClass::kVcrdCorrupt:
      return "vcrd-corrupt";
    case ChaosClass::kVcpuHang:
      return "vcpu-hang";
    case ChaosClass::kVcpuCrash:
      return "vcpu-crash";
    case ChaosClass::kSocketOffline:
      return "socket-offline";
    case ChaosClass::kEverything:
      return "everything";
  }
  return "?";
}

const std::vector<ChaosClass>& all_chaos_classes() {
  static const std::vector<ChaosClass> kAll = {
      ChaosClass::kIpiLoss,     ChaosClass::kTickJitter,
      ChaosClass::kHotplug,     ChaosClass::kVcrdSilence,
      ChaosClass::kVcrdFlap,    ChaosClass::kVcrdCorrupt,
      ChaosClass::kVcpuHang,    ChaosClass::kVcpuCrash,
      ChaosClass::kSocketOffline, ChaosClass::kEverything,
  };
  return kAll;
}

Scenario chaos_base_scenario(core::SchedulerKind sched, std::uint64_t seed,
                             std::uint32_t n_vms) {
  return chaos_base(sched, seed, n_vms);
}

void apply_chaos(Scenario& sc, ChaosClass c) {
  switch (c) {
    case ChaosClass::kIpiLoss:
      add_ipi_loss(sc);
      break;
    case ChaosClass::kTickJitter:
      add_tick_jitter(sc);
      break;
    case ChaosClass::kHotplug:
      add_hotplug(sc);
      break;
    case ChaosClass::kVcrdSilence:
      add_vcrd_silence(sc);
      break;
    case ChaosClass::kVcrdFlap:
      add_vcrd_flap(sc);
      break;
    case ChaosClass::kVcrdCorrupt:
      add_vcrd_corrupt(sc);
      break;
    case ChaosClass::kVcpuHang:
      add_vcpu_hang(sc);
      break;
    case ChaosClass::kVcpuCrash:
      add_vcpu_crash(sc);
      break;
    case ChaosClass::kSocketOffline:
      add_socket_offline(sc);
      break;
    case ChaosClass::kEverything:
      // kSocketOffline deliberately excluded: it overrides the machine
      // config, which would change kEverything's established fingerprints.
      add_ipi_loss(sc);
      add_tick_jitter(sc);
      add_hotplug(sc);
      add_vcrd_silence(sc);
      add_vcrd_flap(sc);
      add_vcrd_corrupt(sc);
      add_vcpu_hang(sc);
      add_vcpu_crash(sc);
      break;
  }
}

Scenario chaos_scenario(core::SchedulerKind sched, ChaosClass c,
                        std::uint64_t seed, std::uint32_t n_vms) {
  Scenario sc = chaos_base(sched, seed, n_vms);
  sc.faults.seed = seed ^ 0xC4A05ULL;
  apply_chaos(sc, c);
  return sc;
}

Scenario topology_scenario(core::SchedulerKind sched, std::uint64_t seed,
                           bool aware, std::uint32_t n_vms) {
  Scenario sc = chaos_base(sched, seed, n_vms);
  sc.machine.num_pcpus = 8;
  sc.machine.topology = hw::Topology::paper();
  sc.topology_aware = aware;
  return sc;
}

}  // namespace asman::experiments
