// Trace text of a short run, for pins that hold every hypervisor and guest
// trace record byte for byte: the records one per line, and an FNV-1a
// digest to pin them by.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/schedulers.h"
#include "guest/guest_kernel.h"
#include "run_fingerprint.h"
#include "simcore/simulator.h"
#include "simcore/trace.h"
#include "workloads/workload.h"

namespace asman::testutil {

/// Makes one guest's workload for a trace run.
using TraceWorkload = std::unique_ptr<workloads::Workload> (*)(
    sim::Simulator& simulation, std::uint64_t seed);

/// Every trace record of an 800 ms run, hypervisor and guest, one per
/// line: one 2-VCPU guest of weight 256 per entry of `workloads` (guest i
/// seeded `seed + i`) on a 2-PCPU ASMan host. Each guest's counters go to
/// `stats` when it is given.
inline std::string trace_blob(std::uint64_t seed,
                              std::initializer_list<TraceWorkload> workloads,
                              std::vector<guest::GuestStats>* stats = nullptr) {
  sim::Simulator s;
  sim::Trace trace;
  trace.enable(true);
  hw::MachineConfig machine;
  machine.num_pcpus = 2;
  core::AdaptiveScheduler hv(s, machine, vmm::SchedMode::kNonWorkConserving,
                             &trace);
  std::vector<std::unique_ptr<guest::GuestKernel>> guests;
  std::vector<std::unique_ptr<workloads::Workload>> loads;
  for (const TraceWorkload make : workloads) {
    const std::uint64_t vm_seed = seed + guests.size();
    const vmm::VmId id =
        hv.create_vm("V" + std::to_string(guests.size()), 256, 2);
    guest::GuestKernel::Config gc;
    gc.n_vcpus = 2;
    gc.seed = vm_seed;
    guests.push_back(
        std::make_unique<guest::GuestKernel>(s, hv, id, gc, &trace));
    loads.push_back(make(s, vm_seed));
    loads.back()->deploy(*guests.back());
    hv.attach_guest(id, guests.back().get());
  }
  hv.start();
  s.run_until(sim::kDefaultClock.from_ms(800));
  std::string blob;
  for (const sim::TraceRecord& r : trace.records())
    append(blob, "%" PRIu64 " %s %s\n", r.at.v, sim::trace_cat_name(r.cat),
           r.msg.c_str());
  if (stats != nullptr)
    for (const auto& g : guests) stats->push_back(g->stats());
  return blob;
}

inline std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

}  // namespace asman::testutil
