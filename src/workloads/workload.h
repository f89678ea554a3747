// Workload abstraction: something deployable into a guest VM.
//
// A Workload creates its synchronization objects and spawns its threads
// into one guest kernel. Finite workloads (the NPB models, SPEC CPU rate
// batches) end; throughput workloads (SPECjbb) run until the simulation
// horizon and expose counters instead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "guest/guest_kernel.h"
#include "hw/memsys/footprint.h"
#include "simcore/time.h"
#include "vmm/ports.h"

namespace asman::workloads {

using sim::Cycles;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Create sync objects and spawn threads into `g` (call exactly once,
  /// before the simulation starts).
  virtual void deploy(guest::GuestKernel& g) = 0;

  /// Optional hypervisor-facing hookup, called once right after deploy()
  /// with the VM's hypercall port and its hypervisor id. Honest workloads
  /// ignore it (the Monitoring Module owns their VCRD reporting); the
  /// adversary models use it to issue hypercalls directly — a paravirtual
  /// guest can always call the hypervisor, truthfully or not.
  virtual void connect(sim::Simulator& simulation, vmm::HypervisorPort& port,
                       vmm::VmId vm) {
    (void)simulation;
    (void)port;
    (void)vm;
  }

  virtual std::string name() const = 0;

  /// Finite workloads complete; infinite ones run to the horizon.
  virtual bool finite() const { return true; }

  /// For batch workloads repeated in rounds (paper §5.3 runs each benchmark
  /// repeatedly and averages the first 10 rounds): completion count and
  /// per-round completion timestamps. A workload that counts rounds calls
  /// Simulator::note_progress() whenever it records one: run_scenario
  /// re-reads rounds_completed() only after the progress epoch moved.
  virtual std::uint64_t rounds_completed() const { return 0; }
  virtual std::vector<Cycles> round_times() const { return {}; }

  /// Throughput-style counters (SPECjbb transactions etc.).
  virtual std::uint64_t work_units() const { return 0; }

  /// Memory footprint for the contention engine (docs/MODEL.md §2.8):
  /// working-set bytes plus a piecewise miss-rate curve. The default —
  /// a zero footprint — keeps the engine inert for this VM, so existing
  /// workloads are bit-compatible until they opt in.
  virtual hw::memsys::MemFootprint footprint() const { return {}; }
};

}  // namespace asman::workloads
