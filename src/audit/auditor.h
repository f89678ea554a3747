// Runtime invariant auditor.
//
// An Auditor installs itself as the hypervisor's AuditSink and, at every
// scheduling-event boundary, verifies the invariant catalog of
// audit/invariants.h: the cheap stateful checks (credit ledger across an
// accounting pass, the VCPU state-machine shadow, monotonic event time)
// run on every callback; the full-state scan, one allocation-free pass over
// every PCPU and VCPU, runs on a configurable stride so hot runs can
// amortize it. Violations accumulate in an AuditReport; under
// `fatal` (or the ASMAN_AUDIT_FATAL environment variable) the first
// violation prints the report and aborts, pinning the offending event in
// a debugger or core dump.
//
// Every build links the auditor; a run is audited only when one is attached
// (AuditorConfig, ScenarioConfig::audit, or ASMAN_AUDIT=1 at run time).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "audit/invariants.h"
#include "audit/report.h"
#include "hw/memsys/contention.h"
#include "simcore/simulator.h"
#include "vmm/audit_sink.h"
#include "vmm/hypervisor.h"

namespace asman::audit {

struct AuditorConfig {
  /// Run the full-state scan on every stride-th scheduling event
  /// (1 = every event). Ledger/state-machine/time checks always run.
  std::uint32_t stride{1};
  /// Print the report and abort() on the first violation. Forced on when
  /// the ASMAN_AUDIT_FATAL environment variable is set (non-empty, != "0").
  bool fatal{false};
};

/// True when the ASMAN_AUDIT environment variable is set (non-empty,
/// != "0"): run_scenario then attaches an Auditor to every run, which is
/// how benches and examples become audited without code changes.
bool audit_env_enabled();
bool audit_fatal_env();

class Auditor final : public vmm::AuditSink {
 public:
  /// Installs itself via Hypervisor::set_audit_sink. Attach after the VMs
  /// are created and before start() for full-lifetime coverage.
  Auditor(sim::Simulator& simulation, vmm::Hypervisor& hv,
          AuditorConfig cfg = {});
  ~Auditor() override;

  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  const AuditReport& report() const { return report_; }

  /// Run the full-state invariant scan immediately.
  void check_now();

  /// Replace the time source (defaults to the simulation clock). Test seam
  /// for the monotonic-time invariant.
  void set_clock(std::function<sim::Cycles()> clock);

  // --- vmm::AuditSink ---
  void on_sched_event(vmm::AuditPoint p) override;
  void on_state_change(vmm::VcpuKey k, vmm::VcpuState from,
                       vmm::VcpuState to) override;
  void on_accounting(vmm::VmId vm, std::int64_t minted) override;
  void on_seeded(vmm::VmId vm, __int128 pool) override;
  void on_vm_created(vmm::VmId vm) override;
  void on_vm_resized(vmm::VmId vm) override;
  void on_relocated(vmm::VmId vm) override;
  void on_contention() override;

 private:
  void observe_time();
  void snapshot_pools();
  /// Append a shadow row, copied from the live states, for every VM the
  /// shadow does not cover yet.
  void extend_shadow();
  void flag(Invariant inv, std::string what);

  sim::Simulator& sim_;
  vmm::Hypervisor& hv_;
  AuditorConfig cfg_;
  std::function<sim::Cycles()> clock_;
  AuditReport report_;
  std::uint64_t scan_counter_{0};
  sim::Cycles last_time_{0};
  bool saw_time_{false};
  /// Per-VM credit pool captured at kAccountingBegin.
  std::vector<std::int64_t> pool_before_;
  /// Shadow copy of every VCPU's lifecycle state, advanced only by
  /// on_state_change — divergence from the hypervisor's actual state means
  /// a state was mutated outside the legal transition paths.
  std::vector<std::vector<vmm::VcpuState>> shadow_;

  // Scratch of check_now and on_contention, reused so a scan allocates
  // nothing once its buffers have grown to the host's size.
  /// Run-queue / current references to one VCPU record; size_t like the
  /// queues themselves, so a count cannot wrap.
  struct VcpuRefs {
    std::size_t queued{0};
    std::size_t running{0};
  };
  std::vector<VcpuRefs> refs_;  // indexed vcpu_base_[vm] + idx
  std::vector<std::size_t> vcpu_base_;
  /// Per PCPU: the gang walk (gang_epoch_) that last placed a member there.
  struct GangMark {
    std::uint64_t epoch{0};
    const vmm::Vcpu* holder{nullptr};
  };
  std::vector<GangMark> gang_at_;
  std::uint64_t gang_epoch_{0};
  std::vector<Violation> found_;  // flagged once the scan completes
  std::vector<hw::memsys::VmLoad> loads_;
  hw::memsys::ContentionPass recomputed_;
};

}  // namespace asman::audit
