// VCPU and VM records owned by the scheduler.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "core/bounds_spec.h"
#include "simcore/event_queue.h"
#include "vmm/ports.h"
#include "vmm/types.h"

namespace asman::vmm {

/// Credit is held in milli-credits; a VCPU running for one full slot burns
/// kCreditPerSlot. (Integer fixed point keeps accounting exact enough for
/// the fairness tests without floating-point drift.)
using Credit = std::int64_t;
inline constexpr Credit kCreditPerSlot = 100'000;
// The bounds spec pins this constant as an (exact) entry so the
// value-range proof uses the real value; a drift here is a build error.
static_assert(core::bounds_of(core::field::kCreditPerSlot)->lo ==
                  kCreditPerSlot &&
              core::bounds_of(core::field::kCreditPerSlot)->hi ==
                  kCreditPerSlot);

/// Vcpu::queued_on of a VCPU that sits in no run queue.
inline constexpr PcpuId kNotQueued = ~PcpuId{0};

struct Vcpu {
  VcpuKey key;
  Credit credit{0};
  VcpuState state{VcpuState::kRunnable};

  /// PCPU whose run queue holds this VCPU (valid when kRunnable), or the
  /// PCPU it is running on (when kRunning). For kBlocked it remembers the
  /// last home so wakes re-enqueue locally.
  PcpuId where{0};
  /// PCPU whose run queue holds this VCPU, or kNotQueued. Only the audited
  /// membership seam (Hypervisor::enqueue/dequeue) writes it, so unlike
  /// `where` it names no queue while a runnable VCPU is between queues.
  PcpuId queued_on{kNotQueued};

  /// Temporarily raised priorities. Cosched boost is installed by the
  /// Algorithm-4 IPI, lasts one slot, and is refreshed by the gang head's
  /// scheduling events while the VM stays coscheduled; wake boost models
  /// Xen's BOOST priority for freshly woken UNDER VCPUs. A cosched boost
  /// also overrides credit parking: with per-VM credit pooling the VM's
  /// aggregate share is unchanged — the gang merely spends it aligned.
  bool cosched_boost{false};
  bool cosched_weak{false};  // boost launched from spare (OVER) capacity
  sim::EventId cosched_clear_ev{};
  bool wake_boost{false};

  /// Fault state: a crashed VCPU is permanently blocked — the fault layer
  /// forced it into kBlocked and the scheduler ignores every later kick.
  bool crashed{false};

  /// Pause latch (live migration's stop-and-copy window): set when
  /// pause_vm parked this VCPU while it held work (running/runnable), or
  /// when a kick arrived while the VM was paused. resume_vm replays it as
  /// a wake; cleared on resume.
  bool paused_pending{false};

  /// When this VCPU last went online (for burn/online-time accounting).
  Cycles online_since{0};
  /// Start of the current round-robin timeslice (set when dispatched from
  /// a queue; keep-current across ticks preserves it).
  Cycles slice_start{0};

  /// Cache affinity: the PCPU this VCPU last ran on and when it stopped
  /// running there. A migration away from a still-warm cache_home pays the
  /// topology cost model's refill penalty (see Hypervisor::note_migration).
  PcpuId cache_home{0};
  Cycles cache_home_at{0};
  bool ever_ran{false};

  // -- statistics --
  Cycles total_online{0};
  /// Cycles the accounting discipline actually billed this VCPU for (the
  /// theft meter's "attributed" side; total_online is "consumed"). Under
  /// sampled accounting the two diverge for tick-dodging guests.
  Cycles attributed{0};
  /// Exact-accounting remainder: sub-slot consumption carried to the next
  /// charge so integer credit debits lose nothing to rounding. Numerator
  /// units (cycles * kCreditPerSlot), always < slot_len.
  std::uint64_t charge_carry{0};
  std::uint64_t cross_llc_migrations{0};
  std::uint64_t cross_socket_migrations{0};
  /// total_online up to which the contention engine has already split this
  /// VCPU's busy cycles into effective + degraded (docs/MODEL.md §2.8).
  /// Only Hypervisor::apply_contention may advance it (audit-seam rule).
  Cycles pressure_mark{0};

  PrioClass prio_class() const {
    if (cosched_boost)
      return cosched_weak ? PrioClass::kWeakCosched : PrioClass::kCosched;
    if (wake_boost) return PrioClass::kWake;
    return credit >= 0 ? PrioClass::kUnder : PrioClass::kOver;
  }
  /// Whether an idle PCPU's first steal pass (Hypervisor::steal_for with
  /// allow_over false) may take this VCPU from its queue: no gang boost
  /// promises it to that queue, and it is wake-boosted or UNDER. Each run
  /// queue's PCPU counts the queued VCPUs for which this holds.
  bool steal_candidate() const {
    return !cosched_boost && (wake_boost || credit >= 0);
  }
};

/// Sliding-window event counter shared by the flap, BOOST and yield-hint
/// limiters: an event more than `len` after the window opened (or the first
/// one ever) opens a fresh window at its own instant.
struct RateWindow {
  Cycles start{0};
  std::uint64_t count{0};

  /// Count one event at `now`; returns the count inside the current window.
  std::uint64_t bump(Cycles now, Cycles len) {
    if (count == 0 || now - start > len) {
      start = now;
      count = 0;
    }
    return ++count;
  }
  /// Events counted in the window, or 0 once it is more than `len` old.
  std::uint64_t recent(Cycles now, Cycles len) const {
    return now - start <= len ? count : 0;
  }
};

struct Vm {
  VmId id{0};
  std::string name;
  std::uint32_t weight{256};
  VmType type{VmType::kGeneral};
  Vcrd vcrd{Vcrd::kLow};
  GuestPort* guest{nullptr};
  /// Deque, not vector: run queues and PcpuRec::current hold raw Vcpu*
  /// into this container, and hot resize_vm must be able to grow/shrink it
  /// without invalidating references to the surviving elements.
  std::deque<Vcpu> vcpus;

  // -- runtime lifecycle --
  /// Cleared by destroy_vm. A dead VM's VCPU records stay behind as
  /// kDestroyed tombstones so per-VM statistics survive to collection;
  /// every scheduling decision and hypercall checks this flag first.
  bool alive{true};
  Cycles destroyed_at{0};
  /// Paused (live migration's stop-and-copy downtime window): every VCPU
  /// is parked in kBlocked through the audited paths and kicks are latched
  /// (Vcpu::paused_pending) instead of enqueued until resume_vm.
  bool paused{false};

  // -- graceful degradation --
  /// A degraded VM gets stock credit treatment (no gang scheduling, no
  /// relocation) until `degraded_until`, re-evaluated at accounting passes.
  /// Installed by the VCRD flap rate-limiter and by repeated gang-watchdog
  /// fires; see Hypervisor::cosched_eligible.
  bool degraded{false};
  Cycles degraded_until{0};
  /// LOW->HIGH transitions inside the flap rate-limiter's window.
  RateWindow flaps;
  /// When the VM last issued an accepted do_vcrd_op (VCRD staleness TTL).
  Cycles vcrd_last_report{0};
  /// Consecutive gang-watchdog fires without an intervening complete gang.
  std::uint32_t watchdog_streak{0};
  sim::EventId watchdog_ev{};

  // -- adversarial-tenancy defenses (docs/MODEL.md "Threat model") --
  /// Wake boosts granted inside the BOOST rate-limiter's window; grants
  /// beyond ResilienceConfig::boost_limit open a penalty window, until
  /// boost_penalty_until, during which wakes get no BOOST.
  RateWindow boosts;
  Cycles boost_penalty_until{0};
  /// Yield hints inside the VCRD plausibility clamp's window (hardware-side
  /// spin evidence, the signal core::HwAdaptiveScheduler also consumes): a
  /// HIGH claim from a VM with fewer than
  /// ResilienceConfig::vcrd_min_yields recent hints is rejected.
  RateWindow yields;

  // -- statistics --
  std::uint64_t demotions{0};        // flap/watchdog demotions to degraded
  std::uint64_t stale_vcrd_drops{0}; // HIGH forced to LOW by the TTL
  std::uint64_t cross_llc_migrations{0};
  std::uint64_t cross_socket_migrations{0};
  Cycles migration_penalty{0};  // warm-cache refill cycles charged
  Cycles total_online{0};
  std::uint64_t vcrd_high_transitions{0};
  Cycles vcrd_high_time{0};
  Cycles vcrd_high_since{0};
  /// total_online at the last accounting pass (active-set detection).
  Cycles online_at_last_acct{0};
  // -- theft metrics (adversarial multi-tenancy) --
  /// Cycles billed to this VM by the accounting discipline. Survives VCPU
  /// shrink (per-VM aggregate, not a sum over live VCPU records).
  Cycles cycles_attributed{0};
  /// Online spans that ended without crossing a sampling instant (under
  /// kStochastic: charge draws that missed). The tick-dodger's signature.
  std::uint64_t dodged_samples{0};
  std::uint64_t boost_grants{0};
  std::uint64_t boost_denials{0};
  /// VCRD HIGH claims rejected by the plausibility clamp.
  std::uint64_t implausible_vcrds{0};
  // -- memory-system contention ledger (docs/MODEL.md §2.8) --
  /// Busy cycles the contention engine has accounted for this VM, and
  /// their exact partition into full-speed and contention-degraded parts:
  /// pressure_effective + pressure_degraded == pressure_accounted at every
  /// accounting instant (the pressure-conservation invariant). Per-VM
  /// aggregates like cycles_attributed: they survive VCPU shrink and VM
  /// destruction. Only Hypervisor::apply_contention writes them.
  std::uint64_t pressure_accounted{0};
  std::uint64_t pressure_degraded{0};
  std::uint64_t pressure_effective{0};

  std::size_t num_vcpus() const { return vcpus.size(); }
};

/// Cycles a VM consumed beyond what accounting attributed to it, clamped
/// at zero (over-attribution is not theft). Widened through __int128 like
/// every credit-scale quantity so the subtraction can never wrap.
inline std::uint64_t theft_cycles(Cycles consumed, Cycles attributed) {
  const __int128 d = static_cast<__int128>(consumed.v) -
                     static_cast<__int128>(attributed.v);
  return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

}  // namespace asman::vmm
