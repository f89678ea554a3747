#include "vmm/hypervisor.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/bounds_spec.h"

namespace asman::vmm {

namespace {
std::string key_str(VcpuKey k) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "v%u.%u", k.vm, k.idx);
  return buf;
}

/// Fixed limiter windows, in slots: the BOOST limiter counts grants over
/// kBoostWindowSlots and denies BOOST for kBoostPenaltySlots after an
/// overflow; the VCRD plausibility clamp counts yield hints over
/// kVcrdCheckSlots.
constexpr std::uint64_t kBoostWindowSlots = 5;
constexpr std::uint64_t kBoostPenaltySlots = 12;
constexpr std::uint64_t kVcrdCheckSlots = 5;

/// Graceful degradation (see ResilienceConfig and docs/MODEL.md "Fault
/// model & graceful degradation"); the counts stay inside the intervals
/// the value-range proof assumed.
constexpr std::uint32_t kIpiMaxRetries = 2;        // re-sends per lost IPI
constexpr std::uint64_t kIpiAckLatencies = 8;      // ack wait, IPI latencies
constexpr std::uint64_t kGangWatchdogSlots = 2;    // partial-gang release
constexpr std::uint32_t kWatchdogDemoteAfter = 3;  // releases that demote
constexpr std::uint32_t kFlapLimit = 8;            // LOW->HIGH per window
constexpr std::uint64_t kFlapWindowSlots = 5;
constexpr std::uint64_t kDemoteBackoffSlots = 12;  // lifted at accounting
static_assert(core::in_bounds(core::field::ipi_max_retries, kIpiMaxRetries));
static_assert(core::in_bounds(core::field::watchdog_demote_after,
                              kWatchdogDemoteAfter));
static_assert(core::in_bounds(core::field::flap_limit, kFlapLimit));

/// The steal-candidate count's oracle: true when `count` equals a recount
/// of `rq`'s steal candidates and every entry names `q` as its queue.
[[maybe_unused]] bool candidates_exact(std::uint32_t count, const RunQueue& rq,
                                       PcpuId q) {
  std::uint32_t n = 0;
  for (const Vcpu* v : rq.entries()) {
    if (v->queued_on != q) return false;
    n += v->steal_candidate() ? 1u : 0u;
  }
  return n == count;
}
}  // namespace

const char* to_string(AuditPoint p) {
  switch (p) {
    case AuditPoint::kStart:
      return "start";
    case AuditPoint::kTick:
      return "tick";
    case AuditPoint::kAccountingBegin:
      return "accounting-begin";
    case AuditPoint::kAccountingEnd:
      return "accounting-end";
    case AuditPoint::kVcrdOp:
      return "vcrd-op";
    case AuditPoint::kBlock:
      return "block";
    case AuditPoint::kKick:
      return "kick";
    case AuditPoint::kIpi:
      return "ipi";
    case AuditPoint::kHotplug:
      return "hotplug";
    case AuditPoint::kFault:
      return "fault";
    case AuditPoint::kLifecycle:
      return "lifecycle";
  }
  return "?";
}

Hypervisor::Hypervisor(sim::Simulator& simulation,
                       const hw::MachineConfig& machine, SchedMode mode,
                       sim::Trace* trace, std::uint64_t seed)
    : sim_(simulation),
      machine_(machine),
      mode_(mode),
      trace_(trace),
      rng_(seed ^ 0xA5A5A5A5ULL),
      ipi_(simulation, machine),
      pcpus_(machine.num_pcpus),
      online_pcpus_(machine.num_pcpus),
      slot_len_(machine.slot_cycles()),
      timeslice_len_(machine.timeslice_cycles()),
      credit_cap_(static_cast<Credit>(static_cast<__int128>(2) *
                                      machine.slots_per_accounting *
                                      kCreditPerSlot)) {
  // Reject a degenerate machine before any placement arithmetic can divide
  // or modulo by zero. Validation must happen here, not at start():
  // create_vm is legal pre-start and already places VCPUs.
  const auto issues = hw::validate_config(machine_);
  if (!issues.empty()) {
    std::string what = "invalid MachineConfig:";
    for (const auto& i : issues)
      what += std::string(" [") + hw::to_string(i.kind) + "] " + i.what + ";";
    throw std::invalid_argument(what);
  }
  topo_ = machine_.resolved_topology();
  topo_flat_ = topo_.is_flat();
  cross_llc_penalty_ = machine_.cross_llc_penalty();
  cross_socket_penalty_ = machine_.cross_socket_penalty();
  warm_window_ = machine_.warm_cache_window();
  for (PcpuId p = 0; p < machine_.num_pcpus; ++p) {
    pcpus_[p].idle_since = sim_.now();
    ipi_.set_handler(p, [this](PcpuId target, std::uint32_t vector) {
      ipi_handler(target, vector);
    });
  }
}

void Hypervisor::attach_guest(VmId id, GuestPort* guest) {
  // Legal before start() and right after a hot create_vm; never re-wire a
  // tombstone (destroy_vm detached its guest for good).
  assert(vm(id).alive);
  vm(id).guest = guest;
}

void Hypervisor::start() {
  assert(!started_);
  started_ = true;
  // Hold every count knob to its core/bounds_spec.h interval — the same
  // interval the value-range proof assumed, so no caller can push the
  // credit/boost arithmetic outside the proved space.
  resilience_.boost_limit =
      core::clamp_to_bounds(core::field::boost_limit, resilience_.boost_limit);
  resilience_.vcrd_min_yields = core::clamp_to_bounds(
      core::field::vcrd_min_yields, resilience_.vcrd_min_yields);
  const auto cap_hi = static_cast<double>(
      core::bounds_of(core::field::max_vcpus_per_pcpu)->hi);
  if (admission_.max_vcpus_per_pcpu > cap_hi)
    admission_.max_vcpus_per_pcpu = cap_hi;
  in_scheduler_ = true;
  maybe_shed_overload();  // a boot-time fleet may already exceed the level
  do_accounting();
  for (PcpuId i = 0; i < machine_.num_pcpus; ++i)
    dispatch((dispatch_start_ + i) % machine_.num_pcpus);
  dispatch_start_ = (dispatch_start_ + 1) % machine_.num_pcpus;
  in_scheduler_ = false;
  // Per-PCPU ticks, staggered across the slot like real Xen's independent
  // per-PCPU timers; the stagger is what lets a capped VM's VCPUs park and
  // unpark at different instants. The first ticks' delays differ, so they
  // go through the heap; each tick then re-arms its own event in the slot
  // lane, so a PCPU's tick is one closure for the whole run.
  tick_lane_ = sim_.lane(slot_len_);
  accounting_lane_ = sim_.lane(machine_.accounting_cycles());
  for (PcpuId p = 0; p < machine_.num_pcpus; ++p) {
    const Cycles phase{slot_len_.v * (p + 1) / machine_.num_pcpus};
    sim_.after(phase, [this, p] { pcpu_tick(p); });
  }
  sim_.after(accounting_lane_, [this] { accounting_event(); });
  audit_event(AuditPoint::kStart);
}

double Hypervisor::weight_proportion(VmId id) const {
  if (!vm(id).alive) return 0.0;
  std::uint64_t total = 0;
  for (const auto& v : vms_)
    if (v->alive) total += v->weight;
  return total == 0 ? 0.0
                    : static_cast<double>(vm(id).weight) /
                          static_cast<double>(total);
}

double Hypervisor::nominal_online_rate(VmId id) const {
  const Vm& v = vm(id);
  return static_cast<double>(machine_.num_pcpus) * weight_proportion(id) /
         static_cast<double>(v.num_vcpus());
}

bool Hypervisor::vcpu_is_online(VmId id, std::uint32_t vidx) const {
  return vm(id).vcpus[vidx].state == VcpuState::kRunning;
}

std::uint32_t Hypervisor::vm_online_count(VmId id) const {
  std::uint32_t n = 0;
  for (const Vcpu& c : vm(id).vcpus)
    if (c.state == VcpuState::kRunning) ++n;
  return n;
}

Cycles Hypervisor::pcpu_idle_total(PcpuId p) const {
  const PcpuRec& pc = pcpus_[p];
  Cycles t = pc.idle_total;
  if (pc.current == nullptr) t += sim_.now() - pc.idle_since;
  return t;
}

void Hypervisor::set_fault_hook(FaultHook* hook) {
  fault_hook_ = hook;
  if (hook) faults_armed_ = true;
}

std::uint64_t Hypervisor::theft_cycles_total() const {
  std::uint64_t n = 0;
  for (const auto& v : vms_)
    n += theft_cycles(v->total_online, v->cycles_attributed);
  return n;
}

// --- graceful degradation ---------------------------------------------------

void Hypervisor::demote_vm(Vm& v, const char* why) {
  v.degraded = true;
  v.degraded_until = sim_.now() + slot_len_ * kDemoteBackoffSlots;
  ++v.demotions;
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kMonitor, [&] {
    return v.name + " demoted to stock credit treatment (" + why + ")";
  });
  // Strip gang privileges immediately: cancel the boosts and let every
  // PCPU re-pick under stock rules (members with credit keep running as
  // ordinary UNDER VCPUs — degradation is graceful, not punitive).
  const bool was = in_scheduler_;
  in_scheduler_ = true;
  co_stop(v);
  in_scheduler_ = was;
}

void Hypervisor::note_flap(Vm& v) {
  if (v.flaps.bump(sim_.now(), slot_len_ * kFlapWindowSlots) > kFlapLimit &&
      !v.degraded)
    demote_vm(v, "VCRD flap rate limit");
}

bool Hypervisor::grant_boost(Vm& m) {
  if (resilience_.boost_limit == 0) {  // limiter off: meter only
    ++m.boost_grants;
    return true;
  }
  const Cycles now = sim_.now();
  if (now < m.boost_penalty_until) {
    ++m.boost_denials;
    return false;
  }
  // Count grants in the current window like note_flap; overflow opens the
  // penalty window.
  if (m.boosts.bump(now, slot_len_ * kBoostWindowSlots) >
      resilience_.boost_limit) {
    m.boost_penalty_until = now + slot_len_ * kBoostPenaltySlots;
    ++m.boost_denials;
    sim::note_trace(trace_, sim_.now(), sim::TraceCat::kMonitor, [&] {
      return m.name + " BOOST rate limit hit (abuse suspected)";
    });
    return false;
  }
  ++m.boost_grants;
  return true;
}

void Hypervisor::vcpu_yield_hint(VmId id, std::uint32_t vidx) {
  // Pure observation — never touches scheduling state. The per-VM sliding
  // window is the hardware-side spin evidence the VCRD plausibility clamp
  // cross-checks HIGH claims against (a guest that claims heavy spin-wait
  // but never yielded is lying).
  (void)vidx;
  if (halted_ || id >= vms_.size() || !vms_[id]->alive) return;
  vms_[id]->yields.bump(sim_.now(), slot_len_ * kVcrdCheckSlots);
}

void Hypervisor::degradation_tick(Vm& v) {
  const Cycles now = sim_.now();
  if (v.degraded && now >= v.degraded_until) {
    v.degraded = false;
    v.flaps = {};
    v.watchdog_streak = 0;
    sim::note_trace(trace_, sim_.now(), sim::TraceCat::kMonitor, [&] {
      return v.name + " degraded state lifted";
    });
    // While degraded the members ran under stock rules and may have drifted
    // onto shared homes; a gang must regain coscheduling with a coherent
    // placement or the next launch would double-book a PCPU. (Excess-socket
    // drift is repacked too under topology-aware placement.)
    respread_gang(v);
  }
  if (resilience_.vcrd_ttl.v > 0 && v.vcrd == Vcrd::kHigh &&
      now - v.vcrd_last_report > resilience_.vcrd_ttl) {
    // The Monitoring Module went silent while HIGH: a stale report must not
    // hold coscheduling privileges forever. Mirrors do_vcrd_op's HIGH->LOW
    // bookkeeping so the VCRD statistics stay exact.
    v.vcrd = Vcrd::kLow;
    v.vcrd_high_time += now - v.vcrd_high_since;
    ++v.stale_vcrd_drops;
    sim::note_trace(trace_, sim_.now(), sim::TraceCat::kMonitor, [&] {
      return v.name + " VCRD stale -> LOW (TTL)";
    });
  }
}

void Hypervisor::arm_gang_watchdog(Vm& v) {
  if (v.watchdog_ev.valid()) return;
  v.watchdog_ev = sim_.after(slot_len_ * kGangWatchdogSlots,
                             [this, id = v.id] { gang_watchdog_fire(id); });
}

void Hypervisor::gang_watchdog_fire(VmId id) {
  Vm& v = *vms_[id];
  v.watchdog_ev = {};
  if (!cosched_eligible(v)) {
    v.watchdog_streak = 0;
    return;
  }
  std::uint32_t running = 0;
  std::uint32_t absent = 0;  // runnable members that never came online
  for (const Vcpu& w : v.vcpus) {
    if (w.state == VcpuState::kRunning)
      ++running;
    else if (w.state == VcpuState::kRunnable)
      ++absent;
  }
  if (running > 0 && absent > 0) {
    ++gang_watchdog_fires_;
    ++v.watchdog_streak;
    sim::note_trace(trace_, sim_.now(), sim::TraceCat::kCosched, [&] {
      return v.name + " gang watchdog: partial gang released";
    });
    if (v.watchdog_streak >= kWatchdogDemoteAfter) {
      demote_vm(v, "gang watchdog streak");  // includes the co-stop
    } else {
      in_scheduler_ = true;
      co_stop(v);
      in_scheduler_ = false;
    }
  } else {
    v.watchdog_streak = 0;
  }
  if (cosched_eligible(v)) arm_gang_watchdog(v);
}

void Hypervisor::ipi_ack_check(VmId vm_id, std::uint32_t vidx,
                               std::uint32_t attempt, bool strong) {
  if (halted_) return;  // the ack deadline outlived the host
  Vm& v = *vms_[vm_id];
  if (!cosched_eligible(v)) return;
  if (vidx >= v.num_vcpus()) return;  // resized away while the ack was armed
  Vcpu& sib = v.vcpus[vidx];
  // Arrived (running or boosted) or moot (blocked/crashed): nothing to do.
  if (sib.state != VcpuState::kRunnable || sib.cosched_boost) return;
  if (attempt > kIpiMaxRetries) {
    ++gang_ipi_aborts_;
    sim::note_trace(trace_, sim_.now(), sim::TraceCat::kCosched, [&] {
      return v.name + " gang start abandoned for this slot (" +
             key_str(sib.key) + " unreachable after retries)";
    });
    return;
  }
  ++ipi_retries_;
  const std::uint32_t vector = vm_id * 2 + (strong ? 1u : 0u);
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kCosched, [&] {
    return "IPI retry " + std::to_string(attempt) + " for " + key_str(sib.key);
  });
  ipi_.send(sib.where, sib.where, vector);
  sim_.after(machine_.ipi_latency() * kIpiAckLatencies,
             [this, vm_id, vidx, attempt, strong] {
               ipi_ack_check(vm_id, vidx, attempt + 1, strong);
             });
}

PcpuId Hypervisor::pick_online_home(VmId vm_for_collision,
                                    PcpuId near) const {
  // Least-loaded online PCPU; a home free of gang siblings is preferred so
  // evacuation preserves pairwise-distinct placement (cosched_eligible
  // guarantees one exists by pigeonhole: gang size <= online PCPUs).
  // Under topology-aware placement, collision-freedom still dominates but
  // among equals a home closer to `near` wins (same-LLC, then same-socket,
  // then remote) so evacuees and wakes stay near their warm cache.
  const bool keep_distinct = cosched_eligible(vm(vm_for_collision));
  const bool by_distance = topo_place_active();
  PcpuId dest = machine_.num_pcpus;
  std::size_t best_load = 0;
  bool best_collides = true;
  int best_dist = 0;
  for (PcpuId p = 0; p < machine_.num_pcpus; ++p) {
    const PcpuRec& pc = pcpus_[p];
    if (!pc.online) continue;
    const std::size_t load =
        pc.runq.size() + (pc.current != nullptr ? 1u : 0u);
    const bool collides = keep_distinct && would_collide(vm_for_collision, p);
    const int dist =
        by_distance ? static_cast<int>(topo_.distance(near, p)) : 0;
    bool better = false;
    if (dest == machine_.num_pcpus) {
      better = true;
    } else if (collides != best_collides) {
      better = !collides;
    } else if (dist != best_dist) {
      better = dist < best_dist;
    } else {
      better = load < best_load;
    }
    if (better) {
      dest = p;
      best_load = load;
      best_collides = collides;
      best_dist = dist;
    }
  }
  return dest;
}

bool Hypervisor::gang_homes_collide(const Vm& v) const {
  std::vector<bool> used(machine_.num_pcpus, false);
  for (const Vcpu& c : v.vcpus) {
    if (!pcpus_[c.where].online || used[c.where]) return true;
    used[c.where] = true;
  }
  return false;
}

void Hypervisor::respread_gang(Vm& v) {
  if (cosched_eligible(v) &&
      (gang_homes_collide(v) || gang_spans_excess_sockets(v)))
    relocate_vm(v);
}

// --- topology cost model & socket packing ------------------------------------

Cycles Hypervisor::would_be_penalty(const Vcpu& v, PcpuId to) const {
  if (!topo_cost_active() || !v.ever_ran) return Cycles{0};
  if (sim_.now() - v.cache_home_at >= warm_window_) return Cycles{0};
  switch (topo_.distance(v.cache_home, to)) {
    case hw::TopoDistance::kSameSocket:
      return cross_llc_penalty_;
    case hw::TopoDistance::kCrossSocket:
      return cross_socket_penalty_;
    case hw::TopoDistance::kSelf:
    case hw::TopoDistance::kSameLlc:
      break;
  }
  return Cycles{0};
}

void Hypervisor::note_migration(Vcpu& v, PcpuId from, PcpuId to) {
  if (!topo_cost_active()) return;
  Vm& owner = vm(v.key.vm);
  const hw::TopoDistance hop = topo_.distance(from, to);
  switch (hop) {
    case hw::TopoDistance::kSameSocket:
      ++v.cross_llc_migrations;
      ++owner.cross_llc_migrations;
      ++cross_llc_migrations_;
      break;
    case hw::TopoDistance::kCrossSocket:
      ++v.cross_socket_migrations;
      ++owner.cross_socket_migrations;
      ++cross_socket_migrations_;
      break;
    case hw::TopoDistance::kSelf:
    case hw::TopoDistance::kSameLlc:
      return;  // the shared LLC keeps the working set: free move
  }
  const Cycles pen = would_be_penalty(v, to);
  if (pen.v == 0) return;  // cache already cold (or still same-LLC warm)
  migration_penalty_cycles_ += pen;
  owner.migration_penalty += pen;
  // Deterministic debit at the slot-credit exchange rate. charge() samples
  // the RNG per span; the cost model must not perturb that stream, or a
  // flat-vs-aware comparison would diverge for reasons other than cost.
  const Credit debit = static_cast<Credit>(
      (static_cast<__int128>(pen.v) * kCreditPerSlot) / slot_len_.v);
  const CandidateWrite guard(*this, v);  // v may already sit in to's queue
  v.credit = std::max<Credit>(v.credit - debit, -credit_cap_);
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kSched, [&] {
    return key_str(v.key) + " " + std::string(hw::to_string(hop)) +
           " migration P" + std::to_string(from) + "->P" + std::to_string(to) +
           " penalty=" + std::to_string(pen.v);
  });
}

std::vector<bool> Hypervisor::gang_socket_set(const Vm& v) const {
  // Sockets pinned by running members, greedily extended (largest spare
  // online-unclaimed capacity, tie lowest socket id) until the non-running
  // members fit. Both relocate_vm and the audit invariant derive
  // "minimal" from this one function, so they can never disagree.
  std::vector<bool> claimed(machine_.num_pcpus, false);
  std::vector<bool> allowed(topo_.num_sockets(), false);
  std::uint32_t remaining = 0;
  for (const Vcpu& c : v.vcpus) {
    if (c.state == VcpuState::kRunning) {
      claimed[c.where] = true;
      allowed[topo_.socket_of(c.where)] = true;
    } else {
      ++remaining;
    }
  }
  const auto spare = [&](std::uint32_t s) {
    std::uint32_t n = 0;
    for (PcpuId p : topo_.pcpus_in_socket(s))
      if (pcpus_[p].online && !claimed[p]) ++n;
    return n;
  };
  std::uint32_t capacity = 0;
  for (std::uint32_t s = 0; s < topo_.num_sockets(); ++s)
    if (allowed[s]) capacity += spare(s);
  while (capacity < remaining) {
    std::uint32_t best = topo_.num_sockets();
    std::uint32_t best_spare = 0;
    for (std::uint32_t s = 0; s < topo_.num_sockets(); ++s) {
      if (allowed[s]) continue;
      const std::uint32_t sp = spare(s);
      if (best == topo_.num_sockets() || sp > best_spare) {
        best = s;
        best_spare = sp;
      }
    }
    if (best == topo_.num_sockets() || best_spare == 0) break;
    allowed[best] = true;
    capacity += best_spare;
  }
  return allowed;
}

bool Hypervisor::gang_spans_excess_sockets(const Vm& v) const {
  if (!topo_place_active() || !cosched_eligible(v)) return false;
  const std::vector<bool> allowed = gang_socket_set(v);
  for (const Vcpu& c : v.vcpus)
    if (!allowed[topo_.socket_of(c.where)]) return true;
  return false;
}

// --- credit machinery ------------------------------------------------------

void Hypervisor::burn(Vcpu& v, Cycles elapsed) {
  // Online-time accounting only; credit is debited separately by charge().
  // The PCPU-side busy ledger moves at exactly the same instants, so
  // sum(vm.total_online) == sum(pcpu.busy_total) holds at every event (the
  // kCycleConservation invariant). `where` is the hosting PCPU: burn is
  // only ever called on the current VCPU of some PCPU.
  v.total_online += elapsed;
  vm(v.key.vm).total_online += elapsed;
  pcpus_[v.where].busy_total += elapsed;
}

void Hypervisor::attribute(Vcpu& v, Cycles span) {
  v.attributed += span;
  vm(v.key.vm).cycles_attributed += span;
}

void Hypervisor::charge(Vcpu& v, Cycles elapsed) {
  if (elapsed.v == 0) return;
  switch (resilience_.accounting) {
    case AccountingMode::kStochastic: {
      const double p = std::min(1.0, static_cast<double>(elapsed.v) /
                                         static_cast<double>(slot_len_.v));
      if (rng_.next_double() < p) {
        const CandidateWrite guard(*this, v);
        v.credit = std::max<Credit>(v.credit - kCreditPerSlot, -credit_cap_);
        attribute(v, slot_len_);
      } else {
        ++vm(v.key.vm).dodged_samples;
      }
      return;
    }
    case AccountingMode::kExact: {
      // Tickless integer-exact debit: elapsed cycles at kCreditPerSlot per
      // slot, widened through __int128, with the sub-slot remainder carried
      // on the VCPU so nothing is lost to rounding — and nothing is left
      // for a tick-dodger to dodge.
      const __int128 num =
          static_cast<__int128>(elapsed.v) * kCreditPerSlot + v.charge_carry;
      const Credit debit = static_cast<Credit>(num / slot_len_.v);
      v.charge_carry = static_cast<std::uint64_t>(num % slot_len_.v);
      const CandidateWrite guard(*this, v);
      v.credit = std::max<Credit>(v.credit - debit, -credit_cap_);
      attribute(v, elapsed);
      return;
    }
    case AccountingMode::kTickSampled:
      // Faithful vulnerable Xen: spans are never billed directly — only a
      // sampling instant (see charge(Vcpu&)) charges. A span that crossed
      // no instant since it came online escaped accounting entirely: that
      // is the tick-dodger's theft, and the meter records it. (`<=`: a
      // span that started exactly at an instant was dispatched after the
      // sample fired, so it escaped too.)
      if (pcpus_[v.where].last_sample_at <= v.online_since)
        ++vm(v.key.vm).dodged_samples;
      return;
  }
}

void Hypervisor::charge(Vcpu& v) {
  // Sampling-instant debit (kTickSampled): the VCPU caught running pays a
  // full slot regardless of how long it actually ran — Xen's classic
  // sampled accounting, billed and attributed in slot quanta.
  const CandidateWrite guard(*this, v);
  v.credit = std::max<Credit>(v.credit - kCreditPerSlot, -credit_cap_);
  attribute(v, slot_len_);
}

void Hypervisor::sample_instant(PcpuId p) {
  if (halted_) return;  // a jittered sample armed before the crash
  PcpuRec& pc = pcpus_[p];
  pc.last_sample_at = sim_.now();
  if (pc.current != nullptr) charge(*pc.current);
}

void Hypervisor::do_accounting() {
  // Overload governor boundary: restore coscheduling (after the backoff,
  // if load has fallen) before credit is assigned, so the relocations
  // below see the final eligibility for this period.
  maybe_restore_overload();
  // Memory-system contention pass (docs/MODEL.md §2.8): split the closing
  // period's busy cycles into effective + degraded and let the pressure
  // balancer swap homes — before the audit pool snapshot below, because
  // the balancer's note_migration debits credit exactly like the
  // relocations the overload restore may trigger.
  apply_contention();
  // Active set (work-conserving mode only, like Xen's csched_acct): credit
  // is divided among VMs that actually consumed CPU last period. Without
  // this, an idle VM's share is minted, capped away, and effectively
  // charged to the busy VMs, which all sink to -cap and erase the
  // UNDER/OVER distinction the dispatcher relies on. In the capped
  // (non-work-conserving) mode the paper's Equations (1)-(2) explicitly
  // include every VM's weight, so there the full set is used.
  const Cycles min_active{machine_.accounting_cycles().v / 100};
  std::uint64_t total_weight = 0;
  std::vector<bool>& active = acct_active_;
  active.assign(vms_.size(), true);
  // Jain fairness inputs for the period just closing: weighted consumption
  // of every VM that wanted or got CPU (an idle VM is not a fairness
  // participant; a starved runnable one very much is).
  std::vector<double>& shares = acct_shares_;
  shares.clear();
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    Vm& v = *vms_[i];
    if (!v.alive) {  // tombstone: earns nothing, holds nothing
      active[i] = false;
      continue;
    }
    degradation_tick(v);  // lift expired demotions, drop stale HIGH VCRDs
    // Wants to run (a queued-but-starved VM must keep earning, or
    // starvation would cut its income and become permanent)...
    bool runnable = false;
    for (const Vcpu& c : v.vcpus)
      if (c.state != VcpuState::kBlocked) {
        runnable = true;
        break;
      }
    const Cycles consumed = v.total_online - v.online_at_last_acct;
    // ...or ran: active either way (work-conserving mode only, like Xen's
    // csched_acct; the capped mode's Equations (1)-(2) use every weight).
    if (mode_ == SchedMode::kWorkConserving && slots_elapsed() > 0)
      active[i] = runnable || consumed > min_active;
    if (slots_elapsed() > 0 && (runnable || consumed.v > 0))
      shares.push_back(static_cast<double>(consumed.v) /
                       static_cast<double>(v.weight));
    v.online_at_last_acct = v.total_online;
    if (active[i]) total_weight += v.weight;
  }
  if (shares.size() >= 2) {
    double s = 0.0;
    double s2 = 0.0;
    for (const double x : shares) {
      s += x;
      s2 += x * x;
    }
    if (s2 > 0.0) {
      const double j =
          (s * s) / (static_cast<double>(shares.size()) * s2);
      fairness_min_ = std::min(fairness_min_, j);
      fairness_sum_ += j;
      ++fairness_periods_;
    }
  }
  if (total_weight == 0) {
    for (std::size_t i = 0; i < vms_.size(); ++i) {
      if (!vms_[i]->alive) continue;
      active[i] = true;
      total_weight += vms_[i]->weight;
    }
  }
  if (total_weight == 0) return;
  // Algorithm 3: Cred_total = |P| x Cred_unit x K, split by weight, spread
  // equally over each VM's VCPUs, capped so idle VMs cannot hoard. Like
  // Xen's csched_acct, the VM's residual credit is pooled and redistributed
  // equally among its VCPUs, so intra-VM divergence (from the quantized
  // tick charging) is erased every accounting period while inter-VM
  // proportions are preserved.
  const Credit total = static_cast<Credit>(
      static_cast<__int128>(machine_.num_pcpus) * kCreditPerSlot *
      machine_.slots_per_accounting);
  // The audit pool snapshot happens here — not at function entry — because
  // the overload restore and degradation ticks above may relocate a gang,
  // and a relocation's migration-penalty debit would silently shrink the
  // pool between an earlier snapshot and this read.
  audit_event(AuditPoint::kAccountingBegin);
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    Vm& v = *vms_[i];
    if (!v.alive) continue;
    const Credit inc =
        active[i]
            ? static_cast<Credit>((static_cast<__int128>(total) * v.weight) /
                                  total_weight)
            : 0;
    Credit pool = inc;
    for (const Vcpu& c : v.vcpus) pool += c.credit;
    const Credit per = pool / static_cast<Credit>(v.num_vcpus());
    for (Vcpu& c : v.vcpus) {
      const CandidateWrite guard(*this, c);
      c.credit = std::min<Credit>(per, credit_cap_);
    }
    audit_minted(v.id, inc);
    // Algorithm 3 lines 8-16 at the credit-assignment pass: repair any
    // placement drift of a gang that is gang-scheduled right now.
    if (cosched_eligible(v)) relocate_vm(v);
  }
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kCredit,
                  [] { return "accounting done"; });
}

// --- audited mutation seam --------------------------------------------------
//
// Every VcpuState write and run-queue membership change in the VMM flows
// through these three functions; asman-lint's audit-seam check rejects any
// other site. set_state reads `from` out of the record itself, so the
// transition the auditor's shadow replays is by construction the transition
// that actually happened — the two copies cannot be told different stories.
// enqueue and dequeue are also the only writers of Vcpu::queued_on, and
// count the VCPU in or out of its queue's steal candidates.

void Hypervisor::set_state(Vcpu& v, VcpuState to) {
  const VcpuState from = v.state;
  v.state = to;
  audit_transition(v.key, from, to);
}

void Hypervisor::enqueue(PcpuId p, Vcpu* v) {
  PcpuRec& pc = pcpus_[p];
  pc.runq.push(v);
  v->queued_on = p;
  if (v->steal_candidate()) ++pc.steal_candidates;
}

bool Hypervisor::dequeue(PcpuId p, Vcpu* v) {
  PcpuRec& pc = pcpus_[p];
  if (!pc.runq.remove(v)) return false;
  v->queued_on = kNotQueued;
  if (v->steal_candidate()) --pc.steal_candidates;
  return true;
}

// --- map / unmap ------------------------------------------------------------

void Hypervisor::go_online(PcpuId p, Vcpu* v) {
  PcpuRec& pc = pcpus_[p];
  assert(pc.current == nullptr);
  assert(v->state == VcpuState::kRunnable);
  if (pc.idle_marked) {
    pc.idle_total += sim_.now() - pc.idle_since;
    pc.idle_marked = false;
  }
  pc.current = v;
  set_state(*v, VcpuState::kRunning);
  v->where = p;
  v->online_since = sim_.now();
  v->slice_start = sim_.now();
  ++context_switches_;
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kSched, [&] {
    return key_str(v->key) + " online on P" + std::to_string(p);
  });
  Vm& owner = vm(v->key.vm);
  if (owner.guest) owner.guest->vcpu_online(v->key.idx);
}

Vcpu* Hypervisor::unmap_current(PcpuId p) {
  PcpuRec& pc = pcpus_[p];
  Vcpu* v = pc.current;
  assert(v != nullptr);
  const Cycles elapsed = sim_.now() - v->online_since;
  burn(*v, elapsed);
  charge(*v, elapsed);
  pc.current = nullptr;
  set_state(*v, VcpuState::kRunnable);
  // Cache-affinity bookkeeping: this PCPU now holds the VCPU's warm working
  // set (pure statistics on flat topologies — never read there).
  v->ever_ran = true;
  v->cache_home = p;
  v->cache_home_at = sim_.now();
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kSched, [&] {
    return key_str(v->key) + " offline from P" + std::to_string(p);
  });
  Vm& owner = vm(v->key.vm);
  if (owner.guest) owner.guest->vcpu_offline(v->key.idx);
  return v;
}

void Hypervisor::go_offline(PcpuId p) {
  Vcpu* v = unmap_current(p);
  enqueue(p, v);
}

void Hypervisor::rehome(Vcpu& v, PcpuId to) {
  note_migration(v, v.where, to);
  v.where = to;
  ++migrations_;
}

void Hypervisor::move_home(Vcpu& v, PcpuId to) {
  if (v.state != VcpuState::kRunnable) {
    v.where = to;  // a blocked VCPU just gets a new wake-up home
    return;
  }
  const bool removed = dequeue(v.where, &v);
  assert(removed);
  (void)removed;
  enqueue(to, &v);
  rehome(v, to);
}

bool Hypervisor::is_schedulable(const Vcpu& v) const {
  // A cosched boost overrides credit parking: the per-VM credit pool pays
  // for the aligned burst at the next accounting, so VM-level shares hold.
  return mode_ == SchedMode::kWorkConserving || v.credit >= 0 ||
         v.cosched_boost;
}

bool Hypervisor::would_collide(VmId vm_id, PcpuId p) const {
  const PcpuRec& pc = pcpus_[p];
  if (pc.current && pc.current->key.vm == vm_id) return true;
  if (pc.runq.has_vm(vm_id)) return true;
  // Blocked siblings count too: their `where` is the wake-up home Algorithm
  // 3 assigned, and a steal onto it would silently undo the pairwise-
  // distinct placement the moment the sibling kicks awake.
  for (const Vcpu& c : vm(vm_id).vcpus)
    if (c.state == VcpuState::kBlocked && c.where == p) return true;
  return false;
}

// --- dispatch (Algorithm 4) -------------------------------------------------

Vcpu* Hypervisor::steal_for(PcpuId p, bool allow_over) {
  // Topology-aware placement ranks source queues by distance first (prefer
  // same-LLC, then same-socket, then remote) and applies a penalty-adjusted
  // gain gate: a steal buys at most about one slot of progress before the
  // next scheduling event, so a warm-cache refill costing a slot or more is
  // a net loss and the candidate is skipped (counted). Flat topologies take
  // the classic distance-blind path bit-identically.
  const bool by_distance = topo_place_active();
  Vcpu* best = nullptr;
  PcpuId src = 0;
  int best_dist = 0;
  for (PcpuId q = 0; q < machine_.num_pcpus; ++q) {
    const PcpuRec& from = pcpus_[q];
    assert(candidates_exact(from.steal_candidates, from.runq, q));
    if (q == p) continue;
    if (!from.online) continue;  // offline queues are empty anyway
    // Pass 1 takes steal candidates only: a queue that holds none is
    // skipped without reading its entries.
    if (!allow_over && from.steal_candidates == 0) continue;
    const int dist =
        by_distance ? static_cast<int>(topo_.distance(q, p)) : 0;
    // Cross-socket stealing is conservative, like a NUMA sched domain: a
    // queue with a single waiter is not overloaded — its VCPU runs next
    // slot on its warm home anyway, so hauling it over the FSB trades a
    // cache refill for one slot of latency. Only genuinely backed-up
    // remote queues (two or more waiters) are worth raiding.
    if (by_distance && dist == static_cast<int>(hw::TopoDistance::kCrossSocket) &&
        from.runq.size() < 2)
      continue;
    for (Vcpu* v : from.runq.entries()) {
      // Pass 2 also takes OVER and weak-boosted VCPUs, but never a
      // gang-boosted one: an IPI promised it to its queue.
      if (allow_over ? v->cosched_boost : !v->steal_candidate()) continue;
      const bool gang = cosched_eligible(vm(v->key.vm));
      if (gang && would_collide(v->key.vm, p)) continue;
      // Never pull a packed gang's member across the FSB: the next
      // relocation would only repatriate it, paying the hop twice.
      if (by_distance && gang &&
          dist == static_cast<int>(hw::TopoDistance::kCrossSocket))
        continue;
      if (by_distance && would_be_penalty(*v, p) >= slot_len_) {
        ++topology_steal_rejects_;
        continue;
      }
      // Pressure gate: refuse a raid only when it makes contention
      // strictly worse — the destination LLC would end up deeper past
      // saturation than the candidate's current domain already is. Mere
      // fullness is not a reason: blocking every steal into a busy domain
      // pins the whole fleet to its boot homes and costs far more in lost
      // work conservation than the occupancy it saves. The demand view is
      // the engine's last published pass; same-LLC pulls move no occupancy.
      if (pressure_place_active() && !pass_.llc_demand.empty()) {
        const std::uint64_t share = vcpu_llc_share(*v);
        const std::uint32_t dest_llc = topo_.llc_of(p);
        const std::uint32_t src_llc = topo_.llc_of(v->where);
        if (share > 0 && dest_llc != src_llc) {
          const std::uint64_t cap = machine_.llc_bytes;
          const std::uint64_t dst_after = pass_.llc_demand[dest_llc] + share;
          const std::uint64_t src_now = pass_.llc_demand[src_llc];
          if (dst_after > cap &&
              dst_after - cap > (src_now > cap ? src_now - cap : 0)) {
            ++pressure_steal_rejects_;
            continue;
          }
        }
      }
      if (best == nullptr || dist < best_dist ||
          (dist == best_dist && RunQueue::better(v, best))) {
        best = v;
        src = q;
        best_dist = dist;
      }
    }
  }
  if (best) {
    dequeue(src, best);
    rehome(*best, p);
  }
  return best;
}

void Hypervisor::dispatch(PcpuId p) {
  if (halted_) return;  // deferred lifecycle dispatches after a crash
  PcpuRec& pc = pcpus_[p];
  if (!pc.online) return;  // hot-unplugged: holds no work, picks none
  Vcpu* cur = pc.current;
  if (cur && !is_schedulable(*cur)) {
    // Algorithm 4 line 2: out of credit in the capped mode -> deschedule
    // (and co-stop its gang — a half-present gang only spins).
    preempt_current(p);
    cur = nullptr;
  }

  // Keep-current rule (Xen): the current VCPU continues over a queued
  // candidate of a strictly lower class, and over a same-class candidate
  // until its round-robin timeslice (30 ms) expires.
  const auto prefer_current = [this](const Vcpu* c, const Vcpu* q) {
    if (q == nullptr) return true;
    const int cc = static_cast<int>(c->prio_class());
    const int cq = static_cast<int>(q->prio_class());
    if (cc != cq) return cc < cq;
    return sim_.now() - c->slice_start < timeslice_len_;
  };

  // Pass 1: boost/UNDER candidates only (stolen work preferred over idling).
  Vcpu* cand = pc.runq.best(/*allow_over=*/false);
  Vcpu* cur_under = (cur && static_cast<int>(cur->prio_class()) <=
                                static_cast<int>(PrioClass::kUnder))
                        ? cur
                        : nullptr;
  Vcpu* choice = nullptr;
  bool stolen = false;
  if (cur_under && prefer_current(cur_under, cand))
    choice = cur_under;
  else if (cand)
    choice = cand;
  if (choice == nullptr) {
    choice = steal_for(p, /*allow_over=*/false);
    stolen = choice != nullptr;
  }

  // Pass 2 (work-conserving only): OVER fallback, local then remote.
  if (choice == nullptr && mode_ == SchedMode::kWorkConserving) {
    Vcpu* cand_o = pc.runq.best(/*allow_over=*/true);
    if (cur && prefer_current(cur, cand_o))
      choice = cur;
    else if (cand_o)
      choice = cand_o;
    if (choice == nullptr) {
      choice = steal_for(p, /*allow_over=*/true);
      stolen = choice != nullptr;
    }
  }

  if (choice == nullptr) {
    if (cur) go_offline(p);
    if (pc.current == nullptr && !pc.idle_marked) {
      pc.idle_marked = true;
      pc.idle_since = sim_.now();
    }
    return;
  }

  if (choice != cur) {
    // Secure the choice before any co-stop cascade can re-dispatch other
    // PCPUs (they must not steal it from under us).
    if (!stolen) {
      const bool removed = dequeue(p, choice);
      assert(removed);
      (void)removed;
    }
    if (cur) preempt_current(p);
    go_online(p, choice);
  }

  // Algorithm 4 lines 5-7: the head of a coscheduled VM triggers IPIs for
  // its siblings; the mutex admits one launcher per scheduling-event
  // instant (per-PCPU ticks at distinct times are distinct events).
  // Strict mode drops the paper's per-VCPU "credit >= 0" gate: with per-VM
  // credit pooling the meaningful entitlement is the VM's, and co-stop
  // enforces it — any legitimately dispatched member launches, otherwise a
  // member picked from spare (OVER) capacity in work-conserving mode would
  // run alone for up to an accounting period. Relaxed mode has no co-stop
  // backstop, so it keeps the paper's gate (an ungated boost would
  // self-sustain and starve other VMs).
  const bool entitled = strictness_ == Strictness::kStrict
                            ? true
                            : choice->credit >= 0;
  if (entitled && cosched_eligible(vm(choice->key.vm)) &&
      cosched_mutex_at_ != sim_.now()) {
    cosched_mutex_at_ = sim_.now();
    ++cosched_events_;
    launch_cosched(p, *choice);
  }
}

void Hypervisor::redispatch(PcpuId p) {
  dispatch(p);
  PcpuRec& pc = pcpus_[p];
  if (pc.current == nullptr && !pc.idle_marked) {
    pc.idle_marked = true;
    pc.idle_since = sim_.now();
  }
}

void Hypervisor::dispatch_idle(PcpuId first) {
  for (PcpuId i = 0; i < machine_.num_pcpus; ++i) {
    const PcpuId p = (first + i) % machine_.num_pcpus;
    if (pcpus_[p].online && pcpus_[p].current == nullptr) dispatch(p);
  }
}

void Hypervisor::refresh_cosched_boost(Vcpu& v, bool weak) {
  const CandidateWrite guard(*this, v);
  v.cosched_boost = true;
  v.cosched_weak = weak;
  sim_.cancel_timer(v.cosched_clear_ev);
  v.cosched_clear_ev = sim_.after(slot_len_, [this, &v] {
    const CandidateWrite expiry(*this, v);  // v may sit in a queue by now
    v.cosched_boost = false;
    v.cosched_clear_ev = {};
  });
}

void Hypervisor::preempt_current(PcpuId p) {
  Vcpu* cur = pcpus_[p].current;
  assert(cur != nullptr);
  Vm& owner = vm(cur->key.vm);
  go_offline(p);
  if (strictness_ == Strictness::kStrict && !in_co_stop_ &&
      cosched_eligible(owner))
    co_stop(owner);
}

void Hypervisor::co_stop(Vm& v) {
  if (in_co_stop_) return;
  in_co_stop_ = true;
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kCosched,
                  [&] { return v.name + " co-stop"; });
  for (Vcpu& w : v.vcpus) {
    sim_.cancel_timer(w.cosched_clear_ev);
    const CandidateWrite guard(*this, w);
    w.cosched_boost = false;
    w.cosched_weak = false;
  }
  // Deschedule every running member and let each PCPU re-pick: if the gang
  // is still the best claimant it resumes whole (and the head re-launches
  // boosts); otherwise it stops whole.
  for (Vcpu& w : v.vcpus) {
    if (w.state != VcpuState::kRunning) continue;
    const PcpuId p = w.where;
    go_offline(p);
    redispatch(p);
  }
  in_co_stop_ = false;
}

void Hypervisor::launch_cosched(PcpuId from, Vcpu& head) {
  Vm& gang = vm(head.key.vm);
  // A launch from an entitled head (credit >= 0) is "strong": its IPIs may
  // preempt whatever runs on the siblings' PCPUs, and the gang's OVER tail
  // (a still-strongly-boosted head, paid from the VM's credit pool until
  // co-stop) keeps re-launching strong. A launch from an *unboosted* head
  // dispatched out of spare (OVER) capacity — work-conserving mode only —
  // is "weak": it aligns the gang on capacity nobody entitled is using,
  // but must not displace UNDER VCPUs of other VMs.
  const bool strong =
      head.credit >= 0 || (head.cosched_boost && !head.cosched_weak);
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kCosched, [&] {
    return "cosched launch " + gang.name + " from P" + std::to_string(from) +
           (strong ? " (strong)" : " (weak)");
  });
  const std::uint32_t vector = gang.id * 2 + (strong ? 1u : 0u);
  for (Vcpu& w : gang.vcpus) {
    if (&w == &head) continue;
    if (w.state == VcpuState::kBlocked) continue;  // idle in the guest
    if (w.state == VcpuState::kRunning) {
      // Already online: refresh its boost so the gang stays intact.
      refresh_cosched_boost(w, !strong);
      continue;
    }
    ipi_.send(from, w.where, vector);
    // On a lossy bus the IPI may never arrive; arm a bounded-retry ack
    // check for this sibling. Fault-free buses skip the machinery entirely
    // so the event stream (and thus the run) stays bit-identical.
    if (ipi_.lossy()) {
      const VmId id = gang.id;
      const std::uint32_t vidx = w.key.idx;
      sim_.after(machine_.ipi_latency() * kIpiAckLatencies,
                 [this, id, vidx, strong] {
                   ipi_ack_check(id, vidx, 1, strong);
                 });
    }
  }
  // Strict gangs additionally get a co-stop watchdog: if a sibling never
  // arrives (lost IPI, crashed VCPU) the gang must not hold its PCPUs
  // hostage forever. Armed only when faults are in play.
  if (strictness_ == Strictness::kStrict && degradation_armed())
    arm_gang_watchdog(gang);
}

void Hypervisor::ipi_handler(PcpuId target, std::uint32_t vector) {
  if (halted_) return;  // in-flight on the bus when the host crashed
  const VmId vm_id = vector / 2;
  const bool strong = (vector & 1u) != 0;
  // Find the gang member this IPI was aimed at; it may have been dispatched
  // or migrated during the bus latency, in which case there is nothing to do.
  PcpuRec& pc = pcpus_[target];
  Vcpu* sib = nullptr;
  for (Vcpu* v : pc.runq.entries()) {
    if (v->key.vm != vm_id) continue;
    if (sib == nullptr || RunQueue::better(v, sib)) sib = v;
  }
  if (sib == nullptr) return;
  if (pc.current != nullptr) {
    if (pc.current->key.vm == vm_id) return;  // gang already online here
    if (pc.current->prio_class() == PrioClass::kCosched)
      return;  // never preempt another gang's boosted member
    if (!strong && pc.current->credit >= 0)
      return;  // weak (spare-capacity) boosts never displace UNDER VCPUs
    // Secure the sibling before preempting: the victim's co-stop cascade
    // re-dispatches other PCPUs, which must not steal it from under us.
    dequeue(target, sib);
    in_scheduler_ = true;
    preempt_current(target);
    in_scheduler_ = false;
    if (pc.current != nullptr) {
      enqueue(target, sib);  // the cascade refilled this PCPU
      audit_event(AuditPoint::kIpi);
      return;
    }
  } else {
    dequeue(target, sib);
  }
  refresh_cosched_boost(*sib, !strong);
  in_scheduler_ = true;
  go_online(target, sib);
  in_scheduler_ = false;
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kCosched, [&] {
    return key_str(sib->key) + " cosched-boosted on P" + std::to_string(target);
  });
  audit_event(AuditPoint::kIpi);
}

void Hypervisor::pcpu_tick(PcpuId p) {
  if (halted_) return;  // crashed host: the tick chain ends here
  in_scheduler_ = true;
  PcpuRec& pc = pcpus_[p];
  ++pc.ticks;
  // Wake boosts last until the next scheduling event on the holding PCPU.
  // Cosched boosts expire on their own one-slot timer and are refreshed by
  // the gang head's scheduling events, so a live gang sustains itself.
  const auto clear_wake_boost = [this](Vcpu& v) {
    if (!v.wake_boost) return;
    const CandidateWrite guard(*this, v);
    v.wake_boost = false;
  };
  if (pc.current) clear_wake_boost(*pc.current);
  for (Vcpu* v : pc.runq.entries()) clear_wake_boost(*v);
  // Sampled accounting bills at sampling instants, not spans: at the tick
  // itself (faithful vulnerable Xen), or — hardened — at a seeded-random
  // offset inside the coming slot, where a tick-grid dodger cannot aim.
  if (resilience_.accounting == AccountingMode::kTickSampled) {
    if (!resilience_.sample_offset_jitter)
      sample_instant(p);
    else
      sim_.after(Cycles{rng_.next_below(slot_len_.v)},
                 [this, p] { sample_instant(p); });
  }
  // Account online time and charge whoever is running at the tick.
  if (pc.current) {
    const Cycles elapsed = sim_.now() - pc.current->online_since;
    burn(*pc.current, elapsed);
    charge(*pc.current, elapsed);
    pc.current->online_since = sim_.now();
  }
  // Co-stop check: a gang whose last member ran out of credit is
  // descheduled as a unit (boosted or not — unboosted heads parking one by
  // one would leave partial gangs spinning on absent peers).
  if (strictness_ == Strictness::kStrict && pc.current &&
      pc.current->credit < 0) {
    Vm& owner = vm(pc.current->key.vm);
    if (cosched_eligible(owner)) {
      bool any_entitled = false;
      for (const Vcpu& w : owner.vcpus)
        if (w.credit >= 0) {
          any_entitled = true;
          break;
        }
      if (!any_entitled) co_stop(owner);
    }
  }
  dispatch(p);
  in_scheduler_ = false;
  audit_event(AuditPoint::kTick);
  // Timer-tick jitter (fault injection): the hook shifts the next tick of
  // this PCPU; with no hook, or no jitter drawn, the cadence is the exact
  // slot length and the tick re-arms its own event in the slot lane.
  const Cycles jitter = fault_hook_ ? fault_hook_->tick_jitter(p) : Cycles{0};
  if (jitter.v == 0)
    sim_.rearm(tick_lane_);
  else
    sim_.rearm(slot_len_ + jitter);
}

void Hypervisor::accounting_event() {
  if (halted_) return;  // crashed host: the accounting chain ends here
  in_scheduler_ = true;
  do_accounting();
  // Newly topped-up (unparked) VCPUs may be waiting while PCPUs idle.
  dispatch_idle(dispatch_start_);
  dispatch_start_ = (dispatch_start_ + 1) % machine_.num_pcpus;
  in_scheduler_ = false;
  audit_event(AuditPoint::kAccountingEnd);
  sim_.rearm(accounting_lane_);
}

// --- hypercalls --------------------------------------------------------------

void Hypervisor::do_vcrd_op(VmId id, Vcrd vcrd) {
  // Validate before the re-entrancy defer so a rejected hypercall is
  // counted exactly once. A guest (or the fault injector impersonating
  // one) may pass any VmId / any enum bit pattern; garbage must bounce
  // without touching scheduler state.
  if (halted_ || id >= vms_.size() || !vms_[id]->alive ||
      (vcrd != Vcrd::kLow && vcrd != Vcrd::kHigh)) {
    ++hypercall_rejects_;
    sim::note_trace(trace_, sim_.now(), sim::TraceCat::kMonitor, [&] {
      return "do_vcrd_op rejected (vm=" + std::to_string(id) + " vcrd=" +
             std::to_string(static_cast<int>(vcrd)) + ")";
    });
    return;
  }
  if (in_scheduler_) {
    sim_.after(Cycles{0}, [this, id, vcrd] { do_vcrd_op(id, vcrd); });
    return;
  }
  Vm& v = vm(id);
  // Plausibility clamp: a HIGH claim must be backed by hardware-observable
  // spin evidence (recent yield hints). A lying guest's claim is rejected
  // before it can refresh the TTL or win gang privileges; honest spinning
  // guests yield every GuestKernel::kSpinYieldPeriod and clear the floor.
  if (vcrd == Vcrd::kHigh && resilience_.vcrd_min_yields > 0) {
    const std::uint64_t recent =
        v.yields.recent(sim_.now(), slot_len_ * kVcrdCheckSlots);
    if (recent < resilience_.vcrd_min_yields) {
      ++v.implausible_vcrds;
      sim::note_trace(trace_, sim_.now(), sim::TraceCat::kMonitor, [&] {
        return v.name + " VCRD HIGH claim rejected (" + std::to_string(recent) +
               " recent yields < " +
               std::to_string(resilience_.vcrd_min_yields) + ")";
      });
      return;
    }
  }
  v.vcrd_last_report = sim_.now();  // feeds the staleness TTL
  if (v.vcrd == vcrd) return;
  const Vcrd previous = v.vcrd;
  v.vcrd = vcrd;
  if (vcrd == Vcrd::kHigh) {
    ++v.vcrd_high_transitions;
    v.vcrd_high_since = sim_.now();
    note_flap(v);  // may demote a flapping guest before any relocation
  } else {
    v.vcrd_high_time += sim_.now() - v.vcrd_high_since;
  }
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kMonitor, [&] {
    return v.name + " VCRD -> " + to_string(vcrd);
  });
  on_vcrd_changed(v, previous);
  audit_event(AuditPoint::kVcrdOp);
}

void Hypervisor::vcpu_block(VmId id, std::uint32_t vidx) {
  // A destroyed VM's guest may still have in-flight events; its hypercalls
  // bounce here (counted) and the tombstone stays untouched. A halted
  // (crashed) host bounces everything.
  if (halted_ || id >= vms_.size() || !vms_[id]->alive ||
      vidx >= vm(id).vcpus.size()) {
    ++hypercall_rejects_;
    return;
  }
  if (in_scheduler_) {
    sim_.after(Cycles{0}, [this, id, vidx] { vcpu_block(id, vidx); });
    return;
  }
  Vcpu& v = vm(id).vcpus[vidx];
  switch (v.state) {
    case VcpuState::kBlocked:
    case VcpuState::kDestroyed:  // unreachable: alive-guarded above
      return;
    case VcpuState::kRunning: {
      const PcpuId p = v.where;
      in_scheduler_ = true;
      Vcpu* u = unmap_current(p);
      set_state(*u, VcpuState::kBlocked);
      redispatch(p);
      in_scheduler_ = false;
      audit_event(AuditPoint::kBlock);
      return;
    }
    case VcpuState::kRunnable: {
      const bool removed = dequeue(v.where, &v);
      assert(removed);
      (void)removed;
      set_state(v, VcpuState::kBlocked);
      audit_event(AuditPoint::kBlock);
      return;
    }
  }
}

void Hypervisor::vcpu_kick(VmId id, std::uint32_t vidx) {
  if (halted_ || id >= vms_.size() || !vms_[id]->alive ||
      vidx >= vm(id).vcpus.size()) {
    ++hypercall_rejects_;
    return;
  }
  if (in_scheduler_) {
    sim_.after(Cycles{0}, [this, id, vidx] { vcpu_kick(id, vidx); });
    return;
  }
  Vcpu& v = vm(id).vcpus[vidx];
  if (v.crashed) {
    ++ignored_kicks_;  // a crashed VCPU stays blocked forever
    return;
  }
  if (vm(id).paused) {
    // Stop-and-copy downtime window: the wake is latched, not enqueued;
    // resume_vm replays it so no work is lost across the pause.
    v.paused_pending = true;
    return;
  }
  if (v.state != VcpuState::kBlocked) return;
  set_state(v, VcpuState::kRunnable);
  // Xen-style BOOST only for UNDER VCPUs, metered and (when the limiter is
  // armed) rate-limited per VM: sleep/wake oscillation cannot farm
  // unbounded wake-priority (arXiv 1103.0759's BOOST abuse).
  {
    const CandidateWrite guard(*this, v);
    v.wake_boost = v.credit > 0 && grant_boost(vm(id));
  }
  // The wake home went offline while this VCPU was blocked; re-home it
  // lazily now (credit travels with the VCPU).
  if (!pcpus_[v.where].online) rehome(v, pick_online_home(id, v.where));
  const PcpuId home = v.where;
  enqueue(home, &v);
  in_scheduler_ = true;
  Vcpu* cur = pcpus_[home].current;
  if (cur == nullptr) {
    dispatch(home);
  } else if (v.wake_boost && static_cast<int>(v.prio_class()) <
                                 static_cast<int>(cur->prio_class())) {
    preempt_current(home);
    dispatch(home);
  }
  in_scheduler_ = false;
  audit_event(AuditPoint::kKick);
}

// --- Algorithm 3 lines 8-16 ---------------------------------------------------

void Hypervisor::relocate_vm(Vm& v) {
  // Under topology-aware placement non-running members may only land inside
  // the greedily-minimal socket set, so a HIGH-VCRD gang packs within a
  // socket when it fits instead of spreading across the machine. An empty
  // set (flat placement) allows every socket and allocates nothing.
  const std::vector<bool> allowed =
      topo_place_active() ? gang_socket_set(v) : std::vector<bool>{};
  const auto usable = [&](PcpuId p) {
    return pcpus_[p].online &&
           (allowed.empty() || allowed[topo_.socket_of(p)]);
  };
  std::vector<bool> claimed(machine_.num_pcpus, false);
  // Running VCPUs pin their PCPU.
  for (const Vcpu& c : v.vcpus)
    if (c.state == VcpuState::kRunning) claimed[c.where] = true;
  for (Vcpu& c : v.vcpus) {
    if (c.state == VcpuState::kRunning) continue;
    if (!claimed[c.where] && usable(c.where)) {
      claimed[c.where] = true;
      continue;
    }
    // Choose the least-loaded unclaimed usable PCPU (lowest id breaks ties).
    PcpuId dest = machine_.num_pcpus;
    std::size_t best_load = 0;
    for (PcpuId p = 0; p < machine_.num_pcpus; ++p) {
      if (claimed[p] || !usable(p)) continue;
      const std::size_t load = pcpus_[p].runq.size();
      if (dest == machine_.num_pcpus || load < best_load) {
        dest = p;
        best_load = load;
      }
    }
    if (dest == machine_.num_pcpus) break;  // more VCPUs than capacity
    move_home(c, dest);
    claimed[dest] = true;
  }
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kCosched,
                  [&] { return v.name + " relocated"; });
  audit_relocated(v.id);
}

// --- fault-injection entry points --------------------------------------------

void Hypervisor::fault_pcpu_offline(PcpuId p) {
  if (p >= machine_.num_pcpus || !pcpus_[p].online) return;
  if (online_pcpus_ <= 1) {
    sim::note_trace(trace_, sim_.now(), sim::TraceCat::kSched, [&] {
      return "P" + std::to_string(p) + " offline refused (last online PCPU)";
    });
    return;
  }
  faults_armed_ = true;
  ++pcpu_offline_events_;
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kSched, [&] {
    return "P" + std::to_string(p) + " offline";
  });
  PcpuRec& pc = pcpus_[p];
  in_scheduler_ = true;
  // Preempt whoever is running (through the normal burn/charge/requeue
  // path) so it joins the queue and is evacuated with everyone else.
  Vm* victim = nullptr;
  if (pc.current != nullptr) {
    victim = &vm(pc.current->key.vm);
    go_offline(p);
  }
  pc.online = false;
  --online_pcpus_;
  // Fewer online PCPUs means a higher weighted load per PCPU; the overload
  // governor may need to shed coscheduling before the evacuation lands.
  maybe_shed_overload();
  // Evacuate the run queue onto online PCPUs, credit intact — credit is
  // per-VCPU state and travels with the record, so conservation holds.
  const std::vector<Vcpu*> evac = pc.runq.entries();
  for (Vcpu* w : evac) {
    dequeue(p, w);
    // Near the dying PCPU: under topology-aware placement evacuees prefer
    // the sibling LLC/socket so their caches stay as warm as possible.
    rehome(*w, pick_online_home(w->key.vm, p));
    enqueue(w->where, w);
    ++evacuated_vcpus_;
  }
  if (!pc.idle_marked) {
    pc.idle_marked = true;
    pc.idle_since = sim_.now();
  }
  // A strict gang that lost a member (or no longer fits the machine) must
  // not keep partial boosts; release it and let stock rules re-pick.
  if (victim && strictness_ == Strictness::kStrict && !in_co_stop_ &&
      wants_cosched(*victim))
    co_stop(*victim);
  // Idle online PCPUs pick up the evacuees right away.
  dispatch_idle(0);
  in_scheduler_ = false;
  audit_event(AuditPoint::kHotplug);
}

void Hypervisor::fault_pcpu_online(PcpuId p) {
  if (p >= machine_.num_pcpus || pcpus_[p].online) return;
  pcpus_[p].online = true;
  ++online_pcpus_;
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kSched, [&] {
    return "P" + std::to_string(p) + " online";
  });
  in_scheduler_ = true;
  // Load per online PCPU just fell; the governor may restore coscheduling
  // (still gated by the shed backoff).
  maybe_restore_overload();
  // Gangs that were infeasible while this PCPU was down were evacuated onto
  // shared homes; now that they fit again, spread them back out before any
  // launch (or audit pass) sees a double-booked PCPU. Under topology-aware
  // placement a gang squeezed across extra sockets repacks too.
  for (const auto& vp : vms_) respread_gang(*vp);
  dispatch(p);  // steal work immediately instead of idling until its tick
  in_scheduler_ = false;
  audit_event(AuditPoint::kHotplug);
}

void Hypervisor::fault_crash_vcpu(VmId vm_id, std::uint32_t vidx) {
  if (vm_id >= vms_.size() || !vms_[vm_id]->alive ||
      vidx >= vm(vm_id).vcpus.size()) return;
  Vm& owner = vm(vm_id);
  Vcpu& v = owner.vcpus[vidx];
  if (v.crashed) return;
  v.crashed = true;
  faults_armed_ = true;
  sim::note_trace(trace_, sim_.now(), sim::TraceCat::kSched, [&] {
    return key_str(v.key) + " crashed";
  });
  in_scheduler_ = true;
  // Park it (already blocked: the crashed flag pins it there); a member
  // crashed while running releases its strict gang and frees its PCPU.
  const PcpuId p = v.where;
  if (park_vcpu(v)) {
    if (strictness_ == Strictness::kStrict && !in_co_stop_ &&
        cosched_eligible(owner))
      co_stop(owner);
    redispatch(p);
  }
  in_scheduler_ = false;
  audit_event(AuditPoint::kFault);
}

}  // namespace asman::vmm
