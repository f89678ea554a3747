// Memory-system contention: footprint registry, the per-accounting-period
// contention pass, and the pressure balancer (docs/MODEL.md §2.8).
//
// apply_contention is the ONLY writer of the pressure ledger
// (Vcpu::pressure_mark, Vm::pressure_{accounted,degraded,effective} and the
// machine totals) — asman-lint's audit-seam check enforces that lexically,
// the same way it pins credit writes to the accounting paths. The split is
// exact by construction: degraded is an integer floor of busy x ppm and
// effective is the difference, so accounted == degraded + effective can
// only break if someone bypasses this seam — which is precisely what the
// pressure-conservation invariant exists to catch.
#include <algorithm>
#include <string>
#include <vector>

#include "vmm/hypervisor.h"

namespace asman::vmm {

namespace {

/// Balancer hysteresis, cooldown half: at most one home swap per this many
/// engine periods, so a borderline imbalance cannot ping-pong a VM between
/// sockets faster than its cache refills amortize.
constexpr std::uint64_t kPressureRebalanceCooldown = 4;

/// Balancer hysteresis, band half: the hottest socket must carry at least
/// this fraction of one LLC in *unserved* occupancy beyond the coolest
/// before a swap is considered (divisor applied to MachineConfig::llc_bytes).
constexpr std::uint64_t kPressureBandDivisor = 4;

const hw::memsys::MemFootprint kZeroFootprint{};

}  // namespace

void Hypervisor::set_vm_footprint(VmId id, const hw::memsys::MemFootprint& fp) {
  if (footprints_.size() <= id) footprints_.resize(id + 1);
  footprints_[id] = fp;
  if (fp.zero()) return;
  if (!footprints_seen_) {
    // First nonzero footprint: the machine must declare the finite
    // capacities the engine prices against. Zero capacities would silently
    // disable the engine while the workload model promises contention, so
    // they are counted, reported typed errors instead.
    for (const hw::ConfigIssue& issue :
         hw::validate_footprint_config(machine_, /*footprint_declared=*/true)) {
      ++footprint_config_errors_;
      sim::note_trace(trace_, sim_.now(), sim::TraceCat::kSched, [&] {
        return "footprint config error: " + issue.what;
      });
    }
  }
  footprints_seen_ = true;
}

const hw::memsys::MemFootprint& Hypervisor::vm_footprint(VmId id) const {
  return id < footprints_.size() ? footprints_[id] : kZeroFootprint;
}

std::uint64_t Hypervisor::vcpu_llc_share(const Vcpu& v) const {
  const hw::memsys::MemFootprint& fp = vm_footprint(v.key.vm);
  if (fp.zero()) return 0;
  return hw::memsys::vcpu_ws_share(fp.working_set_bytes,
                                   vm(v.key.vm).num_vcpus(), v.key.idx);
}

void Hypervisor::apply_contention() {
  if (!pressure_cost_active()) return;
  // Engine input from authoritative placement: one VmLoad per VmId slot —
  // tombstones contribute nothing but keep indices aligned, so the auditor
  // can recompute the identical matrix from the same public state. Blocked
  // VCPUs keep their wake homes in the load (their data stays resident).
  std::vector<hw::memsys::VmLoad>& loads = contention_loads_;
  loads.resize(vms_.size());
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    hw::memsys::VmLoad& load = loads[i];
    load.clear();
    const Vm& m = *vms_[i];
    if (!m.alive) continue;
    const hw::memsys::MemFootprint& fp = vm_footprint(m.id);
    if (fp.zero()) continue;
    load.fp = &footprints_[m.id];
    load.vcpu_llc.reserve(m.vcpus.size());
    load.vcpu_socket.reserve(m.vcpus.size());
    for (const Vcpu& c : m.vcpus) {
      load.vcpu_llc.push_back(topo_.llc_of(c.where));
      load.vcpu_socket.push_back(topo_.socket_of(c.where));
    }
  }
  hw::memsys::compute_contention(topo_, machine_.llc_bytes,
                                 machine_.socket_mem_bw_bytes_per_s, loads,
                                 pass_);
  ++pressure_periods_;

  // Ledger pass: split each VCPU's busy cycles since its mark into
  // effective + degraded at the slowdown its home domain earned this
  // period. Zero-footprint VMs are accounted at zero slowdown — their
  // cycles still enter the ledger, so conservation spans the whole fleet.
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    Vm& m = *vms_[i];
    if (!m.alive) continue;
    const bool has_fp = loads[i].fp != nullptr;
    for (Vcpu& c : m.vcpus) {
      const std::uint64_t delta = (c.total_online - c.pressure_mark).v;
      c.pressure_mark = c.total_online;
      if (delta == 0) continue;
      std::uint32_t ppm = 0;
      if (has_fp) {
        const std::uint32_t l = topo_.llc_of(c.where);
        const std::uint32_t s = topo_.socket_of(c.where);
        ppm = hw::memsys::slowdown_ppm(pass_.vm_llc_extra_miss[i][l],
                                       pass_.socket_bw_ppm[s]);
      }
      const std::uint64_t d = hw::memsys::degraded_cycles(delta, ppm);
      m.pressure_accounted += delta;
      m.pressure_degraded += d;
      m.pressure_effective += delta - d;
      pressure_accounted_total_ += delta;
      pressure_degraded_total_ += d;
      pressure_effective_total_ += delta - d;
    }
  }

  // Audit first, balance second: the sink recomputes the published pass
  // from authoritative placement, so homes must not move between
  // compute_contention and the hook. The balancer's swaps are then checked
  // by the regular full scans and the next engine pass.
  audit_contention();
  if (pressure_place_active()) maybe_rebalance_pressure();
}

void Hypervisor::maybe_rebalance_pressure() {
  const std::uint32_t n_sockets = topo_.num_sockets();
  if (n_sockets < 2) return;
  if (last_pressure_rebalance_period_ != 0 &&
      pressure_periods_ - last_pressure_rebalance_period_ <
          kPressureRebalanceCooldown)
    return;

  // Pressure signal per socket: occupancy bytes demanded but not granted
  // on its LLC domains. (Bandwidth relief follows occupancy relief — the
  // extra misses an evicted set suffers *are* the extra bus traffic.)
  std::vector<std::uint32_t> socket_of_llc(topo_.num_llcs(), 0);
  for (PcpuId p = 0; p < machine_.num_pcpus; ++p)
    socket_of_llc[topo_.llc_of(p)] = topo_.socket_of(p);
  std::vector<std::uint64_t> unserved(n_sockets, 0);
  for (std::uint32_t l = 0; l < topo_.num_llcs(); ++l)
    unserved[socket_of_llc[l]] += pass_.llc_demand[l] - pass_.llc_granted[l];

  std::uint32_t hot = 0;
  std::uint32_t cool = 0;
  for (std::uint32_t s = 1; s < n_sockets; ++s) {
    if (unserved[s] > unserved[hot]) hot = s;
    if (unserved[s] < unserved[cool]) cool = s;
  }
  // Hysteresis band: only divergence past a quarter-LLC of unserved bytes
  // justifies paying a migration (and the cooldown above keeps even that
  // from oscillating).
  if (unserved[hot] <
      unserved[cool] + machine_.llc_bytes / kPressureBandDivisor)
    return;

  // Destination headroom: the cool socket's LLC capacity minus what its
  // domains already hold. A victim that does not fit would only trade one
  // overflow for another (and then swap straight back after the cooldown
  // — the ping-pong the hysteresis exists to prevent), so oversized VMs
  // are never balancer candidates.
  std::uint64_t cool_capacity = 0;
  std::uint64_t cool_demand = 0;
  for (std::uint32_t l = 0; l < topo_.num_llcs(); ++l) {
    if (socket_of_llc[l] != cool) continue;
    cool_capacity += machine_.llc_bytes;
    cool_demand += pass_.llc_demand[l];
  }

  // Victim: the footprint-heaviest non-gang VM homed (by VCPU plurality)
  // on the hot socket that still fits the cool socket's headroom. Gang
  // VMs are excluded — their placement belongs to Algorithm 3's
  // relocation, and yanking members would undo the pairwise-distinct
  // packing the topology-placement invariant checks.
  Vm* victim = nullptr;
  for (const auto& mp : vms_) {
    Vm& m = *mp;
    if (!m.alive || m.paused || cosched_eligible(m)) continue;
    const hw::memsys::MemFootprint& fp = vm_footprint(m.id);
    if (fp.zero()) continue;
    if (cool_demand + fp.working_set_bytes > cool_capacity) continue;
    std::vector<std::uint32_t> homes(n_sockets, 0);
    for (const Vcpu& c : m.vcpus) ++homes[topo_.socket_of(c.where)];
    const std::uint32_t home_socket = static_cast<std::uint32_t>(
        std::max_element(homes.begin(), homes.end()) - homes.begin());
    if (home_socket != hot) continue;
    if (victim == nullptr ||
        fp.working_set_bytes >
            vm_footprint(victim->id).working_set_bytes)
      victim = &m;
  }
  if (victim == nullptr) return;
  if (rebalance_vm_to_socket(*victim, cool)) {
    ++pressure_rebalances_;
    last_pressure_rebalance_period_ = pressure_periods_;
    sim::note_trace(trace_, sim_.now(), sim::TraceCat::kSched, [&] {
      return victim->name + " rebalanced to socket " + std::to_string(cool) +
             " (pressure)";
    });
  }
}

bool Hypervisor::rebalance_vm_to_socket(Vm& v, std::uint32_t socket) {
  bool moved = false;
  for (Vcpu& c : v.vcpus) {
    // Running members stay (a pressure swap is advisory, never a preempt);
    // they follow at their next natural requeue via the steal gate's view
    // of the new demand. Crashed members are parked forever — moving their
    // wake home is pointless.
    if (c.state == VcpuState::kRunning || c.crashed) continue;
    if (topo_.socket_of(c.where) == socket) continue;
    // Least-loaded online PCPU on the destination socket (tie: lowest id).
    PcpuId dest = machine_.num_pcpus;
    std::size_t best_load = 0;
    for (const PcpuId p : topo_.pcpus_in_socket(socket)) {
      if (!pcpus_[p].online) continue;
      const std::size_t load = pcpus_[p].runq.size();
      if (dest == machine_.num_pcpus || load < best_load) {
        dest = p;
        best_load = load;
      }
    }
    if (dest == machine_.num_pcpus) return moved;  // socket fully offline
    move_home(c, dest);
    moved = true;
  }
  if (moved) audit_relocated(v.id);
  return moved;
}

}  // namespace asman::vmm
