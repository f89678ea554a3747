// Deterministic memory-system contention engine (docs/MODEL.md §2.8).
//
// Once per accounting period the hypervisor feeds this pure function the
// authoritative placement state — each VM's footprint and its VCPUs'
// home LLC/socket — and finite capacities (LLC bytes per domain, memory
// bandwidth per socket). It computes:
//
//   * per-LLC occupancy: each VM demands its working set split equally
//     over its VCPU homes; when an LLC's total demand exceeds capacity
//     the capacity is partitioned footprint-proportionally with a
//     largest-remainder pass, so Σ granted == min(capacity, Σ demand)
//     EXACTLY — the partition half of the pressure-conservation
//     invariant,
//   * per-(VM, LLC) extra miss rate: the footprint's piecewise curve
//     evaluated at the achieved residency, minus the standalone baseline,
//   * per-socket bandwidth demand (misses drive bus traffic) and the
//     stall fraction when a socket's demand overshoots its capacity.
//
// Everything is integer arithmetic widened through __int128; no RNG is
// drawn and no float is formed, so the charging stream is untouched and
// aware-vs-blind runs differ only by policy. The same function is called
// by the hypervisor to apply the slowdown and by the auditor to recompute
// the partition from scratch — one definition, two consumers, the same
// shared-spec idiom as vmm/state_spec.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/bounds_spec.h"
#include "hw/memsys/footprint.h"
#include "hw/topology.h"

namespace asman::hw::memsys {

/// Slowdown cost of contention-induced cache misses: parts-per-million of
/// cycles degraded per permille of extra misses. 400 ppm/permille means a
/// workload pushed from 10 % to 60 % misses loses 20 % of its cycles.
inline constexpr std::uint32_t kSlowdownPpmPerExtraMissPermille = 400;

/// Ceiling on the combined (LLC + bandwidth) slowdown: even a thrashing
/// VCPU keeps at least 20 % of its cycles effective.
inline constexpr std::uint32_t kMaxSlowdownPpm = 800'000;

// Both constants are pinned as (exact) bounds-spec entries so the
// value-range proof prices ppm math with the real values.
static_assert(
    core::bounds_of(core::field::kSlowdownPpmPerExtraMissPermille)->lo ==
        kSlowdownPpmPerExtraMissPermille &&
    core::bounds_of(core::field::kSlowdownPpmPerExtraMissPermille)->hi ==
        kSlowdownPpmPerExtraMissPermille);
static_assert(core::bounds_of(core::field::kMaxSlowdownPpm)->lo ==
                  kMaxSlowdownPpm &&
              core::bounds_of(core::field::kMaxSlowdownPpm)->hi ==
                  kMaxSlowdownPpm);

/// One VM's placement as the engine sees it. `fp == nullptr` (or a zero
/// footprint) contributes nothing; vcpu_llc/vcpu_socket are the home
/// domains of every VCPU (blocked VCPUs keep their data resident, so
/// their wake homes count).
struct VmLoad {
  const MemFootprint* fp{nullptr};
  std::vector<std::uint32_t> vcpu_llc;
  std::vector<std::uint32_t> vcpu_socket;

  void clear() {  // keeps capacity, so a reused load allocates nothing
    fp = nullptr;
    vcpu_llc.clear();
    vcpu_socket.clear();
  }
};

/// The engine's published result for one accounting period.
struct ContentionPass {
  std::vector<std::uint64_t> llc_demand;   // per LLC, bytes demanded
  std::vector<std::uint64_t> llc_granted;  // per LLC, bytes granted
  std::vector<std::uint64_t> socket_bw_demand;  // per socket, bytes/s
  std::vector<std::uint32_t> socket_bw_ppm;     // per socket, stall ppm
  // Occupancy partition, indexed [vm][llc]; granted is a partition of the
  // demand matrix (granted <= demand elementwise, columns sum to
  // llc_granted exactly).
  std::vector<std::vector<std::uint64_t>> vm_llc_demand;
  std::vector<std::vector<std::uint64_t>> vm_llc_granted;
  // Extra misses (permille) for a VCPU of [vm] homed on [llc].
  std::vector<std::vector<std::uint32_t>> vm_llc_extra_miss;
  // Not part of the result: compute_contention's largest-remainder
  // (remainder, vm) scratch, kept with the pass so refills reuse it.
  std::vector<std::pair<std::uint64_t, std::size_t>> remainders;
};

/// Working-set share VCPU `idx` of an `n`-VCPU VM parks on its home LLC:
/// truncating equal split with the remainder pinned on VCPU 0, so the
/// shares sum to `ws` exactly (the demand matrix must itself be exact for
/// the partition invariant to mean anything). Shared with the scheduler's
/// steal gate and placement spread so policy and engine agree byte-for-byte.
inline std::uint64_t vcpu_ws_share(std::uint64_t ws, std::size_t n,
                                   std::size_t idx) {
  if (n == 0) return 0;
  const std::uint64_t per = ws / n;
  return idx == 0 ? per + ws % n : per;
}

/// Compute one period's occupancy partition and bandwidth pressure.
/// `socket_bw_bytes_per_s == 0` models infinite bandwidth (the bandwidth
/// term stays zero); `llc_bytes` must be > 0 for the call to make sense
/// (the hypervisor's gate guarantees it). `out` is overwritten in place:
/// its buffers are resized and zero-filled, never freed, so a caller that
/// keeps one pass across periods allocates only when the host grows.
void compute_contention(const Topology& topo, std::uint64_t llc_bytes,
                        std::uint64_t socket_bw_bytes_per_s,
                        const std::vector<VmLoad>& vms, ContentionPass& out);

/// Combined per-VCPU slowdown in ppm for a VCPU with `extra_miss`
/// permille of contention misses on a socket stalling `bw_ppm`: the sum,
/// saturated at kMaxSlowdownPpm.
inline std::uint32_t slowdown_ppm(std::uint32_t extra_miss,
                                  std::uint32_t bw_ppm) {
  const std::uint64_t s =
      static_cast<std::uint64_t>(extra_miss) * kSlowdownPpmPerExtraMissPermille +
      bw_ppm;
  return s > kMaxSlowdownPpm ? kMaxSlowdownPpm
                             : static_cast<std::uint32_t>(s);
}

/// Cycles degraded out of `busy` at `ppm` slowdown: an __int128-widened
/// floor, so degraded + effective == busy holds exactly by construction.
inline std::uint64_t degraded_cycles(std::uint64_t busy, std::uint32_t ppm) {
  return static_cast<std::uint64_t>(static_cast<__int128>(busy) * ppm /
                                    1'000'000);
}

}  // namespace asman::hw::memsys
