#include "hw/memsys/contention.h"

#include <algorithm>

namespace asman::hw::memsys {

void compute_contention(const Topology& topo, std::uint64_t llc_bytes,
                        std::uint64_t socket_bw_bytes_per_s,
                        const std::vector<VmLoad>& vms, ContentionPass& out) {
  const std::uint32_t n_llcs = topo.num_llcs();
  const std::uint32_t n_sockets = topo.num_sockets();
  const std::size_t n_vms = vms.size();
  out.llc_demand.assign(n_llcs, 0);
  out.llc_granted.assign(n_llcs, 0);
  out.socket_bw_demand.assign(n_sockets, 0);
  out.socket_bw_ppm.assign(n_sockets, 0);
  // [vm][llc] matrices are refilled in place: rows keep their capacity.
  const auto zero_fill = [n_vms, n_llcs](auto& matrix) {
    matrix.resize(n_vms);
    for (auto& row : matrix) row.assign(n_llcs, 0);
  };
  zero_fill(out.vm_llc_demand);
  zero_fill(out.vm_llc_granted);
  zero_fill(out.vm_llc_extra_miss);

  // Demand: every VCPU parks its working-set share on its home LLC.
  for (std::size_t v = 0; v < n_vms; ++v) {
    const VmLoad& load = vms[v];
    if (load.fp == nullptr || load.fp->zero()) continue;
    const std::size_t n = load.vcpu_llc.size();
    if (n == 0) continue;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t share = vcpu_ws_share(load.fp->working_set_bytes, n, i);
      out.llc_demand[load.vcpu_llc[i]] += share;
      out.vm_llc_demand[v][load.vcpu_llc[i]] += share;
    }
  }

  // Grant: under capacity everyone gets their demand; over capacity the
  // LLC is partitioned footprint-proportionally. Floor shares first, then
  // hand the remainder out largest-remainder-first (ties to the lowest VM
  // id) so Σ granted == capacity exactly and the order is deterministic.
  for (std::uint32_t l = 0; l < n_llcs; ++l) {
    const std::uint64_t total = out.llc_demand[l];
    if (total == 0) continue;
    if (total <= llc_bytes) {
      out.llc_granted[l] = total;
      for (std::size_t v = 0; v < n_vms; ++v)
        out.vm_llc_granted[v][l] = out.vm_llc_demand[v][l];
      continue;
    }
    out.llc_granted[l] = llc_bytes;
    std::uint64_t handed = 0;
    std::vector<std::pair<std::uint64_t, std::size_t>>& rem = out.remainders;
    rem.clear();
    for (std::size_t v = 0; v < n_vms; ++v) {
      const std::uint64_t d = out.vm_llc_demand[v][l];
      if (d == 0) continue;
      const __int128 num = static_cast<__int128>(d) * llc_bytes;
      const auto floor_share = static_cast<std::uint64_t>(num / total);
      const auto remainder = static_cast<std::uint64_t>(num % total);
      out.vm_llc_granted[v][l] = floor_share;
      handed += floor_share;
      rem.emplace_back(remainder, v);
    }
    std::sort(rem.begin(), rem.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    std::uint64_t left = llc_bytes - handed;
    for (const auto& [remainder, v] : rem) {
      if (left == 0) break;
      (void)remainder;
      // A +1 byte top-up never exceeds the demand: floor < demand
      // whenever the remainder is nonzero, and zero-remainder entries
      // sort last (they only receive when left > 0 implies someone
      // rounded down).
      if (out.vm_llc_granted[v][l] < out.vm_llc_demand[v][l]) {
        ++out.vm_llc_granted[v][l];
        --left;
      }
    }
  }

  // Miss rates at achieved residency, then bandwidth demand: misses turn
  // into bus traffic, summed per socket.
  for (std::size_t v = 0; v < n_vms; ++v) {
    const VmLoad& load = vms[v];
    if (load.fp == nullptr || load.fp->zero()) continue;
    const std::size_t n = load.vcpu_llc.size();
    if (n == 0) continue;
    for (std::uint32_t l = 0; l < n_llcs; ++l) {
      const std::uint64_t d = out.vm_llc_demand[v][l];
      if (d == 0) continue;
      const auto resident = static_cast<std::uint32_t>(
          static_cast<__int128>(out.vm_llc_granted[v][l]) * 1000 / d);
      out.vm_llc_extra_miss[v][l] = load.fp->extra_miss_at(resident);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t l = load.vcpu_llc[i];
      const std::uint64_t d = out.vm_llc_demand[v][l];
      const std::uint32_t resident =
          d == 0 ? 1000
                 : static_cast<std::uint32_t>(
                       static_cast<__int128>(out.vm_llc_granted[v][l]) * 1000 /
                       d);
      const std::uint64_t bw_share =
          vcpu_ws_share(load.fp->bandwidth_bytes_per_s, n, i);
      out.socket_bw_demand[load.vcpu_socket[i]] += static_cast<std::uint64_t>(
          static_cast<__int128>(bw_share) * load.fp->miss_at(resident) / 1000);
    }
  }

  // Stall fraction per oversubscribed socket: (demand - capacity)/demand,
  // in ppm. Zero capacity models an unconstrained bus.
  if (socket_bw_bytes_per_s > 0) {
    for (std::uint32_t s = 0; s < n_sockets; ++s) {
      const std::uint64_t d = out.socket_bw_demand[s];
      if (d > socket_bw_bytes_per_s)
        out.socket_bw_ppm[s] = static_cast<std::uint32_t>(
            static_cast<__int128>(d - socket_bw_bytes_per_s) * 1'000'000 / d);
    }
  }
}

}  // namespace asman::hw::memsys
