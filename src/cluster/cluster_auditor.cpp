#include "cluster/cluster_auditor.h"

#include <cstdio>
#include <cstdlib>

#include "audit/auditor.h"
#include "cluster/cluster.h"

namespace asman::cluster {

namespace {

// std::to_string cannot print __int128; credit pools summed over a fleet
// can legitimately exceed 64 bits, so render by hand.
std::string i128_str(__int128 v) {
  if (v == 0) return "0";
  const bool neg = v < 0;
  unsigned __int128 u =
      neg ? -static_cast<unsigned __int128>(v) : static_cast<unsigned __int128>(v);
  std::string s;
  while (u != 0) {
    s.insert(s.begin(), static_cast<char>('0' + static_cast<int>(u % 10)));
    u /= 10;
  }
  if (neg) s.insert(s.begin(), '-');
  return s;
}

}  // namespace

ClusterAuditor::ClusterAuditor(const Cluster& cluster, bool fatal)
    : cluster_(cluster), fatal_(fatal || audit::audit_fatal_env()) {}

void ClusterAuditor::flag(audit::Invariant inv, std::string what) {
  audit::AuditReport::Entry& e = report_.entry(inv);
  ++e.violations;
  if (e.violations == 1) {
    e.first_offender = what;
    e.first_at = cluster_.sim_.now();
  }
  if (fatal_) {
    std::fprintf(stderr, "%s", report_.summary().c_str());
    std::fprintf(stderr,
                 "ASMAN_AUDIT_FATAL: cluster invariant %s violated at %llu: "
                 "%s\n",
                 audit::to_string(inv),
                 static_cast<unsigned long long>(cluster_.sim_.now().v),
                 what.c_str());
    std::abort();
  }
}

void ClusterAuditor::on_event() {
  ++report_.events;
  ++report_.full_scans;
  audit::AuditReport::Entry& e =
      report_.entry(audit::Invariant::kSingleOwnership);
  for (std::size_t i = 0; i < cluster_.num_vms(); ++i) {
    const VmRecord& r = cluster_.vm(static_cast<ClusterVmId>(i));
    ++e.checks;
    // Count the hosts holding a live local VM of this cluster-unique name
    // — crashed hosts' copies were tombstoned by the salvage sweep, so
    // they no longer count.
    std::uint32_t holders = 0;
    HostId where = kInvalidHostId;
    for (HostId h = 0; h < cluster_.num_hosts(); ++h) {
      const vmm::Hypervisor& hv = cluster_.host(h);
      for (vmm::VmId lid = 0; lid < hv.num_vms(); ++lid) {
        if (!hv.vm_alive(lid) || hv.vm(lid).name != r.name) continue;
        ++holders;
        where = h;
      }
    }
    const std::uint32_t expect = (r.lost || r.retired) ? 0u : 1u;
    if (holders != expect) {
      flag(audit::Invariant::kSingleOwnership,
           r.name + " resident on " + std::to_string(holders) +
               " host(s), expected " + std::to_string(expect));
      continue;
    }
    if (expect == 1 && where != r.host)
      flag(audit::Invariant::kSingleOwnership,
           r.name + " resident on host " + std::to_string(where) +
               " but the fleet record says host " + std::to_string(r.host));
  }
}

void ClusterAuditor::on_transfer(const char* what, __int128 expected,
                                 __int128 ticket, __int128 seeded,
                                 __int128 residual) {
  audit::AuditReport::Entry& e =
      report_.entry(audit::Invariant::kClusterCreditConservation);
  ++report_.events;
  // Capture exactness: the ticket carries exactly the pool that was
  // independently summed at the capture instant.
  ++e.checks;
  if (ticket != expected)
    flag(audit::Invariant::kClusterCreditConservation,
         std::string(what) + ": ticket pool " + i128_str(ticket) +
             " != captured pool " + i128_str(expected));
  // Split exactness: seeded plus the ledgered residual reconstructs the
  // ticket — nothing minted, nothing lost in transit.
  ++e.checks;
  if (seeded + residual != ticket)
    flag(audit::Invariant::kClusterCreditConservation,
         std::string(what) + ": seeded " + i128_str(seeded) + " + residual " +
             i128_str(residual) + " != ticket " + i128_str(ticket));
}

}  // namespace asman::cluster
