// Cluster-wide invariant auditor.
//
// The per-host audit::Auditor verifies each hypervisor in isolation; this
// class owns the two properties only the fabric can see
// (audit/invariants.h):
//
//   * kSingleOwnership — at every cluster event, each admitted VM is
//     resident (a live local VM of its unique name) on exactly one host —
//     zero for lost/retired VMs — including mid-migration, because
//     migrate_out retires the source copy before migrate_in creates the
//     destination copy,
//   * kClusterCreditConservation — every credit transfer is exact: the
//     ticket equals the pool independently summed at capture, and
//     seeded + residual equals the ticket. Summed over per-host pools
//     plus the fabric's residual ledger, migration neither mints nor
//     loses credit.
//
// Violations accumulate in a standard audit::AuditReport (the cluster rows
// of the shared invariant catalog); under fatal (or ASMAN_AUDIT_FATAL) the
// first violation prints the report and aborts.
#pragma once

#include <string>

#include "audit/report.h"
#include "simcore/time.h"

namespace asman::cluster {

class Cluster;

class ClusterAuditor {
 public:
  ClusterAuditor(const Cluster& cluster, bool fatal);

  const audit::AuditReport& report() const { return report_; }

  /// Full ownership scan over every admitted VM x every host. Called at
  /// heartbeats, transfers and crash recoveries.
  void on_event();

  /// One transfer seam fired (commit, rollback re-admit, crash re-admit):
  /// `expected` is the pool independently summed at capture, `ticket` what
  /// the migration actually carried, `seeded` what the destination
  /// reported, `residual` what the fabric ledgered.
  void on_transfer(const char* what, __int128 expected, __int128 ticket,
                   __int128 seeded, __int128 residual);

 private:
  void flag(audit::Invariant inv, std::string what);

  const Cluster& cluster_;
  bool fatal_;
  audit::AuditReport report_;
};

}  // namespace asman::cluster
