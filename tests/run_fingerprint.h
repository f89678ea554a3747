// Exact serialization of a single-host run for determinism and golden
// tests: every RunResult and VmResult field, integers in decimal and
// doubles as hex floats (%a), so equal fingerprints mean bit-equal results.
//
// The three audit fields (audit_checks, audit_violations, audit_summary)
// are left out on purpose: they describe the observer, not the run, and
// attaching the auditor must not change a fingerprint. A field added to
// RunResult, VmResult or GuestStats belongs here too.
#pragma once

#include <cinttypes>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>

#include "core/schedulers.h"
#include "experiments/scenario.h"
#include "simcore/histogram.h"

namespace asman::testutil {

#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
inline void append(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

inline void fold(std::string& fp, const char* key, std::uint64_t v) {
  append(fp, " %s=%" PRIu64, key, v);
}

inline void fold(std::string& fp, const char* key, double v) {
  append(fp, " %s=%a", key, v);
}

inline void fold(std::string& fp, const char* key,
                 const sim::Log2Histogram& h) {
  append(fp, "\n  %s: total=%" PRIu64 " mean=%a max=%" PRIu64, key,
         h.total(), h.mean(), h.max_value().v);
  for (unsigned b = 0; b < sim::Log2Histogram::kBuckets; ++b)
    if (h.bucket(b) > 0) append(fp, " 2^%u:%" PRIu64, b, h.bucket(b));
  fold(fp, "samples", static_cast<std::uint64_t>(h.samples().size()));
  for (const sim::Cycles c : h.samples()) append(fp, " %" PRIu64, c.v);
}

inline void fold(std::string& fp, const experiments::VmResult& v) {
  append(fp, "\nvm %u %s [%s]", v.id, v.name.c_str(),
         v.workload_name.c_str());
  fold(fp, "destroyed", std::uint64_t{v.destroyed});
  fold(fp, "finished", std::uint64_t{v.finished});
  fold(fp, "runtime", v.runtime_seconds);
  fold(fp, "online", v.observed_online_rate);
  fold(fp, "vcrd", v.vcrd_transitions);
  fold(fp, "high", v.vcrd_high_fraction);
  fold(fp, "work", v.work_units);
  fold(fp, "otl", v.over_threshold_events);
  fold(fp, "adj", v.adjusting_events);
  fold(fp, "demote", v.demotions);
  fold(fp, "stale", v.stale_vcrd_drops);
  fold(fp, "degraded", std::uint64_t{v.degraded});
  fold(fp, "xllc", v.cross_llc_migrations);
  fold(fp, "xsock", v.cross_socket_migrations);
  fold(fp, "penalty", v.migration_penalty_cycles);
  fold(fp, "consumed", v.cycles_consumed);
  fold(fp, "attributed", v.cycles_attributed);
  fold(fp, "theft", v.theft_cycles);
  fold(fp, "dodged", v.dodged_samples);
  fold(fp, "bgrant", v.boost_grants);
  fold(fp, "bdeny", v.boost_denials);
  fold(fp, "implausible", v.implausible_vcrds);
  fold(fp, "pacc", v.pressure_accounted);
  fold(fp, "pdeg", v.pressure_degraded);
  fold(fp, "peff", v.pressure_effective);
  const guest::GuestStats& g = v.stats;
  append(fp, "\n  guest:");
  fold(fp, "acq", g.spin_acquisitions);
  fold(fp, "contended", g.spin_contended);
  fold(fp, "fwait", g.futex_waits);
  fold(fp, "fwake", g.futex_wakes);
  fold(fp, "barrier", g.barrier_arrivals);
  fold(fp, "bsleep", g.barrier_kernel_sleeps);
  fold(fp, "ticks", g.ticks);
  fold(fp, "ctx", g.context_switches);
  fold(fp, "spin_waits", g.spin_waits);
  fold(fp, "sem_waits", g.sem_waits);
  append(fp, "\n  rounds:");
  for (const double r : v.round_seconds) append(fp, " %a", r);
}

inline std::string fingerprint(const experiments::RunResult& rr) {
  std::string fp = core::to_string(rr.scheduler);
  fold(fp, "elapsed", rr.elapsed_seconds);
  fold(fp, "events", rr.events);
  fold(fp, "migrations", rr.migrations);
  fold(fp, "cosched", rr.cosched_events);
  fold(fp, "ipi", rr.ipi_sent);
  fold(fp, "ctx", rr.context_switches);
  fold(fp, "idle", rr.idle_fraction);
  append(fp, "\nfaults:");
  fold(fp, "dropped", rr.ipi_dropped);
  fold(fp, "delayed", rr.ipi_delayed);
  fold(fp, "duplicated", rr.ipi_duplicated);
  fold(fp, "retries", rr.ipi_retries);
  fold(fp, "aborts", rr.gang_ipi_aborts);
  fold(fp, "wdog", rr.gang_watchdog_fires);
  fold(fp, "demote", rr.vcrd_demotions);
  fold(fp, "stale", rr.stale_vcrd_drops);
  fold(fp, "hrej", rr.hypercall_rejects);
  fold(fp, "kicks", rr.ignored_kicks);
  fold(fp, "evac", rr.evacuated_vcpus);
  fold(fp, "offline", rr.pcpu_offline_events);
  fold(fp, "flaps", rr.injected_flaps);
  fold(fp, "corrupt", rr.injected_corrupt_ops);
  fold(fp, "silenced", rr.silenced_reports);
  append(fp, "\nlifecycle:");
  fold(fp, "adm", rr.admission_rejects);
  fold(fp, "create", rr.vm_creates);
  fold(fp, "destroy", rr.vm_destroys);
  fold(fp, "resize", rr.vm_resizes);
  fold(fp, "shed", rr.overload_sheds);
  fold(fp, "restore", rr.overload_restores);
  append(fp, "\ntopology:");
  fold(fp, "xllc", rr.cross_llc_migrations);
  fold(fp, "xsock", rr.cross_socket_migrations);
  fold(fp, "penalty", rr.migration_penalty_cycles);
  fold(fp, "srej", rr.topology_steal_rejects);
  append(fp, "\ntheft:");
  fold(fp, "bgrant", rr.boost_grants);
  fold(fp, "bdeny", rr.boost_denials);
  fold(fp, "dodged", rr.dodged_samples);
  fold(fp, "implausible", rr.implausible_vcrds);
  fold(fp, "theft", rr.theft_cycles);
  append(fp, "\npressure:");
  fold(fp, "acc", rr.pressure_accounted);
  fold(fp, "deg", rr.pressure_degraded);
  fold(fp, "eff", rr.pressure_effective);
  fold(fp, "periods", rr.pressure_periods);
  fold(fp, "srej", rr.pressure_steal_rejects);
  fold(fp, "rebal", rr.pressure_rebalances);
  fold(fp, "cfgerr", rr.footprint_config_errors);
  append(fp, "\nfairness:");
  fold(fp, "min", rr.fairness_min);
  fold(fp, "mean", rr.fairness_mean);
  fold(fp, "periods", rr.fairness_periods);
  for (const experiments::VmResult& v : rr.vms) fold(fp, v);
  fp += '\n';
  return fp;
}

/// FNV-1a over a fingerprint: the 64-bit form golden tests pin.
inline std::uint64_t digest(const std::string& fp) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : fp) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace asman::testutil
