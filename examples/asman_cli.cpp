// asman_cli: the command-line front end. Without a family name it composes
// the paper's single-VM scenario from flags and prints a one-screen report
// (run time, online rate, spinlock waits, VCRD activity, scheduler
// counters); `asman_cli <family> [flags]` runs one scenario family's demo.
// Flags are `--name=value` or `--name value`; kCommands lists them. A
// malformed or out-of-range number, an unknown name or flag, or a flag the
// run would ignore prints the usage on stderr and exits 2. A run whose
// auditor reports a violation, or a cluster run that loses a VM, exits 1.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/bounds_spec.h"
#include "experiments/adversary.h"
#include "experiments/chaos.h"
#include "experiments/churn.h"
#include "experiments/cluster.h"
#include "experiments/contention.h"
#include "experiments/paper.h"
#include "experiments/tables.h"
#include "workloads/kernbench.h"
#include "workloads/npb.h"
#include "workloads/synthetic.h"

using namespace asman;
namespace ex = asman::experiments;

namespace {

struct UsageError {
  std::string what;
};

// The flags after the command name. Each query consumes one flag and
// checks its value; finish() rejects whatever no query consumed, so the
// queries a command makes are exactly the flags it accepts.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string tok = argv[i];
      const std::size_t eq = tok.find('=');
      if (tok.compare(0, 2, "--") != 0 || eq == 2 || tok.size() == 2)
        throw UsageError{"unexpected argument '" + tok + "'"};
      Given& g = given_[tok.substr(2, eq == std::string::npos ? eq : eq - 2)];
      g = Given{};  // the last of repeated flags wins
      if (eq != std::string::npos)
        g.value = tok.substr(eq + 1);
      else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
        g.value = argv[++i];
    }
  }

  /// A switch: present or not, never with a value.
  bool flag(const char* name) {
    const Given* g = take(name);
    if (g != nullptr && g->value)
      throw UsageError{"--" + std::string(name) + " takes no value"};
    return g != nullptr;
  }

  std::optional<std::string> text(const char* name) {
    const Given* g = take(name);
    if (g == nullptr) return std::nullopt;
    if (!g->value)
      throw UsageError{"--" + std::string(name) + " needs a value"};
    return g->value;
  }

  /// The whole value as a number in [lo, hi]: no sign an unsigned type
  /// cannot hold, no trailing junk, no overflow, no NaN.
  template <class T>
  std::optional<T> num(const char* name, T lo = 0,
                       T hi = std::numeric_limits<T>::max()) {
    const std::optional<std::string> s = text(name);
    if (!s) return std::nullopt;
    T v{};
    const char* end = s->data() + s->size();
    const auto [ptr, ec] = std::from_chars(s->data(), end, v);
    if (ec != std::errc{} || ptr != end || !(v >= lo && v <= hi))
      throw UsageError{"bad value '" + *s + "' for --" + name};
    return v;
  }

  void finish() const {
    for (const auto& [name, g] : given_)
      if (!g.used) throw UsageError{"unexpected flag --" + name};
  }

 private:
  struct Given {
    std::optional<std::string> value;
    bool used{false};
  };

  Given* take(const char* name) {
    const auto it = given_.find(name);
    if (it == given_.end()) return nullptr;
    it->second.used = true;
    return &it->second;
  }

  std::map<std::string, Given> given_;
};

constexpr core::SchedulerKind kAsman = core::SchedulerKind::kAsman;

// --list prints the names --class accepts and takes no other flag.
template <class Range>
bool listed(Args& a, const char* kind, const Range& classes) {
  if (!a.flag("list")) return false;
  a.finish();
  std::printf("%s classes:\n", kind);
  for (const auto c : classes) std::printf("  %s\n", to_string(c));
  return true;
}

template <class Range>
std::optional<typename Range::value_type> class_flag(Args& a, const char* kind,
                                                     const Range& classes) {
  const std::optional<std::string> name = a.text("class");
  if (!name) return std::nullopt;
  for (const auto c : classes)
    if (*name == to_string(c)) return c;
  throw UsageError{"unknown " + std::string(kind) + " class '" + *name + "'"};
}

std::optional<ex::ChaosClass> chaos_flag(Args& a) {
  return class_flag(a, "chaos", ex::all_chaos_classes());
}

std::uint64_t seed_flag(Args& a) {  // every family's default seed is 42
  return a.num<std::uint64_t>("seed").value_or(42);
}

const char* flavor(std::optional<ex::ChaosClass> cls) {
  return cls ? ex::to_string(*cls) : "fault-free";
}

// Prints a "<title> | count" table, one row per counter.
void print_counts(
    const char* title,
    std::initializer_list<std::pair<const char*, std::uint64_t>> rows) {
  ex::TextTable t({title, "count"});
  for (const auto& [label, n] : rows) t.add_row({label, std::to_string(n)});
  std::printf("%s\n", t.str().c_str());
}

// Prints the auditor's line when it ran; returns the exit status.
int report_audit(const char* who, const ex::RunResult& r) {
  if (r.audit_checks > 0)
    std::printf("%s: %llu checks, %llu violation(s)\n%s", who,
                static_cast<unsigned long long>(r.audit_checks),
                static_cast<unsigned long long>(r.audit_violations),
                r.audit_violations > 0 ? r.audit_summary.c_str() : "");
  return r.audit_violations > 0 ? 1 : 0;
}

core::SchedulerKind scheduler(const std::string& name) {
  if (name == "credit") return core::SchedulerKind::kCredit;
  if (name == "asman") return core::SchedulerKind::kAsman;
  if (name == "asman-hw") return core::SchedulerKind::kAsmanHw;
  if (name == "con") return core::SchedulerKind::kCon;
  throw UsageError{"unknown scheduler '" + name + "'"};
}

ex::WorkloadFactory bench_factory(const std::string& bench,
                                  std::uint32_t warehouses) {
  if (bench == "jbb") return ex::specjbb_factory(warehouses);
  if (bench == "gcc") return ex::gcc_factory();
  if (bench == "bzip2") return ex::bzip2_factory();
  if (bench == "kernbench") {
    return [](sim::Simulator& s2, std::uint64_t sd) {
      return std::make_unique<workloads::KernbenchWorkload>(
          s2, workloads::KernbenchParams{}, sd);
    };
  }
  if (bench == "sempp") {
    return [](sim::Simulator&, std::uint64_t s) {
      return std::make_unique<workloads::SemaphorePingPongWorkload>(
          2, 4000, sim::kDefaultClock.from_us(300), s);
    };
  }
  for (const workloads::NpbBenchmark b : workloads::kAllNpb)
    if (bench == workloads::to_string(b)) return ex::npb_factory(b);
  throw UsageError{"unknown benchmark '" + bench + "'"};
}

int run_single(Args& a) {
  const auto sched = scheduler(a.text("sched").value_or("asman"));
  constexpr core::FieldBounds wb = *core::bounds_of(core::field::weight);
  const std::uint32_t weight =
      a.num<std::uint32_t>("weight", static_cast<std::uint32_t>(wb.lo),
                           static_cast<std::uint32_t>(wb.hi))
          .value_or(32);
  const std::string bench = a.text("bench").value_or("LU");
  const std::uint32_t warehouses =
      bench == "jbb" ? a.num<std::uint32_t>("warehouses").value_or(4) : 4;
  const std::uint64_t seed = a.num<std::uint64_t>("seed").value_or(1);
  const double horizon = a.num<double>("horizon", 0.0, 1e6).value_or(180.0);
  const bool relaxed = a.flag("relaxed");
  // The over-threshold wait is 2^delta cycles in a 64-bit word.
  const unsigned delta = a.num<unsigned>("delta", 0, 63).value_or(20);
  const bool samples = a.flag("samples");
  ex::WorkloadFactory wl = bench_factory(bench, warehouses);
  a.finish();

  ex::Scenario sc = ex::single_vm_scenario(sched, weight, std::move(wl), seed);
  sc.horizon = sim::kDefaultClock.from_seconds_f(horizon);
  sc.keep_wait_samples = samples;
  sc.monitor.delta_exp = delta;
  if (relaxed) sc.strictness = vmm::Hypervisor::Strictness::kRelaxed;

  const ex::RunResult r = ex::run_scenario(sc);
  const ex::VmResult& v1 = r.vm("V1");

  const std::string nominal =
      ex::fmt_pct(8.0 * (static_cast<double>(weight) / (256.0 + weight)) / 4.0);
  std::printf("%s | %s | weight %u (nominal rate %s) | seed %llu%s\n\n",
              core::to_string(sched), bench.c_str(), weight, nominal.c_str(),
              static_cast<unsigned long long>(seed),
              relaxed ? " | relaxed gangs" : "");
  const guest::GuestStats& g = v1.stats;
  const auto waits_above = [&g](unsigned exp) {
    return std::to_string(g.spin_waits.count_above(exp));
  };
  ex::TextTable t({"metric", "value"});
  t.add_row({"run time (s)", ex::fmt_f(v1.runtime_seconds)});
  t.add_row({"finished", v1.finished ? "yes" : "no (horizon)"});
  t.add_row({"observed online rate", ex::fmt_pct(v1.observed_online_rate)});
  t.add_row({"work units", std::to_string(v1.work_units)});
  t.add_row({"spin acquisitions", std::to_string(g.spin_acquisitions)});
  t.add_row({"contended spins", std::to_string(g.spin_contended)});
  t.add_row({"spin waits > 2^10", waits_above(10)});
  t.add_row({"spin waits > 2^15", waits_above(15)});
  t.add_row({"spin waits > 2^20", waits_above(20)});
  t.add_row({"spin waits > 2^24", waits_above(24)});
  t.add_row({"max spin wait (log2)",
             std::to_string(sim::log2_floor(g.spin_waits.max_value()))});
  t.add_row({"max sem wait (log2)",
             std::to_string(sim::log2_floor(g.sem_waits.max_value()))});
  t.add_row({"futex waits", std::to_string(g.futex_waits)});
  t.add_row({"futex wakes", std::to_string(g.futex_wakes)});
  t.add_row({"barrier arrivals", std::to_string(g.barrier_arrivals)});
  t.add_row({"barrier futex sleeps", std::to_string(g.barrier_kernel_sleeps)});
  t.add_row({"guest ticks", std::to_string(g.ticks)});
  t.add_row({"guest ctx switches", std::to_string(g.context_switches)});
  t.add_row({"VCRD windows", std::to_string(v1.vcrd_transitions)});
  t.add_row({"VCRD HIGH time", ex::fmt_pct(v1.vcrd_high_fraction)});
  t.add_row({"over-threshold waits", std::to_string(v1.over_threshold_events)});
  t.add_row({"adjusting events", std::to_string(v1.adjusting_events)});
  t.add_row({"cosched launches", std::to_string(r.cosched_events)});
  t.add_row({"IPIs", std::to_string(r.ipi_sent)});
  t.add_row({"VCPU migrations", std::to_string(r.migrations)});
  t.add_row({"VMM ctx switches", std::to_string(r.context_switches)});
  t.add_row({"PCPU idle time", ex::fmt_pct(r.idle_fraction)});
  t.add_row({"simulated events", std::to_string(r.events)});
  std::printf("%s", t.str().c_str());
  if (samples)
    std::printf("\nspinlock wait histogram (log2 cycles):\n%s",
                v1.stats.spin_waits.render(10, 28).c_str());
  return 0;
}

// One fault class (default: all) on the chaos host: injected vs degraded.
int run_chaos(Args& a) {
  if (listed(a, "chaos", ex::all_chaos_classes())) return 0;
  const auto cls = chaos_flag(a).value_or(ex::ChaosClass::kEverything);
  const std::uint32_t n_vms = a.num<std::uint32_t>("vms", 3).value_or(3);
  const std::uint64_t seed = seed_flag(a);
  a.finish();

  ex::Scenario sc = ex::chaos_scenario(kAsman, cls, seed, n_vms);
  sc.audit = true;
  const ex::RunResult r = ex::run_scenario(sc);

  std::printf("chaos run: ASMan, %s, %u VMs, seed %llu, %0.2f simulated "
              "seconds\n\n",
              ex::to_string(cls), n_vms, static_cast<unsigned long long>(seed),
              r.elapsed_seconds);
  print_counts("injected fault",
               {{"IPIs dropped", r.ipi_dropped},
                {"IPIs delayed", r.ipi_delayed},
                {"IPIs duplicated", r.ipi_duplicated},
                {"VCRD flaps", r.injected_flaps},
                {"corrupt hypercalls", r.injected_corrupt_ops},
                {"silenced VCRD reports", r.silenced_reports},
                {"PCPU offline events", r.pcpu_offline_events}});
  print_counts("graceful degradation",
               {{"IPI retries", r.ipi_retries},
                {"gang starts abandoned", r.gang_ipi_aborts},
                {"co-stop watchdog fires", r.gang_watchdog_fires},
                {"VMs demoted to stock credit", r.vcrd_demotions},
                {"stale VCRDs dropped (TTL)", r.stale_vcrd_drops},
                {"hypercalls rejected", r.hypercall_rejects},
                {"kicks to crashed VCPUs ignored", r.ignored_kicks},
                {"VCPUs evacuated off dead PCPUs", r.evacuated_vcpus}});

  ex::TextTable vms({"VM", "online rate", "lock acquisitions", "demotions",
                     "degraded at end"});
  for (const ex::VmResult& v : r.vms)
    vms.add_row({v.name, ex::fmt_pct(v.observed_online_rate),
                 std::to_string(v.stats.spin_acquisitions),
                 std::to_string(v.demotions), v.degraded ? "yes" : "no"});
  std::printf("%s\n", vms.str().c_str());

  const int status = report_audit("auditor", r);
  if (cls == ex::ChaosClass::kEverything)
    std::printf(
        "\nThe run reaches its horizon with zero invariant violations: lost\n"
        "IPIs are retried then abandoned, half-arrived gangs are released by\n"
        "the co-stop watchdog, the flapping guest is demoted to stock credit\n"
        "treatment (and lifted after a quiet backoff), stale HIGH VCRDs age\n"
        "out, and the offlined PCPU's VCPUs migrate with credit intact.\n");
  return status;
}

// VM lifecycle churn on the chaos host: alone, under a chaos class, or the
// admission-saturated arrival storm.
int run_churn(Args& a) {
  if (listed(a, "chaos", ex::all_chaos_classes())) return 0;
  const bool saturated = a.flag("saturated");
  std::optional<ex::ChaosClass> cls;
  ex::ChurnConfig cfg;
  if (!saturated) {  // the saturated storm fixes both
    cls = chaos_flag(a);
    cfg.arrivals = a.num<std::uint32_t>("vms", 1).value_or(cfg.arrivals);
  }
  const std::uint64_t seed = seed_flag(a);
  a.finish();

  ex::Scenario sc = saturated ? ex::saturated_churn_scenario(kAsman, seed)
                    : cls ? ex::churn_chaos_scenario(kAsman, *cls, seed, cfg)
                          : ex::churn_scenario(kAsman, seed, cfg);
  sc.audit = true;
  const ex::RunResult r = ex::run_scenario(sc);

  std::printf("churn run: ASMan, %s, seed %llu, %0.2f simulated seconds\n\n",
              saturated ? "saturated" : flavor(cls),
              static_cast<unsigned long long>(seed), r.elapsed_seconds);
  print_counts("lifecycle event",
               {{"hot creates", r.vm_creates},
                {"destroys", r.vm_destroys},
                {"resizes", r.vm_resizes},
                {"admission rejects", r.admission_rejects},
                {"overload sheds", r.overload_sheds},
                {"overload restores", r.overload_restores},
                {"hypercalls bounced off tombstones", r.hypercall_rejects}});

  // Destroyed tenants keep their row under their stable VmId.
  ex::TextTable vms({"id", "VM", "fate", "runtime (s)", "online rate",
                     "work units"});
  for (const ex::VmResult& v : r.vms)
    vms.add_row({std::to_string(v.id), v.name,
                 v.destroyed ? "destroyed" : "alive",
                 ex::fmt_f(v.runtime_seconds, 3),
                 ex::fmt_pct(v.observed_online_rate),
                 std::to_string(v.work_units)});
  std::printf("%s\n", vms.str().c_str());

  const int status = report_audit("auditor", r);
  std::printf(
      "\nEvery lifecycle operation above landed at a live scheduling event:\n"
      "new VMs were minted credits at the next accounting period without\n"
      "touching existing shares, destroyed VMs were drained from every run\n"
      "queue (the mid-gang destruction aborted its gang cleanly), and the\n"
      "auditor's shadow state machine followed every transition.\n");
  return status;
}

// One fleet placed aware and blind at one seed, size and chaos class, both
// audited, so the runs differ in placement alone.
struct AwareBlind {
  ex::RunResult aware;
  ex::RunResult blind;

  AwareBlind(ex::Scenario (*make)(core::SchedulerKind, std::uint64_t, bool,
                                  std::uint32_t),
             std::optional<ex::ChaosClass> cls, std::uint64_t seed,
             std::uint32_t n_vms) {
    const auto run = [&](bool is_aware) {
      ex::Scenario sc = make(kAsman, seed, is_aware, n_vms);
      if (cls) {  // seeded as chaos_scenario() seeds its injector
        sc.faults.seed = seed ^ 0xC4A05ULL;
        ex::apply_chaos(sc, *cls);
      }
      sc.audit = true;
      return ex::run_scenario(sc);
    };
    aware = run(true);
    blind = run(false);
  }

  // One "label | aware | blind" row per RunResult counter.
  using Counters = std::initializer_list<
      std::pair<const char*, std::uint64_t ex::RunResult::*>>;
  void add_rows(ex::TextTable& t, Counters rows) const {
    for (const auto& [label, n] : rows)
      t.add_row({label, std::to_string(aware.*n), std::to_string(blind.*n)});
  }

  // The aware run's auditor line; the blind run's too if it failed.
  int report_audit() const {
    const int status = ::report_audit("auditor (aware run)", aware);
    return blind.audit_violations > 0
               ? ::report_audit("auditor (blind run)", blind)
               : status;
  }
};

using R = ex::RunResult;

// Migration cost of topology-aware vs blind placement on the paper's host.
int run_topology(Args& a) {
  if (listed(a, "chaos", ex::all_chaos_classes())) return 0;
  const std::optional<ex::ChaosClass> cls = chaos_flag(a);
  const std::uint32_t n_vms = a.num<std::uint32_t>("vms", 3).value_or(4);
  const std::uint64_t seed = seed_flag(a);
  a.finish();

  const AwareBlind p(ex::topology_scenario, cls, seed, n_vms);
  std::printf("topology run: ASMan on 2 sockets x 2 LLCs x 2 PCPUs, %s, "
              "%u VMs, seed %llu\n\n",
              flavor(cls), n_vms, static_cast<unsigned long long>(seed));
  ex::TextTable costs({"migration cost", "aware", "blind"});
  p.add_rows(costs,
             {{"total migrations", &R::migrations},
              {"cross-LLC (same socket)", &R::cross_llc_migrations},
              {"cross-socket", &R::cross_socket_migrations},
              {"warm-cache penalty (cycles)", &R::migration_penalty_cycles},
              {"steals rejected by cost", &R::topology_steal_rejects}});
  std::printf("%s\n", costs.str().c_str());

  ex::TextTable vms({"VM", "online rate", "cross-LLC", "cross-socket",
                     "penalty (cycles)"});
  for (const ex::VmResult& v : p.aware.vms)
    vms.add_row({v.name, ex::fmt_pct(v.observed_online_rate),
                 std::to_string(v.cross_llc_migrations),
                 std::to_string(v.cross_socket_migrations),
                 std::to_string(v.migration_penalty_cycles)});
  std::printf("aware run, per VM:\n%s\n", vms.str().c_str());

  const int status = p.report_audit();
  std::printf(
      "\nBoth runs pay the same warm-cache cost model; only placement\n"
      "differs. The aware run packs gangs into one socket (pairwise\n"
      "distinct PCPUs, nearest-first stealing, penalty-gated steals), so\n"
      "its cross-socket column should undercut the blind baseline's.\n");
  return status;
}

// Degraded cycles under pressure-aware vs blind placement on the paper's
// host with finite LLCs and socket bandwidth.
int run_contention(Args& a) {
  if (listed(a, "chaos", ex::all_chaos_classes())) return 0;
  const std::optional<ex::ChaosClass> cls = chaos_flag(a);
  const std::uint32_t n_vms = a.num<std::uint32_t>("vms", 4).value_or(6);
  const std::uint64_t seed = seed_flag(a);
  a.finish();

  const AwareBlind p(ex::contention_scenario, cls, seed, n_vms);
  std::printf("contention run: ASMan on 2 sockets x 2 LLCs x 2 PCPUs, "
              "6 MiB LLCs, 8 GB/s sockets, %s, %u VMs, seed %llu\n\n",
              flavor(cls), n_vms, static_cast<unsigned long long>(seed));
  const auto frac = [](const ex::RunResult& r) {
    return ex::fmt_f(r.pressure_accounted > 0
                         ? static_cast<double>(r.pressure_degraded) /
                               static_cast<double>(r.pressure_accounted)
                         : 0.0,
                     5);
  };
  ex::TextTable costs({"memory pressure", "aware", "blind"});
  p.add_rows(costs, {{"accounted cycles", &R::pressure_accounted},
                     {"degraded cycles", &R::pressure_degraded}});
  costs.add_row({"degraded fraction", frac(p.aware), frac(p.blind)});
  p.add_rows(costs,
             {{"engine periods", &R::pressure_periods},
              {"steals refused (pressure)", &R::pressure_steal_rejects},
              {"balancer swaps", &R::pressure_rebalances}});
  std::printf("%s\n", costs.str().c_str());

  ex::TextTable vms({"VM", "online rate", "accounted", "degraded"});
  for (const ex::VmResult& v : p.aware.vms)
    vms.add_row({v.name, ex::fmt_pct(v.observed_online_rate),
                 std::to_string(v.pressure_accounted),
                 std::to_string(v.pressure_degraded)});
  std::printf("aware run, per VM:\n%s\n", vms.str().c_str());

  const int status = p.report_audit();
  std::printf(
      "\nBoth runs pay the same contention physics; only placement\n"
      "differs. The aware run spreads working sets across LLC domains at\n"
      "boot, refuses steals that deepen an overflow, and swaps the\n"
      "heaviest tenant off a saturated socket (with hysteresis), so its\n"
      "degraded-cycle column should undercut the blind baseline's.\n");
  return status;
}

// One attack class against ASMan unhardened, mitigated and hardened.
int run_adversary(Args& a) {
  if (listed(a, "attack", workloads::kAllAttacks)) return 0;
  const workloads::AttackKind attack =
      class_flag(a, "attack", workloads::kAllAttacks)
          .value_or(workloads::AttackKind::kTickDodge);
  const std::uint64_t seed = seed_flag(a);
  a.finish();

  const struct {
    const char* name;
    bool hardened, mitigated;
  } levels[] = {{"unhardened", false, false},
                {"mitigated", false, true},
                {"hardened", true, false}};

  std::printf("adversary run: ASMan vs %s, seed %llu (fair share %.0f%%, "
              "epsilon %.0f%%)\n\n",
              workloads::to_string(attack),
              static_cast<unsigned long long>(seed),
              100.0 * ex::kAttackerFairShare, 100.0 * ex::kFairnessEpsilon);

  ex::TextTable t({"defense level", "attacker share", "victim share",
                   "stolen Gcycles", "dodged samples", "boost denials",
                   "implausible VCRDs", "audit"});
  int status = 0;
  for (const auto& lv : levels) {
    ex::Scenario sc = ex::adversary_scenario(kAsman, attack, lv.hardened, seed);
    if (lv.mitigated) ex::apply_mitigated_sampling(sc);
    sc.audit = true;
    const ex::RunResult r = ex::run_scenario(sc);
    if (r.audit_violations > 0) status = 1;
    t.add_row({lv.name, ex::fmt_pct(r.vm("Attacker").observed_online_rate),
               ex::fmt_pct(r.vm("Victim").observed_online_rate),
               ex::fmt_f(static_cast<double>(r.theft_cycles) / 1e9),
               std::to_string(r.dodged_samples),
               std::to_string(r.boost_denials),
               std::to_string(r.implausible_vcrds),
               r.audit_violations == 0 ? "clean" : "VIOLATED"});
  }
  std::printf("%s\n", t.str().c_str());

  std::printf(
      "Against tick-sampled accounting the attacker consumes without being\n"
      "charged (stolen cycles, dodged samples). Randomizing the sampling\n"
      "offsets already collapses the dodge; the full defense stack (exact\n"
      "accounting + BOOST rate limiter + VCRD plausibility clamp) pins\n"
      "every attack class within epsilon of its weighted fair share while\n"
      "the honest tenants keep their service.\n");
  return status;
}

// The 4-host walkthrough, whose fleet is fixed, or with --chaos the 8-host
// storm. Unlike the other families it is audited only under ASMAN_AUDIT=1.
int run_cluster(Args& a) {
  const bool chaos = a.flag("chaos");
  const std::uint32_t vms =
      chaos ? a.num<std::uint32_t>("vms", 1).value_or(48) : 0;
  const std::uint64_t seed = seed_flag(a);
  a.finish();

  const ex::ClusterScenario sc =
      chaos ? ex::cluster_chaos_scenario(kAsman, 8, vms, seed)
            : ex::cluster_scenario(kAsman, seed);
  const ex::ClusterRunResult rr = ex::run_cluster_scenario(sc);

  const auto u = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  std::printf("%s: %u hosts, seed %llu\n", sc.name.c_str(), sc.hosts, u(seed));
  std::printf("  events                %llu\n", u(rr.events));
  std::printf("  migrations            %llu started, %llu committed, "
              "%llu aborted, %llu retried\n",
              u(rr.migrations_started), u(rr.migrations_committed),
              u(rr.migrations_aborted), u(rr.migrations_retried));
  std::printf("  pre-copy rounds       %llu (%llu link failures, "
              "%llu timeouts)\n",
              u(rr.precopy_rounds), u(rr.link_failures), u(rr.phase_timeouts));
  std::printf("  host crashes          %llu (%llu VMs replaced, %llu lost, "
              "%llu partial copies tombstoned)\n",
              u(rr.host_crashes), u(rr.vms_replaced), u(rr.vms_lost),
              u(rr.tombstoned_copies));
  std::printf("  resident at horizon   %llu VMs (%llu heartbeats)\n",
              u(rr.vms_resident), u(rr.heartbeats));
  std::printf("  credit ledger         residual %lld, crash drift %lld\n",
              rr.residual_credit, rr.crash_credit_delta);
  std::printf("  fingerprint           %016llx\n", u(rr.fingerprint));
  if (rr.audit_checks > 0)
    std::printf("  audit                 %llu checks, %llu violations\n%s",
                u(rr.audit_checks), u(rr.audit_violations),
                rr.audit_summary.c_str());
  return rr.vms_lost == 0 && rr.audit_violations == 0 ? 0 : 1;
}

struct Command {
  const char* name;  // "" is the single-VM run
  const char* usage;
  int (*run)(Args&);
};

constexpr Command kCommands[] = {
    {"",
     "[--sched credit|asman|asman-hw|con] [--weight 1..65536]\n"
     "          [--bench BT|CG|EP|FT|MG|SP|LU|jbb|gcc|bzip2|kernbench|sempp]\n"
     "          [--warehouses N (jbb only)] [--seed N] [--horizon 0..1e6 s]\n"
     "          [--relaxed] [--delta 0..63] [--samples]\n"
     "  defaults: asman, weight 32 (Dom0 256), LU, 4 warehouses, seed 1,\n"
     "  180 s, delta 20; --relaxed: VMware-style relaxed gangs\n",
     run_single},
    {"chaos",
     "[--class=NAME] [--vms=N] [--seed=N] | --list\n"
     "  --class=NAME  fault class to arm (default: everything)\n"
     "  --vms=N       total VMs on the host, N >= 3 (default: 3)\n",
     run_chaos},
    {"churn",
     "[--class=NAME] [--vms=N] [--seed=N] | --saturated [--seed=N] | --list\n"
     "  --class=NAME  compose a chaos class onto the churn (default: none)\n"
     "  --vms=N       hot arrivals over the run, N >= 1 (default: 6)\n"
     "  --saturated   run the admission-saturated arrival storm instead\n",
     run_churn},
    {"topology",
     "[--class=NAME] [--vms=N] [--seed=N] | --list\n"
     "  --class=NAME  compose a chaos class on top (default: none)\n"
     "  --vms=N       total VMs on the host, N >= 3 (default: 4)\n",
     run_topology},
    {"contention",
     "[--class=NAME] [--vms=N] [--seed=N] | --list\n"
     "  --class=NAME  compose a chaos class on top (default: none)\n"
     "  --vms=N       total VMs on the host, N >= 4 (default: 6)\n",
     run_contention},
    {"adversary",
     "[--class=NAME] [--seed=N] | --list\n"
     "  --class=NAME  attack class to run (default: tick-dodge)\n",
     run_adversary},
    {"cluster",
     "[--chaos [--vms=N]] [--seed=N]\n"
     "  --chaos       the 8-host storm instead of the 4-host walkthrough\n"
     "  --vms=N       tenants in the storm, N >= 1 (default: 48)\n",
     run_cluster},
};

void print_usage(const Command* only) {
  for (const Command& c : kCommands)
    if (only == nullptr || only == &c)
      std::fprintf(stderr, "usage: asman_cli%s%s %s", *c.name ? " " : "",
                   c.name, c.usage);
  std::fprintf(stderr, "every family: --seed=N scenario seed (default: 42), "
                       "--list prints the names --class takes\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool family = argc > 1 && std::strncmp(argv[1], "--", 2) != 0;
  const Command* cmd = family ? nullptr : &kCommands[0];
  for (const Command& c : kCommands)
    if (family && *c.name && std::strcmp(argv[1], c.name) == 0) cmd = &c;
  try {
    if (cmd == nullptr)
      throw UsageError{"unknown command '" + std::string(argv[1]) + "'"};
    Args a(argc, argv, family ? 2 : 1);
    return cmd->run(a);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what.c_str());
    print_usage(cmd == &kCommands[0] ? nullptr : cmd);
    return 2;
  }
}
