// Contention bench: what does pressure-aware placement save on the
// paper's dual-socket host when LLC capacity and memory bandwidth are
// finite?
//
// For each scheduler the sweep runs the memory-hungry fleet over three
// seeds on the pressured 2x2x2 paper topology — pressure-aware and
// pressure-blind — plus a flat 4-PCPU control point where the engine is
// inert by the gate (its pressure counters must print as zeros). Both
// paper variants pay exactly the same contention physics, so the
// degraded-cycle and degraded-fraction columns isolate what
// pressure-aware placement, steal gating and balancing alone buy; Jain
// fairness shows the fairness side of the trade. The table aggregates
// across seeds (single seeds are noise-dominated — boot order decides
// which LLC the streamer lands on). Run with ASMAN_AUDIT=1 to get the
// pressure-conservation invariant checked on every point.
#include "bench_util.h"
#include "experiments/contention.h"

using namespace asman;
using namespace asman::bench;

namespace {

constexpr core::SchedulerKind kScheds[] = {core::SchedulerKind::kCredit,
                                           core::SchedulerKind::kCon,
                                           core::SchedulerKind::kAsman};

constexpr std::uint64_t kSeeds[] = {1, 7, 42};

std::string point_label(core::SchedulerKind k, bool aware, bool flat,
                        std::uint64_t seed) {
  return std::string(core::to_string(k)) + "/" +
         (flat ? "flat" : (aware ? "aware" : "blind")) + "/s" +
         std::to_string(seed);
}

ex::Scenario build_point(core::SchedulerKind k, bool aware, bool flat,
                         std::uint64_t seed) {
  ex::Scenario sc = ex::contention_scenario(k, seed, aware);
  if (flat) {
    // Control: same fleet and footprints on a flat host — the two-gate
    // discipline keeps the engine inert, so this point doubles as a live
    // bit-compat check (all pressure columns must be zero).
    sc.machine.topology = hw::Topology{};
    sc.machine.num_pcpus = 4;
  }
  return sc;
}

Sweep build_sweep() {
  Sweep s;
  for (core::SchedulerKind k : kScheds) {
    for (const std::uint64_t seed : kSeeds) {
      for (const bool aware : {true, false})
        s.add(point_label(k, aware, false, seed),
              build_point(k, aware, false, seed));
    }
    s.add(point_label(k, true, true, 42), build_point(k, true, true, 42));
  }
  return s;
}

double degraded_fraction(std::uint64_t degraded, std::uint64_t accounted) {
  return accounted > 0
             ? static_cast<double>(degraded) / static_cast<double>(accounted)
             : 0.0;
}

/// One table row aggregated over the seeds of a (scheduler, mode) cell:
/// cycles and counters sum; Jain fairness averages.
struct Agg {
  std::uint64_t accounted{0};
  std::uint64_t degraded{0};
  std::uint64_t steal_rejects{0};
  std::uint64_t rebalances{0};
  double jain_sum{0};
  std::uint32_t n{0};

  void fold(const ex::RunResult& rr) {
    accounted += rr.pressure_accounted;
    degraded += rr.pressure_degraded;
    steal_rejects += rr.pressure_steal_rejects;
    rebalances += rr.pressure_rebalances;
    jain_sum += rr.fairness_mean;
    ++n;
  }
};

void add_row(ex::TextTable& t, const char* label, const Agg& a) {
  char frac[32];
  std::snprintf(frac, sizeof frac, "%.5f",
                degraded_fraction(a.degraded, a.accounted));
  char jain[32];
  std::snprintf(jain, sizeof jain, "%.4f",
                a.n > 0 ? a.jain_sum / a.n : 0.0);
  t.add_row({label, std::to_string(a.accounted), std::to_string(a.degraded),
             frac, std::to_string(a.steal_rejects),
             std::to_string(a.rebalances), jain});
}

void print_tables(const Sweep& s) {
  for (core::SchedulerKind k : kScheds) {
    std::printf("\n== Memory pressure on 2 sockets x 2 LLCs x 2 PCPUs under "
                "%s (aware vs blind over %zu seeds, equal physics; flat = "
                "engine inert) ==\n",
                core::to_string(k), std::size(kSeeds));
    ex::TextTable t({"scenario", "accounted (cyc)", "degraded (cyc)",
                     "degraded frac", "steal rejects", "rebalances",
                     "jain mean"});
    Agg aware;
    Agg blind;
    for (const std::uint64_t seed : kSeeds) {
      aware.fold(s.get(point_label(k, true, false, seed)));
      blind.fold(s.get(point_label(k, false, false, seed)));
    }
    Agg flat;
    flat.fold(s.get(point_label(k, true, true, 42)));
    add_row(t, "aware", aware);
    add_row(t, "blind", blind);
    add_row(t, "flat", flat);
    std::printf("%s", t.str().c_str());
  }
}

}  // namespace

int main() {
  Sweep sweep = build_sweep();
  return run_bench_main(sweep, print_tables);
}
