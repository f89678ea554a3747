// Shared plumbing for the figure-reproduction bench binaries.
//
// Every bench binary reproduces one figure of the paper (or one scenario
// family): it declares a sweep of labelled scenarios, executes them in
// parallel on a thread pool (each simulation is single-threaded and
// deterministic) and prints the paper-style table. The binaries report
// results, not timings; perfbench/ is the timing harness.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "experiments/paper.h"
#include "experiments/scenario.h"
#include "experiments/tables.h"
#include "simcore/thread_pool.h"

namespace asman::bench {

namespace ex = asman::experiments;

/// A labelled set of scenarios, each run once by `Run`. Any result type
/// that carries audit_checks / audit_violations / audit_summary fits: the
/// single-host RunResult and the cluster's ClusterRunResult both do.
template <typename ScenarioT, typename ResultT,
          ResultT (*Run)(const ScenarioT&)>
class BasicSweep {
 public:
  void add(std::string label, ScenarioT scenario) {
    labels_.push_back(std::move(label));
    scenarios_.push_back(std::move(scenario));
  }

  /// Run every scenario (parallel) and keep the results by label. With
  /// ASMAN_AUDIT=1 in the environment every run is audited; the verdicts
  /// go to stderr.
  void execute() {
    std::fprintf(stderr, "[sweep] running %zu simulations...\n",
                 labels_.size());
    std::vector<ResultT> out(labels_.size());
    sim::ThreadPool pool;
    pool.parallel_for(labels_.size(), [&](std::size_t i) {
      out[i] = Run(scenarios_[i]);
    });
    std::uint64_t audited = 0;
    std::uint64_t audit_checks = 0;
    for (std::size_t i = 0; i < labels_.size(); ++i) {
      if (out[i].audit_checks > 0) {
        ++audited;
        audit_checks += out[i].audit_checks;
      }
      if (out[i].audit_violations > 0)
        std::fprintf(stderr, "[audit] %s: %llu violation(s)\n%s",
                     labels_[i].c_str(),
                     static_cast<unsigned long long>(out[i].audit_violations),
                     out[i].audit_summary.c_str());
      results_.emplace(labels_[i], std::move(out[i]));
    }
    if (audited > 0)
      std::fprintf(stderr,
                   "[audit] %llu invariant checks across %llu audited runs\n",
                   static_cast<unsigned long long>(audit_checks),
                   static_cast<unsigned long long>(audited));
    std::fprintf(stderr, "[sweep] done.\n");
  }

  /// Total invariant violations across all executed points (0 unless the
  /// runs were audited).
  std::uint64_t audit_violations() const {
    std::uint64_t n = 0;
    for (const auto& [label, r] : results_) n += r.audit_violations;
    return n;
  }

  const ResultT& get(const std::string& label) const {
    return results_.at(label);
  }

  /// Declared point labels, in declaration order.
  const std::vector<std::string>& labels() const { return labels_; }

 private:
  std::vector<std::string> labels_;
  std::vector<ScenarioT> scenarios_;  // parallel to labels_
  std::map<std::string, ResultT> results_;
};

using Sweep = BasicSweep<ex::Scenario, ex::RunResult, ex::run_scenario>;

/// Canonical single-VM label "SCHED/rateNN".
inline std::string rate_label(core::SchedulerKind k, double rate) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%s/rate%.1f", core::to_string(k),
                rate * 100.0);
  return buf;
}

/// Standard bench entry point: execute the sweep, print its tables, and
/// fail the binary when an audited run violated an invariant, so CI
/// treats violations as errors.
template <typename SweepT>
int run_bench_main(SweepT& sweep, void (*print_tables)(const SweepT&)) {
  sweep.execute();
  print_tables(sweep);
  const std::uint64_t violations = sweep.audit_violations();
  if (violations > 0) {
    std::fprintf(stderr, "[audit] %llu invariant violation(s) -- see above\n",
                 static_cast<unsigned long long>(violations));
    return 1;
  }
  return 0;
}

}  // namespace asman::bench
