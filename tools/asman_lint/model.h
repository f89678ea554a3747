// Findings, check registry, and shared configuration for asman-lint.
#pragma once

#include <string>
#include <vector>

#include "token.h"

namespace asman_lint {

/// One step of a path witness: the flow-sensitive checks attach the
/// violating control-flow path to the finding, so the report (and the
/// SARIF codeFlow) shows HOW the bad path reaches the mutation, not just
/// where it is.
struct TraceStep {
  int line;
  std::string note;
};

struct Finding {
  std::string file;    // display path
  int line;
  std::string check;   // one of kCheckNames
  std::string message;
  bool allowed{false};        // suppressed by an asman-lint: allow(...) pragma
  std::string allow_reason;   // the pragma's `-- reason`, if any
  std::vector<TraceStep> trace;  // path witness (flow-sensitive checks)
};

inline const char* const kCheckNames[] = {
    "determinism",
    "ordered-iteration",
    "integer-credit",
    "audit-seam",
    "credit-flow",
    "state-machine",
    "thread-safety",
    "rng-discipline",
    "value-range",
};

struct Options {
  std::string root;              // repo root (default: cwd)
  std::string compile_db;        // -p BUILD_DIR (compile_commands.json)
  std::vector<std::string> files;
  // Scope filters when walking --root / reading the compile DB. All
  // first-party code is in scope: the simulator itself plus the bench and
  // example TUs (a nondeterministic bench harness would invalidate every
  // perf trajectory comparison just as surely as a nondeterministic
  // scheduler would invalidate replay).
  std::vector<std::string> prefixes{"src/", "bench/", "examples/"};
  std::vector<std::string> only_checks;  // --check NAME (repeatable)
  std::string sarif_path;        // --sarif FILE (empty: no SARIF output)
  // Suppression budget (CI-visible). The clean tree carries no ledgered
  // allows; actual + 2 keeps a new escape from hiding inside slack.
  int max_allows{2};
  bool quiet{false};
  bool list_checks{false};
};

bool check_enabled(const Options& opt, const char* name);

/// True when `display` starts with any configured prefix (or none are).
bool under_any_prefix(const std::string& display, const Options& opt);

}  // namespace asman_lint
