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
  std::vector<std::string> files;
  std::vector<std::string> only_checks;  // --check NAME (repeatable)
  std::string sarif_path;        // --sarif FILE (empty: no SARIF output)
  // Suppression budget (CI-visible). The clean tree carries no ledgered
  // allows; actual + 2 keeps a new escape from hiding inside slack.
  int max_allows{2};
};

bool check_enabled(const Options& opt, const char* name);

}  // namespace asman_lint
