#include "report.h"

#include <algorithm>
#include <cstdio>

namespace asman_lint {

void apply_allows(const FileUnit& unit, std::vector<Finding>& findings) {
  for (Finding& f : findings) {
    if (f.file != unit.display_path) continue;
    for (const AllowPragma& p : unit.allows) {
      if (p.line != f.line && p.line != f.line - 1) continue;
      const bool covers =
          std::any_of(p.checks.begin(), p.checks.end(),
                      [&f](const std::string& c) {
                        return c == f.check || c == "all";
                      });
      if (!covers) continue;
      f.allowed = true;
      f.allow_reason = p.reason;
      ++p.uses;
      break;
    }
  }
}

ReportStats print_report(const std::vector<Finding>& findings,
                         const Options& options) {
  ReportStats stats;
  for (const Finding& f : findings) {
    if (f.allowed) {
      ++stats.suppressed;
      continue;
    }
    ++stats.errors;
    std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                 f.check.c_str(), f.message.c_str());
    // The path witness: how control flow reaches the violation.
    for (const TraceStep& s : f.trace)
      std::fprintf(stderr, "    path: line %d: %s\n", s.line, s.note.c_str());
  }
  // The suppression ledger is always printed: allows are meant to be
  // visible in CI output, that is the point of the budget.
  for (const Finding& f : findings) {
    if (!f.allowed) continue;
    std::fprintf(stderr, "%s:%d: [%s] suppressed by allow(%s)%s%s\n",
                 f.file.c_str(), f.line, f.check.c_str(), f.check.c_str(),
                 f.allow_reason.empty() ? "" : " -- ",
                 f.allow_reason.c_str());
  }
  std::fprintf(stderr,
               "asman-lint: %d error(s), %d suppression(s) (budget %d)\n",
               stats.errors, stats.suppressed, options.max_allows);
  if (stats.suppressed > options.max_allows) {
    std::fprintf(stderr,
                 "asman-lint: suppression budget exceeded (%d > %d); prune "
                 "allows or raise --max-allows deliberately\n",
                 stats.suppressed, options.max_allows);
  }
  return stats;
}

bool check_enabled(const Options& opt, const char* name) {
  if (opt.only_checks.empty()) return true;
  return std::find(opt.only_checks.begin(), opt.only_checks.end(), name) !=
         opt.only_checks.end();
}

}  // namespace asman_lint
