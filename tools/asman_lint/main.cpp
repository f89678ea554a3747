// asman-lint (asman-verify): static checks for the ASMan simulator's
// determinism, credit-accounting, state-machine and thread-safety
// disciplines (docs/MODEL.md "Static guarantees").
//
//   asman_lint [--root DIR] [--check NAME]... [--max-allows N]
//              [--sarif FILE] [--list-checks] [files...]
//
// With explicit files, lints those. Otherwise walks --root's src/, bench/
// and examples/ trees. Exit codes: 0 clean, 1 findings or suppression
// budget exceeded, 2 usage/IO error.
//
// The analyzer is a lexical/structural engine that builds with nothing
// beyond the C++ toolchain, so the `lint`-labeled tests run in every
// tier-1 configuration.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "absint.h"
#include "analyzer.h"
#include "flow.h"
#include "lexer.h"
#include "model.h"
#include "report.h"
#include "sarif.h"

namespace asman_lint {

namespace {

namespace fs = std::filesystem;

// The tree walk's scope. All first-party code is in scope: the simulator
// itself plus the bench and example TUs (a nondeterministic bench harness
// would invalidate every perf trajectory comparison just as surely as a
// nondeterministic scheduler would invalidate replay). Tests are out of
// scope: they seed violations through test seams on purpose.
const char* const kScope[] = {"src/", "bench/", "examples/"};

bool source_like(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".h" || ext == ".hpp";
}

std::string display_path(const std::string& path, const std::string& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(path, root.empty() ? "." : root, ec);
  if (ec || rel.empty() || rel.native().compare(0, 2, "..") == 0)
    return path;
  return rel.generic_string();
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--root DIR] [--check NAME]... [--list-checks] "
               "[--max-allows N] [--sarif FILE] [files...]\n"
               "\n"
               "  --root DIR       repo root (default: cwd); without files,\n"
               "                   lints its src/, bench/ and examples/\n"
               "  --check NAME     run only the named check (repeatable;\n"
               "                   see --list-checks)\n"
               "  --max-allows N   suppression budget, a whole number >= 0\n"
               "                   (default 2)\n"
               "  --sarif FILE     also write SARIF 2.1.0 to FILE\n",
               argv0);
  return 2;
}

/// Parses a whole non-negative decimal integer; anything else is false.
bool parse_count(const std::string& s, int& out) {
  if (s.empty() || s[0] == '-') return false;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

int run(const Options& options) {
  // Assemble the file list: explicit files, else the tree walk.
  std::vector<std::string> files = options.files;
  std::string err;
  const std::string root = options.root.empty() ? "." : options.root;
  if (files.empty()) {
    bool walked_any = false;
    for (const char* prefix : kScope) {
      std::error_code ec;
      for (const auto& entry :
           fs::recursive_directory_iterator(root + "/" + prefix, ec)) {
        if (entry.is_regular_file() && source_like(entry.path()))
          files.push_back(entry.path().string());
      }
      if (!ec) walked_any = true;
    }
    if (!walked_any) {
      std::fprintf(stderr, "asman-lint: cannot walk any scope prefix under %s\n",
                   root.c_str());
      return 2;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<Finding> findings;
  std::vector<std::string> all_functions;
  std::vector<FileUnit> units;
  units.reserve(files.size());
  for (const std::string& f : files) {
    FileUnit unit;
    if (!lex_path(f, display_path(f, root), unit, err)) {
      std::fprintf(stderr, "asman-lint: %s\n", err.c_str());
      return 2;
    }
    units.push_back(std::move(unit));
  }
  if (units.empty()) {
    std::fprintf(stderr, "asman-lint: no files in scope\n");
    return 2;
  }

  // The value model is cross-TU (single-return summaries + member-field
  // facts), so build it from every unit before the per-file passes run.
  ValueModel value_model;
  if (check_enabled(options, "value-range")) {
    for (const FileUnit& unit : units) value_model.add_unit(unit);
    value_model.finalize(bounds_spec(options));
  }

  for (const FileUnit& unit : units) {
    const FunctionIndex fidx(unit);
    for (const FunctionSpan& s : fidx.spans()) all_functions.push_back(s.name);
    const AnalysisContext ctx{unit, fidx, options, findings};
    if (check_enabled(options, "determinism")) check_determinism(ctx);
    if (check_enabled(options, "ordered-iteration"))
      check_ordered_iteration(ctx);
    if (check_enabled(options, "integer-credit")) check_integer_credit(ctx);
    if (check_enabled(options, "audit-seam")) check_audit_seam(ctx);
    if (check_enabled(options, "credit-flow")) check_credit_flow(ctx);
    if (check_enabled(options, "state-machine")) check_state_machine(ctx);
    if (check_enabled(options, "thread-safety") ||
        check_enabled(options, "rng-discipline"))
      check_thread_safety(ctx);
    if (check_enabled(options, "value-range"))
      check_value_range(ctx, value_model);
    apply_allows(unit, findings);
  }
  if (check_enabled(options, "audit-seam"))
    check_audit_seam_cross_tu(options, all_functions, findings);
  check_thread_safety_cross_tu(options, units, findings);
  if (options.files.empty()) {
    // An unreadable or unparseable spec table must fail the run loudly, not
    // let its rule verify vacuously.
    const struct {
      const char* check;
      const char* path;
      const std::string& error;
    } specs[] = {
        {"state-machine", "src/vmm/state_spec.h",
         vcpu_transition_spec(options).error},
        {"state-machine", "src/cluster/migration_spec.h",
         migration_transition_spec(options).error},
        {"value-range", "src/core/bounds_spec.h", bounds_spec(options).error},
    };
    for (const auto& s : specs) {
      if (!check_enabled(options, s.check) || s.error.empty()) continue;
      Finding f;
      f.file = s.path;
      f.line = 1;
      f.check = s.check;
      f.message = s.error;
      findings.push_back(std::move(f));
    }
  }

  const ReportStats stats = print_report(findings, options);
  if (!options.sarif_path.empty() &&
      !write_sarif(options.sarif_path, findings)) {
    std::fprintf(stderr, "asman-lint: cannot write SARIF to %s\n",
                 options.sarif_path.c_str());
    return 2;
  }
  if (stats.errors > 0 || stats.suppressed > options.max_allows) return 1;
  return 0;
}

}  // namespace asman_lint

int main(int argc, char** argv) {
  using asman_lint::Options;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "asman-lint: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--root") {
      const char* v = next("--root");
      if (v == nullptr) return 2;
      opt.root = v;
    } else if (a == "--sarif") {
      const char* v = next("--sarif");
      if (v == nullptr) return 2;
      opt.sarif_path = v;
    } else if (a == "--check") {
      const char* v = next("--check");
      if (v == nullptr) return 2;
      opt.only_checks.push_back(v);
    } else if (a == "--max-allows") {
      const char* v = next("--max-allows");
      if (v == nullptr) return 2;
      if (!asman_lint::parse_count(v, opt.max_allows))
        return asman_lint::usage(argv[0]);
    } else if (a == "--list-checks") {
      for (const char* c : asman_lint::kCheckNames) std::printf("%s\n", c);
      return 0;
    } else if (a == "--help" || a == "-h") {
      return asman_lint::usage(argv[0]) == 2 ? 0 : 0;
    } else if (!a.empty() && a[0] == '-') {
      return asman_lint::usage(argv[0]);
    } else {
      opt.files.push_back(a);
    }
  }
  for (const std::string& c : opt.only_checks) {
    const auto* b = std::begin(asman_lint::kCheckNames);
    const auto* e = std::end(asman_lint::kCheckNames);
    if (std::find_if(b, e, [&c](const char* n) { return c == n; }) == e) {
      std::fprintf(stderr, "asman-lint: unknown check '%s'\n", c.c_str());
      return 2;
    }
  }
  return asman_lint::run(opt);
}
