// Structural analysis over the token stream: enclosing-function index and
// statement extraction. This is the engine's stand-in for an AST — precise
// enough for the project's own disciplines.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "model.h"
#include "token.h"

namespace asman_lint {

/// A function definition's extent in the token stream, with its qualified
/// name assembled from the enclosing namespace/class scopes (e.g.
/// "asman::vmm::Hypervisor::set_state"). Lambdas are not separate spans:
/// code inside a lambda attributes to the enclosing function, which is the
/// right granularity for the audited-setter whitelists.
struct FunctionSpan {
  std::string name;
  std::size_t begin;   // index of the body's '{'
  std::size_t end;     // index one past the matching '}'
  std::size_t params;  // index of the parameter list's '('
};

class FunctionIndex {
 public:
  explicit FunctionIndex(const FileUnit& unit);

  /// Innermost function containing token index `i`, or nullptr.
  const FunctionSpan* enclosing(std::size_t i) const;

  /// True if `i` is inside a function whose qualified name ends with
  /// `suffix` on a `::`-segment boundary ("Hypervisor::enqueue" matches
  /// "asman::vmm::Hypervisor::enqueue" but not "MyHypervisor::enqueue").
  bool inside(std::size_t i, const std::string& suffix) const;

  const std::vector<FunctionSpan>& spans() const { return spans_; }

 private:
  std::vector<FunctionSpan> spans_;
};

/// True when `name` ends with `suffix` aligned to a `::` boundary.
bool qualified_suffix_match(const std::string& name, const std::string& suffix);

/// [begin, end) token range of the statement containing token `i`: from the
/// token after the previous `;` `{` `}` to the next `;` inclusive. (For-loop
/// headers are not special-cased; the range may span the header, which is
/// conservative in the right direction for the statement-scoped checks.)
struct StmtRange {
  std::size_t begin;
  std::size_t end;
};
StmtRange statement_around(const std::vector<Token>& toks, std::size_t i);

/// Index of the matching closing bracket for the opener at `i` (one of
/// ( [ { <). Returns toks.size() if unbalanced. For '<' the scan bails on
/// tokens that cannot appear in a template argument list (`;`, `{`, `&&`),
/// returning toks.size() — callers treat that as "not a template list".
std::size_t match_forward(const std::vector<Token>& toks, std::size_t i);

/// One table of a shared spec header (the header the runtime compiles
/// against, so lint and runtime read the same rows): `<root>/<rel_path>`
/// lexed, with `open`/`close` the braces of the initializer that follows
/// `<table> [`. `error` names the `what` ("bounds spec", ...) that could
/// not be read, or the missing initializer.
struct SpecTable {
  std::string path;
  FileUnit unit;
  std::size_t open{0};
  std::size_t close{0};
  std::string error;
};
SpecTable read_spec_table(const std::string& root, const std::string& rel_path,
                          const std::string& table, const char* what);

/// Shared per-file context handed to every check.
struct AnalysisContext {
  const FileUnit& unit;
  const FunctionIndex& functions;
  const Options& options;
  std::vector<Finding>& findings;

  void report(int line, const char* check, std::string message) const;
  /// For flow-sensitive checks that attach a path-witness trace.
  void report(Finding f) const;
};

// The project checks (checks_*.cpp). The first four are lexical/structural;
// credit-flow, state-machine and thread-safety are flow-sensitive (flow.h),
// and value-range is the abstract interpreter (absint.h).
void check_determinism(const AnalysisContext& ctx);
void check_ordered_iteration(const AnalysisContext& ctx);
void check_integer_credit(const AnalysisContext& ctx);
void check_audit_seam(const AnalysisContext& ctx);
void check_credit_flow(const AnalysisContext& ctx);
void check_state_machine(const AnalysisContext& ctx);
void check_thread_safety(const AnalysisContext& ctx);

/// value-range (asman-prove): interval abstract interpretation seeded from
/// src/core/bounds_spec.h. `model` is the cross-TU value model built from
/// every in-scope unit before the per-file passes run.
class ValueModel;
void check_value_range(const AnalysisContext& ctx, const ValueModel& model);

/// The audited credit/pressure writer whitelists (owned by audit-seam),
/// shared with value-range's taint scoping: arithmetic inside these seams
/// is always in scope for the overflow proof.
const std::vector<std::string>& audited_value_seams();

/// Cross-TU half of thread-safety: follows calls out of pool-worker lambdas
/// through the whole-scope call graph and reports reachable writes to
/// file-scope mutable statics (hidden shared state between workers).
void check_thread_safety_cross_tu(const Options& options,
                                  const std::vector<FileUnit>& units,
                                  std::vector<Finding>& findings);

/// Cross-TU part of the audit-seam check: after every file has been
/// scanned, confirm each whitelisted audited setter was actually seen as a
/// definition somewhere in the lint scope, so the whitelist cannot go stale
/// and silently exempt writes. `all_functions` is every FunctionSpan name.
void check_audit_seam_cross_tu(const Options& options,
                               const std::vector<std::string>& all_functions,
                               std::vector<Finding>& findings);

}  // namespace asman_lint
