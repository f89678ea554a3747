// credit-flow: flow-sensitive conservation proof for credit mutations.
//
// Every write to a VCPU's credit field must be one of three shapes, each
// with its own obligation, checked on ALL control-flow paths (early
// returns and throw paths included):
//
//   (a) self-referential delta  (`v.credit = v.credit - d`, `+=`, `-=`):
//       must be saturated in the same statement (std::max/std::min against
//       a cap), so a runaway workload cannot push a balance past the cap
//       between accounting periods.
//   (b) zero-drain (`v.credit = 0`): only legal as a tombstone drain —
//       every entry->write path must carry kDestroyed evidence, i.e. pass
//       a statement mentioning the destroyed state.
//   (c) redistribution (plain `=` from a computed pool): must sit inside
//       an accounting window — audit_event(kAccountingBegin) dominates the
//       write and audit_minted post-dominates it, so the runtime auditor's
//       conservation ledger sees exactly the minted delta. One alternative
//       bracketing is accepted: audit_seeded post-dominating the write
//       (migration seeding). Seeding needs no prior pool snapshot because
//       the auditor re-verifies the whole split from the transferred pool,
//       not from a delta against a baseline.
//
// When an obligation fails the finding carries the witness path, so the
// report shows the concrete escape route, not just the mutation site.
#include <string>
#include <vector>

#include "analyzer.h"
#include "flow.h"

namespace asman_lint {

namespace {

bool node_has_ident(const CfgNode& n, const std::vector<Token>& toks,
                    const char* ident) {
  for (std::size_t i = n.tok_begin; i < n.tok_end && i < toks.size(); ++i)
    if (toks[i].kind == Tok::kIdent && toks[i].text == ident) return true;
  return false;
}

/// How a write-to-exit witness leaves the function: through the statement
/// that reaches the exit (`return`, `throw`), else through a `continue`
/// the path took out of its loop, else off the end of the body.
const char* exit_kind(const Cfg& cfg, const std::vector<std::size_t>& path,
                      const std::vector<Token>& toks) {
  const auto starts_with = [&](std::size_t n, const char* keyword) {
    const CfgNode& node = cfg.nodes[n];
    return node.tok_begin < node.tok_end && node.tok_begin < toks.size() &&
           is_ident(toks[node.tok_begin], keyword);
  };
  if (path.size() >= 2) {
    const std::size_t last = path[path.size() - 2];
    if (starts_with(last, "return")) return "an early `return`";
    if (starts_with(last, "throw")) return "a `throw`";
  }
  for (std::size_t n : path)
    if (starts_with(n, "continue"))
      return "a `continue` that falls out of the loop";
  return "the end of the body";
}

}  // namespace

void check_credit_flow(const AnalysisContext& ctx) {
  const std::vector<Token>& t = ctx.unit.toks;
  const TransitionSpec& spec = vcpu_transition_spec(ctx.options);
  // The spec's enumerator universe makes default-less exhaustive switches
  // on VcpuState bypass-free; an unreadable spec degrades gracefully (the
  // state-machine check reports the spec error once).
  const std::vector<std::string>& universe = spec.states;

  for (const FunctionSpan& fn : ctx.functions.spans()) {
    Cfg cfg;  // built lazily: most functions never touch credit
    bool have_cfg = false;

    for (std::size_t i = fn.begin; i + 1 < fn.end && i + 1 < t.size(); ++i) {
      if (t[i].kind != Tok::kIdent || t[i].text != "credit") continue;
      if (i == 0 || t[i - 1].kind != Tok::kPunct ||
          (t[i - 1].text != "." && t[i - 1].text != "->"))
        continue;
      const Token& op = t[i + 1];
      if (!is_assign_op(op)) continue;
      const int line = t[i].line;
      const StmtRange stmt = statement_around(t, i);

      // Statement-local scans.
      bool rhs_reads_credit = false;
      bool saturated = false;
      bool rhs_is_zero = false;
      {
        std::size_t rhs = i + 2;  // first RHS token
        if (rhs < stmt.end && t[rhs].kind == Tok::kNumber &&
            t[rhs].text == "0" && rhs + 1 < stmt.end &&
            t[rhs + 1].kind == Tok::kPunct && t[rhs + 1].text == ";")
          rhs_is_zero = true;
        for (std::size_t j = rhs; j < stmt.end && j < t.size(); ++j) {
          if (t[j].kind != Tok::kIdent) continue;
          if (t[j].text == "credit" && t[j - 1].kind == Tok::kPunct &&
              (t[j - 1].text == "." || t[j - 1].text == "->"))
            rhs_reads_credit = true;
          if (t[j].text == "max" || t[j].text == "min" ||
              t[j].text.find("cap") != std::string::npos)
            saturated = true;
        }
      }

      const bool self_delta = op.text != "=" || rhs_reads_credit;

      if (self_delta) {
        // Shape (a): purely statement-scoped — saturation must live in the
        // same expression, where the reader (and the auditor) can see it.
        if (!saturated) {
          ctx.report(line, "credit-flow",
                     "unsaturated credit delta: self-referential credit "
                     "update without std::max/std::min saturation against a "
                     "cap (see Hypervisor::charge for the required shape)");
        }
        continue;
      }

      if (!have_cfg) {
        cfg = build_cfg(t, fn.begin, fn.end, universe);
        have_cfg = true;
      }
      const std::size_t node = cfg.node_of(i);
      if (node == Cfg::npos) continue;

      if (rhs_is_zero) {
        // Shape (b): tombstone drain. Destroyed-evidence must dominate.
        auto escape = path_to_avoiding(cfg, node, [&](const CfgNode& n) {
          return node_has_ident(n, t, "kDestroyed");
        });
        if (escape) {
          Finding f;
          f.file = ctx.unit.display_path;
          f.line = line;
          f.check = "credit-flow";
          f.message =
              "credit zero-drain reachable without kDestroyed evidence: "
              "some path reaches this `credit = 0` without establishing "
              "that the VCPU is being destroyed";
          f.trace = trace_of_path(cfg, *escape, t);
          ctx.report(std::move(f));
        }
        continue;
      }

      // Migration-seeding variant of shape (c): if audit_seeded
      // post-dominates the write, the runtime auditor re-verifies the full
      // split from the transferred pool on every exit path — no snapshot
      // bracket required.
      if (!path_from_avoiding(cfg, node, [&](const CfgNode& n) {
            return node_has_ident(n, t, "audit_seeded");
          }))
        continue;

      // Shape (c): redistribution. Must be bracketed by the accounting
      // audit window on every path.
      auto before = path_to_avoiding(cfg, node, [&](const CfgNode& n) {
        return node_has_ident(n, t, "kAccountingBegin");
      });
      if (before) {
        Finding f;
        f.file = ctx.unit.display_path;
        f.line = line;
        f.check = "credit-flow";
        f.message =
            "credit redistribution not dominated by "
            "audit_event(kAccountingBegin): a path reaches this write "
            "before the accounting pool snapshot";
        f.trace = trace_of_path(cfg, *before, t);
        ctx.report(std::move(f));
        continue;
      }
      auto after = path_from_avoiding(cfg, node, [&](const CfgNode& n) {
        return node_has_ident(n, t, "audit_minted");
      });
      if (after) {
        Finding f;
        f.file = ctx.unit.display_path;
        f.line = line;
        f.check = "credit-flow";
        f.message = std::string("credit redistribution can escape without "
                                "audit_minted: a path leaves the function "
                                "through ") +
                    exit_kind(cfg, *after, t) +
                    " before the minted delta is reported to the "
                    "conservation ledger";
        f.trace = trace_of_path(cfg, *after, t);
        ctx.report(std::move(f));
      }
    }
  }
}

}  // namespace asman_lint
