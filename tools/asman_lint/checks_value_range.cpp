// value-range: interval abstract interpretation proving the credit /
// pressure / contention arithmetic safe for EVERY configuration the
// runtime admits (asman-prove; docs/MODEL.md "Static guarantees").
//
// The admissible config space is src/core/bounds_spec.h — the same table
// hw::validate_config() enforces and the VMM's knob resolution clamps
// into, so the proof space and the admission space cannot drift. Each
// function's CFG is walked to a fixpoint over an interval environment
// (branch-condition refinement on if/while/for edges, loop-variable
// widening on back edges), and every store, narrowing cast and
// known-width arithmetic op is checked against its static type. A finding
// carries the witness: the concrete config corner (freq_hz = 10 GHz,
// slot_ms = 1000, ...) that drives the expression out of range — the
// value-range analogue of credit-flow's path witness.
//
// Scope: statements tainted by the credit/pressure vocabulary, by a value
// read from the bounds spec, or by sitting inside one of audit-seam's
// audited writer functions (the seams where mis-priced arithmetic would
// corrupt the ledgers the other rules defend). Untainted overflow is the
// compiler's and UBSan's problem; this rule is the scheduler's proof.
#include <map>
#include <set>
#include <string>
#include <vector>

#include "absint.h"
#include "analyzer.h"
#include "flow.h"

namespace asman_lint {

namespace {

constexpr int kWidenAfterVisits = 4;

/// Condition sub-range of a kBranch node (`if ( C )` / `while ( C )`):
/// tokens strictly inside the parens. Returns false if malformed.
bool cond_range(const std::vector<Token>& t, const CfgNode& n,
                std::size_t& cb, std::size_t& ce) {
  std::size_t open = n.tok_begin;
  while (open < n.tok_end && !is_punct(t[open], "(")) ++open;
  if (open >= n.tok_end) return false;
  const std::size_t close = match_forward(t, open);
  if (close >= n.tok_end) return false;
  cb = open + 1;
  ce = close;
  return cb < ce;
}

/// The three clauses of a for-head `for ( init ; cond ; incr )`; a
/// range-for reports only `range_var` (set to top on entry).
struct ForParts {
  std::size_t init_b{0}, init_e{0};
  std::size_t cond_b{0}, cond_e{0};
  std::size_t incr_b{0}, incr_e{0};
  std::string range_var;
  bool ok{false};
};

ForParts for_parts(const std::vector<Token>& t, const CfgNode& n) {
  ForParts p;
  std::size_t open = n.tok_begin;
  while (open < n.tok_end && !is_punct(t[open], "(")) ++open;
  if (open >= n.tok_end) return p;
  const std::size_t close = match_forward(t, open);
  if (close >= n.tok_end) return p;
  std::vector<std::size_t> cuts;
  int depth = 0;
  std::size_t colon = close;
  for (std::size_t i = open + 1; i < close; ++i) {
    if (t[i].kind != Tok::kPunct) continue;
    const std::string& x = t[i].text;
    if (x == "(" || x == "[" || x == "{") ++depth;
    else if (x == ")" || x == "]" || x == "}") --depth;
    else if (depth == 0 && x == ";") cuts.push_back(i);
    else if (depth == 0 && x == ":" && colon == close) colon = i;
  }
  if (cuts.size() == 2) {
    p.init_b = open + 1;
    p.init_e = cuts[0];
    p.cond_b = cuts[0] + 1;
    p.cond_e = cuts[1];
    p.incr_b = cuts[1] + 1;
    p.incr_e = close;
    p.ok = true;
    return p;
  }
  if (cuts.empty() && colon < close) {  // range-for
    for (std::size_t i = open + 1; i < colon; ++i)
      if (t[i].kind == Tok::kIdent) p.range_var = t[i].text;
    p.ok = true;
  }
  return p;
}

/// Loop-variable widening for a back edge into a for-head: the increment
/// clause runs an unknown number of times, so the variable it mutates is
/// unbounded in its direction of travel.
void widen_loop_var(const std::vector<Token>& t, const ForParts& p,
                    Env& env) {
  if (!p.range_var.empty()) {
    auto it = env.vars.find(p.range_var);
    if (it != env.vars.end()) it->second.known = false;
    return;
  }
  std::string var;
  bool up = false, down = false;
  for (std::size_t i = p.incr_b; i < p.incr_e; ++i) {
    if (var.empty() && t[i].kind == Tok::kIdent) var = t[i].text;
    if (t[i].kind == Tok::kPunct) {
      if (t[i].text == "++" || t[i].text == "+=") up = true;
      if (t[i].text == "--" || t[i].text == "-=") down = true;
    }
  }
  if (var.empty()) return;
  auto it = env.vars.find(var);
  if (it == env.vars.end() || !it->second.known) return;
  if (up || !down) it->second.hi = kAbsInf;
  if (down || !up) it->second.lo = -kAbsInf;
  it->second.wit_lo.clear();
  it->second.wit_hi.clear();
}

/// Entry-edge transfer for a for-head: run the init clause (or bind the
/// range-for variable as unknown).
void enter_for(const Evaluator& ev, const std::vector<Token>& t,
               const ForParts& p, Env& env) {
  if (!p.range_var.empty()) {
    env.vars[p.range_var] = AbsVal::top();
    return;
  }
  if (p.init_b < p.init_e) ev.transfer_stmt(t, p.init_b, p.init_e, env);
}

bool stmt_lexically_tainted(const std::vector<Token>& t, std::size_t b,
                            std::size_t e) {
  for (std::size_t i = b; i < e; ++i)
    if (t[i].kind == Tok::kIdent && taints_value(t[i].text)) return true;
  return false;
}

void report_violation(const AnalysisContext& ctx, const RangeViolation& v,
                      std::set<std::string>& seen) {
  const std::string key =
      std::to_string(v.line) + "|" + v.expr + "|" + width_name(v.width);
  if (!seen.insert(key).second) return;
  Finding f;
  f.file = ctx.unit.display_path;
  f.line = v.line;
  f.check = "value-range";
  f.message = "'" + v.expr + "' can " +
              (v.narrowing ? std::string("escape a narrowing store to ")
                           : std::string("overflow ")) +
              width_name(v.width) + ": the admissible config space proves "
              "range [" + wide_str(v.lo) + ", " + wide_str(v.hi) +
              "] vs the type's [" + wide_str(width_min(v.width)) + ", " +
              wide_str(width_max(v.width)) + "]; widen the arithmetic or "
              "tighten src/core/bounds_spec.h";
  f.trace.push_back(
      {v.line, "proved interval [" + wide_str(v.lo) + ", " +
                   wide_str(v.hi) + "] for '" + v.expr + "'"});
  for (const WitnessBinding& w : v.witness)
    f.trace.push_back(
        {v.line, "witness config: " + w.name + " = " +
                     std::to_string(w.value)});
  if (v.witness.empty())
    f.trace.push_back({v.line, "witness: escapes for every admissible "
                               "config (no config corner needed)"});
  ctx.report(std::move(f));
}

}  // namespace

void check_value_range(const AnalysisContext& ctx, const ValueModel& model) {
  const BoundsSpec& spec = bounds_spec(ctx.options);
  if (!spec.error.empty()) return;  // loud-fail is reported once, in run()
  const Evaluator ev(spec, model);
  const std::vector<Token>& t = ctx.unit.toks;
  const std::vector<std::string>& universe =
      vcpu_transition_spec(ctx.options).states;
  const std::vector<std::string>& seams = audited_value_seams();
  std::set<std::string> seen;

  for (const FunctionSpan& fn : ctx.functions.spans()) {
    if (fn.end <= fn.begin + 2) continue;
    bool in_seam = false;
    for (const std::string& s : seams)
      in_seam = in_seam || qualified_suffix_match(fn.name, s);

    const Cfg cfg = build_cfg(t, fn.begin, fn.end, universe);
    const std::size_t n_nodes = cfg.nodes.size();
    std::vector<std::vector<std::size_t>> preds(n_nodes);
    for (std::size_t i = 0; i < n_nodes; ++i)
      for (std::size_t s : cfg.nodes[i].succ) preds[s].push_back(i);

    // Per-node for-head decomposition, computed once.
    std::map<std::size_t, ForParts> fors;
    for (std::size_t i = 0; i < n_nodes; ++i)
      if (cfg.nodes[i].kind == CfgNodeKind::kForHead)
        fors[i] = for_parts(t, cfg.nodes[i]);

    std::vector<Env> in(n_nodes);
    for (Env& e : in) e.unreachable = true;  // not yet reached
    in[cfg.entry].unreachable = false;
    std::vector<int> visits(n_nodes, 0);
    std::vector<std::size_t> work{cfg.entry};

    // Edge function: out-env of `from` as seen along the edge to `to`.
    auto edge_env = [&](std::size_t from, std::size_t to) -> Env {
      Env env = in[from];
      const CfgNode& nf = cfg.nodes[from];
      if (env.unreachable) return env;
      if (nf.kind == CfgNodeKind::kPlain) {
        if (nf.tok_begin < nf.tok_end)
          ev.transfer_stmt(t, nf.tok_begin, nf.tok_end, env);
      } else if (nf.kind == CfgNodeKind::kBranch) {
        std::size_t cb = 0, ce = 0;
        if (cond_range(t, nf, cb, ce)) {
          const bool taken = !nf.succ.empty() && to == nf.succ[0];
          ev.refine(t, cb, ce, taken, env);
        }
      } else {  // kForHead: out edges carry the condition refinement
        auto it = fors.find(from);
        if (it != fors.end() && it->second.ok &&
            it->second.cond_b < it->second.cond_e) {
          const bool taken = !nf.succ.empty() && to == nf.succ[0];
          ev.refine(t, it->second.cond_b, it->second.cond_e, taken, env);
        }
      }
      // Entering a for-head from outside the loop runs the init clause;
      // re-entering along a back edge widens the loop variable instead.
      const CfgNode& nt = cfg.nodes[to];
      if (nt.kind == CfgNodeKind::kForHead) {
        auto it = fors.find(to);
        if (it != fors.end() && it->second.ok) {
          if (from < to)
            enter_for(ev, t, it->second, env);
          else
            widen_loop_var(t, it->second, env);
        }
      }
      return env;
    };

    std::size_t budget = n_nodes * 64 + 256;
    while (!work.empty() && budget-- > 0) {
      const std::size_t n = work.back();
      work.pop_back();
      for (std::size_t s : cfg.nodes[n].succ) {
        Env e = edge_env(n, s);
        Env joined = join_envs(in[s], e);
        if (visits[s] > kWidenAfterVisits && !in[s].unreachable) {
          for (auto& [name, v] : joined.vars) {
            auto old = in[s].vars.find(name);
            if (old == in[s].vars.end() || !old->second.known) continue;
            if (!v.known) continue;
            if (v.lo < old->second.lo) v.lo = -kAbsInf;
            if (v.hi > old->second.hi) v.hi = kAbsInf;
          }
        }
        if (!joined.same_ranges(in[s])) {
          in[s] = std::move(joined);
          ++visits[s];
          work.push_back(s);
        }
      }
    }

    // Reporting pass: evaluate each reachable node once under its fixpoint
    // in-env and harvest proved violations from tainted statements.
    for (std::size_t i = 0; i < n_nodes; ++i) {
      const CfgNode& node = cfg.nodes[i];
      if (in[i].unreachable || node.tok_begin >= node.tok_end) continue;
      Env env = in[i];
      AbsVal v;
      std::size_t sb = node.tok_begin, se = node.tok_end;
      if (node.kind == CfgNodeKind::kBranch) {
        std::size_t cb = 0, ce = 0;
        if (!cond_range(t, node, cb, ce)) continue;
        sb = cb;
        se = ce;
        v = ev.eval(t, cb, ce, env);
      } else if (node.kind == CfgNodeKind::kForHead) {
        auto it = fors.find(i);
        if (it == fors.end() || !it->second.ok) continue;
        const ForParts& p = it->second;
        if (p.init_b < p.init_e) v = ev.transfer_stmt(t, p.init_b, p.init_e, env);
        if (!v.viol && p.cond_b < p.cond_e) {
          AbsVal c = ev.eval(t, p.cond_b, p.cond_e, env);
          v.viol = c.viol;
          v.tainted = v.tainted || c.tainted;
        }
        if (!v.viol && p.incr_b < p.incr_e) {
          AbsVal c = ev.eval(t, p.incr_b, p.incr_e, env);
          v.viol = c.viol;
          v.tainted = v.tainted || c.tainted;
        }
      } else {
        v = ev.transfer_stmt(t, node.tok_begin, node.tok_end, env);
      }
      if (!v.viol) continue;
      const bool tainted = in_seam || v.tainted ||
                           stmt_lexically_tainted(t, sb, se);
      if (!tainted) continue;
      report_violation(ctx, *v.viol, seen);
    }
  }
}

}  // namespace asman_lint
