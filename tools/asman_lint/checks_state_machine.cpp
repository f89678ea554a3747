// state-machine: static verification of state-machine transitions against
// their shared specs — the same tables the runtimes compile against, so
// there is exactly one definition of legality per machine. Two machines
// are covered: VcpuState (src/vmm/state_spec.h, written via set_state)
// and the cluster live-migration FSM's MigrationPhase
// (src/cluster/migration_spec.h, written via Cluster::set_phase). The
// rule is parameterized over the machine's surface syntax, so adding a
// machine is a MachineSyntax entry plus its spec loader.
//
// A forward must-analysis over each function's CFG (build_cfg, the graph
// credit-flow and value-range read) tracks, per local variable, what every
// path has PROVEN about its state: an assert(x.state == VcpuState::kS),
// either edge of an if/while guard on x.state, a single-label
// `case VcpuState::kS:` of a switch on x.state, or a previous
// set_state(x, kS). Where paths meet, only the facts every path agrees on
// survive. A fact dies when its variable is reassigned, member-written, or
// passed to a call outside the audited seam (assert / the setter / the
// machine's whitelisted helpers). At each set_state(x, kTo) whose `from`
// is known, the (from, to) pair is checked against the spec; an illegal
// pair is reported with the evidence trace.
//
// The rule does not model aliasing (a member call could mutate a tracked
// variable through another reference); this under-invalidation is accepted
// because the audited seam is the only writer of VcpuState, so any such
// mutation is itself a set_state the rule sees — or an audit-seam
// violation reported by that check.
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analyzer.h"
#include "flow.h"

namespace asman_lint {

namespace {

/// The lexical surface of one audited state machine: the enum that names
/// its states, the member that stores them, the setter seam that writes
/// them, the callees that may see a tracked variable without invalidating
/// knowledge about it, and where the shared legality table lives (for the
/// finding message).
struct MachineSyntax {
  const char* enum_name;
  const char* member;
  const char* setter;
  std::vector<std::string> whitelist;  // includes the setter and "assert"
  const char* table_ident;
  const char* spec_path;
};

const MachineSyntax& vcpu_syntax() {
  static const MachineSyntax s{"VcpuState",
                               "state",
                               "set_state",
                               {"assert", "set_state", "enqueue", "dequeue"},
                               "kLegalVcpuTransitions",
                               "src/vmm/state_spec.h"};
  return s;
}

const MachineSyntax& migration_syntax() {
  static const MachineSyntax s{"MigrationPhase",
                               "phase",
                               "set_phase",
                               {"assert", "set_phase"},
                               "kLegalMigrationTransitions",
                               "src/cluster/migration_spec.h"};
  return s;
}

struct Fact {
  std::string state;
  int line{0};
  std::string note;
};
using Know = std::map<std::string, Fact>;

/// Keeps in `in` only the facts `edge` carries with the same state;
/// returns whether any fact was dropped.
bool meet(Know& in, const Know& edge) {
  bool changed = false;
  for (auto it = in.begin(); it != in.end();) {
    const auto e = edge.find(it->first);
    if (e != edge.end() && e->second.state == it->second.state) {
      ++it;
    } else {
      it = in.erase(it);
      changed = true;
    }
  }
  return changed;
}

/// `if (`, `while (`, `switch (` and `return (` open a header or an
/// expression, not a call. (`for (` stays a call on purpose: a for header
/// rebinds its names on every trip, so all of them are dropped like an
/// unaudited call's arguments.)
bool is_header_keyword(const std::string& s) {
  return s == "if" || s == "while" || s == "switch" || s == "return";
}

class StateFlow {
 public:
  StateFlow(const AnalysisContext& ctx, const TransitionSpec& spec,
            const MachineSyntax& syn)
      : ctx_(ctx), spec_(spec), syn_(syn), t_(ctx.unit.toks) {}

  void run() const {
    if (!spec_.error.empty()) return;  // reported once by the driver
    for (const FunctionSpan& fn : ctx_.functions.spans()) {
      if (!mentions_setter(fn)) continue;
      const Cfg cfg = build_cfg(t_, fn.begin, fn.end, spec_.states);
      const std::vector<std::optional<Know>> in = solve(cfg);
      for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
        if (!in[n]) continue;  // unreachable
        Know k = *in[n];
        transfer(cfg.nodes[n], k, /*report=*/true);
      }
    }
  }

 private:
  bool mentions_setter(const FunctionSpan& fn) const {
    for (std::size_t i = fn.begin; i < fn.end && i < t_.size(); ++i)
      if (is_ident(t_[i], syn_.setter)) return true;
    return false;
  }

  /// Worklist from the entry to the fixpoint: in[n] holds the facts on
  /// entry to node n, nullopt until some path reaches it.
  std::vector<std::optional<Know>> solve(const Cfg& cfg) const {
    std::vector<std::optional<Know>> in(cfg.nodes.size());
    std::vector<bool> queued(cfg.nodes.size(), false);
    std::deque<std::size_t> work{cfg.entry};
    in[cfg.entry] = Know{};
    queued[cfg.entry] = true;
    while (!work.empty()) {
      const std::size_t n = work.front();
      work.pop_front();
      queued[n] = false;
      const CfgNode& node = cfg.nodes[n];
      Know out = *in[n];
      transfer(node, out, /*report=*/false);
      for (std::size_t s = 0; s < node.succ.size(); ++s) {
        const std::size_t to = node.succ[s];
        Know edge = out;
        refine_edge(node, s, cfg.nodes[to], edge);
        bool changed = true;
        if (in[to]) changed = meet(*in[to], edge);
        else in[to] = std::move(edge);
        if (changed && !queued[to]) {
          queued[to] = true;
          work.push_back(to);
        }
      }
    }
    return in;
  }

  bool whitelisted_callee(const std::string& name) const {
    for (const std::string& w : syn_.whitelist)
      if (name == w) return true;
    return false;
  }

  /// `X (.|->) <member> <op> <Enum> :: kS` starting the comparison at `j`
  /// (j = index of the X ident). Fills var/state on match.
  bool match_state_cmp(std::size_t j, std::size_t end, const char* op,
                       std::string& var, std::string& state) const {
    if (j + 6 >= end) return false;
    if (t_[j].kind != Tok::kIdent) return false;
    if (!(is_punct(t_[j + 1], ".") || is_punct(t_[j + 1], "->"))) return false;
    if (!is_ident(t_[j + 2], syn_.member)) return false;
    if (!is_punct(t_[j + 3], op)) return false;
    if (!is_ident(t_[j + 4], syn_.enum_name)) return false;
    if (!is_punct(t_[j + 5], "::")) return false;
    if (t_[j + 6].kind != Tok::kIdent) return false;
    var = t_[j].text;
    state = t_[j + 6].text;
    return true;
  }

  /// One node: check each setter call against the entry facts (reporting
  /// illegal pairs when `report`), drop the facts of names an unaudited
  /// call, a reassignment or a member write may have changed, then record
  /// the setter's result and any assert(x.<member> == <Enum>::kS).
  void transfer(const CfgNode& node, Know& k, bool report) const {
    const std::size_t b = node.tok_begin, e = node.tok_end;
    if (b >= e) return;  // the entry and exit nodes
    struct Update {
      std::string var;
      Fact fact;
    };
    std::vector<Update> updates;

    for (std::size_t j = b; j + 1 < e && j + 1 < t_.size(); ++j) {
      if (t_[j].kind != Tok::kIdent || !is_punct(t_[j + 1], "(")) continue;
      const std::string& callee = t_[j].text;
      if (is_header_keyword(callee)) continue;
      const std::size_t close = match_forward(t_, j + 1);

      if (callee == syn_.setter) {
        // First argument: [*&]* ident ,   — anything else is an
        // indeterminable target.
        std::size_t a = j + 2;
        while (a < close &&
               (is_punct(t_[a], "*") || is_punct(t_[a], "&")))
          ++a;
        if (a + 1 < close && t_[a].kind == Tok::kIdent &&
            is_punct(t_[a + 1], ",")) {
          const std::string var = t_[a].text;
          std::string to;
          for (std::size_t m = a + 2; m + 2 < close + 1 && m + 2 < t_.size();
               ++m) {
            if (is_ident(t_[m], syn_.enum_name) && is_punct(t_[m + 1], "::") &&
                t_[m + 2].kind == Tok::kIdent) {
              to = t_[m + 2].text;
              break;
            }
          }
          if (!to.empty()) {
            auto it = k.find(var);
            if (report && it != k.end() &&
                !spec_.allows(it->second.state, to)) {
              Finding f;
              f.file = ctx_.unit.display_path;
              f.line = t_[j].line;
              f.check = "state-machine";
              f.message = std::string("illegal ") + syn_.enum_name +
                          " transition " + it->second.state + " -> " + to +
                          " (not in " + syn_.table_ident + ", " +
                          syn_.spec_path + ")";
              f.trace.push_back({it->second.line, it->second.note});
              f.trace.push_back(
                  {t_[j].line, std::string(syn_.setter) + "(" + var + ", " +
                                   syn_.enum_name + "::" + to + ") with " +
                                   var + "." + syn_.member + " == " +
                                   it->second.state});
              ctx_.report(std::move(f));
            }
            updates.push_back(
                {var, Fact{to, t_[j].line,
                           std::string(syn_.setter) + " left " + var + "." +
                               syn_.member + " == " + to}});
          }
        }
        j = close;
        continue;
      }

      if (!whitelisted_callee(callee)) {
        // A tracked variable escaping into an unaudited call may come back
        // in any state.
        for (std::size_t m = j + 2; m < close && m < t_.size(); ++m)
          if (t_[m].kind == Tok::kIdent) k.erase(t_[m].text);
        j = close;
      }
    }

    // Direct reassignment / member write of a tracked variable.
    for (std::size_t j = b; j < e && j < t_.size(); ++j) {
      if (t_[j].kind != Tok::kIdent || !k.count(t_[j].text)) continue;
      if (j > 0 && (is_punct(t_[j - 1], ".") || is_punct(t_[j - 1], "->")))
        continue;  // member named like the variable, not the variable
      if (j + 1 < e && t_[j + 1].kind == Tok::kPunct) {
        const std::string& nx = t_[j + 1].text;
        if (nx == "=" || nx == "+=" || nx == "-=") {
          k.erase(t_[j].text);
          continue;
        }
        if ((nx == "." || nx == "->") && j + 3 < e &&
            t_[j + 2].kind == Tok::kIdent && t_[j + 3].kind == Tok::kPunct &&
            (t_[j + 3].text == "=" || t_[j + 3].text == "+=" ||
             t_[j + 3].text == "-="))
          k.erase(t_[j].text);
      }
    }

    for (Update& u : updates) k[u.var] = std::move(u.fact);

    // assert(x.<member> == <Enum>::kS) establishes a fact.
    if (is_ident(t_[b], "assert") && b + 1 < e && is_punct(t_[b + 1], "(")) {
      std::string var, state;
      if (match_state_cmp(b + 2, e, "==", var, state))
        k[var] = Fact{state, t_[b].line,
                      "assert established " + var + "." + syn_.member +
                          " == " + state};
    }
  }

  /// Facts an edge adds. A guard's true edge (succ[0]) knows its
  /// `x.<member> == <Enum>::kS` terms unless the condition has `||` or `!`;
  /// its false edge knows the `!=` terms unless it also has `&&`. The edge
  /// from `switch (x.<member>)` to a label group drops x's fact, and knows
  /// kS when the group is the single label `case <Enum>::kS:`.
  void refine_edge(const CfgNode& from, std::size_t succ_index,
                   const CfgNode& to, Know& k) const {
    const std::size_t b = from.tok_begin, e = from.tok_end;
    if (from.kind == CfgNodeKind::kBranch) {
      bool has_or = false, has_not = false, has_and = false;
      for (std::size_t j = b; j < e; ++j) {
        has_or = has_or || is_punct(t_[j], "||");
        has_not = has_not || is_punct(t_[j], "!");
        has_and = has_and || is_punct(t_[j], "&&");
      }
      const bool true_edge = succ_index == 0;
      if (has_or || has_not || (!true_edge && has_and)) return;
      for (std::size_t j = b; j < e; ++j) {
        std::string var, state;
        if (match_state_cmp(j, e, true_edge ? "==" : "!=", var, state))
          k[var] = Fact{state, t_[j].line,
                        "guard established " + var + "." + syn_.member +
                            " == " + state};
      }
      return;
    }
    // switch ( X (.|->) <member> ) into a `case`/`default` label node.
    if (e != b + 6 || !is_ident(t_[b], "switch") ||
        t_[b + 2].kind != Tok::kIdent ||
        !(is_punct(t_[b + 3], ".") || is_punct(t_[b + 3], "->")) ||
        !is_ident(t_[b + 4], syn_.member))
      return;
    if (to.tok_begin >= to.tok_end || (!is_ident(t_[to.tok_begin], "case") &&
                                       !is_ident(t_[to.tok_begin], "default")))
      return;  // the "no case matched" bypass
    const std::string& subject = t_[b + 2].text;
    k.erase(subject);
    int labels = 0;
    std::string label_state;
    for (std::size_t j = to.tok_begin; j < to.tok_end; ++j) {
      if (is_ident(t_[j], "case") || is_ident(t_[j], "default")) ++labels;
      if (j + 2 < to.tok_end && is_ident(t_[j], syn_.enum_name) &&
          is_punct(t_[j + 1], "::") && t_[j + 2].kind == Tok::kIdent)
        label_state = t_[j + 2].text;
    }
    if (labels == 1 && !label_state.empty())
      k[subject] = Fact{label_state, to.line,
                        "case label established " + subject + "." +
                            syn_.member + " == " + label_state};
  }

  const AnalysisContext& ctx_;
  const TransitionSpec& spec_;
  const MachineSyntax& syn_;
  const std::vector<Token>& t_;
};

}  // namespace

void check_state_machine(const AnalysisContext& ctx) {
  StateFlow(ctx, vcpu_transition_spec(ctx.options), vcpu_syntax()).run();
  StateFlow(ctx, migration_transition_spec(ctx.options), migration_syntax())
      .run();
}

}  // namespace asman_lint
