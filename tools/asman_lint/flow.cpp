#include "flow.h"

#include <algorithm>
#include <deque>
#include <map>

#include "analyzer.h"

namespace asman_lint {

namespace {

/// Recursive-descent CFG builder. Nodes are statements; control headers
/// (if/while/for/switch conditions) are their own nodes so path witnesses
/// name the branch that was taken.
class CfgBuilder {
 public:
  CfgBuilder(const std::vector<Token>& toks,
             const std::vector<std::string>& exhaustive_enums)
      : t_(toks), universe_(exhaustive_enums) {}

  Cfg build(std::size_t body_begin, std::size_t body_end) {
    cfg_.nodes.clear();
    // [body_begin, body_end) spans the braces: the exit node sits on the
    // closing one, so witnesses end on the function's own last line.
    const std::size_t close = body_end > 0 ? body_end - 1 : body_end;
    cfg_.entry = new_node(body_begin, body_begin, /*entry=*/true);
    cfg_.exit = new_node(close, close, /*entry=*/false, /*exit=*/true);
    std::vector<std::size_t> exits =
        parse_seq(body_begin + 1, close, {cfg_.entry});
    link_all(exits, cfg_.exit);
    return std::move(cfg_);
  }

 private:
  struct LoopCtx {
    std::vector<std::size_t> breaks;
    std::size_t continue_target;  // npos in switch contexts and do bodies
    bool is_switch;
    std::vector<std::size_t> continues{};  // a do body's, until `while (...)`
  };

  std::size_t new_node(std::size_t b, std::size_t e, bool entry = false,
                       bool exit = false) {
    CfgNode n;
    n.tok_begin = b;
    n.tok_end = e;
    n.line = b < t_.size() ? t_[b].line : (t_.empty() ? 0 : t_.back().line);
    n.is_entry = entry;
    n.is_exit = exit;
    cfg_.nodes.push_back(std::move(n));
    return cfg_.nodes.size() - 1;
  }

  void link(std::size_t from, std::size_t to) {
    auto& s = cfg_.nodes[from].succ;
    if (std::find(s.begin(), s.end(), to) == s.end()) s.push_back(to);
  }
  void link_all(const std::vector<std::size_t>& from, std::size_t to) {
    for (std::size_t f : from) link(f, to);
  }

  /// End of the plain statement starting at `i`: first top-level `;`
  /// (inclusive). Nested (), [], {} — lambdas, braced init — are absorbed.
  std::size_t stmt_end(std::size_t i, std::size_t end) const {
    int depth = 0;
    for (std::size_t j = i; j < end; ++j) {
      if (t_[j].kind != Tok::kPunct) continue;
      const std::string& x = t_[j].text;
      if (x == "(" || x == "[" || x == "{") ++depth;
      else if (x == ")" || x == "]" || x == "}") --depth;
      else if (x == ";" && depth <= 0) return j + 1;
    }
    return end;
  }

  struct Parsed {
    std::size_t next;
    std::vector<std::size_t> exits;
  };

  /// Parses statements in [i, end), with `preds` flowing into the first
  /// one; returns the dangling exits of the last.
  std::vector<std::size_t> parse_seq(std::size_t i, std::size_t end,
                                     std::vector<std::size_t> preds) {
    while (i < end) {
      Parsed p = parse_stmt(i, end, preds);
      preds = std::move(p.exits);
      i = p.next;
    }
    return preds;
  }

  Parsed parse_stmt(std::size_t i, std::size_t end,
                    const std::vector<std::size_t>& preds) {
    const Token& tok = t_[i];

    if (is_punct(tok, ";")) return {i + 1, preds};

    if (is_punct(tok, "{")) {
      std::size_t m = match_forward(t_, i);
      if (m >= end) return {end, preds};
      return {m + 1, parse_seq(i + 1, m, preds)};
    }

    if (is_ident(tok, "if")) return parse_if(i, end, preds);
    if (is_ident(tok, "while")) return parse_while(i, end, preds);
    if (is_ident(tok, "for")) return parse_for(i, end, preds);
    if (is_ident(tok, "do")) return parse_do(i, end, preds);
    if (is_ident(tok, "switch")) return parse_switch(i, end, preds);
    if (is_ident(tok, "try")) return parse_try(i, end, preds);

    if (is_ident(tok, "break") || is_ident(tok, "continue")) {
      const std::size_t se = stmt_end(i, end);
      const std::size_t n = new_node(i, se);
      link_all(preds, n);
      if (tok.text == "break") {
        if (!loops_.empty()) loops_.back().breaks.push_back(n);
      } else {
        for (auto it = loops_.rbegin(); it != loops_.rend(); ++it) {
          if (it->is_switch) continue;  // continue skips switch contexts
          if (it->continue_target != Cfg::npos)
            link(n, it->continue_target);
          else
            it->continues.push_back(n);
          break;
        }
      }
      return {se, {}};
    }

    if (is_ident(tok, "return") || is_ident(tok, "throw")) {
      const std::size_t se = stmt_end(i, end);
      const std::size_t n = new_node(i, se);
      link_all(preds, n);
      link(n, cfg_.exit);
      return {se, {}};
    }

    // Plain statement (includes declarations, expression statements, and
    // `goto`-free labels, which this codebase does not use).
    const std::size_t se = stmt_end(i, end);
    const std::size_t n = new_node(i, se);
    link_all(preds, n);
    return {se, {n}};
  }

  Parsed parse_if(std::size_t i, std::size_t end,
                  const std::vector<std::size_t>& preds) {
    if (i + 1 >= end || !is_punct(t_[i + 1], "(")) return {i + 1, preds};
    std::size_t close = match_forward(t_, i + 1);
    if (close >= end) return {end, preds};
    // `if constexpr (...)`: the keyword sits between if and '('.
    const std::size_t cond = new_node(i, close + 1);
    cfg_.nodes[cond].kind = CfgNodeKind::kBranch;
    link_all(preds, cond);
    const std::size_t then_entry = cfg_.nodes.size();
    Parsed then = parse_stmt(close + 1, end, {cond});
    if (cfg_.nodes.size() == then_entry) {
      // An empty then-branch still gets a node, so succ[0] stays the true
      // edge when an else follows.
      then.exits = {new_node(close + 1, close + 1)};
      link(cond, then.exits.front());
    }
    std::vector<std::size_t> exits = then.exits;
    std::size_t next = then.next;
    if (next < end && is_ident(t_[next], "else")) {
      Parsed els = parse_stmt(next + 1, end, {cond});
      exits.insert(exits.end(), els.exits.begin(), els.exits.end());
      next = els.next;
    } else {
      exits.push_back(cond);  // fallthrough when the condition is false
    }
    return {next, exits};
  }

  Parsed parse_while(std::size_t i, std::size_t end,
                     const std::vector<std::size_t>& preds) {
    if (i + 1 >= end || !is_punct(t_[i + 1], "(")) return {i + 1, preds};
    std::size_t close = match_forward(t_, i + 1);
    if (close >= end) return {end, preds};
    const std::size_t cond = new_node(i, close + 1);
    cfg_.nodes[cond].kind = CfgNodeKind::kBranch;
    link_all(preds, cond);
    loops_.push_back({{}, cond, false});
    Parsed body = parse_stmt(close + 1, end, {cond});
    link_all(body.exits, cond);
    std::vector<std::size_t> exits = std::move(loops_.back().breaks);
    loops_.pop_back();
    exits.push_back(cond);
    return {body.next, exits};
  }

  Parsed parse_for(std::size_t i, std::size_t end,
                   const std::vector<std::size_t>& preds) {
    if (i + 1 >= end || !is_punct(t_[i + 1], "(")) return {i + 1, preds};
    std::size_t close = match_forward(t_, i + 1);
    if (close >= end) return {end, preds};
    const std::size_t head = new_node(i, close + 1);
    cfg_.nodes[head].kind = CfgNodeKind::kForHead;
    link_all(preds, head);
    loops_.push_back({{}, head, false});
    Parsed body = parse_stmt(close + 1, end, {head});
    link_all(body.exits, head);
    std::vector<std::size_t> exits = std::move(loops_.back().breaks);
    loops_.pop_back();
    exits.push_back(head);
    return {body.next, exits};
  }

  Parsed parse_do(std::size_t i, std::size_t end,
                  const std::vector<std::size_t>& preds) {
    loops_.push_back({{}, Cfg::npos, false});
    const std::size_t body_entry = cfg_.nodes.size();  // the body's first node
    Parsed body = parse_stmt(i + 1, end, preds);
    std::size_t next = body.next;
    std::vector<std::size_t> cond_preds = body.exits;
    std::vector<std::size_t> exits;
    if (next < end && is_ident(t_[next], "while") && next + 1 < end &&
        is_punct(t_[next + 1], "(")) {
      std::size_t close = match_forward(t_, next + 1);
      if (close < end) {
        const std::size_t cond = new_node(next, close + 1);
        link_all(cond_preds, cond);
        link_all(loops_.back().continues, cond);
        // Back edge to the body's entry (the condition itself when the body
        // made no node).
        link(cond, body_entry);
        exits.push_back(cond);
        next = stmt_end(close + 1, end);
      }
    }
    for (std::size_t b : loops_.back().breaks) exits.push_back(b);
    loops_.pop_back();
    if (exits.empty()) exits = cond_preds;
    return {next, exits};
  }

  Parsed parse_try(std::size_t i, std::size_t end,
                   const std::vector<std::size_t>& preds) {
    // try { A } catch (...) { B }: B may run after any prefix of A, so it
    // conservatively gets the same preds as A; exits are the union.
    Parsed body = parse_stmt(i + 1, end, preds);
    std::vector<std::size_t> exits = body.exits;
    std::size_t next = body.next;
    while (next < end && is_ident(t_[next], "catch")) {
      std::size_t close = next + 1 < end && is_punct(t_[next + 1], "(")
                              ? match_forward(t_, next + 1)
                              : next + 1;
      if (close >= end) break;
      Parsed h = parse_stmt(close + 1, end, preds);
      exits.insert(exits.end(), h.exits.begin(), h.exits.end());
      next = h.next;
    }
    return {next, exits};
  }

  Parsed parse_switch(std::size_t i, std::size_t end,
                      const std::vector<std::size_t>& preds) {
    if (i + 1 >= end || !is_punct(t_[i + 1], "(")) return {i + 1, preds};
    std::size_t close = match_forward(t_, i + 1);
    if (close >= end || close + 1 >= end || !is_punct(t_[close + 1], "{"))
      return {close + 1, preds};
    const std::size_t body_open = close + 1;
    const std::size_t body_close = match_forward(t_, body_open);
    if (body_close >= end) return {end, preds};

    const std::size_t cond = new_node(i, close + 1);
    link_all(preds, cond);
    loops_.push_back({{}, Cfg::npos, true});

    // Split the body into label groups and their statement runs.
    bool has_default = false;
    std::vector<std::string> label_idents;
    std::vector<std::size_t> fall;  // exits of the previous section
    std::size_t j = body_open + 1;
    while (j < body_close) {
      if (is_ident(t_[j], "case") || is_ident(t_[j], "default")) {
        // Consume the run of consecutive labels as one label node.
        const std::size_t lb = j;
        while (j < body_close &&
               (is_ident(t_[j], "case") || is_ident(t_[j], "default"))) {
          if (t_[j].text == "default") has_default = true;
          std::size_t k = j + 1;
          while (k < body_close && !is_punct(t_[k], ":")) {
            if (t_[k].kind == Tok::kIdent) label_idents.push_back(t_[k].text);
            ++k;
          }
          j = k < body_close ? k + 1 : body_close;
        }
        const std::size_t label = new_node(lb, j);
        link(cond, label);
        // Fallthrough from the previous section bypasses label evaluation
        // semantically, but linking through the label node is the sound
        // approximation available here only if it adds no marker evidence;
        // link the previous exits to the label's successor instead by
        // funneling them into the label node's own successors via a
        // dedicated join: keep it simple and link to the first statement
        // by letting the section parse receive both.
        std::vector<std::size_t> sec_preds = fall;
        sec_preds.push_back(label);
        // Parse the section: statements up to the next top-level label.
        std::size_t sec_begin = j;
        std::size_t sec_end = sec_begin;
        int depth = 0;
        while (sec_end < body_close) {
          const Token& c = t_[sec_end];
          if (c.kind == Tok::kPunct) {
            const std::string& x = c.text;
            if (x == "(" || x == "[" || x == "{") ++depth;
            else if (x == ")" || x == "]" || x == "}") --depth;
          }
          if (depth == 0 &&
              (is_ident(c, "case") || is_ident(c, "default")) &&
              sec_end != sec_begin)
            break;
          ++sec_end;
        }
        fall = parse_seq(sec_begin, sec_end, sec_preds);
        j = sec_end;
        continue;
      }
      ++j;  // stray tokens before the first label (unused in practice)
    }

    std::vector<std::size_t> exits = std::move(loops_.back().breaks);
    loops_.pop_back();
    exits.insert(exits.end(), fall.begin(), fall.end());
    if (!has_default) {
      // "No case matched" bypass — unless the label set provably covers
      // the whole enumerator universe (supplied from the shared spec).
      bool exhaustive = !universe_.empty();
      for (const std::string& u : universe_) {
        if (std::find(label_idents.begin(), label_idents.end(), u) ==
            label_idents.end()) {
          exhaustive = false;
          break;
        }
      }
      if (!exhaustive) exits.push_back(cond);
    }
    return {body_close + 1, exits};
  }

  const std::vector<Token>& t_;
  const std::vector<std::string>& universe_;
  Cfg cfg_;
  std::vector<LoopCtx> loops_;
};

std::optional<std::vector<std::size_t>> dfs_avoiding(
    const Cfg& cfg, std::size_t start, std::size_t goal,
    const NodePred& marker, std::size_t exempt) {
  // Reachability over the marker-free subgraph; `exempt` (the query's
  // target) may carry the marker itself without blocking.
  std::vector<std::size_t> parent(cfg.nodes.size(), Cfg::npos);
  std::vector<bool> seen(cfg.nodes.size(), false);
  std::deque<std::size_t> work{start};
  seen[start] = true;
  while (!work.empty()) {
    const std::size_t n = work.front();
    work.pop_front();
    if (n == goal) {
      std::vector<std::size_t> path;
      for (std::size_t c = goal; c != Cfg::npos; c = parent[c])
        path.push_back(c);
      std::reverse(path.begin(), path.end());
      return path;
    }
    for (std::size_t s : cfg.nodes[n].succ) {
      if (seen[s]) continue;
      if (s != exempt && s != goal && marker(cfg.nodes[s])) continue;
      seen[s] = true;
      parent[s] = n;
      work.push_back(s);
    }
  }
  return std::nullopt;
}

}  // namespace

std::size_t Cfg::node_of(std::size_t i) const {
  for (std::size_t n = 0; n < nodes.size(); ++n)
    if (!nodes[n].is_entry && !nodes[n].is_exit && i >= nodes[n].tok_begin &&
        i < nodes[n].tok_end)
      return n;
  return npos;
}

Cfg build_cfg(const std::vector<Token>& toks, std::size_t body_begin,
              std::size_t body_end,
              const std::vector<std::string>& exhaustive_enums) {
  CfgBuilder b(toks, exhaustive_enums);
  return b.build(body_begin, body_end);
}

std::optional<std::vector<std::size_t>> path_to_avoiding(
    const Cfg& cfg, std::size_t target, const NodePred& marker) {
  if (marker(cfg.nodes[cfg.entry])) return std::nullopt;
  return dfs_avoiding(cfg, cfg.entry, target, marker, target);
}

std::optional<std::vector<std::size_t>> path_from_avoiding(
    const Cfg& cfg, std::size_t target, const NodePred& marker) {
  return dfs_avoiding(cfg, target, cfg.exit, marker, target);
}

std::vector<TraceStep> trace_of_path(const Cfg& cfg,
                                     const std::vector<std::size_t>& path,
                                     const std::vector<Token>& toks) {
  std::vector<TraceStep> steps;
  for (std::size_t n : path) {
    const CfgNode& node = cfg.nodes[n];
    if (node.is_entry) {
      steps.push_back({node.line, "function entry"});
      continue;
    }
    if (node.is_exit) {
      steps.push_back({node.line, "function exit"});
      continue;
    }
    std::string snippet;
    const std::size_t last = std::min(node.tok_end, node.tok_begin + 8);
    for (std::size_t k = node.tok_begin; k < last && k < toks.size(); ++k) {
      if (!snippet.empty()) snippet += ' ';
      snippet += toks[k].text;
    }
    if (node.tok_end > last) snippet += " ...";
    steps.push_back({node.line, snippet});
  }
  return steps;
}

bool TransitionSpec::allows(const std::string& from,
                            const std::string& to) const {
  for (const auto& [f, t] : legal)
    if (f == from && t == to) return true;
  return false;
}

namespace {

/// Extracts the (from, to) pairs from the brace initializer of
/// `table_ident` in `<root>/<rel_path>`: every `<enum_name> :: <ident>`
/// occurrence inside it, taken pairwise. Works for any machine whose spec
/// follows the plain-constexpr-array shape (state_spec.h documents it).
TransitionSpec load_transition_spec(const std::string& root,
                                    const std::string& rel_path,
                                    const std::string& table_ident,
                                    const std::string& enum_name) {
  TransitionSpec spec;
  const SpecTable table =
      read_spec_table(root, rel_path, table_ident, "transition spec");
  if (!table.error.empty()) {
    spec.error = table.error;
    return spec;
  }
  const std::vector<Token>& t = table.unit.toks;
  std::vector<std::string> enums;
  for (std::size_t i = table.open; i < table.close && i + 2 < t.size(); ++i) {
    if (is_ident(t[i], enum_name.c_str()) && is_punct(t[i + 1], "::") &&
        t[i + 2].kind == Tok::kIdent)
      enums.push_back(t[i + 2].text);
  }
  if (enums.size() < 2 || enums.size() % 2 != 0) {
    spec.error = "malformed " + table_ident + " table in " + table.path;
    return spec;
  }
  for (std::size_t i = 0; i + 1 < enums.size(); i += 2) {
    spec.legal.emplace_back(enums[i], enums[i + 1]);
    for (const std::string& e : {enums[i], enums[i + 1]}) {
      if (std::find(spec.states.begin(), spec.states.end(), e) ==
          spec.states.end())
        spec.states.push_back(e);
    }
  }
  return spec;
}

const TransitionSpec& cached_spec(const Options& options,
                                  const std::string& rel_path,
                                  const std::string& table_ident,
                                  const std::string& enum_name) {
  static std::map<std::string, TransitionSpec> cache;
  const std::string root = options.root.empty() ? "." : options.root;
  const std::string key = root + "|" + rel_path;
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  return cache
      .emplace(key,
               load_transition_spec(root, rel_path, table_ident, enum_name))
      .first->second;
}

}  // namespace

const TransitionSpec& vcpu_transition_spec(const Options& options) {
  return cached_spec(options, "src/vmm/state_spec.h", "kLegalVcpuTransitions",
                     "VcpuState");
}

const TransitionSpec& migration_transition_spec(const Options& options) {
  return cached_spec(options, "src/cluster/migration_spec.h",
                     "kLegalMigrationTransitions", "MigrationPhase");
}

void CallGraph::add_unit(const FileUnit& unit) {
  const std::vector<Token>& t = unit.toks;
  const FunctionIndex fidx(unit);

  // File-scope mutable statics: a `static` outside every function span
  // whose declaration reaches `;` without const/constexpr and without
  // opening a function/class body first.
  std::unordered_map<std::string, int> statics;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!is_ident(t[i], "static") || fidx.enclosing(i) != nullptr) continue;
    bool mutable_var = true;
    bool seen_eq = false;
    std::string name;
    std::size_t j = i + 1;
    int depth = 0;
    for (; j < t.size(); ++j) {
      const Token& c = t[j];
      if (c.kind == Tok::kPunct) {
        if (c.text == "(" && depth == 0 && !seen_eq) {
          // `static T f(...)` — a function declaration, not a variable.
          mutable_var = false;
          break;
        }
        if (c.text == "(" || c.text == "<") ++depth;
        else if (c.text == ")" || c.text == ">") --depth;
        else if (c.text == "{" && depth == 0) {
          mutable_var = false;  // function or class definition
          break;
        } else if (c.text == ";" && depth == 0) {
          break;
        } else if (c.text == "=" && depth == 0) {
          seen_eq = true;
          break;  // name precedes the initializer
        }
      }
      if (c.kind == Tok::kIdent) {
        if (c.text == "const" || c.text == "constexpr" ||
            c.text == "constinit") {
          mutable_var = false;
          break;
        }
        name = c.text;
      }
    }
    if (mutable_var && !name.empty()) statics.emplace(name, t[i].line);
  }

  for (const FunctionSpan& s : fidx.spans()) {
    FnInfo& fn = functions[s.name];
    fn.file = unit.display_path;
    for (std::size_t i = s.begin; i < s.end && i + 1 < t.size(); ++i) {
      if (t[i].kind != Tok::kIdent) continue;
      // Callee collection: ident '(' not preceded by member-decl noise.
      if (is_punct(t[i + 1], "(")) fn.callees.insert(t[i].text);
      // Static mutation: `name =`/`name +=`/`++name`… for a known static.
      auto st = statics.find(t[i].text);
      if (st != statics.end()) {
        const bool assigned =
            (t[i + 1].kind == Tok::kPunct &&
             (t[i + 1].text == "=" || t[i + 1].text == "+=" ||
              t[i + 1].text == "-=" || t[i + 1].text == "*=" ||
              t[i + 1].text == "/=" || t[i + 1].text == "++" ||
              t[i + 1].text == "--")) ||
            (i > s.begin && t[i - 1].kind == Tok::kPunct &&
             (t[i - 1].text == "++" || t[i - 1].text == "--"));
        if (assigned) fn.static_writes.emplace(t[i].text, t[i].line);
      }
    }
    const std::size_t dot = s.name.rfind("::");
    const std::string simple =
        dot == std::string::npos ? s.name : s.name.substr(dot + 2);
    by_simple_name[simple].push_back(s.name);
  }
}

std::optional<CallGraph::StaticWrite> CallGraph::find_static_write(
    const std::unordered_set<std::string>& roots, int depth) const {
  struct Item {
    std::string qualified;
    std::vector<std::string> chain;
    int hops;
  };
  std::deque<Item> work;
  std::unordered_set<std::string> seen;
  for (const std::string& r : roots) {
    auto it = by_simple_name.find(r);
    if (it == by_simple_name.end()) continue;
    for (const std::string& q : it->second) {
      if (seen.insert(q).second) work.push_back({q, {q}, 0});
    }
  }
  while (!work.empty()) {
    Item cur = std::move(work.front());
    work.pop_front();
    auto fit = functions.find(cur.qualified);
    if (fit == functions.end()) continue;
    const FnInfo& info = fit->second;
    if (!info.static_writes.empty()) {
      const auto& [name, line] = *info.static_writes.begin();
      return StaticWrite{cur.qualified, name, info.file, line, cur.chain};
    }
    if (cur.hops >= depth) continue;
    for (const std::string& callee : info.callees) {
      auto cit = by_simple_name.find(callee);
      if (cit == by_simple_name.end()) continue;
      for (const std::string& q : cit->second) {
        if (!seen.insert(q).second) continue;
        Item next{q, cur.chain, cur.hops + 1};
        next.chain.push_back(q);
        work.push_back(std::move(next));
      }
    }
  }
  return std::nullopt;
}

}  // namespace asman_lint
