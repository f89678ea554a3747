#include "analyzer.h"

#include <algorithm>
#include <unordered_set>

#include "lexer.h"

namespace asman_lint {

namespace {

const std::unordered_set<std::string>& control_keywords() {
  static const std::unordered_set<std::string> kw{
      "if",     "for",    "while",         "switch",   "catch",
      "return", "sizeof", "alignof",       "decltype", "new",
      "delete", "throw",  "static_assert", "assert",   "defined",
      "alignas"};
  return kw;
}

}  // namespace

std::size_t match_forward(const std::vector<Token>& toks, std::size_t i) {
  const std::string& open = toks[i].text;
  if (open == "<") {
    int depth = 1;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      const std::string& tx = toks[j].text;
      if (toks[j].kind != Tok::kPunct) continue;
      if (tx == "<") ++depth;
      else if (tx == ">") {
        if (--depth == 0) return j;
      } else if (tx == ">>") {
        depth -= 2;
        if (depth <= 0) return j;
      } else if (tx == ";" || tx == "{" || tx == "}" || tx == "&&") {
        return toks.size();  // not a template argument list after all
      }
    }
    return toks.size();
  }
  const char close = open == "(" ? ')' : open == "[" ? ']' : '}';
  int depth = 0;
  for (std::size_t j = i; j < toks.size(); ++j) {
    if (toks[j].kind != Tok::kPunct || toks[j].text.size() != 1) continue;
    if (toks[j].text[0] == open[0]) ++depth;
    else if (toks[j].text[0] == close && --depth == 0) return j;
  }
  return toks.size();
}

StmtRange statement_around(const std::vector<Token>& toks, std::size_t i) {
  std::size_t b = i;
  while (b > 0) {
    const Token& t = toks[b - 1];
    if (is_punct(t, ";") || is_punct(t, "{") || is_punct(t, "}")) break;
    --b;
  }
  std::size_t e = i;
  while (e < toks.size()) {
    const Token& t = toks[e];
    if (is_punct(t, ";")) {
      ++e;
      break;
    }
    if (is_punct(t, "{") || is_punct(t, "}")) break;
    ++e;
  }
  return {b, e};
}

bool qualified_suffix_match(const std::string& name,
                            const std::string& suffix) {
  if (suffix.size() > name.size()) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
    return false;
  if (name.size() == suffix.size()) return true;
  return name.compare(name.size() - suffix.size() - 2, 2, "::") == 0;
}

FunctionIndex::FunctionIndex(const FileUnit& unit) {
  const std::vector<Token>& t = unit.toks;
  // Scope stack of enclosing namespace/class names; one entry per open '{'
  // (unnamed entries for plain blocks). Function bodies are skipped whole,
  // so nothing inside a function ever pushes here.
  std::vector<std::string> scopes;

  auto scope_prefix = [&scopes]() {
    std::string p;
    for (const std::string& s : scopes) {
      if (s.empty()) continue;
      if (!p.empty()) p += "::";
      p += s;
    }
    return p;
  };

  std::size_t i = 0;
  while (i < t.size()) {
    const Token& tok = t[i];

    if (is_ident(tok, "namespace")) {
      std::size_t j = i + 1;
      std::string name;
      while (j < t.size() && t[j].kind == Tok::kIdent) {
        if (!name.empty()) name += "::";
        name += t[j].text;
        if (j + 1 < t.size() && is_punct(t[j + 1], "::")) j += 2;
        else {
          ++j;
          break;
        }
      }
      if (j < t.size() && is_punct(t[j], "{")) {
        scopes.push_back(name);  // may be "" for an anonymous namespace
        i = j + 1;
        continue;
      }
      i = j;
      continue;
    }

    if ((is_ident(tok, "class") || is_ident(tok, "struct")) &&
        !(i > 0 && is_ident(t[i - 1], "enum"))) {
      // Guarded scan to the class body's '{': only base-clause-shaped
      // tokens may intervene, so `template <class T>` never pushes a scope.
      std::size_t j = i + 1;
      std::string name;
      while (j < t.size() && t[j].kind == Tok::kIdent &&
             t[j].text != "final") {
        name = t[j].text;
        ++j;
        if (j < t.size() && is_punct(t[j], "::")) ++j;
        else break;
      }
      bool ok = !name.empty();
      int tmpl_depth = 0;
      std::size_t body = t.size();
      for (std::size_t k = j; ok && k < t.size(); ++k) {
        const Token& c = t[k];
        if (is_punct(c, "{") && tmpl_depth == 0) {
          body = k;
          break;
        }
        if (c.kind == Tok::kIdent || is_punct(c, ":") || is_punct(c, "::") ||
            is_punct(c, ","))
          continue;
        if (is_punct(c, "<")) ++tmpl_depth;
        else if (is_punct(c, ">")) {
          if (--tmpl_depth < 0) ok = false;
        } else if (is_punct(c, ">>")) {
          tmpl_depth -= 2;
          if (tmpl_depth < 0) ok = false;
        } else {
          ok = false;  // ';' (fwd decl), '(' (template param), '=' ...
        }
      }
      if (ok && body < t.size()) {
        scopes.push_back(name);
        i = body + 1;
        continue;
      }
      ++i;
      continue;
    }

    if (is_punct(tok, "(") && i > 0 && t[i - 1].kind == Tok::kIdent &&
        control_keywords().count(t[i - 1].text) == 0) {
      // Candidate function header: ident ('::' ident)* '(' params ')'
      // [qualifiers] ('{' | ':' ctor-inits '{').
      std::size_t j = i - 1;
      std::string chain = t[j].text;
      while (j >= 2 && is_punct(t[j - 1], "::") &&
             t[j - 2].kind == Tok::kIdent) {
        chain = t[j - 2].text + "::" + chain;
        j -= 2;
      }
      const std::size_t close = match_forward(t, i);
      if (close >= t.size()) {
        ++i;
        continue;
      }
      std::size_t m = close + 1;
      bool viable = true;
      while (viable && m < t.size()) {
        const Token& q = t[m];
        if (is_ident(q, "const") || is_ident(q, "override") ||
            is_ident(q, "final") || is_ident(q, "mutable") ||
            is_punct(q, "&") || is_punct(q, "&&")) {
          ++m;
        } else if (is_ident(q, "noexcept") || is_ident(q, "requires") ||
                   is_ident(q, "throw")) {
          ++m;
          if (m < t.size() && is_punct(t[m], "(")) {
            const std::size_t e = match_forward(t, m);
            if (e >= t.size()) viable = false;
            m = e + 1;
          }
        } else if (is_punct(q, "->")) {
          // Trailing return type: skip type tokens up to '{', ';' or '='.
          ++m;
          while (m < t.size() && !is_punct(t[m], "{") &&
                 !is_punct(t[m], ";") && !is_punct(t[m], "=") &&
                 !is_punct(t[m], ":")) {
            if (is_punct(t[m], "<") || is_punct(t[m], "(")) {
              const std::size_t e = match_forward(t, m);
              m = e >= t.size() ? m + 1 : e + 1;
            } else {
              ++m;
            }
          }
        } else {
          break;
        }
      }
      std::size_t body = t.size();
      if (viable && m < t.size() && is_punct(t[m], "{")) {
        body = m;
      } else if (viable && m < t.size() && is_punct(t[m], ":")) {
        // Constructor initializer list: name ('(' ')' | '{' '}') [',' ...]
        ++m;
        while (m < t.size()) {
          while (m < t.size() &&
                 (t[m].kind == Tok::kIdent || is_punct(t[m], "::"))) {
            ++m;
            if (m < t.size() && is_punct(t[m], "<")) {
              const std::size_t e = match_forward(t, m);
              if (e >= t.size()) break;
              m = e + 1;
            }
          }
          if (m < t.size() && is_punct(t[m], "...")) {
            ++m;
            continue;
          }
          if (m < t.size() &&
              (is_punct(t[m], "(") || is_punct(t[m], "{"))) {
            // '{' here, right after an initializer name, is that member's
            // braced init, not the body.
            const bool after_name = m > 0 && (t[m - 1].kind == Tok::kIdent ||
                                              is_punct(t[m - 1], ">"));
            if (is_punct(t[m], "{") && !after_name) {
              body = m;
              break;
            }
            const std::size_t e = match_forward(t, m);
            if (e >= t.size()) break;
            m = e + 1;
            if (m < t.size() && is_punct(t[m], "...")) ++m;  // pack expansion
          }
          if (m < t.size() && is_punct(t[m], ",")) {
            ++m;
            continue;
          }
          if (m < t.size() && is_punct(t[m], "{")) body = m;
          break;
        }
      }
      if (body < t.size()) {
        std::string full = scope_prefix();
        if (!full.empty()) full += "::";
        full += chain;
        std::size_t e = match_forward(t, body);
        if (e >= t.size()) e = t.size() - 1;
        spans_.push_back({std::move(full), body, e + 1, i});
        i = e + 1;
        continue;
      }
      i = close + 1;
      continue;
    }

    if (is_punct(tok, "{")) {
      scopes.emplace_back();
      ++i;
      continue;
    }
    if (is_punct(tok, "}")) {
      if (!scopes.empty()) scopes.pop_back();
      ++i;
      continue;
    }
    ++i;
  }
}

const FunctionSpan* FunctionIndex::enclosing(std::size_t i) const {
  // Spans are disjoint and sorted by begin (bodies are skipped whole).
  auto it = std::upper_bound(
      spans_.begin(), spans_.end(), i,
      [](std::size_t v, const FunctionSpan& s) { return v < s.begin; });
  if (it == spans_.begin()) return nullptr;
  --it;
  return i < it->end ? &*it : nullptr;
}

bool FunctionIndex::inside(std::size_t i, const std::string& suffix) const {
  const FunctionSpan* s = enclosing(i);
  return s != nullptr && qualified_suffix_match(s->name, suffix);
}

SpecTable read_spec_table(const std::string& root, const std::string& rel_path,
                          const std::string& table, const char* what) {
  SpecTable spec;
  spec.path = root + "/" + rel_path;
  std::string err;
  if (!lex_path(spec.path, rel_path, spec.unit, err)) {
    spec.error = std::string("cannot read ") + what + " " + spec.path + ": " +
                 err;
    return spec;
  }
  const std::vector<Token>& t = spec.unit.toks;
  spec.open = t.size();
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (!is_ident(t[i], table.c_str()) || !is_punct(t[i + 1], "[")) continue;
    for (std::size_t j = i + 2; j < t.size() && !is_punct(t[j], ";"); ++j) {
      if (is_punct(t[j], "{")) {
        spec.open = j;
        break;
      }
    }
    break;
  }
  if (spec.open >= t.size()) {
    spec.error = table + " initializer not found in " + spec.path;
    return spec;
  }
  spec.close = match_forward(t, spec.open);
  return spec;
}

void AnalysisContext::report(int line, const char* check,
                             std::string message) const {
  Finding f;
  f.file = unit.display_path;
  f.line = line;
  f.check = check;
  f.message = std::move(message);
  findings.push_back(std::move(f));
}

void AnalysisContext::report(Finding f) const { findings.push_back(std::move(f)); }

}  // namespace asman_lint
