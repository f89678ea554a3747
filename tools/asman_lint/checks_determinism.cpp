// determinism: the simulation must be a pure function of its seed. Wall
// clocks, libc randomness, environment reads, and pointer-address ordering
// all smuggle host state into the run and break bit-identical replay; the
// only sanctioned randomness is the seeded simcore::rng engine. Calls are
// checked in code and in #define bodies alike.
#include <string>
#include <unordered_set>
#include <vector>

#include "analyzer.h"

namespace asman_lint {

namespace {

// Identifiers whose mere appearance is a finding: libc/stdlib entropy and
// wall-clock sources. (`time`/`clock` are handled separately because those
// names are common as methods, e.g. sim::ClockDomain::clock().)
const std::unordered_set<std::string>& banned_idents() {
  static const std::unordered_set<std::string> b{
      "rand",          "srand",         "drand48",
      "lrand48",       "random_device", "mt19937",
      "mt19937_64",    "default_random_engine", "minstd_rand",
      "system_clock",  "steady_clock",  "high_resolution_clock",
      "getenv",        "gettimeofday",  "clock_gettime",
      "rand_r",        "timespec_get"};
  return b;
}

bool prev_is_member_access(const std::vector<Token>& t, std::size_t i) {
  if (i == 0) return false;
  return is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->");
}

// Keywords that can open an expression: `return ::f()` is global-scope,
// `return a * b;` is no declaration.
bool expression_keyword(const std::string& s) {
  static const std::unordered_set<std::string> k{
      "return", "co_return", "co_yield", "throw", "case",
      "else",   "do",        "new",      "delete", "sizeof"};
  return k.count(s) != 0;
}

// The scope qualifying the name at `i`: "" when unqualified, "::" for the
// global scope, else the qualifying name ("std").
std::string qualifier(const std::vector<Token>& t, std::size_t i) {
  if (i == 0 || !is_punct(t[i - 1], "::")) return "";
  if (i >= 2 && t[i - 2].kind == Tok::kIdent &&
      !expression_keyword(t[i - 2].text))
    return t[i - 2].text;
  return "::";
}

bool call_at(const std::vector<Token>& t, std::size_t i) {
  return i + 1 < t.size() && is_punct(t[i + 1], "(");
}

// For `random(`: libc's PRNG, but also a plausible project method name, so
// only a call that can resolve to libc — unqualified, `::` or `std::` — is
// flagged; a member call or another scope's function is not.
bool libc_random_call(const std::vector<Token>& t, std::size_t i) {
  if (!call_at(t, i) || prev_is_member_access(t, i)) return false;
  const std::string q = qualifier(t, i);
  return q.empty() || q == "::" || q == "std";
}

// For `time(` / `clock(`: flag only `std::`- or global-`::`-qualified
// calls. Unqualified names collide with project methods (the machine's
// sim::ClockDomain accessor is literally named clock()), and an
// unqualified libc call needs <ctime>/<time.h>, which the include rule
// flags on its own — so qualified-only keeps full coverage.
bool wall_clock_call(const std::vector<Token>& t, std::size_t i) {
  if (!call_at(t, i)) return false;
  const std::string q = qualifier(t, i);
  return q == "::" || q == "std";
}

// Flow-sensitive escape hatch for getenv: `const char* x = getenv(...)`
// where every other use of `x` in the function is a comparison (==, !=),
// a subscript read, or a strcmp/strncmp argument — i.e. the environment
// value is confined to a host-config boolean and cannot flow into
// simulation state. This is how the auditor's arming switch (env_truthy)
// is proven harmless instead of carrying a standing allow pragma.
bool getenv_confined(const AnalysisContext& ctx, std::size_t i) {
  const std::vector<Token>& t = ctx.unit.toks;
  const StmtRange stmt = statement_around(t, i);
  // Find `char ... X = ` to the left of the getenv call.
  std::string var;
  bool saw_char = false;
  for (std::size_t j = stmt.begin; j < i; ++j) {
    if (t[j].kind == Tok::kIdent && t[j].text == "char") saw_char = true;
    if (t[j].kind == Tok::kPunct && t[j].text == "=" && j > stmt.begin &&
        t[j - 1].kind == Tok::kIdent) {
      var = t[j - 1].text;
      break;
    }
  }
  if (!saw_char || var.empty()) return false;
  const FunctionSpan* fn = ctx.functions.enclosing(i);
  if (fn == nullptr) return false;
  for (std::size_t j = fn->begin; j < fn->end && j < t.size(); ++j) {
    if (t[j].kind != Tok::kIdent || t[j].text != var) continue;
    if (j >= stmt.begin && j < stmt.end) continue;  // the declaration itself
    if (j > 0 && t[j - 1].kind == Tok::kPunct &&
        (t[j - 1].text == "." || t[j - 1].text == "->"))
      continue;  // member of another object that shares the name
    bool ok = false;
    if (j + 1 < t.size() && t[j + 1].kind == Tok::kPunct &&
        (t[j + 1].text == "==" || t[j + 1].text == "!=" ||
         t[j + 1].text == "["))
      ok = true;
    if (!ok && j > 0 && t[j - 1].kind == Tok::kPunct &&
        (t[j - 1].text == "==" || t[j - 1].text == "!="))
      ok = true;
    if (!ok) {
      const StmtRange use = statement_around(t, j);
      for (std::size_t m = use.begin; m < j; ++m)
        if (t[m].kind == Tok::kIdent &&
            (t[m].text == "strcmp" || t[m].text == "strncmp"))
          ok = true;
    }
    if (!ok) return false;  // the value escapes the comparison confinement
  }
  return true;
}

// Host-state sources over one token stream: the code (`code` true, where
// the getenv confinement proof applies) or the #define bodies.
void scan_host_state(const AnalysisContext& ctx, const std::vector<Token>& t,
                     bool code) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind == Tok::kIdent) {
      if ((banned_idents().count(t[i].text) != 0 &&
           !prev_is_member_access(t, i)) ||
          (t[i].text == "random" && libc_random_call(t, i))) {
        if (t[i].text == "getenv" && code && getenv_confined(ctx, i))
          continue;
        ctx.report(t[i].line, "determinism",
                   "'" + t[i].text +
                       "' injects host state into the simulation; all "
                       "randomness/time must flow through the seeded "
                       "simcore::rng / sim clock");
        continue;
      }
      if ((t[i].text == "time" || t[i].text == "clock") &&
          wall_clock_call(t, i)) {
        ctx.report(t[i].line, "determinism",
                   "wall-clock call '" + t[i].text +
                       "()' is not a function of the seed; use the "
                       "simulation clock");
        continue;
      }
      if (t[i].text == "uintptr_t" || t[i].text == "intptr_t") {
        ctx.report(t[i].line, "determinism",
                   "pointer-to-integer cast ('" + t[i].text +
                       "') enables address ordering, which varies run to "
                       "run; order by stable keys (VcpuKey) instead");
        continue;
      }
      // std::less<T*> — ordering containers/algorithms by address.
      if (t[i].text == "less" && i + 1 < t.size() &&
          t[i + 1].kind == Tok::kPunct && t[i + 1].text == "<") {
        const std::size_t close = match_forward(t, i + 1);
        if (close < t.size()) {
          for (std::size_t j = i + 2; j < close; ++j) {
            if (t[j].kind == Tok::kPunct && t[j].text == "*") {
              ctx.report(t[i].line, "determinism",
                         "std::less over a pointer type orders by address, "
                         "which varies run to run");
              break;
            }
          }
        }
      }
      continue;
    }
    // `&a < &b` (or `>`): comparing addresses for ordering.
    if (t[i].kind == Tok::kPunct && (t[i].text == "<" || t[i].text == ">") &&
        i + 1 < t.size() && t[i + 1].kind == Tok::kPunct &&
        t[i + 1].text == "&" && i + 2 < t.size() &&
        t[i + 2].kind == Tok::kIdent) {
      // Walk the left operand back over ident/member chains to its head;
      // require the head to be an address-of '&'.
      std::size_t j = i;
      while (j > 0 && (t[j - 1].kind == Tok::kIdent ||
                       (t[j - 1].kind == Tok::kPunct &&
                        (t[j - 1].text == "." || t[j - 1].text == "->"))))
        --j;
      if (j > 0 && t[j - 1].kind == Tok::kPunct && t[j - 1].text == "&" &&
          j != i) {
        // Exclude `a && b`-adjacent false matches: the lexer emits '&&' as
        // one token, so a lone '&' here really is address-of or bitwise-and;
        // bitwise-and of an ident chain compared to an address-of is not a
        // pattern this codebase uses.
        ctx.report(t[i].line, "determinism",
                   "comparing object addresses orders by allocation "
                   "layout, which varies run to run; order by stable keys "
                   "(VcpuKey) instead");
      }
    }
  }
}

// Names a function declares with pointer type: parameters of its own and
// its lambdas' parameter lists (`T* p` before `,` `)` or `=`), and body
// locals whose declaration opens a statement or a for/if/while header.
std::unordered_set<std::string> pointer_names(const std::vector<Token>& t,
                                              const FunctionSpan& fn) {
  std::unordered_set<std::string> names;
  const auto params = [&t, &names](std::size_t open) {
    const std::size_t close = match_forward(t, open);
    for (std::size_t k = open + 1; k + 2 <= close && close < t.size(); ++k)
      if (is_punct(t[k], "*") && t[k + 1].kind == Tok::kIdent &&
          (is_punct(t[k + 2], ",") || is_punct(t[k + 2], ")") ||
           is_punct(t[k + 2], "=")))
        names.insert(t[k + 1].text);
  };
  params(fn.params);
  for (std::size_t k = fn.begin; k + 2 < fn.end && k + 2 < t.size(); ++k) {
    if (is_punct(t[k], "]") && is_punct(t[k + 1], "(")) params(k + 1);
    if (!is_punct(t[k], "*") || t[k + 1].kind != Tok::kIdent) continue;
    const Token& after = t[k + 2];
    if (!(is_punct(after, "=") || is_punct(after, ";") ||
          is_punct(after, "{") || is_punct(after, ":") ||
          is_punct(after, ",")))
      continue;
    // Walk back over the type (`const vmm::Vcpu`) to what precedes it.
    std::size_t j = k;
    bool keyword = false;
    while (j > fn.begin &&
           (t[j - 1].kind == Tok::kIdent || is_punct(t[j - 1], "::"))) {
      keyword = keyword || expression_keyword(t[j - 1].text);
      --j;
    }
    if (j == k || keyword) continue;
    const Token& before = t[j - 1];
    const bool opens_statement = is_punct(before, ";") ||
                                 is_punct(before, "{") || is_punct(before, "}");
    const bool opens_header =
        is_punct(before, "(") && j >= 2 && t[j - 2].kind == Tok::kIdent &&
        (t[j - 2].text == "for" || t[j - 2].text == "if" ||
         t[j - 2].text == "while" || t[j - 2].text == "switch");
    if (opens_statement || opens_header) names.insert(t[k + 1].text);
  }
  return names;
}

// `p < q` (or >, <=, >=) on two names of pointer type orders by allocation
// layout. Only bare names count: `p->key < q->key` compares members.
void check_pointer_order(const AnalysisContext& ctx) {
  const std::vector<Token>& t = ctx.unit.toks;
  for (const FunctionSpan& fn : ctx.functions.spans()) {
    const std::unordered_set<std::string> ptrs = pointer_names(t, fn);
    if (ptrs.size() < 2) continue;
    for (std::size_t i = fn.begin + 2; i + 2 < fn.end && i + 2 < t.size();
         ++i) {
      if (!(is_punct(t[i], "<") || is_punct(t[i], ">") ||
            is_punct(t[i], "<=") || is_punct(t[i], ">=")))
        continue;
      const Token& lhs = t[i - 1];
      const Token& rhs = t[i + 1];
      if (lhs.kind != Tok::kIdent || rhs.kind != Tok::kIdent ||
          ptrs.count(lhs.text) == 0 || ptrs.count(rhs.text) == 0)
        continue;
      const Token& l_pre = t[i - 2];
      const Token& r_post = t[i + 2];
      if (is_punct(l_pre, ".") || is_punct(l_pre, "->") ||
          is_punct(l_pre, "::") || is_punct(l_pre, "*") ||
          is_punct(l_pre, "&") || is_punct(r_post, ".") ||
          is_punct(r_post, "->") || is_punct(r_post, "[") ||
          is_punct(r_post, "(") || is_punct(r_post, "::"))
        continue;
      ctx.report(t[i].line, "determinism",
                 "relational comparison of pointers `" + lhs.text + "` " +
                     t[i].text + " `" + rhs.text +
                     "` orders by allocation layout, which varies run to "
                     "run; order by stable keys (VcpuKey) instead");
    }
  }
}

}  // namespace

void check_determinism(const AnalysisContext& ctx) {
  for (const Include& inc : ctx.unit.includes) {
    if (inc.target == "random" || inc.target == "ctime" ||
        inc.target == "time.h" || inc.target == "sys/time.h")
      ctx.report(inc.line, "determinism",
                 "#include <" + inc.target +
                     "> pulls in nondeterministic sources; use the seeded "
                     "simcore::rng engine");
  }
  scan_host_state(ctx, ctx.unit.toks, true);
  scan_host_state(ctx, ctx.unit.macro_toks, false);
  check_pointer_order(ctx);
}

}  // namespace asman_lint
