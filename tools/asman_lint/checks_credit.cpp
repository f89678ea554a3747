// integer-credit: credit accounting is exact __int128 fixed-point
// (kCreditPerSlot units). Floating point introduces rounding that the
// conservation auditor cannot reconcile, and unwidened int64 products of
// credit-scale quantities can overflow under adversarial configurations
// (num_pcpus * kCreditPerSlot * slots_per_accounting exceeds int64 well
// inside the valid config space) — exactly the accounting imprecision
// schedulers get exploited through.
#include <string>
#include <unordered_set>
#include <vector>

#include "analyzer.h"

namespace asman_lint {

namespace {

bool credit_ident(const std::string& s) {
  return s == "kCreditPerSlot" || s.find("credit") != std::string::npos ||
         s.find("Credit") != std::string::npos;
}

// The pressure ledger (PR-9) is integer fixed-point exactly like credit:
// slowdown math is parts-per-million over __int128 and the conservation
// invariant re-adds the split, so floating point reaching one of these
// stores is the same exactness bug as it is for credit. (Only the store
// pattern uses this — harvest code legitimately casts the totals to
// double for reporting.)
bool pressure_ident(const std::string& s) {
  return s == "pressure_accounted" || s == "pressure_degraded" ||
         s == "pressure_effective" || s == "pressure_mark";
}

// Integer types narrower than the credit domain. `Credit`, int64/uint64,
// `long long`, and `__int128` are fine; everything below loses range, and
// float/double lose exactness.
bool narrow_type(const std::vector<Token>& t, std::size_t b, std::size_t e) {
  static const std::unordered_set<std::string> narrow{
      "int",      "short",    "unsigned", "int8_t",  "int16_t", "int32_t",
      "uint8_t",  "uint16_t", "uint32_t", "char",    "float",   "double"};
  bool saw_long = false;
  int longs = 0;
  for (std::size_t i = b; i < e; ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    const std::string& s = t[i].text;
    if (s == "long") {
      saw_long = true;
      ++longs;
      continue;
    }
    if (s == "int64_t" || s == "uint64_t" || s == "Credit" ||
        s == "__int128" || s == "intmax_t" || s == "uintmax_t" ||
        s == "size_t" || s == "ptrdiff_t" || s == "Cycles")
      return false;
    if (narrow.count(s) != 0 && !(s == "int" && saw_long)) return true;
  }
  return saw_long && longs == 1;  // bare `long`: 32-bit on LLP64 targets
}

bool stmt_has(const std::vector<Token>& t, StmtRange r, const char* punct) {
  for (std::size_t i = r.begin; i < r.end; ++i)
    if (t[i].kind == Tok::kPunct && t[i].text == punct) return true;
  return false;
}

bool stmt_has_ident(const std::vector<Token>& t, StmtRange r,
                    const char* ident) {
  for (std::size_t i = r.begin; i < r.end; ++i)
    if (t[i].kind == Tok::kIdent && t[i].text == ident) return true;
  return false;
}

// Reports the first credit-named identifier in the cast operand
// [begin, end), if any.
void report_narrowing(const AnalysisContext& ctx, int line, std::size_t begin,
                      std::size_t end) {
  const std::vector<Token>& t = ctx.unit.toks;
  for (std::size_t j = begin; j < end && j < t.size(); ++j) {
    if (t[j].kind == Tok::kIdent && credit_ident(t[j].text)) {
      ctx.report(line, "integer-credit",
                 "narrowing cast of credit quantity '" + t[j].text +
                     "' discards range; credit stays __int128/int64 end to "
                     "end");
      return;
    }
  }
}

// End of a C-style cast's operand starting at `i`: a parenthesized
// expression, or a postfix chain of names (`v.credit`, `p->vcpu.credit`).
std::size_t cast_operand_end(const std::vector<Token>& t, std::size_t i) {
  if (i < t.size() && is_punct(t[i], "(")) return match_forward(t, i) + 1;
  std::size_t j = i;
  while (j < t.size() && (t[j].kind == Tok::kIdent || is_punct(t[j], ".") ||
                          is_punct(t[j], "->") || is_punct(t[j], "::")))
    ++j;
  return j;
}

}  // namespace

void check_integer_credit(const AnalysisContext& ctx) {
  const std::vector<Token>& t = ctx.unit.toks;
  std::size_t last_multiply_stmt = static_cast<std::size_t>(-1);

  for (std::size_t i = 0; i < t.size(); ++i) {
    // (1) Credit-scale multiply without __int128 widening. Keyed on
    // kCreditPerSlot: any product involving the unit constant is at credit
    // scale by construction and must widen before multiplying.
    if (t[i].kind == Tok::kIdent && t[i].text == "kCreditPerSlot") {
      const StmtRange r = statement_around(t, i);
      if (r.begin != last_multiply_stmt && stmt_has(t, r, "*") &&
          !stmt_has_ident(t, r, "__int128")) {
        last_multiply_stmt = r.begin;
        ctx.report(t[i].line, "integer-credit",
                   "credit-scale multiply without __int128 widening can "
                   "overflow int64 inside the valid config space; widen "
                   "with static_cast<__int128> before multiplying");
      }
      continue;
    }

    // (2) Floating point reaching a credit store: `<x>.credit <op>= ...`
    // (or any credit-named lvalue, or a pressure-ledger leg) with a float
    // literal or float/double type in the statement.
    if (t[i].kind == Tok::kIdent &&
        (credit_ident(t[i].text) || pressure_ident(t[i].text)) &&
        i + 1 < t.size() && is_assign_op(t[i + 1])) {
      const StmtRange r = statement_around(t, i);
      bool fp = false;
      for (std::size_t j = i + 2; j < r.end && !fp; ++j)
        fp = t[j].kind == Tok::kFloatNumber ||
             (t[j].kind == Tok::kIdent &&
              (t[j].text == "float" || t[j].text == "double"));
      if (fp)
        ctx.report(t[i].line, "integer-credit",
                   "floating point reaching credit store '" + t[i].text +
                       "'; credit is exact integer fixed-point and must "
                       "stay __int128/int64");
      continue;
    }

    // (3) Narrowing cast of a credit quantity, in each spelling:
    // static_cast<int>(v.credit), (int)v.credit and int(v.credit).
    if (t[i].kind == Tok::kIdent && t[i].text == "static_cast" &&
        i + 1 < t.size() && is_punct(t[i + 1], "<")) {
      const std::size_t tclose = match_forward(t, i + 1);
      if (tclose >= t.size()) continue;
      if (!narrow_type(t, i + 2, tclose)) continue;
      if (tclose + 1 >= t.size() || !is_punct(t[tclose + 1], "(")) continue;
      const std::size_t aclose = match_forward(t, tclose + 1);
      if (aclose >= t.size()) continue;
      report_narrowing(ctx, t[i].line, tclose + 2, aclose);
      continue;
    }
    // C-style: '(' a type made only of names ')' then the operand.
    if (is_punct(t[i], "(")) {
      const std::size_t close = match_forward(t, i);
      if (close >= t.size() || close == i + 1) continue;
      bool type_only = true;
      for (std::size_t j = i + 1; j < close && type_only; ++j)
        type_only = t[j].kind == Tok::kIdent || is_punct(t[j], "::");
      if (type_only && narrow_type(t, i + 1, close))
        report_narrowing(ctx, t[i].line, close + 1,
                         cast_operand_end(t, close + 1));
      continue;
    }
    // Functional: a one-word narrow type called like a function. Not after
    // '<' (`function<int(Credit)>` is a function type), and two adjacent
    // names inside make it a declarator (`int(Credit credit)`).
    if (t[i].kind == Tok::kIdent && i + 1 < t.size() &&
        is_punct(t[i + 1], "(") &&
        !(i > 0 && (is_punct(t[i - 1], ".") || is_punct(t[i - 1], "->") ||
                    is_punct(t[i - 1], "<"))) &&
        narrow_type(t, i, i + 1)) {
      const std::size_t close = match_forward(t, i + 1);
      if (close >= t.size()) continue;
      bool declarator = false;
      for (std::size_t j = i + 2; j + 1 < close && !declarator; ++j)
        declarator = t[j].kind == Tok::kIdent && t[j + 1].kind == Tok::kIdent;
      if (!declarator) report_narrowing(ctx, t[i].line, i + 2, close);
    }
  }
}

}  // namespace asman_lint
