#include "absint.h"

#include <algorithm>
#include <cstdlib>

#include "analyzer.h"

namespace asman_lint {

namespace {

Wide sat(Wide v) {
  if (v > kAbsInf) return kAbsInf;
  if (v < -kAbsInf) return -kAbsInf;
  return v;
}

/// Saturating multiply: endpoints live in (-2^110, 2^110), so the __int128
/// product of two in-range values can overflow; detect by division.
Wide smul(Wide a, Wide b) {
  if (a == 0 || b == 0) return 0;
  const bool neg = (a < 0) != (b < 0);
  Wide aa = a < 0 ? -a : a, bb = b < 0 ? -b : b;
  if (aa > kAbsInf / bb) return neg ? -kAbsInf : kAbsInf;
  return sat(neg ? -(aa * bb) : aa * bb);
}
bool railed(Wide x) { return x >= kAbsInf || x <= -kAbsInf; }

/// Rail-propagating endpoint arithmetic: once an endpoint means
/// "unbounded" it must stay unbounded through every operation, or the
/// arithmetic would manufacture a finite — and false — "provable" bound
/// (e.g. rail/2 looks finite but the true quotient is unbounded).
Wide ep_sum(Wide a, Wide b) {
  if (railed(a)) return a > 0 ? kAbsInf : -kAbsInf;
  if (railed(b)) return b > 0 ? kAbsInf : -kAbsInf;
  return sat(a + b);
}
Wide ep_mul(Wide a, Wide b) {
  if (railed(a) || railed(b)) {
    if (a == 0 || b == 0) return 0;
    return (a < 0) != (b < 0) ? -kAbsInf : kAbsInf;
  }
  return smul(a, b);
}
Wide ep_div(Wide a, Wide b) {  // b != 0 (callers gate the divisor interval)
  if (railed(a)) return (a < 0) != (b < 0) ? -kAbsInf : kAbsInf;
  if (railed(b)) return 0;  // finite / unbounded: the true limit
  return a / b;
}

bool at_rail(const AbsVal& v) { return railed(v.hi) || railed(v.lo); }

/// Merge two witness lists (first binding of each config leaf wins; a
/// repeated leaf — e.g. x*x — keeps one representative, which is the
/// best-effort contract of the witness).
std::vector<WitnessBinding> merge_wit(const std::vector<WitnessBinding>& a,
                                      const std::vector<WitnessBinding>& b) {
  std::vector<WitnessBinding> out = a;
  for (const WitnessBinding& w : b) {
    bool seen = false;
    for (const WitnessBinding& o : out) seen = seen || o.name == w.name;
    if (!seen && out.size() < 8) out.push_back(w);
  }
  return out;
}

std::string snippet_of(const std::vector<Token>& t, std::size_t b,
                       std::size_t e) {
  std::string s;
  const std::size_t last = std::min(e, b + 12);
  for (std::size_t i = b; i < last; ++i) {
    if (!s.empty() && t[i].kind != Tok::kPunct &&
        (i == b || t[i - 1].kind != Tok::kPunct ||
         t[i - 1].text == ")" || t[i - 1].text == "}"))
      s += ' ';
    else if (!s.empty() && t[i].kind == Tok::kPunct)
      s += t[i].text == "(" || t[i].text == ")" ? "" : " ";
    s += t[i].text;
  }
  if (e > last) s += " ...";
  return s;
}

/// Identifiers whose very name marks them as carrying credit / pressure /
/// contention quantities — the taint seed the rule is scoped to.
const char* const kTaintStems[] = {"credit", "pressure", "ppm",   "weight",
                                   "slowdown", "mint",    "penalt", "contention",
                                   "footprint"};

}  // namespace

bool taints_value(const std::string& ident) {
  std::string low;
  low.reserve(ident.size());
  for (char c : ident)
    low.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c);
  for (const char* stem : kTaintStems)
    if (low.find(stem) != std::string::npos) return true;
  return false;
}

const char* width_name(NumWidth w) {
  switch (w) {
    case NumWidth::kBool: return "bool";
    case NumWidth::kI8: return "int8_t";
    case NumWidth::kU8: return "uint8_t";
    case NumWidth::kI16: return "int16_t";
    case NumWidth::kU16: return "uint16_t";
    case NumWidth::kI32: return "int32_t";
    case NumWidth::kU32: return "uint32_t";
    case NumWidth::kI64: return "int64_t";
    case NumWidth::kU64: return "uint64_t";
    case NumWidth::kI128: return "__int128";
    case NumWidth::kOther: return "<unknown>";
  }
  return "<unknown>";
}

bool width_is_unsigned(NumWidth w) {
  return w == NumWidth::kBool || w == NumWidth::kU8 || w == NumWidth::kU16 ||
         w == NumWidth::kU32 || w == NumWidth::kU64;
}

Wide width_min(NumWidth w) {
  switch (w) {
    case NumWidth::kI8: return -128;
    case NumWidth::kI16: return -32768;
    case NumWidth::kI32: return -(static_cast<Wide>(1) << 31);
    case NumWidth::kI64: return -(static_cast<Wide>(1) << 63);
    case NumWidth::kI128: return -kAbsInf;  // wider than any provable value
    default: return 0;
  }
}

Wide width_max(NumWidth w) {
  switch (w) {
    case NumWidth::kBool: return 1;
    case NumWidth::kI8: return 127;
    case NumWidth::kU8: return 255;
    case NumWidth::kI16: return 32767;
    case NumWidth::kU16: return 65535;
    case NumWidth::kI32: return (static_cast<Wide>(1) << 31) - 1;
    case NumWidth::kU32: return (static_cast<Wide>(1) << 32) - 1;
    case NumWidth::kI64: return (static_cast<Wide>(1) << 63) - 1;
    case NumWidth::kU64: return (static_cast<Wide>(1) << 64) - 1;
    case NumWidth::kI128: return kAbsInf;
    case NumWidth::kOther: return kAbsInf;
  }
  return kAbsInf;
}

std::string wide_str(Wide v) {
  if (v >= kAbsInf) return "+inf";
  if (v <= -kAbsInf) return "-inf";
  if (v == 0) return "0";
  const bool neg = v < 0;
  if (neg) v = -v;
  std::string s;
  while (v > 0) {
    s.insert(s.begin(), static_cast<char>('0' + static_cast<int>(v % 10)));
    v /= 10;
  }
  return neg ? "-" + s : s;
}

NumWidth width_of_type_tokens(const std::vector<Token>& t, std::size_t b,
                              std::size_t e, bool& known) {
  known = false;
  bool saw_unsigned = false, saw_int = false, saw_char = false;
  bool saw_short = false, saw_i128 = false, saw_float = false;
  int longs = 0;
  NumWidth fixed = NumWidth::kOther;
  for (std::size_t i = b; i < e; ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    const std::string& x = t[i].text;
    if (x == "const" || x == "constexpr" || x == "static" || x == "std" ||
        x == "volatile" || x == "inline" || x == "signed" || x == "sim" ||
        x == "typename")
      continue;
    if (x == "unsigned") saw_unsigned = true;
    else if (x == "int") saw_int = true;
    else if (x == "long") ++longs;
    else if (x == "short") saw_short = true;
    else if (x == "char") saw_char = true;
    else if (x == "__int128") saw_i128 = true;
    else if (x == "bool") fixed = NumWidth::kBool;
    else if (x == "int8_t") fixed = NumWidth::kI8;
    else if (x == "uint8_t") fixed = NumWidth::kU8;
    else if (x == "int16_t") fixed = NumWidth::kI16;
    else if (x == "uint16_t") fixed = NumWidth::kU16;
    else if (x == "int32_t") fixed = NumWidth::kI32;
    else if (x == "uint32_t") fixed = NumWidth::kU32;
    else if (x == "int64_t" || x == "ptrdiff_t" || x == "ssize_t")
      fixed = NumWidth::kI64;
    else if (x == "uint64_t" || x == "size_t" || x == "uintptr_t")
      fixed = NumWidth::kU64;
    else if (x == "Cycles")
      fixed = NumWidth::kU64;  // sim::Cycles wraps a uint64_t tick count
    else if (x == "float" || x == "double") saw_float = true;
    else
      return NumWidth::kOther;  // class type / auto / unrecognized
  }
  if (saw_float) {  // recognized arithmetic, but not range-checked here
    known = true;
    return NumWidth::kOther;
  }
  if (fixed != NumWidth::kOther) {
    known = true;
    return fixed;
  }
  if (saw_i128) {
    if (saw_unsigned) return NumWidth::kOther;  // not used in this codebase
    known = true;
    return NumWidth::kI128;
  }
  if (saw_char) {
    known = true;
    return saw_unsigned ? NumWidth::kU8 : NumWidth::kI8;
  }
  if (saw_short) {
    known = true;
    return saw_unsigned ? NumWidth::kU16 : NumWidth::kI16;
  }
  if (longs > 0) {
    known = true;
    return saw_unsigned ? NumWidth::kU64 : NumWidth::kI64;
  }
  if (saw_int || saw_unsigned) {
    known = true;
    return saw_unsigned ? NumWidth::kU32 : NumWidth::kI32;
  }
  return NumWidth::kOther;
}

namespace {

int width_rank(NumWidth w) {
  switch (w) {
    case NumWidth::kBool:
    case NumWidth::kI8:
    case NumWidth::kU8:
    case NumWidth::kI16:
    case NumWidth::kU16:
    case NumWidth::kI32: return 3;
    case NumWidth::kU32: return 4;
    case NumWidth::kI64: return 5;
    case NumWidth::kU64: return 6;
    case NumWidth::kI128: return 7;
    case NumWidth::kOther: return -1;
  }
  return -1;
}

/// Usual-arithmetic-conversions approximation: sub-int promotes to int,
/// higher rank wins (rank already encodes unsigned-wins-at-same-rank).
NumWidth combine_width(NumWidth a, NumWidth b) {
  const int ra = width_rank(a), rb = width_rank(b);
  if (ra < 0 || rb < 0) return NumWidth::kOther;
  switch (std::max(ra, rb)) {
    case 3: return NumWidth::kI32;
    case 4: return NumWidth::kU32;
    case 5: return NumWidth::kI64;
    case 6: return NumWidth::kU64;
    default: return NumWidth::kI128;
  }
}

/// BoundsSpec loader: extracts every `{ field :: <ident> , <num> , <num> }`
/// triple of kFieldBounds in src/core/bounds_spec.h, through the same
/// read_spec_table as the transition specs — the spec header documents the
/// shape it must keep.
BoundsSpec load_bounds_spec(const std::string& root) {
  BoundsSpec spec;
  const SpecTable table = read_spec_table(root, "src/core/bounds_spec.h",
                                          "kFieldBounds", "bounds spec");
  if (!table.error.empty()) {
    spec.error = table.error;
    return spec;
  }
  const std::vector<Token>& t = table.unit.toks;
  const std::size_t close = table.close;
  auto read_num = [&t](std::size_t& i, long long& out) {
    long long sign = 1;
    if (i < t.size() && is_punct(t[i], "-")) {
      sign = -1;
      ++i;
    }
    if (i >= t.size() || t[i].kind != Tok::kNumber) return false;
    std::string digits;
    for (char c : t[i].text)
      if (c != '\'') digits.push_back(c);
    out = sign * std::strtoll(digits.c_str(), nullptr, 0);
    ++i;
    return true;
  };
  for (std::size_t i = table.open + 1; i + 6 < close; ++i) {
    if (!is_punct(t[i], "{") || !is_ident(t[i + 1], "field") ||
        !is_punct(t[i + 2], "::") || t[i + 3].kind != Tok::kIdent ||
        !is_punct(t[i + 4], ","))
      continue;
    const std::string& name = t[i + 3].text;
    std::size_t j = i + 5;
    long long lo = 0, hi = 0;
    if (!read_num(j, lo) || j >= close || !is_punct(t[j], ",")) continue;
    ++j;
    if (!read_num(j, hi) || j >= close || !is_punct(t[j], "}")) continue;
    spec.fields[name] = {lo, hi};
    i = j;
  }
  if (spec.fields.size() < 8)
    spec.error = "malformed kFieldBounds table in " + table.path + " (" +
                 std::to_string(spec.fields.size()) + " entries)";
  return spec;
}

}  // namespace

const BoundsSpec& bounds_spec(const Options& options) {
  static std::map<std::string, BoundsSpec> cache;
  const std::string root = options.root.empty() ? "." : options.root;
  auto it = cache.find(root);
  if (it != cache.end()) return it->second;
  return cache.emplace(root, load_bounds_spec(root)).first->second;
}

// ---------------------------------------------------------------------------
// Expression evaluation.

/// Interprocedural call context: recursion depth and the active summary
/// chain (cycle guard).
struct CallCtx {
  int depth{0};
  std::vector<std::string> active;
};

namespace {

constexpr int kMaxCallDepth = 8;

/// Trusted aliases where the defining write is structurally out of reach
/// of FieldFacts (ClockDomain is constructed from MachineConfig::freq_hz
/// at every construction site).
const std::pair<const char*, const char*> kAliases[] = {
    {"hz_", "freq_hz"},
};

/// Accessors that read a spec field under another name (Vm::num_vcpus()
/// counts a VCPU deque that create_vm and resize_vm hold to n_vcpus).
const std::pair<const char*, const char*> kAccessorAliases[] = {
    {"num_vcpus", "n_vcpus"},
};

}  // namespace

/// Recursive-descent evaluator over [b, e). Precedence mirrors C++ for the
/// operators the domain models; anything else degrades to top.
class ExprParser {
 public:
  ExprParser(const Evaluator& ev, const std::vector<Token>& t, std::size_t b,
             std::size_t e, const Env& env, CallCtx& ctx)
      : ev_(ev), t_(t), b_(b), e_(e), env_(env), ctx_(ctx), pos_(b) {}

  AbsVal parse() {
    if (b_ >= e_) return AbsVal::top();
    AbsVal v = ternary();
    if (pos_ < e_) {
      // Trailing tokens the grammar could not consume: keep any violation
      // already proved, but the value itself is unknown.
      AbsVal top = AbsVal::top();
      top.tainted = v.tainted;
      top.viol = v.viol;
      return top;
    }
    return v;
  }

 private:
  const Evaluator& ev_;
  const std::vector<Token>& t_;
  std::size_t b_, e_;
  const Env& env_;
  CallCtx& ctx_;
  std::size_t pos_;

  bool at(const char* p) const { return pos_ < e_ && is_punct(t_[pos_], p); }
  bool at_ident(const char* s) const {
    return pos_ < e_ && is_ident(t_[pos_], s);
  }

  static AbsVal carry_top(const AbsVal& a) {
    AbsVal v = AbsVal::top();
    v.tainted = a.tainted;
    v.viol = a.viol;
    return v;
  }
  static AbsVal carry_top2(const AbsVal& a, const AbsVal& b) {
    AbsVal v = AbsVal::top();
    v.tainted = a.tainted || b.tainted;
    v.viol = a.viol ? a.viol : b.viol;
    return v;
  }
  static AbsVal bool_val(const AbsVal& a, const AbsVal& b) {
    AbsVal v;
    v.known = true;
    v.lo = 0;
    v.hi = 1;
    v.width = NumWidth::kBool;
    v.tainted = a.tainted || b.tainted;
    v.viol = a.viol ? a.viol : b.viol;
    return v;
  }

  AbsVal ternary() {
    AbsVal c = logical_or();
    if (!at("?")) return c;
    ++pos_;
    AbsVal a = ternary();
    if (!at(":")) return carry_top2(c, a);
    ++pos_;
    AbsVal b = ternary();
    AbsVal r;
    if (c.known && c.lo == c.hi)
      r = c.lo != 0 ? a : b;  // condition decided inside the domain
    else if (a.known && b.known)
      r = join_vals(a, b);
    else
      r = carry_top2(a, b);
    r.tainted = r.tainted || c.tainted;
    if (!r.viol) r.viol = c.viol;
    return r;
  }

  AbsVal logical_or() {
    AbsVal v = logical_and();
    while (at("||")) {
      ++pos_;
      v = bool_val(v, logical_and());
    }
    return v;
  }
  AbsVal logical_and() {
    AbsVal v = bit_or();
    while (at("&&")) {
      ++pos_;
      v = bool_val(v, bit_or());
    }
    return v;
  }

  AbsVal bit_or() {
    AbsVal v = bit_xor();
    while (at("|")) {
      ++pos_;
      v = bits(v, bit_xor(), /*is_and=*/false);
    }
    return v;
  }
  AbsVal bit_xor() {
    AbsVal v = bit_and();
    while (at("^")) {
      ++pos_;
      v = bits(v, bit_and(), /*is_and=*/false);
    }
    return v;
  }
  AbsVal bit_and() {
    AbsVal v = equality();
    while (at("&")) {
      ++pos_;
      v = bits(v, equality(), /*is_and=*/true);
    }
    return v;
  }

  static AbsVal bits(const AbsVal& a, const AbsVal& b, bool is_and) {
    if (!a.known || !b.known || a.lo < 0 || b.lo < 0) return carry_top2(a, b);
    AbsVal v;
    v.known = true;
    v.lo = 0;
    if (is_and) {
      v.hi = std::min(a.hi, b.hi);
      v.wit_hi = a.hi < b.hi ? a.wit_hi : b.wit_hi;
    } else {
      Wide m = std::max(a.hi, b.hi), p = 1;
      while (p <= m && p < kAbsInf) p = p * 2;
      v.hi = sat(p - 1);
      v.wit_hi = merge_wit(a.wit_hi, b.wit_hi);
    }
    v.width = combine_width(a.width, b.width);
    v.tainted = a.tainted || b.tainted;
    v.viol = a.viol ? a.viol : b.viol;
    return v;
  }

  AbsVal equality() {
    AbsVal v = relational();
    while (at("==") || at("!=")) {
      ++pos_;
      v = bool_val(v, relational());
    }
    return v;
  }
  AbsVal relational() {
    AbsVal v = shift();
    while (at("<") || at("<=") || at(">") || at(">=")) {
      // `<` here could open a template argument list inside an unparsed
      // call; the trailing-token bailout in parse() keeps that safe.
      ++pos_;
      v = bool_val(v, shift());
    }
    return v;
  }

  AbsVal shift() {
    AbsVal v = additive();
    while (at("<<") || at(">>")) {
      const bool left = t_[pos_].text == "<<";
      ++pos_;
      AbsVal s = additive();
      if (!v.known || !s.known || v.lo < 0 || s.lo < 0 || s.hi > 120) {
        v = carry_top2(v, s);
        continue;
      }
      AbsVal r;
      r.known = true;
      if (left) {
        if (s.lo != s.hi) {
          v = carry_top2(v, s);
          continue;
        }
        Wide f = 1;
        for (Wide i = 0; i < s.lo; ++i) f = smul(f, 2);
        r.lo = ep_mul(v.lo, f);
        r.hi = ep_mul(v.hi, f);
        r.wit_lo = v.wit_lo;
        r.wit_hi = v.wit_hi;
      } else {
        r.lo = v.lo >> static_cast<int>(s.hi);
        r.hi = v.hi >> static_cast<int>(s.lo);
        r.wit_lo = merge_wit(v.wit_lo, s.wit_hi);
        r.wit_hi = merge_wit(v.wit_hi, s.wit_lo);
      }
      r.width = v.width;
      r.tainted = v.tainted || s.tainted;
      r.viol = v.viol ? v.viol : s.viol;
      v = r;
    }
    return v;
  }

  AbsVal additive() {
    AbsVal v = multiplicative();
    while (at("+") || at("-")) {
      const bool add = t_[pos_].text == "+";
      const std::size_t op_b = pos_;
      ++pos_;
      AbsVal r = multiplicative();
      v = arith(v, r, add ? '+' : '-', op_b);
    }
    return v;
  }

  AbsVal multiplicative() {
    AbsVal v = unary();
    while (at("*") || at("/") || at("%")) {
      const char op = t_[pos_].text[0];
      const std::size_t op_b = pos_;
      ++pos_;
      AbsVal r = unary();
      v = arith(v, r, op, op_b);
    }
    return v;
  }

  AbsVal arith(const AbsVal& a, const AbsVal& b, char op, std::size_t op_at) {
    if (!a.known || !b.known) return carry_top2(a, b);
    AbsVal v;
    v.known = true;
    switch (op) {
      case '+':
        v.lo = ep_sum(a.lo, b.lo);
        v.hi = ep_sum(a.hi, b.hi);
        v.wit_lo = merge_wit(a.wit_lo, b.wit_lo);
        v.wit_hi = merge_wit(a.wit_hi, b.wit_hi);
        break;
      case '-':
        v.lo = ep_sum(a.lo, -b.hi);
        v.hi = ep_sum(a.hi, -b.lo);
        v.wit_lo = merge_wit(a.wit_lo, b.wit_hi);
        v.wit_hi = merge_wit(a.wit_hi, b.wit_lo);
        break;
      case '*': {
        const Wide c[4] = {ep_mul(a.lo, b.lo), ep_mul(a.lo, b.hi),
                           ep_mul(a.hi, b.lo), ep_mul(a.hi, b.hi)};
        const std::vector<WitnessBinding>* wa[4] = {&a.wit_lo, &a.wit_lo,
                                                    &a.wit_hi, &a.wit_hi};
        const std::vector<WitnessBinding>* wb[4] = {&b.wit_lo, &b.wit_hi,
                                                    &b.wit_lo, &b.wit_hi};
        int imin = 0, imax = 0;
        for (int i = 1; i < 4; ++i) {
          if (c[i] < c[imin]) imin = i;
          if (c[i] > c[imax]) imax = i;
        }
        v.lo = c[imin];
        v.hi = c[imax];
        v.wit_lo = merge_wit(*wa[imin], *wb[imin]);
        v.wit_hi = merge_wit(*wa[imax], *wb[imax]);
        break;
      }
      case '/': {
        if (b.lo <= 0 && b.hi >= 0) return carry_top2(a, b);  // /0 possible
        const Wide c[4] = {ep_div(a.lo, b.lo), ep_div(a.lo, b.hi),
                           ep_div(a.hi, b.lo), ep_div(a.hi, b.hi)};
        const std::vector<WitnessBinding>* wa[4] = {&a.wit_lo, &a.wit_lo,
                                                    &a.wit_hi, &a.wit_hi};
        const std::vector<WitnessBinding>* wb[4] = {&b.wit_lo, &b.wit_hi,
                                                    &b.wit_lo, &b.wit_hi};
        int imin = 0, imax = 0;
        for (int i = 1; i < 4; ++i) {
          if (c[i] < c[imin]) imin = i;
          if (c[i] > c[imax]) imax = i;
        }
        v.lo = c[imin];
        v.hi = c[imax];
        v.wit_lo = merge_wit(*wa[imin], *wb[imin]);
        v.wit_hi = merge_wit(*wa[imax], *wb[imax]);
        break;
      }
      case '%':
        if (a.lo >= 0 && b.lo > 0) {
          v.lo = 0;
          v.hi = std::min(a.hi, b.hi - 1);
          v.wit_hi = a.hi < b.hi - 1 ? a.wit_hi : b.wit_hi;
        } else {
          return carry_top2(a, b);
        }
        break;
      default: return carry_top2(a, b);
    }
    v.width = combine_width(a.width, b.width);
    v.tainted = a.tainted || b.tainted;
    v.viol = a.viol ? a.viol : b.viol;
    // In-type overflow: both operand widths known, so the result type is
    // known too — check the interval against it right here. Unsigned
    // subtraction is exempt (saturating_sub discipline; see header).
    if (v.width != NumWidth::kOther && !at_rail(v) && !v.viol) {
      Wide lo = v.lo, hi = v.hi;
      if (width_is_unsigned(v.width) && op == '-' && lo < 0) {
        lo = 0;
        if (hi < 0) hi = 0;
      }
      if (hi > width_max(v.width) || lo < width_min(v.width)) {
        RangeViolation r;
        r.expr = snippet_of(t_, b_, e_);
        r.width = v.width;
        r.lo = lo;
        r.hi = hi;
        r.narrowing = false;
        r.witness = hi > width_max(v.width) ? v.wit_hi : v.wit_lo;
        r.line = t_[op_at].line;
        v.viol = r;
      }
    }
    return v;
  }

  AbsVal unary() {
    if (at("-")) {
      ++pos_;
      AbsVal a = unary();
      if (!a.known) return a;
      AbsVal v = a;
      v.lo = -a.hi;
      v.hi = -a.lo;
      v.wit_lo = a.wit_hi;
      v.wit_hi = a.wit_lo;
      if (!width_is_unsigned(v.width)) {
        // keep width; negation of signed stays in type for spec-scale values
      } else {
        v.width = NumWidth::kOther;  // unsigned negation wraps: give up type
      }
      return v;
    }
    if (at("+")) {
      ++pos_;
      return unary();
    }
    if (at("!")) {
      ++pos_;
      AbsVal a = unary();
      return bool_val(a, a);
    }
    if (at("~") || at("*") || at("&")) {
      ++pos_;
      AbsVal a = unary();
      return carry_top(a);
    }
    return primary();
  }

  AbsVal join_vals(const AbsVal& a, const AbsVal& b) {
    AbsVal v;
    v.known = a.known && b.known;
    if (v.known) {
      v.lo = std::min(a.lo, b.lo);
      v.hi = std::max(a.hi, b.hi);
      v.wit_lo = a.lo <= b.lo ? a.wit_lo : b.wit_lo;
      v.wit_hi = a.hi >= b.hi ? a.wit_hi : b.wit_hi;
    }
    v.width = a.width == b.width ? a.width : NumWidth::kOther;
    v.tainted = a.tainted || b.tainted;
    v.viol = a.viol ? a.viol : b.viol;
    return v;
  }

  AbsVal number(const Token& tok) {
    std::string digits;
    int unsigned_suffix = 0, long_suffix = 0;
    for (char c : tok.text) {
      if (c == '\'') continue;
      if (c == 'u' || c == 'U') {
        ++unsigned_suffix;
        continue;
      }
      if ((c == 'l' || c == 'L') && digits.size() > 1) {
        ++long_suffix;
        continue;
      }
      digits.push_back(c);
    }
    const unsigned long long u = std::strtoull(digits.c_str(), nullptr, 0);
    const Wide w = static_cast<Wide>(u);
    NumWidth width;
    if (unsigned_suffix > 0)
      width = long_suffix > 0 || w > width_max(NumWidth::kU32)
                  ? NumWidth::kU64
                  : NumWidth::kU32;
    else
      width = long_suffix > 0 || w > width_max(NumWidth::kI32)
                  ? NumWidth::kI64
                  : NumWidth::kI32;
    return AbsVal::exact(w, width);
  }

  /// Applies a cast/store of `v` into `w`, recording a violation when the
  /// interval provably escapes and clamping so evaluation continues.
  AbsVal cast_into(AbsVal v, NumWidth w, std::size_t snip_b,
                   std::size_t snip_e, int line, bool narrowing) {
    if (w == NumWidth::kOther || !v.known) {
      v.width = w;
      return v;
    }
    if (at_rail(v)) {  // unbounded endpoint: nothing provable
      v.known = false;
      v.width = w;
      return v;
    }
    const Wide mn = width_min(w), mx = width_max(w);
    if (width_is_unsigned(w) && v.lo < 0) {
      // Unsigned-underflow exemption (saturating_sub discipline).
      v.lo = 0;
      if (v.hi < 0) v.hi = 0;
      v.wit_lo.clear();
    }
    const bool over = v.hi > mx, under = v.lo < mn;
    if ((over || under) && !v.viol) {
      RangeViolation r;
      r.expr = snippet_of(t_, snip_b, snip_e);
      r.width = w;
      r.lo = v.lo;
      r.hi = v.hi;
      r.narrowing = narrowing;
      r.witness = over ? v.wit_hi : v.wit_lo;
      r.line = line;
      v.viol = r;
    }
    v.lo = std::max(v.lo, mn);
    v.hi = std::min(v.hi, mx);
    if (v.lo > v.hi) v.lo = v.hi = std::max(mn, std::min(mx, Wide{0}));
    v.width = w;
    return v;
  }

  /// Splits the argument list of the call whose '(' (or '{') is at `open`
  /// into top-level comma segments; returns false if unbalanced.
  bool split_args(std::size_t open, std::size_t close,
                  std::vector<std::pair<std::size_t, std::size_t>>& args) {
    std::size_t start = open + 1;
    int depth = 0;
    for (std::size_t i = open + 1; i < close; ++i) {
      if (t_[i].kind != Tok::kPunct) continue;
      const std::string& x = t_[i].text;
      if (x == "(" || x == "[" || x == "{") ++depth;
      else if (x == ")" || x == "]" || x == "}") --depth;
      else if (x == "," && depth == 0) {
        args.emplace_back(start, i);
        start = i + 1;
      }
    }
    if (start < close) args.emplace_back(start, close);
    return true;
  }

  AbsVal eval_range(std::size_t b, std::size_t e, const Env& env) {
    ExprParser p(ev_, t_, b, e, env, ctx_);
    return p.parse();
  }

  AbsVal call(const std::string& last, std::size_t open, bool tainted_path) {
    const std::size_t close = match_forward(t_, open);
    if (close >= e_ || close >= t_.size()) {
      pos_ = e_;
      return AbsVal::top();
    }
    std::vector<std::pair<std::size_t, std::size_t>> arg_ranges;
    split_args(open, close, arg_ranges);
    std::vector<AbsVal> args;
    args.reserve(arg_ranges.size());
    for (const auto& [ab, ae] : arg_ranges) args.push_back(eval_range(ab, ae, env_));
    pos_ = close + 1;

    bool args_tainted = tainted_path;
    std::optional<RangeViolation> args_viol;
    for (const AbsVal& a : args) {
      args_tainted = args_tainted || a.tainted;
      if (!args_viol && a.viol) args_viol = a.viol;
    }
    auto finish = [&](AbsVal v) {
      v.tainted = v.tainted || args_tainted;
      if (!v.viol) v.viol = args_viol;
      return v;
    };

    // Interval builtins.
    if ((last == "min" || last == "max") && args.size() >= 2) {
      AbsVal v = args[0];
      for (std::size_t i = 1; i < args.size(); ++i) {
        const AbsVal& o = args[i];
        if (!v.known || !o.known) return finish(carry_top2(v, o));
        if (last == "min") {
          if (o.lo < v.lo) {
            v.lo = o.lo;
            v.wit_lo = o.wit_lo;
          }
          if (o.hi < v.hi) {
            v.hi = o.hi;
            v.wit_hi = o.wit_hi;
          }
        } else {
          if (o.lo > v.lo) {
            v.lo = o.lo;
            v.wit_lo = o.wit_lo;
          }
          if (o.hi > v.hi) {
            v.hi = o.hi;
            v.wit_hi = o.wit_hi;
          }
        }
        v.width = combine_width(v.width, o.width);
      }
      return finish(v);
    }
    if (last == "clamp" && args.size() == 3 && args[0].known &&
        args[1].known && args[2].known) {
      AbsVal v = args[0];
      if (v.lo < args[1].lo) {
        v.lo = args[1].lo;
        v.wit_lo = args[1].wit_lo;
      }
      if (v.hi > args[2].hi) {
        v.hi = args[2].hi;
        v.wit_hi = args[2].wit_hi;
      }
      if (v.lo > v.hi) v.lo = v.hi;
      return finish(v);
    }
    // clamp_to_bounds(field::<name>, v) lands inside the spec interval the
    // field-name argument already evaluates to.
    if (last == "clamp_to_bounds" && args.size() == 2 && args[0].known) {
      AbsVal v = args[0];
      v.width = args[1].width;
      return finish(v);
    }
    if (last == "saturating_sub" && args.size() == 2 && args[0].known &&
        args[1].known) {
      AbsVal v;
      v.known = true;
      v.lo = std::max(Wide{0}, ep_sum(args[0].lo, -args[1].hi));
      v.hi = std::max(Wide{0}, ep_sum(args[0].hi, -args[1].lo));
      v.wit_lo = merge_wit(args[0].wit_lo, args[1].wit_hi);
      v.wit_hi = merge_wit(args[0].wit_hi, args[1].wit_lo);
      v.width = args[0].width;
      return finish(v);
    }

    // Functional cast to a recognized arithmetic type: Type(expr). The
    // path tokens are [path_begin_, open).
    {
      bool tknown = false;
      const NumWidth w = width_of_type_tokens(t_, path_begin_, open, tknown);
      if (tknown && args.size() == 1)
        return finish(cast_into(args[0], w, path_begin_, close + 1,
                                t_[open].line, /*narrowing=*/true));
    }

    // Single-return summary with positional parameter binding.
    const ValueModel::Summary* s = ev_.model_.summary(last);
    if (s != nullptr && !s->ambiguous && s->unit != nullptr &&
        s->params.size() == args.size() && ctx_.depth < kMaxCallDepth &&
        std::find(ctx_.active.begin(), ctx_.active.end(), last) ==
            ctx_.active.end()) {
      Env callee;
      for (std::size_t i = 0; i < args.size(); ++i)
        callee.vars[s->params[i]] = args[i];
      ctx_.active.push_back(last);
      ++ctx_.depth;
      ExprParser p(ev_, s->unit->toks, s->expr_begin, s->expr_end, callee,
                   ctx_);
      AbsVal v = p.parse();
      --ctx_.depth;
      ctx_.active.pop_back();
      if (v.viol) v.viol->line = t_[open].line;  // report at the call site
      return finish(v);
    }

    // Bounds accessor fallback: a call named exactly like a spec field
    // (Topology::num_llcs() and friends), or an accessor alias of one,
    // yields the spec interval.
    std::string field = last;
    for (const auto& [from, to] : kAccessorAliases)
      if (last == from) field = to;
    if (const auto* fb = ev_.spec_.find(field)) {
      AbsVal v;
      v.known = true;
      v.lo = fb->first;
      v.hi = fb->second;
      v.width = NumWidth::kOther;
      v.wit_lo = {{field, fb->first}};
      v.wit_hi = {{field, fb->second}};
      v.tainted = taints_value(field);
      return finish(v);
    }
    return finish(AbsVal::top());
  }

  std::size_t path_begin_{0};

  /// Resolves an identifier path per the documented order: env[full path]
  /// -> env[last component] -> `.v` strip (Cycles) -> trusted alias ->
  /// member-field fact -> bounds-spec field -> top.
  AbsVal resolve(const std::string& full, const std::string& last,
                 const std::string& full_minus_v) {
    const bool tainted = taints_value(full);
    auto mark = [tainted](AbsVal v) {
      v.tainted = v.tainted || tainted;
      return v;
    };
    auto it = env_.vars.find(full);
    if (it != env_.vars.end()) return mark(it->second);
    it = env_.vars.find(last);
    if (it != env_.vars.end()) return mark(it->second);
    if (!full_minus_v.empty()) {
      it = env_.vars.find(full_minus_v);
      if (it != env_.vars.end()) return mark(it->second);
    }
    std::string looked = last;
    if (last == "v" && !full_minus_v.empty()) {
      const std::size_t dot = full_minus_v.rfind('.');
      const std::size_t arrow = full_minus_v.rfind("->");
      std::size_t cut = dot == std::string::npos ? 0 : dot + 1;
      if (arrow != std::string::npos && arrow + 2 > cut) cut = arrow + 2;
      looked = full_minus_v.substr(cut);
    }
    for (const auto& [from, to] : kAliases) {
      if (looked == from) {
        looked = to;
        break;
      }
    }
    if (!looked.empty() && looked.back() == '_') {
      if (const AbsVal* f = ev_.model_.field_fact(looked)) return mark(*f);
      // Also try the spec with the underscore stripped (num_pcpus_ etc).
      const std::string bare = looked.substr(0, looked.size() - 1);
      if (const auto* fb = ev_.spec_.find(bare)) {
        AbsVal v;
        v.known = true;
        v.lo = fb->first;
        v.hi = fb->second;
        v.width = NumWidth::kOther;
        v.wit_lo = {{bare, fb->first}};
        v.wit_hi = {{bare, fb->second}};
        return mark(v);
      }
      return mark(AbsVal::top());
    }
    if (const auto* fb = ev_.spec_.find(looked)) {
      AbsVal v;
      v.known = true;
      v.lo = fb->first;
      v.hi = fb->second;
      v.width = NumWidth::kOther;
      v.wit_lo = {{looked, fb->first}};
      v.wit_hi = {{looked, fb->second}};
      return mark(v);
    }
    return mark(AbsVal::top());
  }

  AbsVal primary() {
    if (pos_ >= e_) return AbsVal::top();
    const Token& tok = t_[pos_];

    if (tok.kind == Tok::kNumber) {
      ++pos_;
      return number(tok);
    }
    if (tok.kind == Tok::kFloatNumber || tok.kind == Tok::kString ||
        tok.kind == Tok::kChar) {
      ++pos_;
      return AbsVal::top();
    }
    if (at("(")) {
      const std::size_t close = match_forward(t_, pos_);
      if (close >= e_) {
        pos_ = e_;
        return AbsVal::top();
      }
      AbsVal v = eval_range(pos_ + 1, close, env_);
      pos_ = close + 1;
      return postfix(v);
    }
    if (at("{")) {  // braced subexpression (aggregate): opaque
      const std::size_t close = match_forward(t_, pos_);
      pos_ = close < e_ ? close + 1 : e_;
      return AbsVal::top();
    }
    if (at_ident("true")) {
      ++pos_;
      return AbsVal::exact(1, NumWidth::kBool);
    }
    if (at_ident("false") || at_ident("nullptr")) {
      ++pos_;
      return AbsVal::exact(0, NumWidth::kBool);
    }
    if (at_ident("sizeof")) {
      ++pos_;
      if (at("(")) pos_ = std::min(e_, match_forward(t_, pos_) + 1);
      return AbsVal::top();
    }
    if (at_ident("static_cast")) {
      const std::size_t cast_b = pos_;
      ++pos_;
      if (!at("<")) return AbsVal::top();
      const std::size_t tclose = match_forward(t_, pos_);
      if (tclose >= e_) {
        pos_ = e_;
        return AbsVal::top();
      }
      bool tknown = false;
      const NumWidth w = width_of_type_tokens(t_, pos_ + 1, tclose, tknown);
      pos_ = tclose + 1;
      if (!at("(")) return AbsVal::top();
      const std::size_t close = match_forward(t_, pos_);
      if (close >= e_) {
        pos_ = e_;
        return AbsVal::top();
      }
      AbsVal v = eval_range(pos_ + 1, close, env_);
      pos_ = close + 1;
      if (!tknown) return postfix(carry_top(v));
      return postfix(cast_into(v, w, cast_b, close + 1, t_[cast_b].line,
                               /*narrowing=*/true));
    }

    if (tok.kind == Tok::kIdent) {
      // Collect the identifier path: ident (:: ident)* ((. | ->) ident)*.
      path_begin_ = pos_;
      std::string full = tok.text, last = tok.text, full_minus_v;
      ++pos_;
      while (pos_ + 1 < e_ &&
             (at("::") || at(".") || at("->")) &&
             t_[pos_ + 1].kind == Tok::kIdent) {
        if (t_[pos_ + 1].text == "v" &&
            (is_punct(t_[pos_], ".") || is_punct(t_[pos_], "->")) &&
            (pos_ + 2 >= e_ ||
             (!is_punct(t_[pos_ + 2], "(") && !is_punct(t_[pos_ + 2], "::") &&
              !is_punct(t_[pos_ + 2], ".") && !is_punct(t_[pos_ + 2], "->"))))
          full_minus_v = full;  // `x.v` — remember the Cycles-wrapper prefix
        full += t_[pos_].text;
        full += t_[pos_ + 1].text;
        last = t_[pos_ + 1].text;
        pos_ += 2;
      }
      if (at("(")) return postfix(call(last, pos_, taints_value(full)));
      if (at("{")) {  // Type{expr}: functional cast when the path is a type
        bool tknown = false;
        const NumWidth w =
            width_of_type_tokens(t_, path_begin_, pos_, tknown);
        const std::size_t close = match_forward(t_, pos_);
        if (close >= e_) {
          pos_ = e_;
          return AbsVal::top();
        }
        if (tknown) {
          std::vector<std::pair<std::size_t, std::size_t>> arg_ranges;
          split_args(pos_, close, arg_ranges);
          if (arg_ranges.size() == 1) {
            AbsVal v = eval_range(arg_ranges[0].first, arg_ranges[0].second,
                                  env_);
            const std::size_t snip_e = close + 1;
            const int line = t_[pos_].line;
            pos_ = close + 1;
            return postfix(cast_into(v, w, path_begin_, snip_e, line,
                                     /*narrowing=*/true));
          }
        }
        pos_ = close + 1;
        return AbsVal::top();
      }
      return postfix(resolve(full, last, full_minus_v));
    }

    ++pos_;  // unknown token: consume and give up on this operand
    return AbsVal::top();
  }

  /// Postfix continuations after a parenthesized/call/cast primary:
  /// `.v` (Cycles unwrap passes through), other member chains, indexing.
  AbsVal postfix(AbsVal v) {
    for (;;) {
      if (pos_ + 1 < e_ && (at(".") || at("->")) &&
          t_[pos_ + 1].kind == Tok::kIdent) {
        const bool is_v = t_[pos_ + 1].text == "v";
        pos_ += 2;
        if (at("(")) {  // member call on an opaque receiver
          pos_ = std::min(e_, match_forward(t_, pos_) + 1);
          v = carry_top(v);
        } else if (!is_v) {
          v = carry_top(v);
        }
        // `.v` unwraps the Cycles value: keep the interval.
        continue;
      }
      if (at("[")) {
        pos_ = std::min(e_, match_forward(t_, pos_) + 1);
        v = carry_top(v);
        continue;
      }
      return v;
    }
  }
};

// ---------------------------------------------------------------------------
// Env operations.

bool Env::same_ranges(const Env& o) const {
  if (unreachable != o.unreachable || vars.size() != o.vars.size())
    return false;
  auto a = vars.begin();
  auto b = o.vars.begin();
  for (; a != vars.end(); ++a, ++b) {
    if (a->first != b->first) return false;
    if (!a->second.same_range(b->second)) return false;
  }
  return true;
}

Env join_envs(const Env& a, const Env& b) {
  if (a.unreachable) return b;
  if (b.unreachable) return a;
  Env out;
  for (const auto& [name, va] : a.vars) {
    auto it = b.vars.find(name);
    if (it == b.vars.end()) {
      AbsVal top = AbsVal::top(va.width);
      top.tainted = va.tainted;
      out.vars.emplace(name, top);
      continue;
    }
    const AbsVal& vb = it->second;
    AbsVal v;
    v.known = va.known && vb.known;
    if (v.known) {
      v.lo = std::min(va.lo, vb.lo);
      v.hi = std::max(va.hi, vb.hi);
      v.wit_lo = va.lo <= vb.lo ? va.wit_lo : vb.wit_lo;
      v.wit_hi = va.hi >= vb.hi ? va.wit_hi : vb.wit_hi;
    }
    v.width = va.width == vb.width ? va.width : NumWidth::kOther;
    v.tainted = va.tainted || vb.tainted;
    out.vars.emplace(name, v);
  }
  for (const auto& [name, vb] : b.vars) {
    if (a.vars.find(name) == a.vars.end()) {
      AbsVal top = AbsVal::top(vb.width);
      top.tainted = vb.tainted;
      out.vars.emplace(name, top);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// ValueModel.

void ValueModel::add_unit(const FileUnit& unit) {
  const std::vector<Token>& t = unit.toks;
  const FunctionIndex fidx(unit);

  for (const FunctionSpan& span : fidx.spans()) {
    // Summary candidate: body is exactly `{ return <expr> ; }`.
    if (span.end < span.begin + 4 || !is_punct(t[span.begin], "{") ||
        !is_ident(t[span.begin + 1], "return") ||
        !is_punct(t[span.end - 2], ";") || !is_punct(t[span.end - 1], "}"))
      continue;
    bool single = true;
    {
      int depth = 0;
      for (std::size_t i = span.begin + 1; i < span.end - 2 && single; ++i) {
        if (t[i].kind != Tok::kPunct) continue;
        const std::string& x = t[i].text;
        if (x == "(" || x == "[" || x == "{") ++depth;
        else if (x == ")" || x == "]" || x == "}") --depth;
        else if (x == ";" && depth == 0) single = false;
      }
    }
    if (!single || span.begin + 2 >= span.end - 2) continue;

    // Parameter names: walk back from the body '{' to the parameter list.
    std::size_t close = span.begin;
    bool found = false;
    while (close > 0) {
      --close;
      const Token& tk = t[close];
      if (tk.kind == Tok::kPunct && tk.text == ")") {
        found = true;
        break;
      }
      const bool skippable =
          tk.kind == Tok::kIdent ||
          (tk.kind == Tok::kPunct &&
           (tk.text == "::" || tk.text == "->" || tk.text == "<" ||
            tk.text == ">" || tk.text == "&" || tk.text == "*" ||
            tk.text == ","));
      if (!skippable) break;
    }
    if (!found) continue;
    std::size_t open = close;
    {
      int depth = 1;
      while (open > 0 && depth > 0) {
        --open;
        if (is_punct(t[open], ")")) ++depth;
        else if (is_punct(t[open], "(")) --depth;
      }
      if (depth != 0) continue;
    }
    std::vector<std::string> params;
    bool ok = true;
    {
      std::size_t seg = open + 1;
      int depth = 0;
      for (std::size_t i = open + 1; i <= close && ok; ++i) {
        const bool split =
            i == close || (t[i].kind == Tok::kPunct && depth == 0 &&
                           t[i].text == ",");
        if (t[i].kind == Tok::kPunct) {
          const std::string& x = t[i].text;
          if (x == "(" || x == "[" || x == "{" || x == "<") ++depth;
          else if (x == ")" || x == "]" || x == "}" || x == ">") --depth;
        }
        if (!split) continue;
        if (seg == i) {
          seg = i + 1;
          continue;  // empty segment: parameterless function
        }
        std::size_t stop = i;
        int d2 = 0;
        for (std::size_t j = seg; j < i; ++j) {
          if (t[j].kind != Tok::kPunct) continue;
          if (t[j].text == "(" || t[j].text == "<") ++d2;
          else if (t[j].text == ")" || t[j].text == ">") --d2;
          else if (t[j].text == "=" && d2 == 0) {
            stop = j;
            break;
          }
        }
        std::string name;
        for (std::size_t j = seg; j < stop; ++j)
          if (t[j].kind == Tok::kIdent) name = t[j].text;
        if (name.empty() || name == "void") ok = name == "void";
        else params.push_back(name);
        if (name.empty()) ok = false;
        seg = i + 1;
      }
    }
    if (!ok) continue;

    std::string simple = span.name;
    const std::size_t sep = simple.rfind("::");
    if (sep != std::string::npos) simple = simple.substr(sep + 2);

    auto it = summaries_.find(simple);
    if (it != summaries_.end()) {
      // Same name defined twice (header re-lexed per TU is fine if the
      // body text matches; a genuine overload set is ambiguous).
      const Summary& old = it->second;
      bool same = old.params == params &&
                  old.expr_end - old.expr_begin ==
                      (span.end - 2) - (span.begin + 2);
      if (same && old.unit != nullptr) {
        for (std::size_t i = 0; same && i < old.expr_end - old.expr_begin;
             ++i)
          same = old.unit->toks[old.expr_begin + i].text ==
                 t[span.begin + 2 + i].text;
      }
      if (!same) it->second.ambiguous = true;
      continue;
    }
    Summary s;
    s.unit = &unit;
    s.expr_begin = span.begin + 2;
    s.expr_end = span.end - 2;
    s.params = std::move(params);
    summaries_.emplace(std::move(simple), std::move(s));
  }

  // Member-field writes: every `name_ = expr;`, ctor-init `name_(expr)` /
  // `name_{expr}`, and compound mutation anywhere in the unit.
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent || t[i].text.size() < 2 ||
        t[i].text.back() != '_')
      continue;
    const std::string& name = t[i].text;
    const Token& next = t[i + 1];
    if (i > 0 && (is_punct(t[i - 1], "++") || is_punct(t[i - 1], "--"))) {
      field_writes_[name].push_back({&unit, 0, 0, true});
      continue;
    }
    if (next.kind != Tok::kPunct) continue;
    if (next.text == "+=" || next.text == "-=" || next.text == "*=" ||
        next.text == "/=" || next.text == "%=" || next.text == "<<=" ||
        next.text == ">>=" || next.text == "&=" || next.text == "|=" ||
        next.text == "^=" || next.text == "++" || next.text == "--") {
      field_writes_[name].push_back({&unit, 0, 0, true});
      continue;
    }
    if (next.text == "=") {
      if (i + 2 < t.size() && is_punct(t[i + 2], "=")) continue;  // ==
      std::size_t end = i + 2;
      int depth = 0;
      while (end < t.size()) {
        if (t[end].kind == Tok::kPunct) {
          const std::string& x = t[end].text;
          if (x == "(" || x == "[" || x == "{") ++depth;
          else if (x == ")" || x == "]" || x == "}") --depth;
          else if ((x == ";" || x == ",") && depth <= 0) break;
        }
        ++end;
      }
      if (end > i + 2) field_writes_[name].push_back({&unit, i + 2, end, false});
      continue;
    }
    if ((next.text == "(" || next.text == "{") && i > 0 &&
        (is_punct(t[i - 1], ":") || is_punct(t[i - 1], ","))) {
      // Constructor-initializer write. (A `case x_:` label or ternary arm
      // can false-hit this; a bogus extra write only widens the fact,
      // which errs toward silence.)
      const std::size_t close = match_forward(t, i + 1);
      if (close < t.size() && close > i + 2)
        field_writes_[name].push_back({&unit, i + 2, close, false});
    }
  }
}

void ValueModel::finalize(const BoundsSpec& spec) {
  const Evaluator ev(spec, *this);
  const Env empty;
  std::map<std::string, AbsVal> prev;
  for (int pass = 0; pass < 3; ++pass) {
    std::map<std::string, AbsVal> next;
    for (const auto& [name, writes] : field_writes_) {
      bool poisoned = false;
      AbsVal joined;
      bool first = true;
      for (const FieldWrite& w : writes) {
        if (w.compound || w.unit == nullptr) {
          poisoned = true;
          break;
        }
        AbsVal v = ev.eval(w.unit->toks, w.rhs_begin, w.rhs_end, empty);
        if (!v.known) {
          poisoned = true;
          break;
        }
        v.viol.reset();  // facts carry ranges, not findings
        if (first) {
          joined = v;
          first = false;
        } else {
          if (v.lo < joined.lo) {
            joined.lo = v.lo;
            joined.wit_lo = v.wit_lo;
          }
          if (v.hi > joined.hi) {
            joined.hi = v.hi;
            joined.wit_hi = v.wit_hi;
          }
          joined.tainted = joined.tainted || v.tainted;
        }
      }
      if (!poisoned && !first) {
        joined.width = NumWidth::kOther;
        next.emplace(name, joined);
      }
    }
    if (pass > 0) {
      // Keep only fields whose fact is stable across the last two passes:
      // an oscillating fact is not a fact.
      std::map<std::string, AbsVal> stable;
      for (const auto& [name, v] : next) {
        auto it = prev.find(name);
        if (it != prev.end() && it->second.same_range(v))
          stable.emplace(name, v);
      }
      if (pass == 2) {
        field_facts_ = std::move(stable);
        return;
      }
    }
    prev = next;
    field_facts_ = std::move(next);
  }
}

const ValueModel::Summary* ValueModel::summary(
    const std::string& simple_name) const {
  auto it = summaries_.find(simple_name);
  if (it == summaries_.end() || it->second.ambiguous) return nullptr;
  return &it->second;
}

const AbsVal* ValueModel::field_fact(const std::string& member_name) const {
  auto it = field_facts_.find(member_name);
  return it == field_facts_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Evaluator entry points.

AbsVal Evaluator::eval(const std::vector<Token>& t, std::size_t b,
                       std::size_t e, const Env& env) const {
  CallCtx ctx;
  ExprParser p(*this, t, b, e, env, ctx);
  return p.parse();
}

AbsVal Evaluator::transfer_stmt(const std::vector<Token>& t, std::size_t b,
                                std::size_t e, Env& env) const {
  std::size_t e2 = e;
  while (e2 > b && is_punct(t[e2 - 1], ";")) --e2;
  if (b >= e2) return AbsVal::top();

  if (is_ident(t[b], "return")) return eval(t, b + 1, e2, env);
  if (is_ident(t[b], "break") || is_ident(t[b], "continue") ||
      is_ident(t[b], "else") || is_ident(t[b], "using") ||
      is_ident(t[b], "typedef") || is_ident(t[b], "goto"))
    return AbsVal::top();
  if (is_ident(t[b], "throw")) return eval(t, b + 1, e2, env);

  // Top-level assignment split (first depth-0 `=`-family operator).
  std::size_t eq = e2;
  std::string op;
  {
    int depth = 0;
    for (std::size_t i = b; i < e2; ++i) {
      if (t[i].kind != Tok::kPunct) continue;
      const std::string& x = t[i].text;
      if (x == "(" || x == "[" || x == "{") ++depth;
      else if (x == ")" || x == "]" || x == "}") --depth;
      else if (depth == 0 &&
               (x == "=" || x == "+=" || x == "-=" || x == "*=" ||
                x == "/=" || x == "%=" || x == "<<=" || x == ">>=" ||
                x == "&=" || x == "|=" || x == "^=")) {
        eq = i;
        op = x;
        break;
      }
    }
  }

  if (eq < e2 && eq > b) {
    const std::size_t name_at = eq - 1;
    const bool lhs_is_name = t[name_at].kind == Tok::kIdent;

    // Declaration with initializer: `type name = expr`.
    bool is_decl = false;
    NumWidth decl_w = NumWidth::kOther;
    bool wknown = false;
    if (op == "=" && lhs_is_name && name_at > b) {
      bool plain_type = true;
      for (std::size_t i = b; i < name_at && plain_type; ++i) {
        if (t[i].kind == Tok::kIdent) continue;
        if (t[i].kind == Tok::kPunct &&
            (t[i].text == "::" || t[i].text == "<" || t[i].text == ">" ||
             t[i].text == "&" || t[i].text == "*"))
          continue;
        plain_type = false;
      }
      if (plain_type) {
        decl_w = width_of_type_tokens(t, b, name_at, wknown);
        is_decl = true;
      }
    }

    AbsVal rhs = eval(t, eq + 1, e2, env);
    if (is_decl) {
      if (wknown && decl_w != NumWidth::kOther)
        rhs = store_check(rhs, decl_w, t, eq + 1, e2);
      else
        rhs.width = NumWidth::kOther;
      env.vars[t[name_at].text] = rhs;
      return rhs;
    }

    // Assignment (possibly compound) to an existing lvalue path.
    std::string key;
    for (std::size_t i = b; i < eq; ++i) key += t[i].text;
    if (op != "=") {
      AbsVal cur = eval(t, b, eq, env);
      // x op= rhs  ==  x = x op rhs, modeled through the same arithmetic.
      const char c = op[0];
      AbsVal v;
      if (cur.known && rhs.known) {
        switch (c) {
          case '+':
            v.known = true;
            v.lo = ep_sum(cur.lo, rhs.lo);
            v.hi = ep_sum(cur.hi, rhs.hi);
            v.wit_lo = merge_wit(cur.wit_lo, rhs.wit_lo);
            v.wit_hi = merge_wit(cur.wit_hi, rhs.wit_hi);
            break;
          case '-':
            v.known = true;
            v.lo = ep_sum(cur.lo, -rhs.hi);
            v.hi = ep_sum(cur.hi, -rhs.lo);
            v.wit_lo = merge_wit(cur.wit_lo, rhs.wit_hi);
            v.wit_hi = merge_wit(cur.wit_hi, rhs.wit_lo);
            break;
          case '*': {
            v.known = true;
            const Wide cands[4] = {ep_mul(cur.lo, rhs.lo),
                                   ep_mul(cur.lo, rhs.hi),
                                   ep_mul(cur.hi, rhs.lo),
                                   ep_mul(cur.hi, rhs.hi)};
            v.lo = *std::min_element(cands, cands + 4);
            v.hi = *std::max_element(cands, cands + 4);
            v.wit_lo = merge_wit(cur.wit_lo, rhs.wit_lo);
            v.wit_hi = merge_wit(cur.wit_hi, rhs.wit_hi);
            break;
          }
          default: v = AbsVal::top(); break;
        }
      } else {
        v = AbsVal::top();
      }
      v.width = cur.width;
      v.tainted = cur.tainted || rhs.tainted;
      v.viol = rhs.viol;
      rhs = v;
    }
    auto it = env.vars.find(key);
    NumWidth target = it != env.vars.end() ? it->second.width
                                           : NumWidth::kOther;
    if (it == env.vars.end() && t[b].kind == Tok::kIdent && eq == b + 1) {
      auto it2 = env.vars.find(t[b].text);
      if (it2 != env.vars.end()) {
        target = it2->second.width;
        key = t[b].text;
      }
    }
    if (target != NumWidth::kOther) rhs = store_check(rhs, target, t, b, e2);
    rhs.width = target;
    env.vars[key] = rhs;
    return rhs;
  }

  // ++x / x++ statements.
  if (e2 == b + 2) {
    std::size_t var = e2;
    Wide delta = 0;
    if (t[b].kind == Tok::kIdent && (is_punct(t[b + 1], "++") ||
                                     is_punct(t[b + 1], "--"))) {
      var = b;
      delta = t[b + 1].text == "++" ? 1 : -1;
    } else if (t[b + 1].kind == Tok::kIdent &&
               (is_punct(t[b], "++") || is_punct(t[b], "--"))) {
      var = b + 1;
      delta = t[b].text == "++" ? 1 : -1;
    }
    if (var < e2) {
      auto it = env.vars.find(t[var].text);
      if (it != env.vars.end() && it->second.known) {
        it->second.lo = ep_sum(it->second.lo, delta);
        it->second.hi = ep_sum(it->second.hi, delta);
      }
      return AbsVal::top();
    }
  }

  // Declaration with braced init: `type name{expr}`.
  if (e2 > b + 3 && is_punct(t[e2 - 1], "}")) {
    int depth = 1;
    std::size_t open = e2 - 1;
    while (open > b && depth > 0) {
      --open;
      if (is_punct(t[open], "}")) ++depth;
      else if (is_punct(t[open], "{")) --depth;
    }
    if (depth == 0 && open > b + 1 && t[open - 1].kind == Tok::kIdent) {
      bool plain_type = true;
      for (std::size_t i = b; i < open - 1 && plain_type; ++i) {
        if (t[i].kind == Tok::kIdent) continue;
        if (t[i].kind == Tok::kPunct &&
            (t[i].text == "::" || t[i].text == "<" || t[i].text == ">" ||
             t[i].text == "&" || t[i].text == "*"))
          continue;
        plain_type = false;
      }
      if (plain_type && open - 1 > b) {
        bool wknown = false;
        const NumWidth w = width_of_type_tokens(t, b, open - 1, wknown);
        AbsVal v = open + 1 < e2 - 1 ? eval(t, open + 1, e2 - 1, env)
                                     : AbsVal::exact(0, w);
        if (wknown && w != NumWidth::kOther)
          v = store_check(v, w, t, open + 1, e2 - 1);
        else
          v.width = NumWidth::kOther;
        env.vars[t[open - 1].text] = v;
        return v;
      }
    }
  }

  // Plain expression statement: evaluate for violations inside casts/calls.
  return eval(t, b, e2, env);
}

/// Store-side range check, shared by declarations and assignments.
AbsVal Evaluator::store_check(AbsVal v, NumWidth w,
                              const std::vector<Token>& t, std::size_t b,
                              std::size_t e) const {
  if (w == NumWidth::kOther || !v.known) {
    v.width = w;
    return v;
  }
  if (at_rail(v)) {
    v.known = false;
    v.width = w;
    return v;
  }
  const Wide mn = width_min(w), mx = width_max(w);
  if (width_is_unsigned(w) && v.lo < 0) {
    v.lo = 0;
    if (v.hi < 0) v.hi = 0;
    v.wit_lo.clear();
  }
  const bool over = v.hi > mx, under = v.lo < mn;
  if ((over || under) && !v.viol) {
    RangeViolation r;
    r.expr = snippet_of(t, b, e);
    r.width = w;
    r.lo = v.lo;
    r.hi = v.hi;
    r.narrowing = true;
    r.witness = over ? v.wit_hi : v.wit_lo;
    r.line = b < t.size() ? t[b].line : 0;
    v.viol = r;
  }
  v.lo = std::max(v.lo, mn);
  v.hi = std::min(v.hi, mx);
  if (v.lo > v.hi) v.lo = v.hi = std::max(mn, std::min(mx, Wide{0}));
  v.width = w;
  return v;
}

void Evaluator::refine(const std::vector<Token>& t, std::size_t b,
                       std::size_t e, bool taken, Env& env) const {
  if (b >= e || env.unreachable) return;
  // Strip one level of outer parens.
  while (b < e && is_punct(t[b], "(") && match_forward(t, b) == e - 1) {
    ++b;
    --e;
  }
  if (b >= e) return;

  // Conjunction on the taken branch / disjunction on the fallthrough both
  // refine each operand independently.
  {
    int depth = 0;
    std::vector<std::size_t> cuts;
    const char* sep = taken ? "&&" : "||";
    const char* other = taken ? "||" : "&&";
    bool has_other = false;
    for (std::size_t i = b; i < e; ++i) {
      if (t[i].kind != Tok::kPunct) continue;
      const std::string& x = t[i].text;
      if (x == "(" || x == "[" || x == "{") ++depth;
      else if (x == ")" || x == "]" || x == "}") --depth;
      else if (depth == 0 && x == sep) cuts.push_back(i);
      else if (depth == 0 && x == other) has_other = true;
    }
    if (!cuts.empty() && !has_other) {
      std::size_t start = b;
      for (std::size_t cut : cuts) {
        refine(t, start, cut, taken, env);
        start = cut + 1;
      }
      refine(t, start, e, taken, env);
      return;
    }
    if (has_other) return;  // disjunctive information: no single refinement
  }

  if (is_punct(t[b], "!")) {
    refine(t, b + 1, e, !taken, env);
    return;
  }

  // Atomic comparison: `path op expr` or `expr op path`.
  std::size_t cmp = e;
  std::string op;
  {
    int depth = 0;
    for (std::size_t i = b; i < e; ++i) {
      if (t[i].kind != Tok::kPunct) continue;
      const std::string& x = t[i].text;
      if (x == "(" || x == "[" || x == "{") ++depth;
      else if (x == ")" || x == "]" || x == "}") --depth;
      else if (depth == 0 && (x == "<" || x == "<=" || x == ">" ||
                              x == ">=" || x == "==" || x == "!=")) {
        if (cmp != e) return;  // chained comparisons: give up
        cmp = i;
        op = x;
      }
    }
  }

  auto is_path = [&t](std::size_t pb, std::size_t pe) {
    if (pb >= pe || t[pb].kind != Tok::kIdent) return false;
    bool want_ident = false;
    for (std::size_t i = pb; i < pe; ++i) {
      if (want_ident) {
        if (t[i].kind != Tok::kIdent) return false;
      } else if (t[i].kind == Tok::kIdent) {
      } else if (t[i].kind == Tok::kPunct &&
                 (t[i].text == "::" || t[i].text == "." ||
                  t[i].text == "->")) {
      } else {
        return false;
      }
      want_ident = t[i].kind == Tok::kPunct;
    }
    return !want_ident;
  };
  auto path_key = [&t](std::size_t pb, std::size_t pe) {
    std::string k;
    for (std::size_t i = pb; i < pe; ++i) k += t[i].text;
    return k;
  };
  auto flip_side = [](const std::string& o) -> std::string {
    if (o == "<") return ">";
    if (o == ">") return "<";
    if (o == "<=") return ">=";
    if (o == ">=") return "<=";
    return o;
  };
  auto negate = [](const std::string& o) -> std::string {
    if (o == "<") return ">=";
    if (o == ">") return "<=";
    if (o == "<=") return ">";
    if (o == ">=") return "<";
    if (o == "==") return "!=";
    return "==";
  };

  if (cmp < e) {
    std::size_t pb = b, pe = cmp, vb = cmp + 1, ve = e;
    std::string eff = op;
    if (!is_path(pb, pe)) {
      if (!is_path(vb, ve)) return;
      std::swap(pb, vb);
      std::swap(pe, ve);
      eff = flip_side(op);  // `expr op path` reads as `path flip(op) expr`
    }
    if (!taken) eff = negate(eff);
    const AbsVal rhs = eval(t, vb, ve, env);
    if (!rhs.known) return;
    const std::string key = path_key(pb, pe);
    AbsVal cur = eval(t, pb, pe, env);
    if (!cur.known) {
      cur.known = true;
      cur.lo = -kAbsInf;
      cur.hi = kAbsInf;
    }
    if (eff == "<") {
      if (rhs.hi - 1 < cur.hi) {
        cur.hi = rhs.hi - 1;
        cur.wit_hi = rhs.wit_hi;
      }
    } else if (eff == "<=") {
      if (rhs.hi < cur.hi) {
        cur.hi = rhs.hi;
        cur.wit_hi = rhs.wit_hi;
      }
    } else if (eff == ">") {
      if (rhs.lo + 1 > cur.lo) {
        cur.lo = rhs.lo + 1;
        cur.wit_lo = rhs.wit_lo;
      }
    } else if (eff == ">=") {
      if (rhs.lo > cur.lo) {
        cur.lo = rhs.lo;
        cur.wit_lo = rhs.wit_lo;
      }
    } else if (eff == "==") {
      if (rhs.lo > cur.lo) {
        cur.lo = rhs.lo;
        cur.wit_lo = rhs.wit_lo;
      }
      if (rhs.hi < cur.hi) {
        cur.hi = rhs.hi;
        cur.wit_hi = rhs.wit_hi;
      }
    } else {
      return;  // != : no interval refinement
    }
    if (cur.lo > cur.hi) {
      env.unreachable = true;
      return;
    }
    env.vars[key] = cur;
    return;
  }

  // Bare truthiness of a path.
  if (is_path(b, e)) {
    const std::string key = path_key(b, e);
    AbsVal cur = eval(t, b, e, env);
    if (!cur.known) return;
    if (taken) {
      if (cur.lo == 0 && cur.hi == 0) {
        env.unreachable = true;
        return;
      }
      if (cur.lo == 0 && cur.hi > 0) cur.lo = 1;
    } else {
      if (cur.lo > 0 || cur.hi < 0) {
        env.unreachable = true;
        return;
      }
      cur.lo = 0;
      cur.hi = 0;
      cur.wit_lo.clear();
      cur.wit_hi.clear();
    }
    env.vars[key] = cur;
  }
}

}  // namespace asman_lint
