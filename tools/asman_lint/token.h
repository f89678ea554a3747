// Token model for asman-lint's dependency-free C++ scanner.
//
// asman-lint does not build a real AST: it lexes each file into a token
// stream (comments and preprocessor lines stripped, string/char literals
// collapsed, `asman-lint: allow(...)` pragmas harvested, `#define` bodies
// kept aside) and runs the project-discipline checks as structural
// patterns over that stream. This keeps the tool buildable with nothing
// but the C++ toolchain.
#pragma once

#include <string>
#include <vector>

namespace asman_lint {

enum class Tok {
  kIdent,        // identifiers and keywords
  kNumber,       // integer-looking pp-number (incl. 100'000)
  kFloatNumber,  // floating-point literal (1.0, 2e9, 0x1.8p3, 1.f)
  kString,       // string literal (text collapsed to "")
  kChar,         // character literal
  kPunct,        // operators / punctuation, longest-match (::, ->, +=, ...)
};

struct Token {
  Tok kind;
  std::string text;
  int line;
};

inline bool is_punct(const Token& t, const char* s) {
  return t.kind == Tok::kPunct && t.text == s;
}
inline bool is_ident(const Token& t, const char* s) {
  return t.kind == Tok::kIdent && t.text == s;
}
/// `=` or an arithmetic compound assignment.
inline bool is_assign_op(const Token& t) {
  return t.kind == Tok::kPunct &&
         (t.text == "=" || t.text == "+=" || t.text == "-=" ||
          t.text == "*=" || t.text == "/=" || t.text == "%=");
}

/// One `// asman-lint: allow(check-a, check-b) -- reason` pragma. It
/// suppresses findings of the named checks on its own line and on the next
/// line (so a whole-line comment can shield the statement below it). Every
/// suppression that actually fires is counted against the --max-allows
/// budget and listed in the report, so escapes stay visible in CI output.
struct AllowPragma {
  int line;
  std::vector<std::string> checks;
  std::string reason;
  mutable int uses{0};
};

struct Include {
  int line;
  std::string target;  // e.g. "random", "sys/time.h"
};

struct FileUnit {
  std::string path;          // path as reported in findings
  std::string display_path;  // normalized (repo-relative when possible)
  std::vector<Token> toks;
  /// Tokens of every `#define` (name, parameters and replacement), each
  /// carrying its directive's line: a macro can launder a banned call
  /// past the code stream above.
  std::vector<Token> macro_toks;
  std::vector<AllowPragma> allows;
  std::vector<Include> includes;
};

}  // namespace asman_lint
