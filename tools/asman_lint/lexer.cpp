#include "lexer.h"

#include <cctype>
#include <cstddef>
#include <fstream>
#include <sstream>

namespace asman_lint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_cont(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Parses `asman-lint: allow(check-a, check-b) -- reason` out of a comment's
/// text. Returns true and fills `out` when the pragma grammar matches.
bool parse_allow(const std::string& text, int line, AllowPragma& out) {
  const std::size_t tag = text.find("asman-lint:");
  if (tag == std::string::npos) return false;
  std::size_t i = tag + std::string("asman-lint:").size();
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
    ++i;
  if (text.compare(i, 6, "allow(") != 0) return false;
  i += 6;
  const std::size_t close = text.find(')', i);
  if (close == std::string::npos) return false;
  out.line = line;
  out.checks.clear();
  std::string name;
  for (std::size_t j = i; j <= close; ++j) {
    const char c = text[j];
    if (c == ',' || c == ')') {
      if (!name.empty()) out.checks.push_back(name);
      name.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      name.push_back(c);
    }
  }
  const std::size_t dash = text.find("--", close);
  if (dash != std::string::npos) {
    std::size_t r = dash + 2;
    while (r < text.size() && std::isspace(static_cast<unsigned char>(text[r])))
      ++r;
    std::size_t e = text.size();
    while (e > r && (std::isspace(static_cast<unsigned char>(text[e - 1])) ||
                     text[e - 1] == '/' || text[e - 1] == '*'))
      --e;
    out.reason = text.substr(r, e - r);
  } else {
    out.reason.clear();
  }
  return !out.checks.empty();
}

class Scanner {
 public:
  Scanner(const std::string& src, FileUnit& unit) : s_(src), u_(unit) {}

  void run() {
    while (i_ < s_.size()) {
      const char c = s_[i_];
      if (c == '\n') {
        ++line_;
        ++i_;
        at_line_start_ = true;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i_;
        continue;
      }
      if (c == '/' && peek(1) == '/') {
        line_comment();
        continue;
      }
      if (c == '/' && peek(1) == '*') {
        block_comment();
        continue;
      }
      if (at_line_start_ && c == '#') {
        preprocessor_line();
        continue;
      }
      at_line_start_ = false;
      if (c == 'R' && peek(1) == '"') {
        raw_string();
        continue;
      }
      if (c == '"') {
        string_literal();
        continue;
      }
      if (c == '\'') {
        char_literal();
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
        number();
        continue;
      }
      if (ident_start(c)) {
        identifier();
        continue;
      }
      punct();
    }
  }

 private:
  char peek(std::size_t k) const {
    return i_ + k < s_.size() ? s_[i_ + k] : '\0';
  }

  void emit(Tok kind, std::string text, int line) {
    u_.toks.push_back({kind, std::move(text), line});
  }

  void harvest_pragma(const std::string& text, int line) {
    AllowPragma p;
    if (parse_allow(text, line, p)) u_.allows.push_back(std::move(p));
  }

  void line_comment() {
    const int line = line_;
    std::size_t e = s_.find('\n', i_);
    if (e == std::string::npos) e = s_.size();
    harvest_pragma(s_.substr(i_, e - i_), line);
    i_ = e;
  }

  void block_comment() {
    const int line = line_;
    i_ += 2;
    std::string text;
    while (i_ < s_.size()) {
      if (s_[i_] == '*' && peek(1) == '/') {
        i_ += 2;
        break;
      }
      if (s_[i_] == '\n') ++line_;
      text.push_back(s_[i_]);
      ++i_;
    }
    harvest_pragma(text, line);
  }

  void preprocessor_line() {
    const int line = line_;
    std::string text;
    while (i_ < s_.size()) {
      if (s_[i_] == '\\' && peek(1) == '\n') {
        i_ += 2;
        ++line_;
        continue;
      }
      if (s_[i_] == '/' && peek(1) == '/') {
        line_comment();
        continue;
      }
      if (s_[i_] == '\n') break;  // newline itself handled by run()
      text.push_back(s_[i_]);
      ++i_;
    }
    const std::size_t word = text.find_first_not_of(" \t", 1);
    if (word != std::string::npos && text.compare(word, 6, "define") == 0) {
      FileUnit body;
      Scanner(text.substr(word + 6), body).run();
      for (Token& tok : body.toks) {
        tok.line = line;
        u_.macro_toks.push_back(std::move(tok));
      }
      return;
    }
    const std::size_t inc = text.find("include");
    if (inc != std::string::npos) {
      std::size_t a = text.find_first_of("<\"", inc);
      if (a != std::string::npos) {
        const char end = text[a] == '<' ? '>' : '"';
        const std::size_t b = text.find(end, a + 1);
        if (b != std::string::npos)
          u_.includes.push_back({line, text.substr(a + 1, b - a - 1)});
      }
    }
  }

  void raw_string() {
    const int line = line_;
    i_ += 2;  // R"
    std::string delim;
    while (i_ < s_.size() && s_[i_] != '(') delim.push_back(s_[i_++]);
    ++i_;  // (
    const std::string close = ")" + delim + "\"";
    const std::size_t e = s_.find(close, i_);
    for (std::size_t j = i_; j < (e == std::string::npos ? s_.size() : e); ++j)
      if (s_[j] == '\n') ++line_;
    i_ = e == std::string::npos ? s_.size() : e + close.size();
    emit(Tok::kString, "\"\"", line);
  }

  void string_literal() {
    const int line = line_;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) ++i_;
      if (s_[i_] == '\n') ++line_;
      ++i_;
    }
    if (i_ < s_.size()) ++i_;
    emit(Tok::kString, "\"\"", line);
  }

  void char_literal() {
    const int line = line_;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '\'') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) ++i_;
      ++i_;
    }
    if (i_ < s_.size()) ++i_;
    emit(Tok::kChar, "''", line);
  }

  void number() {
    const int line = line_;
    std::string text;
    const bool hex = s_[i_] == '0' && (peek(1) == 'x' || peek(1) == 'X');
    bool is_float = false;
    while (i_ < s_.size()) {
      const char c = s_[i_];
      if (c == '\'' && ident_cont(peek(1))) {  // digit separator: 100'000
        text.push_back(c);
        ++i_;
        continue;
      }
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '.') {
        if (c == '.') is_float = true;
        if (!hex && (c == 'e' || c == 'E') &&
            (peek(1) == '+' || peek(1) == '-' ||
             std::isdigit(static_cast<unsigned char>(peek(1))))) {
          is_float = true;
          text.push_back(c);
          ++i_;
          if (s_[i_] == '+' || s_[i_] == '-') text.push_back(s_[i_++]);
          continue;
        }
        if (hex && (c == 'p' || c == 'P')) {
          is_float = true;
          text.push_back(c);
          ++i_;
          if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-'))
            text.push_back(s_[i_++]);
          continue;
        }
        text.push_back(c);
        ++i_;
        continue;
      }
      break;
    }
    emit(is_float ? Tok::kFloatNumber : Tok::kNumber, std::move(text), line);
  }

  void identifier() {
    const int line = line_;
    std::string text;
    while (i_ < s_.size() && ident_cont(s_[i_])) text.push_back(s_[i_++]);
    emit(Tok::kIdent, std::move(text), line);
  }

  void punct() {
    static const char* three[] = {"<<=", ">>=", "...", "->*"};
    static const char* two[] = {"::", "->", "<<", ">>", "<=", ">=", "==",
                                "!=", "&&", "||", "+=", "-=", "*=", "/=",
                                "%=", "&=", "|=", "^=", "++", "--", ".*"};
    for (const char* p : three) {
      if (s_.compare(i_, 3, p) == 0) {
        emit(Tok::kPunct, p, line_);
        i_ += 3;
        return;
      }
    }
    for (const char* p : two) {
      if (s_.compare(i_, 2, p) == 0) {
        emit(Tok::kPunct, p, line_);
        i_ += 2;
        return;
      }
    }
    emit(Tok::kPunct, std::string(1, s_[i_]), line_);
    ++i_;
  }

  const std::string& s_;
  FileUnit& u_;
  std::size_t i_{0};
  int line_{1};
  bool at_line_start_{true};
};

}  // namespace

FileUnit lex_file(std::string path, std::string display_path,
                  const std::string& source) {
  FileUnit u;
  u.path = std::move(path);
  u.display_path = std::move(display_path);
  Scanner(source, u).run();
  return u;
}

bool lex_path(const std::string& path, const std::string& display_path,
              FileUnit& out, std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  out = lex_file(path, display_path, ss.str());
  return true;
}

}  // namespace asman_lint
