// Scanner: raw C++ source -> FileUnit (token stream + allow pragmas).
#pragma once

#include <string>

#include "token.h"

namespace asman_lint {

/// Lexes `source` into tokens. Handles line/block comments (harvesting
/// `asman-lint: allow(...)` pragmas), string/char/raw-string literals,
/// digit separators (100'000), float-literal classification, and
/// preprocessor lines (skipped; `#include` targets recorded, `#define`
/// tokens kept in FileUnit::macro_toks).
FileUnit lex_file(std::string path, std::string display_path,
                  const std::string& source);

/// Reads the file from disk and lexes it. Returns false if unreadable.
bool lex_path(const std::string& path, const std::string& display_path,
              FileUnit& out, std::string& error);

}  // namespace asman_lint
