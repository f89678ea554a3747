#!/usr/bin/env bash
# Static checks driver: asman-lint (discipline checker) + clang-tidy.
#
#   tools/lint.sh [--help] [--fix] [--sarif <path>] [build-dir]
#                 [-- extra clang-tidy args]
#
# Runs two passes over the first-party tree:
#
#   1. asman-lint — the flow-sensitive discipline checker
#      (tools/asman_lint): determinism, ordered-iteration, integer-credit,
#      audit-seam, credit-flow, state-machine, thread-safety,
#      rng-discipline and value-range (the interval-domain overflow proof
#      seeded from src/core/bounds_spec.h) over src/, bench/ and
#      examples/. Uses the binary built in <build-dir>; skipped with a note
#      when it has not been built yet (configure alone does not build it).
#      --sarif <path> forwards to the binary and writes a SARIF 2.1.0
#      report (the format CI uploads to code scanning), and requires the
#      binary to exist.
#
#   2. clang-tidy — over the whole compile database. --fix applies
#      clang-tidy's suggested fixits in place (serialized through
#      run-clang-tidy when available, so concurrent edits to shared
#      headers cannot race).
#
# The build directory must have been configured already (any preset will
# do: CMakeLists.txt always exports compile_commands.json). Exits 0 when
# clang-tidy is not installed so that `tools/lint.sh` can sit in local
# hooks without breaking machines that lack the tool; CI installs it and
# runs this same script, so absence there would fail the job that checks
# for it explicitly.
set -euo pipefail

cd "$(dirname "$0")/.."

usage() {
  # The header comment, line 2 up to the first line that is not a comment.
  sed -n '2,/^[^#]/s/^# \{0,1\}//p' "tools/lint.sh"
}

FIX=0
SARIF_OUT=""
while [ $# -gt 0 ]; do
  case "${1:-}" in
    --help|-h)
      usage
      exit 0
      ;;
    --fix)
      FIX=1
      shift
      ;;
    --sarif)
      if [ -z "${2:-}" ]; then
        echo "lint.sh: --sarif needs a path argument" >&2
        exit 2
      fi
      SARIF_OUT="$2"
      shift 2
      ;;
    *)
      break
      ;;
  esac
done
BUILD_DIR="${1:-build}"
shift || true
[ "${1:-}" = "--" ] && shift

if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
  echo "lint.sh: $BUILD_DIR/compile_commands.json missing -- configure first:" >&2
  echo "  cmake -B $BUILD_DIR -S ." >&2
  exit 2
fi

STATUS=0

# Pass 1: asman-lint tree scan (src/, bench/ and examples/).
ASMAN_LINT="$BUILD_DIR/tools/asman_lint/asman_lint"
if [ -x "$ASMAN_LINT" ]; then
  LINT_ARGS=(--root .)
  [ -n "$SARIF_OUT" ] && LINT_ARGS+=(--sarif "$SARIF_OUT")
  echo "lint.sh: asman-lint tree scan (${ASMAN_LINT})" >&2
  "$ASMAN_LINT" "${LINT_ARGS[@]}" || STATUS=$?
elif [ -n "$SARIF_OUT" ]; then
  echo "lint.sh: --sarif needs the asman_lint binary; build it first:" >&2
  echo "  cmake --build $BUILD_DIR --target asman_lint" >&2
  exit 2
else
  echo "lint.sh: $ASMAN_LINT not built; skipping the discipline scan" >&2
fi

# Pass 2: clang-tidy.
TIDY="${CLANG_TIDY:-}"
if [ -z "$TIDY" ]; then
  for cand in clang-tidy clang-tidy-18 clang-tidy-17 clang-tidy-16 \
              clang-tidy-15 clang-tidy-14; do
    if command -v "$cand" >/dev/null 2>&1; then
      TIDY="$cand"
      break
    fi
  done
fi
if [ -z "$TIDY" ]; then
  echo "lint.sh: clang-tidy not found; skipping (set CLANG_TIDY to override)" >&2
  exit $STATUS
fi

# First-party translation units only (third-party/test-framework TUs that
# end up in the compile database are not ours to lint). --others picks up
# files not yet committed (e.g. a freshly added src/vmm TU) so pre-commit
# runs lint what is about to land, not just what already did. asman-lint's
# fixtures are excluded (they plant violations on purpose and are never
# compiled).
mapfile -t FILES < <(git ls-files --cached --others --exclude-standard \
                                  'src/*.cpp' 'tests/*.cpp' 'bench/*.cpp' \
                                  'examples/*.cpp' 'tools/asman_lint/*.cpp' \
                                  ':!tools/asman_lint/fixtures/*' \
                                  | sort -u)

echo "lint.sh: $TIDY over ${#FILES[@]} files (database: $BUILD_DIR)" >&2
RUNNER="$(command -v run-clang-tidy || true)"
if [ -n "$RUNNER" ]; then
  FIX_ARGS=()
  [ "$FIX" = 1 ] && FIX_ARGS=(-fix)
  "$RUNNER" -clang-tidy-binary "$TIDY" -p "$BUILD_DIR" -quiet \
      "${FIX_ARGS[@]}" "$@" "${FILES[@]}" || STATUS=$?
else
  FIX_ARGS=()
  [ "$FIX" = 1 ] && FIX_ARGS=(--fix)
  for f in "${FILES[@]}"; do
    "$TIDY" -p "$BUILD_DIR" --quiet "${FIX_ARGS[@]}" "$@" "$f" || STATUS=$?
  done
fi
exit $STATUS
