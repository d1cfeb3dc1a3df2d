#!/usr/bin/env bash
# Full local gate: configure + build (warnings are errors), tier-1
# tests, and the photon_lint determinism/layout/lockset/taint
# pass — the same checks CI runs on every push.
#
# Usage: scripts/check.sh [--lint-only] [builddir]
#   --lint-only   skip the test suite; build photon_lint and run the
#                 lint + lint-self targets only (fast pre-commit loop)
set -euo pipefail

cd "$(dirname "$0")/.."

LINT_ONLY=0
if [ "${1:-}" = "--lint-only" ]; then
    LINT_ONLY=1
    shift
fi
BUILD="${1:-build}"

cmake -B "$BUILD" -S . -DCMAKE_CXX_FLAGS=-Werror

if [ "$LINT_ONLY" = 1 ]; then
    cmake --build "$BUILD" -j --target photon_lint
    cmake --build "$BUILD" --target lint
    cmake --build "$BUILD" --target lint-self
    echo "check.sh: lint and lint-self green"
    exit 0
fi

cmake --build "$BUILD" -j
ctest --test-dir "$BUILD" --output-on-failure -j
cmake --build "$BUILD" --target lint
cmake --build "$BUILD" --target lint-self

echo "check.sh: build, tests and lint all green"
