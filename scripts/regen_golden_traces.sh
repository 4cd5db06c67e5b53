#!/usr/bin/env bash
# Re-blesses the goldens under tests/sim/golden/ — the text traces and the
# golden corpus digests — from sim::Machine, after an intentional change to
# simulator timing, arbitration, run statistics or trace formatting.
# Usage: scripts/regen_golden_traces.sh [build-dir]   (default: build)
set -euo pipefail

build_dir="${1:-build}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
suites='GoldenTrace.*:CoreEquivalence.*'

cmake --build "$repo_root/$build_dir" --target test_sim -j
AM_REGEN_GOLDEN=1 "$repo_root/$build_dir/tests/test_sim" \
  --gtest_filter="$suites"
# Replayed without the variable, both suites must now pass against the
# files just written; a failure means a run is not deterministic.
"$repo_root/$build_dir/tests/test_sim" --gtest_filter="$suites"
echo "regenerated goldens:"
ls -l "$repo_root"/tests/sim/golden/
echo "review the diff before committing: git diff tests/sim/golden/"
