#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints, build, and the full test suite.
# Run from anywhere; everything executes at the workspace root. The
# workspace has no registry dependencies, so every step runs offline and
# every suite runs exactly once.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test --workspace -q

# e2e/ is a workspace of its own (the benchmark BENCHMARK.json runs); its
# tests are not part of the run above.
echo "== benchmark's own tests (e2e workspace) =="
cargo test --release --offline --manifest-path e2e/Cargo.toml -p mistique-e2e

# A suite that silently drops out is worse than one that fails: a root
# tests/*.rs only compiles through its [[test]] entry in crates/core, and an
# integration target that lists no tests ran nothing.
echo "== no suite dropped out =="
for f in tests/*.rs; do
  grep -qF "path = \"../../$f\"" crates/core/Cargo.toml ||
    { echo "FAIL: $f has no [[test]] entry in crates/core/Cargo.toml"; exit 1; }
done
cargo test --workspace --test '*' -- --list 2>&1 | awk '
  / Running / { target = $2 }
  /^[0-9]+ tests?, / && $1 == 0 { print "FAIL: " target " lists zero tests"; bad = 1 }
  END { exit bad }'

echo "all checks passed"
