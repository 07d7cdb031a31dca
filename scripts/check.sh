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

# The non-test code of the files named on stdin, as `file:line: text`: each
# file up to its `#[cfg(test)]`, comment lines excluded.
non_test_lines() {
  while read -r f; do
    awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$f"
  done
}

# Every fetch is reported and counted in one place, the reader's `serve`
# (DESIGN.md §12 "One fetch pipeline"); a second site is a hand-copied
# epilogue that will drift. Non-test code only, the definitions themselves
# excluded.
echo "== one fetch epilogue =="
for pat in 'QueryReport \{' 'bump_queries\('; do
  sites=$(find crates/core/src -name '*.rs' | sort | non_test_lines |
    grep -E "$pat" | grep -vE '\b(struct|impl|fn) ' || true)
  if [ "$(printf '%s' "$sites" | grep -c .)" -gt 1 ]; then
    echo "FAIL: more than one non-test site matches '$pat' — route the new plan through serve():"
    echo "$sites"
    exit 1
  fi
done

# Every similarity question — which open partition, which delta base — goes
# through `Ledger::most_similar` (DESIGN.md §17 "Base selection"): a second
# caller of the index ranks candidates its own way and the layout drifts.
# Non-test code only, as above.
echo "== one similarity entrance =="
sites=$(find crates/store/src crates/core/src -name '*.rs' ! -path crates/store/src/ledger.rs |
  sort | non_test_lines | grep -E 'query_ranked\(|best_where\(|jaccard_estimate\(' || true)
if [ -n "$sites" ]; then
  echo "FAIL: the LSH index is probed outside crates/store/src/ledger.rs — ask Ledger::most_similar:"
  echo "$sites"
  exit 1
fi

# Observability has one of each (DESIGN.md §9, §14): one span renderer
# (the tree), one machine format (JSON), one summary type, constants where
# one value was ever used, and one site that mirrors pull-style state into
# gauges (`sync_obs_gauges` in system.rs). A second exporter, a knob or a
# per-call mirror is the stack growing back. Non-test code only, as above.
echo "== observability: one of each =="
sites=$(find crates -name '*.rs' | sort | non_test_lines |
  grep -E 'perfetto|flamegraph|folded_stacks|prometheus|open_with_obs|span_ring_capacity|report_retention' || true)
mirrors=$(find crates -name '*.rs' ! -path crates/core/src/system.rs | sort | non_test_lines |
  grep -E 'gauge\("(audit|telemetry)\.' || true)
if [ -n "$sites$mirrors" ]; then
  echo "FAIL: a removed exporter/knob is back, or audit.*/telemetry.* gauges are written outside system.rs:"
  printf '%s\n' "$sites" "$mirrors" | grep .
  exit 1
fi

# Diagnostics cost what their arithmetic costs (DESIGN.md §18): a fetched
# frame is read in place — one cell (`f64_at`) or one column at a time
# (`f64_view` into a reused scratch) — never copied whole into f64 vectors;
# only the single-column diagnostics that return or sort the whole column
# convert it. And a tall SVD goes through QR first: `one_sided_jacobi` is
# the kernel `svd.rs` runs on the small factor, not an entrance of its own.
# Non-test code only, as above.
echo "== diagnostics read columns in place =="
copies=$(grep -rn --include='*.rs' 'f64_columns(' crates || true)
converts=$(awk '
  /^#\[cfg\(test\)\]/ { exit }
  /^[[:space:]]*\/\// { next }
  /^    (pub )?fn / || /^(pub )?fn / { fn = $0; sub(/.*fn /, "", fn); sub(/[(<].*/, "", fn) }
  /\.to_f64\(\)/ && fn !~ /^(topk|col_dist|col_diff|select_where_gt|group_metric)$/ {
    print FILENAME ":" FNR ": (in " fn ") " $0
  }' crates/core/src/diagnostics.rs)
jacobi=$(find crates -name '*.rs' ! -path crates/linalg/src/svd.rs | sort | non_test_lines |
  grep -F 'one_sided_jacobi(' || true)
if [ -n "$copies$converts$jacobi" ]; then
  echo "FAIL: a whole-frame f64 copy, a .to_f64() in a whole-frame diagnostic, or one_sided_jacobi outside svd.rs:"
  printf '%s\n' "$copies" "$converts" "$jacobi" | grep .
  exit 1
fi

# A read decodes the members it asks for (DESIGN.md §11 "Partition file
# format"); decoding a whole partition is compaction's business, which
# rewrites every live chunk of it anyway. Non-test code only, as above.
echo "== reads decode members, not partitions =="
unseals=$(awk '
  /^#\[cfg\(test\)\]/ { exit }
  /^[[:space:]]*\/\// { next }
  /^    (pub(\(crate\))? )?fn / { fn = $0; sub(/.*fn /, "", fn); sub(/[(<].*/, "", fn) }
  /Partition::unseal\(/ && fn != "compact" { print FILENAME ":" FNR ": (in " fn ") " $0 }
' crates/store/src/datastore.rs)
if [ -n "$unseals" ]; then
  echo "FAIL: a whole-partition decode on the read path — open a SealedPartition and decode the member:"
  echo "$unseals"
  exit 1
fi

# The forward kernels walk contiguous slices (DESIGN.md §2, "Kernel order
# contract"): `Tensor::at` / `at_mut` recompute a four-term index per read,
# which is what the naive kernels kept under `#[cfg(test)]` cost. Non-test
# code only, as above.
echo "== forward kernels index slices =="
sites=$(echo crates/nn/src/layer.rs | non_test_lines | grep -E '\.at(_mut)?\(' || true)
if [ -n "$sites" ]; then
  echo "FAIL: per-element Tensor indexing in a forward kernel — walk row slices:"
  echo "$sites"
  exit 1
fi

# Performance is judged in one place: BENCHMARK.json, run by e2e/ (gate:
# `e2e --selfcheck`). A committed bench snapshot, a gate script of its own
# or a snapshot-writing helper is a second measurement system growing back.
# The `[_]` keeps each pattern from matching this file.
echo "== one perf contract =="
stray=$(git ls-files 'BENCH[_]*.json' 'scripts/bench[_]gate.sh')
uses=$(git ls-files '*.rs' '*.sh' '*.yml' |
  xargs grep -nE 'MISTIQUE_BENCH[_]DIR|write_obs[_]snapshot' || true)
if [ -n "$stray$uses" ]; then
  echo "FAIL: perf numbers belong in BENCHMARK.json's per-layer metrics, not beside it:"
  printf '%s\n' "$stray" "$uses" | grep .
  exit 1
fi

echo "all checks passed"
