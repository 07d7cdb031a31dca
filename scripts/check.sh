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

# One history of operations (DESIGN.md §14, §16): what an operation did to
# the store — a reclaim step, a compaction — is an effect on its audit
# record, and everything else the removed event journal said is a metric
# in the timeline. An event type, an event emitter or an `ev_` segment
# family is a second journal growing back. Non-test code only, as above.
echo "== one operation record =="
sites=$(find crates -name '*.rs' | sort | non_test_lines |
  grep -E 'EngineEvent|record_event\(|telemetry_event\(|"ev_"' || true)
if [ -n "$sites" ]; then
  echo "FAIL: an engine event journal is back — put the fact on the operation's AuditRecord:"
  echo "$sites"
  exit 1
fi

# One sidecar ring (DESIGN.md §11, §14): a metric-delta point rides on the
# audit record of the operation that took it, and the timeline is a view of
# the journal. A flight recorder, its `telemetry/` directory, its budget knob
# or its `tl_` segment family is a second ring growing back. The directory's
# name keeps its one definition and re-export in the store crate, which the
# benchmark's I/O split reads. Non-test code only, as above.
echo "== one sidecar ring =="
sites=$(find crates -name '*.rs' | sort | non_test_lines |
  grep -E 'FlightRecorder|TELEMETRY_SUBDIR|telemetry_budget_bytes|"tl_"' |
  grep -vE '^crates/store/src/(subdir|lib)\.rs:[0-9]+: (pub const|pub use) .*TELEMETRY_SUBDIR' || true)
if [ -n "$sites" ]; then
  echo "FAIL: a second sidecar ring is back — put the metric point on the operation's AuditRecord:"
  echo "$sites"
  exit 1
fi

# Every fetch is served by a plan the cost model priced (DESIGN.md §10,
# §12): read, re-run, rows or indexed. A frame cache in front of the
# planner — the removed session query cache — serves a plan nobody
# priced. Non-test code only, as above.
echo "== every fetch is a priced plan =="
sites=$(find crates -name '*.rs' | sort | non_test_lines |
  grep -E 'QueryCache|qcache|query_cache|PlanChoice::Cached|FetchStrategy::Cached' || true)
if [ -n "$sites" ]; then
  echo "FAIL: a query cache is back — serve the fetch from a priced plan:"
  echo "$sites"
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

# One encode per chunk (DESIGN.md §11 "Partition file format"): a chunk's
# frame is made once, when it is put; a seal assembles frames, compaction
# copies them, and a read decodes only the members it asks for. A
# whole-partition decode or a batch encode of members is that work done
# again. Non-test code only, as above, and no integration test directory.
echo "== one encode per chunk =="
sites=$(find crates -name '*.rs' ! -path '*/tests/*' | sort | non_test_lines |
  grep -E 'Partition::unseal\(|compress_each' || true)
if [ -n "$sites" ]; then
  echo "FAIL: a second encode or a whole-partition decode — frame each chunk at put, copy frames after:"
  echo "$sites"
  exit 1
fi

# One decode on the read path (DESIGN.md §10 "Column decodes"): a stored
# chunk's bytes are converted once, straight into the answer's f64 column
# (`capture::decode_cells`). `ColumnChunk::from_bytes` then `decode_column`
# copy every value twice more on the way; both stay public for the
# benchmark's replay and for tests, not for the engine's reads. Non-test
# code only, as above.
echo "== one decode on the read path =="
sites=$(printf '%s\n' crates/core/src/reader.rs crates/core/src/prefix.rs crates/core/src/manager.rs |
  non_test_lines | grep -E 'ColumnChunk::from_bytes\(|decode_column\(' || true)
if [ -n "$sites" ]; then
  echo "FAIL: a chunk decoded through a typed copy on the read path — decode it into the column:"
  echo "$sites"
  exit 1
fi

# A whole-layer read pays per column only for its decode (DESIGN.md §10
# "Fixed costs of a read"): the store resolves the (columns × blocks) grid
# by the borrowed names (`DataStore::get_grid_bytes`), and each column item
# pushes its blocks into a vector of the column's final length. A key built
# per chunk (two cloned strings) or an output zero-filled before every cell
# is overwritten is that cost growing back. Non-test code only, as above.
echo "== no key strings or memset per chunk on the read path =="
sites=$(echo crates/core/src/reader.rs | non_test_lines | grep -E 'ChunkKey::new\(|vec!\[0\.0;' || true)
if [ -n "$sites" ]; then
  echo "FAIL: a per-chunk key or a zero-filled output on the read path — resolve the grid by name, push decoded blocks:"
  echo "$sites"
  exit 1
fi

# A read makes no system call but its partition-file reads (DESIGN.md §10
# "Fixed costs of a read"): on Linux `available_parallelism` reads the cgroup
# CPU-quota files on every call, more than a warm read's decode costs, so
# the host's CPUs are probed once per process, inside `host_cpus`'s
# `get_or_init`. Non-test code only, as above, and no integration test
# directory.
echo "== no CPU probe per read =="
probes=$(find crates -name '*.rs' ! -path '*/tests/*' | sort | non_test_lines |
  grep -F 'available_parallelism(' || true)
if [ "$(printf '%s' "$probes" | grep -c .)" -ne 1 ] || ! printf '%s' "$probes" | grep -qF 'get_or_init('; then
  echo "FAIL: the host's CPUs are probed outside the one get_or_init — resolve them once per process:"
  printf '%s\n' "$probes" | grep . || echo "(no probe at all)"
  exit 1
fi

# One partition format (DESIGN.md §11 "Partition file format"): a store of
# an earlier format version is refused at reopen, so no code path reads or
# writes the single-frame layout that came before the member format.
# Non-test code only, as above.
echo "== one partition format =="
sites=$(find crates -name '*.rs' | sort | non_test_lines | grep -E 'seal_legacy|unseal_legacy' || true)
if [ -n "$sites" ]; then
  echo "FAIL: a second partition format is back — the store reads and writes format version 2 only:"
  echo "$sites"
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

# One capture path (DESIGN.md §2, "One capture path"): logging and a re-run
# hand every tile of `Model::forward_tiles` to `capture.rs`, the one place
# that pools an example and names a feature column. The removed second route
# (an unpooled frame, pooled afterwards at a shape from a second model) or a
# pooling / column-naming site of its own is that route growing back.
# Non-test code only, as above.
echo "== one capture path =="
gone=$(find crates/core/src crates/nn/src -name '*.rs' | sort | non_test_lines |
  grep -E 'pool_frame|activation_to_frame|layer_shapes|forward_to_batched' || true)
copies=$(find crates/core/src crates/nn/src -name '*.rs' ! -path crates/core/src/capture.rs |
  sort | non_test_lines | grep -F -e 'pool_example(' -e 'format!("n{' || true)
if [ -n "$gone$copies" ]; then
  echo "FAIL: a second capture route — capture and frame activations through capture.rs:"
  printf '%s\n' "$gone" "$copies" | grep .
  exit 1
fi

# Every crash enumeration runs through one driver, `enumerate_crashes` next
# to FaultyFs (DESIGN.md §11 "One crash driver"): it is the only place that
# arms a crash point. A `crash_after(` anywhere else is a hand-written loop
# growing back.
echo "== one crash driver =="
loops=$(grep -rn --include='*.rs' --exclude-dir=target --exclude-dir=.git 'crash_after(' . |
  grep -v '^\./crates/store/src/backend\.rs:' || true)
if [ -n "$loops" ]; then
  echo "FAIL: a crash point armed outside crates/store/src/backend.rs — run it through enumerate_crashes:"
  echo "$loops"
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
