#!/usr/bin/env bash
# Repo-wide quality gate: formatting, lints, build, and the full test suite.
# Run from anywhere; everything executes at the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Registry-free lanes, first so they run even where crates.io is unreachable
# and the lanes below cannot resolve. e2e/ is a workspace of its own whose
# committed stand-ins replace the registry crates: it runs the obs crate's
# unit and doc tests (the sidecar ring contract, the JSON codec) and the
# benchmark's. scripts/offline_test.sh then runs the root workspace's own
# tests in a patched copy: the manifest/spec codec and every suite that
# persists, reopens or crashes through a manifest.
echo "== offline lane (e2e workspace): mistique-obs + mistique-e2e =="
cargo test --release --offline --manifest-path e2e/Cargo.toml -p mistique-obs -p mistique-e2e

echo "== offline lane (patched copy): codec, persist/reopen and crash suites =="
scripts/offline_test.sh -q -p mistique-pipeline -p mistique-store
scripts/offline_test.sh -q -p mistique-core --lib \
  --test manifest_format --test failure_injection --test crash_safety \
  --test telemetry_crash --test index_crash --test audit_crash --test delta_crash \
  --test reclaim --test timeline --test index_equivalence --test obs_coverage \
  --test end_to_end_dnn --test store_stress

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test --workspace -q

# The reliability suites are named explicitly so a target that silently
# drops out of the workspace (e.g. a broken [[test]] path entry) fails the
# gate instead of being skipped.
echo "== reliability suites =="
cargo test -q -p mistique-core --test failure_injection
cargo test -q -p mistique-core --test crash_safety
cargo test -q -p mistique-core --test manifest_format
cargo test -q -p mistique-core --test proptest_system
cargo test -q -p mistique-core --test observability
cargo test -q -p mistique-core --test explain
cargo test -q -p mistique-core --test reclaim
cargo test -q -p mistique-core --test timeline
cargo test -q -p mistique-core --test telemetry_crash
cargo test -q -p mistique-core --test obs_coverage
cargo test -q -p mistique-core --test parallel_read
cargo test -q -p mistique-core --test index_equivalence
cargo test -q -p mistique-core --test index_crash
cargo test -q -p mistique-core --test audit_crash
cargo test -q -p mistique-core --test delta_crash
cargo test -q -p mistique-core --test query_cache
cargo test -q -p mistique-index
cargo test -q -p mistique-obs
cargo test -q -p mistique-store --test lru_model
cargo test -q -p mistique-store --test ledger_model
cargo test -q -p mistique-store --test compaction
cargo test -q -p mistique-compress --test truncation_fuzz
cargo test -q -p mistique-compress --test proptest_roundtrip
cargo test -q -p mistique-compress --test lzss_window_fuzz
cargo test -q -p mistique-nn --test proptest_layers

echo "all checks passed"
