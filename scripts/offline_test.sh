#!/usr/bin/env bash
# Run `cargo test` on the root workspace where no registry is reachable.
#
#   scripts/offline_test.sh [cargo test args…]
#   scripts/offline_test.sh -p mistique-core --test crash_safety
#   scripts/offline_test.sh --workspace --lib --bins --tests --no-fail-fast
#
# The root workspace names four registry crates (rand, and the dev-only
# tempfile / proptest / criterion). This script copies the tree to
# target/offline/ws, appends a [patch.crates-io] that points them at local
# stand-ins — rand at the benchmark's e2e/shims/rand, tempfile at a
# functional tempdir(), proptest and criterion at empty crates — blanks the
# test and bench targets that use the two empty ones, and runs
# `cargo test --offline "$@"` there with a target dir of its own. Nothing in
# the checkout is edited; test scratch goes to target/offline/tmp.
set -euo pipefail
cd "$(dirname "$0")/.."

root=$PWD/target/offline
ws=$root/ws
rm -rf "$ws" "$root/tmp"
mkdir -p "$ws" "$root/tmp"
# tar keeps mtimes, so cargo rebuilds only what changed since the last copy.
tar -c --exclude=./.git --exclude=./target --exclude=./e2e/target \
  --exclude=.e2e_tmp --exclude=./Cargo.lock . | tar -x -C "$ws"

cat >>"$ws/Cargo.toml" <<'EOF'

[patch.crates-io]
rand = { path = "e2e/shims/rand" }
tempfile = { path = "scripts/offline/tempfile" }
proptest = { path = "scripts/offline/proptest" }
criterion = { path = "scripts/offline/criterion" }
EOF

# Property tests and criterion benches cannot run against an empty crate.
grep -rlE 'proptest|criterion' --include='*.rs' "$ws/crates" "$ws/tests" |
  grep -E '/(tests|benches)/' |
  while read -r f; do
    printf '#![allow(dead_code)]\nfn main() {}\n' >"$f"
  done

cd "$ws"
export CARGO_TARGET_DIR=$root/target TMPDIR=$root/tmp
exec cargo test --offline "$@"
