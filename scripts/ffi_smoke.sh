#!/usr/bin/env bash
# Builds the aps-ffi cdylib, compiles the C smoke client against the
# hand-written header, and diffs its output byte-for-byte against the
# native Rust oracle. Any divergence between the C ABI and the native
# API fails here. The oracle is then diffed against the committed
# tests/fixtures/ffi_smoke_golden.txt, so a change that moves the numbers
# on both sides of the ABI fails too; run with UPDATE_GOLDEN=1 to rewrite
# the fixture after an intentional change.
set -euo pipefail
cd "$(dirname "$0")/.."

CC="${CC:-cc}"
OUT=target/ffi-smoke
mkdir -p "$OUT"

echo "== building libaps_ffi (release) =="
cargo build --release -p aps-ffi

echo "== compiling examples/ffi_smoke.c with $CC =="
"$CC" -O2 -Wall -Wextra -Werror -std=c99 \
  -Iinclude \
  -o "$OUT/ffi_smoke" examples/ffi_smoke.c \
  -Ltarget/release -laps_ffi \
  -Wl,-rpath,"$PWD/target/release"

echo "== running C smoke client =="
LD_LIBRARY_PATH="$PWD/target/release${LD_LIBRARY_PATH:+:$LD_LIBRARY_PATH}" \
  "$OUT/ffi_smoke" > "$OUT/smoke.txt"

echo "== running native oracle =="
cargo run --release -q -p aps-ffi --example ffi_oracle > "$OUT/oracle.txt"

echo "== diffing =="
if ! diff -u "$OUT/oracle.txt" "$OUT/smoke.txt"; then
  echo "FFI smoke output diverges from the native oracle" >&2
  exit 1
fi
echo "ffi smoke: C ABI output is byte-identical to the native oracle ($(wc -l < "$OUT/smoke.txt") lines)"

GOLDEN=tests/fixtures/ffi_smoke_golden.txt
if [ -n "${UPDATE_GOLDEN:-}" ]; then
  cp "$OUT/oracle.txt" "$GOLDEN"
  echo "ffi smoke: rewrote $GOLDEN"
elif ! diff -u "$GOLDEN" "$OUT/oracle.txt"; then
  echo "FFI smoke output drifted from $GOLDEN; if intentional, rerun with UPDATE_GOLDEN=1" >&2
  exit 1
else
  echo "ffi smoke: native oracle matches $GOLDEN"
fi
