#!/usr/bin/env bash
# Regenerate the paper's tables and figures into results/<row>.txt:
# every row of the `figures` binary, or the rows named as arguments.
# SCALE=quick (default) or SCALE=full. Each output starts with a line
# naming the commit (short SHA, `-dirty` when tracked files outside
# results/ differ from it) and the scale that produced it. Exits non-zero
# if any row failed.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
SHA=$(git rev-parse --short HEAD)
git diff --quiet HEAD -- . ':!results' || SHA="$SHA-dirty"
STAMP="# produced by scripts/run_figures.sh at $SHA, SCALE=${SCALE:-quick}"
cargo build --release -p mimicnet-bench --bin figures
./target/release/figures "$@" | awk -v stamp="$STAMP" '
  /^=== [a-z0-9_]+ ===$/ { if (out) close(out); out = "results/" $2 ".txt"; print stamp > out; print; next }
  { print; if (out) print > out }'
