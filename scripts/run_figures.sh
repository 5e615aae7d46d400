#!/usr/bin/env bash
# Regenerate every table/figure of the paper and save outputs to results/.
# SCALE=quick (default) or SCALE=full. Each output starts with a line
# naming the commit (short SHA, `-dirty` when tracked files outside
# results/ differ from it) and the scale that produced it.
set -uo pipefail
cd "$(dirname "$0")/.."
mkdir -p results
SHA=$(git rev-parse --short HEAD)
git diff --quiet HEAD -- . ':!results' || SHA="$SHA-dirty"
STAMP="# produced by scripts/run_figures.sh at $SHA, SCALE=${SCALE:-quick}"
BINS=$(ls crates/bench/src/bin | sed 's/\.rs$//')
cargo build --release -p mimicnet-bench --bins
for b in $BINS; do
  echo "=== $b ==="
  { echo "$STAMP"; cargo run --release -q -p mimicnet-bench --bin "$b"; } | tee "results/$b.txt"
done
