#!/usr/bin/env bash
# The benchmark's one entry point. With no arguments it runs the whole
# suite; see README.md for `aa`, `compare`, `--smoke` and the
# `--workload W --seed S --seconds N --trace 0|1` form the driver uses.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
