#!/usr/bin/env bash
# Accuracy seed sweep over the benchmark's composed workloads.
#
#   scripts/accuracy_sweep.sh [FIRST_SEED [LAST_SEED]]      (default 1 10)
#
# For each workload in {mimic-64, adaptive-64} and each seed it runs
#   benchmark/run.sh --workload W --seed S --seconds 4 --trace 1
# reads acc.w1_fct_rel and acc.fct_p99_rel_err from the run's final JSON
# line, and prints one row per seed, then median [Q1-Q3] (min-max) per
# workload. It only reads harness output. Exit status is non-zero if any
# run reports failed > 0 or prints no result line.
set -uo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

first=${1:-1}
last=${2:-10}
bad=0

# Value of `"key":number` or `"key":{"value":number,...}` in a JSON line.
field() {
  sed -n "s/.*\"$1\":\({\"value\":\)\{0,1\}\(-\{0,1\}[0-9.eE+-]*\).*/\2/p" <<<"$2"
}

# "median [Q1-Q3] (min-max)" of the numbers on stdin, one per line;
# quartiles by linear interpolation between order statistics.
spread() {
  sort -g | awk '
    { v[NR] = $1 }
    function q(p,   h, lo) {
      h = (NR - 1) * p + 1; lo = int(h)
      return (lo >= NR) ? v[NR] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    END {
      if (NR == 0) { print "n/a"; exit }
      printf "%.4f [%.4f-%.4f] (%.4f-%.4f)", q(0.5), q(0.25), q(0.75), v[1], v[NR]
    }'
}

for w in mimic-64 adaptive-64; do
  w1s=() p99s=()
  printf '%-12s %5s %10s %12s %7s\n' workload seed w1_fct_rel fct_p99_rel failed
  for s in $(seq "$first" "$last"); do
    line=$(benchmark/run.sh --workload "$w" --seed "$s" --seconds 4 --trace 1 2>/dev/null \
      | grep '^{' | tail -n 1)
    if [[ -z $line ]]; then
      printf '%-12s %5s %s\n' "$w" "$s" "no result line"
      bad=1
      continue
    fi
    w1=$(field acc.w1_fct_rel "$line")
    p99=$(field acc.fct_p99_rel_err "$line")
    failed=$(field failed "$line")
    printf '%-12s %5s %10.4f %12.4f %7s\n' "$w" "$s" "$w1" "$p99" "$failed"
    [[ ${failed:-1} == 0 ]] || bad=1
    w1s+=("$w1") p99s+=("$p99")
  done
  printf '%-12s W1  %s\n' "$w" "$(printf '%s\n' "${w1s[@]}" | spread)"
  printf '%-12s p99 %s\n\n' "$w" "$(printf '%s\n' "${p99s[@]}" | spread)"
done
exit $bad
