#!/usr/bin/env bash
# Paired benchmark runs of a git ref against the working tree: the
# procedure a timing claim owes on a shared box, where two single runs
# differ by more than most changes.
#
#   scripts/pairbench.sh HEAD sim-ring          # 10 pairs
#   scripts/pairbench.sh HEAD~1 sim-shared 15
#   SEED=7 TRACE=1 scripts/pairbench.sh HEAD sim-ring 4
#
# The ref is unpacked with git archive into a temporary directory and
# bench/ is built on both sides, as fpdiff.sh does for the commands.
# Each pair runs `--workload W --seed S --seconds 12 --trace T` once per
# side, and which side goes first alternates from pair to pair. For
# every metric the benchmark prints it reports both sides' median and
# quartiles, the change between the medians, and in how many pairs the
# working tree read lower: a gain is claimed only when it wins at least
# nine tenths of the pairs and the medians lie further apart than the
# ref's own quartiles. It also says whether any run failed an operation
# and whether the two sides' sim_fingerprint lines agree. It reads
# bench/; it does not change it.
set -euo pipefail

cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
  echo "usage: scripts/pairbench.sh REF WORKLOAD [PAIRS=10]" >&2
  exit 2
fi
ref="$1"
workload="$2"
pairs="${3:-10}"
seed="${SEED:-1}"
trace="${TRACE:-0}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/src"
git archive "$ref" | tar -x -C "$tmp/src"
go build -C "$tmp/src/bench" -o "$tmp/old" .
go build -C bench -o "$tmp/new" .

# run <side> <pair>: the binary reads BENCHMARK.json from its checkout.
run() {
  local dir=.
  [ "$1" = old ] && dir="$tmp/src"
  (cd "$dir" && "$tmp/$1" --workload "$workload" --seed "$seed" --seconds 12 --trace "$trace") > "$tmp/$1.$2.txt" 2>&1 ||
    echo "pair $2: $1 exited $?" >&2
}

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then order="old new"; else order="new old"; fi
  for side in $order; do run "$side" "$i"; done
  echo "pair $i/$pairs ($order): $(for side in old new; do
    awk -v s="$side" '$1 == "op_p50_ms" { printf "%s op_p50_ms %s  ", s, $2 }' "$tmp/$side.$i.txt"
  done)" >&2
done

# Metric lines are "  name   value unit"; everything else is skipped.
for side in old new; do
  for ((i = 1; i <= pairs; i++)); do
    awk -v side="$side" -v pair="$i" 'NF == 3 && $1 ~ /^[a-z][a-z0-9_.]*$/ && $2 ~ /^-?[0-9.]+(e[-+]?[0-9]+)?$/ { print $1, side, pair, $2 }' "$tmp/$side.$i.txt"
  done
done | sort -k1,1 -k2,2 -k4,4g | awk -v ref="$ref" -v pairs="$pairs" '
  function quantile(m, s, q,    n, pos, lo) { # linear interpolation over the sorted runs
    n = cnt[m, s]; pos = (n - 1) * q; lo = int(pos)
    if (lo + 1 >= n) return sorted[m, s, n - 1]
    return sorted[m, s, lo] + (pos - lo) * (sorted[m, s, lo + 1] - sorted[m, s, lo])
  }
  {
    if (!($1 in seen)) { seen[$1] = 1; order[nm++] = $1 }
    sorted[$1, $2, cnt[$1, $2]++] = $4
    val[$1, $2, $3] = $4
  }
  END {
    printf "%-34s %36s %36s %8s  %s\n", "metric", ref " median [q1, q3]", "working tree median [q1, q3]", "change", "lower in"
    for (k = 0; k < nm; k++) {
      m = order[k]
      lower = 0; both = 0
      for (p = 1; p <= pairs; p++) if ((m, "old", p) in val && (m, "new", p) in val) {
        both++
        if (val[m, "new", p] < val[m, "old", p]) lower++
      }
      om = quantile(m, "old", 0.5); nmed = quantile(m, "new", 0.5)
      change = (om != 0) ? sprintf("%+.1f%%", 100 * (nmed - om) / om) : "n/a"
      printf "%-34s %36s %36s %8s  %d of %d\n", m,
        sprintf("%.6g [%.6g, %.6g]", om, quantile(m, "old", 0.25), quantile(m, "old", 0.75)),
        sprintf("%.6g [%.6g, %.6g]", nmed, quantile(m, "new", 0.25), quantile(m, "new", 0.75)),
        change, lower, both
    }
  }'

echo
grep -h 'ops attempted' "$tmp"/old.*.txt | sort | uniq -c | sed "s/^/$ref: /"
grep -h 'ops attempted' "$tmp"/new.*.txt | sort | uniq -c | sed 's/^/working tree: /'
old_fp="$(grep -ho 'sim_fingerprint=[^ ]*' "$tmp"/old.*.txt | sort -u || true)"
new_fp="$(grep -ho 'sim_fingerprint=[^ ]*' "$tmp"/new.*.txt | sort -u || true)"
if [ -n "$old_fp$new_fp" ]; then
  if [ "$old_fp" = "$new_fp" ]; then
    echo "sim_fingerprint identical on both sides: $new_fp"
  else
    echo "sim_fingerprint DIFFERS: $ref $old_fp, working tree $new_fp"
    exit 1
  fi
fi
