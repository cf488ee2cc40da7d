#!/usr/bin/env bash
# Behaviour diff between a git ref and the working tree, in three legs.
#
#   scripts/fpdiff.sh                # HEAD~1 vs working tree, 200 seeds
#   scripts/fpdiff.sh origin/main 25
#
# Fingerprint leg: build flowpulse-check at both, scan the same seeds in
# the five CI modes, and compare what each seed produced. A seed's line
# is its spec summary, oracle verdict, window and alert counts and the
# FNV-64a fingerprint of the run's whole observable timeline
# (internal/simtest), so "no differing line" is the proof a refactor
# owes: same scenarios, same packets, same detections.
#
# Eval leg: build flowpulse-eval at both and compare everything it
# prints for all experiments at -quick, seeds 1 and 7, on the classic
# engine (-shards 0) and the sharded one (-shards 2; fig5a and fig5b
# read it), minus the wall-clock "completed in" lines — the same proof
# for the experiment drivers, which flowpulse-check does not run.
#
# Stdout leg: build flowpulse-sim and every examples/* main at both and
# compare their whole stdout — flowpulse-sim's report of a core.Run, and
# the examples, the callers of the public flowpulse.New → Monitor →
# Train facade, which neither flowpulse-check nor flowpulse-eval drives.
# flowpulse-sim runs its built-in scenario and every committed scenario
# file in the working tree's cmd/flowpulse-sim/testdata (clean, closed
# loop, simulation and learned predictors, two jobs, resilience, flaps,
# onset 0, upstream, heal, control-plane divergence, and the small bg-*
# runs under background traffic that CI records and replays), both
# builds on the same file, each on the one-domain partition and the
# per-switch one.
#
# Exits 1 if any line differs in any leg. The ref is unpacked with
# git archive into a temporary directory; nothing is left behind in
# .git.
set -euo pipefail

cd "$(dirname "$0")/.."

ref="${1:-HEAD~1}"
seeds="${2:-200}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/src"
git archive "$ref" | tar -x -C "$tmp/src"
examples="$(cd examples && ls -d -- */ | tr -d /)"
build() { # build <side>: the tree in the current directory
  go build -o "$tmp/$1" ./cmd/flowpulse-check
  go build -o "$tmp/$1-eval" ./cmd/flowpulse-eval
  go build -o "$tmp/$1-sim" ./cmd/flowpulse-sim
  for ex in $examples; do
    go build -o "$tmp/$1-ex-$ex" "./examples/$ex"
  done
}
(cd "$tmp/src" && build old)
build new

# One line per seed, ordered by seed (workers finish out of order),
# without the trailing wall-time column. flowpulse-check exits 1 when a
# seed fails an oracle; that is the line's FAIL verdict, not this
# script's business.
scan() {
  { "$@" -v -seeds "$seeds" || true; } | grep '^seed ' | sed -E 's/[[:space:]]+[^[:space:]]+$//' | sort -k2,2n
}

status=0
for mode in "" "-shards 2" "-resilience" "-congestion" "-divergence"; do
  for side in old new; do
    # shellcheck disable=SC2086 # $mode is a flag list
    scan "$tmp/$side" $mode > "$tmp/$side.txt"
  done
  if delta="$(diff "$tmp/old.txt" "$tmp/new.txt")"; then
    echo "${mode:-classic}: $(wc -l < "$tmp/new.txt") seeds, none differ from $ref"
  else
    echo "${mode:-classic}: $(grep -c '^>' <<< "$delta") of $(wc -l < "$tmp/new.txt") seeds differ from $ref"
    echo "$delta"
    status=1
  fi
done

# compare <binary suffix> [args...]: everything both sides print, minus
# flowpulse-eval's wall-clock "completed in" lines.
compare() {
  local bin="$1"
  shift
  local label="${bin#-}${*:+ $*}"
  for side in old new; do
    "$tmp/$side$bin" "$@" | grep -v 'completed in' > "$tmp/$side.txt"
  done
  if delta="$(diff "$tmp/old.txt" "$tmp/new.txt")"; then
    echo "$label: $(wc -l < "$tmp/new.txt") lines, none differ from $ref"
  else
    echo "$label: output differs from $ref"
    echo "$delta"
    status=1
  fi
}

for seed in 1 7; do
  for shards in 0 2; do
    compare -eval -quick -seed "$seed" -shards "$shards"
  done
done

for shards in 0 2; do
  compare -sim -shards "$shards"
  for file in cmd/flowpulse-sim/testdata/*.json; do
    compare -sim -shards "$shards" -scenario "$file"
  done
done
for ex in $examples; do
  compare "-ex-$ex"
done
exit "$status"
