#!/bin/sh
# Regenerates every table and figure (quick scale) into results/.
# Each binary also leaves a run manifest at results/<bin>.manifest.jsonl.
#
# Extra arguments are forwarded verbatim to every binary through the
# shared bench CLI (crates/bench/src/cli.rs), so the common flags compose:
#
#   ./run_all.sh --seed 7
#   ./run_all.sh --full
#   ./run_all.sh --telemetry results/telemetry
#
# `--only LIST` (comma-separated) runs a subset. A name selects either a
# binary (every output it writes) or one output file's stem:
#
#   ./run_all.sh --only table4,fig9
#   ./run_all.sh --only fig5b_microbursts,table5 --seed 7
set -e
cd "$(dirname "$0")"

ONLY=""
n=$#
while [ "$n" -gt 0 ]; do
  arg=$1
  shift
  n=$((n - 1))
  case $arg in
    --only)
      [ "$n" -gt 0 ] || { echo "run_all.sh: --only needs a list" >&2; exit 2; }
      ONLY=$1
      shift
      n=$((n - 1))
      ;;
    --only=*) ONLY=${arg#--only=} ;;
    *) set -- "$@" "$arg" ;;
  esac
done

# Every (binary, output stem) pair, in run order; the binary's arguments
# before the forwarded ones follow the stem.
JOBS="table3:table3
table6:table6
table4:table4
fig5:fig5a_hadoop:hadoop
fig5:fig5b_microbursts:microbursts
fig5:fig5c_websearch:websearch
fig5:fig5d_video:video
table5:table5
fig7:fig7_fig8
fig9:fig9
fig10:fig10
fig6:fig6_alibaba
controller:controller_a2
ablations:ablations
tracegen:trace_characteristics:all
failures:failures
churn:churn
sv2p-perfbench:perfbench
sv2p-scale-smoke:scale_smoke"

selected() {
  [ -z "$ONLY" ] && return 0
  case ",$ONLY," in
    *",$1,"* | *",$2,"*) return 0 ;;
  esac
  return 1
}

# Reject unknown names up front: a typo must not silently run nothing.
for name in $(echo "$ONLY" | tr ',' ' '); do
  echo "$JOBS" | cut -d: -f1,2 | tr ':' '\n' | grep -qx "$name" ||
    { echo "run_all.sh: unknown --only name '$name'" >&2; exit 2; }
done

# The million-VM FT32 tier only runs on an explicit --full or --huge sweep:
# the scale smoke builds the complete 1 048 576-VM placement twice (shards 1
# and 4), which is deliberate memory pressure a quick run should skip.
BIG=0
for arg in "$@"; do
  if [ "$arg" = "--full" ] || [ "$arg" = "--huge" ]; then
    BIG=1
  fi
done

# --workspace is load-bearing: a bare `cargo build` at the root skips the
# workspace members' binaries, leaving stale (or missing) bins under $B.
(set -x; cargo build --release --workspace)
B=./target/release
echo "$JOBS" | while IFS=: read -r bin out pre; do
  selected "$bin" "$out" || continue
  if [ "$bin" = sv2p-scale-smoke ] && [ "$BIG" = 0 ]; then
    continue
  fi
  echo "+ $B/$bin $pre $* > results/$out.txt"
  # shellcheck disable=SC2086 # $pre is one optional bare word
  $B/$bin $pre "$@" > "results/$out.txt" 2>&1
done
echo ALL_RESULTS_DONE
