#!/usr/bin/env bash
# Reduced-scale smoke pass over the headline figure benches (fig1, fig3)
# plus the multi-job peer-sharing experiment (ext_multijob), the
# checkpoint write-back comparison (ext_checkpoint), the node-churn
# chaos experiment (ext_churn), and the fig4 placement-policy sweep
# (eviction policies vs overcommit, sweep arm only), the read-path
# contention sweep (micro_read_hotpath), the metadata-flatness
# gate (micro_metadata_scale), the small-file packing comparison
# (ext_smallfile), and the multi-tenant QoS isolation gate (ext_qos),
# producing
# BENCH_fig1.json / BENCH_fig3.json / BENCH_ext_multijob.json /
# BENCH_ext_checkpoint.json / BENCH_ext_churn.json / BENCH_fig4.json /
# BENCH_read_hotpath.json / BENCH_metadata_scale.json /
# BENCH_ext_smallfile.json / BENCH_ext_qos.json
# for quick inspection: the demand-vs-prefetch first-epoch comparison,
# the vanilla / monarch / monarch-peer PFS-traffic comparison, the
# direct-PFS vs write-back stall gap, the kill/revive digest and
# replication-repair check, the per-policy steady epoch and PFS MiB
# with its evicting-vs-first-fit gate (docs/PLACEMENT.md), the
# Monarch::Read reads/sec and latency at 1/8/64 readers, the
# 1k->1M lookup-p99 drift gate, and the packed-vs-naive sparse-PFS /
# compression / digest gates (ISSUE 9), and the interactive-p99 /
# scan-throughput / cross-class-eviction QoS gates (ISSUE 10).
#
# Every bench runs even when an earlier one fails a gate: each exit code
# is recorded, and once all have run the script prints every failing
# bench with its gate lines and exits 1.
#
# Usage: scripts/bench_smoke.sh [output-dir]
#   output-dir   where the BENCH_*.json files and per-bench logs land
#                (default: bench-results)
#
# Knobs (inherited by the benches, see bench/bench_common.h):
#   MONARCH_BENCH_RUNS (default 1), MONARCH_BENCH_SCALE (default 0.15),
#   MONARCH_BENCH_EPOCHS (default 2)
set -uo pipefail
cd "$(dirname "$0")/.."

OUT_DIR="${1:-bench-results}"
mkdir -p "$OUT_DIR"

if [[ ! -x build/bench/fig1_motivation || ! -x build/bench/fig3_full_dataset \
      || ! -x build/bench/ext_multijob || ! -x build/bench/ext_checkpoint \
      || ! -x build/bench/ext_churn \
      || ! -x build/bench/fig4_partial_dataset \
      || ! -x build/bench/micro_read_hotpath \
      || ! -x build/bench/micro_metadata_scale \
      || ! -x build/bench/ext_smallfile \
      || ! -x build/bench/ext_qos ]]; then
  echo "bench binaries missing — build first: cmake -B build && cmake --build build -j" >&2
  exit 1
fi

export MONARCH_BENCH_RUNS="${MONARCH_BENCH_RUNS:-1}"
export MONARCH_BENCH_SCALE="${MONARCH_BENCH_SCALE:-0.15}"
export MONARCH_BENCH_EPOCHS="${MONARCH_BENCH_EPOCHS:-2}"
export MONARCH_BENCH_JSON_DIR="$OUT_DIR"

echo "bench smoke: runs=$MONARCH_BENCH_RUNS scale=$MONARCH_BENCH_SCALE epochs=$MONARCH_BENCH_EPOCHS -> $OUT_DIR"

# Run one bench, teeing its output to $OUT_DIR/<label>.log, and record
# a non-zero exit instead of stopping the pass.
failed=()
run_bench() {
  local label=$1
  shift
  "$@" 2>&1 | tee "$OUT_DIR/$label.log"
  local status=${PIPESTATUS[0]}
  if ((status != 0)); then
    failed+=("$label")
    echo "bench smoke: $label exited $status" >&2
  fi
}

run_bench fig1_motivation ./build/bench/fig1_motivation
run_bench fig3_full_dataset ./build/bench/fig3_full_dataset
# Smallest useful multi-job scale: ext_multijob halves MONARCH_BENCH_SCALE
# internally (the K-job runs multiply the work), so the smoke default of
# 0.15 runs the 1/2/4-job grid, all three arms, in well under a minute.
run_bench ext_multijob ./build/bench/ext_multijob
run_bench ext_checkpoint ./build/bench/ext_checkpoint
# Churn survival: 4 jobs, kill/revive mid-run, digests + replication
# repair asserted in the JSON (3 epochs minimum so the outage has an
# epoch boundary to span).
run_bench ext_churn env MONARCH_BENCH_EPOCHS=3 ./build/bench/ext_churn
# Policy-sweep arm only (4 overcommit ratios x 3 placement policies); the
# full fig4 figure arms are too slow for a smoke pass. Exits non-zero
# (a "FAIL sweep:" line) when an evicting policy's steady epoch is more
# than 10% slower than first-fit's at the same overcommit.
run_bench fig4_partial_dataset env MONARCH_FIG4_ARMS=sweep \
  ./build/bench/fig4_partial_dataset
# Read-path contention sweep: Monarch::Read reads/sec and latency
# percentiles at 1/8/64 reader threads (no gate).
run_bench micro_read_hotpath ./build/bench/micro_read_hotpath
# Metadata-flatness gate (ISSUE 9): registers the 1k->1M (scaled)
# namespace sweep and exits non-zero when steady-state lookup p99 drifts
# more than 2x across it, failing the whole smoke pass.
run_bench micro_metadata_scale ./build/bench/micro_metadata_scale
# Small-file packing gates (ISSUE 9): naive vs packed-none vs packed-lz
# over the same generated dataset. Exits non-zero when the sparse pass's
# PFS bytes stop scaling with bytes touched, the lz arm's effective
# local-tier capacity drops below 1.5x, the arms' sample digests
# diverge, a packed full epoch reads more than 1.05x the naive arm's
# PFS bytes (chunk-miss donation), or a warm packed epoch issues more
# than one local-tier read op per whole-file read (run objects).
run_bench ext_smallfile ./build/bench/ext_smallfile
# Multi-tenant QoS gates (ISSUE 10): interactive p99 must stay within
# 2x of its solo baseline as scan tenants ramp, aggregate scan
# throughput must stay within 20% of the no-interactive baseline, and
# the concurrent full-scan must never evict the trainer's working set
# (0 cross-class evictions). Exits non-zero on any gate, failing the
# whole smoke pass.
run_bench ext_qos ./build/bench/ext_qos

echo
echo "wrote:"
ls -l "$OUT_DIR"/BENCH_*.json

if ((${#failed[@]} > 0)); then
  echo
  echo "FAILED benches (${#failed[@]}):"
  for label in "${failed[@]}"; do
    echo "  $label:"
    grep -E "FAIL" "$OUT_DIR/$label.log" | sed 's/^/    /'
  done
  exit 1
fi
echo "bench smoke: every gate held"
