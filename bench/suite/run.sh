#!/usr/bin/env bash
# Builds the benchmark (a CMake project over ../../src), runs its
# self-test, then runs workloads. Paths resolve from the repository root,
# so it can be started from anywhere; build output and scratch files go
# to .bench_build/ at the root.
#
#   bench/suite/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                      [--out FILE] [--trace-out FILE]
#       One run. Metrics print with name and unit; the last line of
#       standard output is the result JSON.
#   bench/suite/run.sh [all] [--reps R] [--seed N] [--seconds S] [--trace]
#                            [--out DIR]
#       Every workload R times (default 3, seed 1, 10 s), one result file
#       per run in DIR (default .bench_build/results/<time>).
#   bench/suite/run.sh compare A/ B/ [--metric NAME]
#       Judge result set B against A by BENCHMARK.json's bounds; exits 1
#       when any (metric, workload) pair regressed.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
build="$root/.bench_build/suite"
suite="$build/monarch_suite"

build_suite() {
  if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
    echo "run.sh: library sources not found under $root/src" >&2
    exit 2
  fi
  mkdir -p "$build"
  local log="$build/build.log"
  local generator=()
  command -v ninja > /dev/null && generator=(-G Ninja)
  # One build at a time per checkout.
  exec 9> "$build/.lock"
  command -v flock > /dev/null && flock 9
  if { [[ -f "$build/CMakeFiles/cmake.check_cache" ]] ||
       cmake -S "$root/bench/suite" -B "$build" "${generator[@]}" \
             -DCMAKE_BUILD_TYPE=Release; } > "$log" 2>&1 &&
     cmake --build "$build" -j "$(nproc)" >> "$log" 2>&1; then
    exec 9>&-
  else
    cat "$log" >&2
    echo "run.sh: build failed" >&2
    exit 2
  fi
  "$build/suite_selftest" "$root/BENCHMARK.json" >&2
}

commit=$(git -C "$root" rev-parse HEAD 2> /dev/null || echo unknown)
common=(--work-dir "$root/.bench_build/work" --commit "$commit")

mode=all
[[ "${1:-}" == compare ]] && mode=compare
[[ "${1:-}" == all ]] && shift
for arg in "$@"; do
  [[ "$arg" == --workload ]] && mode=one
done

case "$mode" in
  one)
    build_suite
    exec "$suite" "$@" "${common[@]}"
    ;;
  compare)
    shift
    build_suite
    exec "$suite" compare "$@" --spec "$root/BENCHMARK.json"
    ;;
  all)
    reps=3 seed=1 seconds=10 trace=0
    out="$root/.bench_build/results/$(date +%Y%m%d-%H%M%S)"
    while (($#)); do
      case "$1" in
        --reps) reps=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --out) out=$2; shift 2 ;;
        --trace) trace=1; shift ;;
        *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
      esac
    done
    build_suite
    mkdir -p "$out"
    status=0
    for workload in $("$suite" list); do
      for ((rep = 1; rep <= reps; rep++)); do
        name="$workload-s$seed-r$rep"
        ((trace)) && name="$name-traced"
        "$suite" --workload "$workload" --seed "$seed" --seconds "$seconds" \
          --trace "$trace" --out "$out/$name.json" "${common[@]}" || status=1
      done
    done
    echo "results in $out"
    exit $status
    ;;
esac
