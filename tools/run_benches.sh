#!/usr/bin/env bash
# Build Release, run every bench (one per bench/bench_*.cpp, CMake's bench
# glob), leaving one BENCH_<name>.json per bench in the output directory
# (default: bench-out/ at the repo root), then judge those reports with
# bench/check_gates.py.
#
#   tools/run_benches.sh [output-dir]
#
# Exits non-zero when a bench fails, leaves no JSON, or a gate row FAILs.
# One run gates the identity rows; the numeric rows need three runs for a
# median and SKIP here.  The JSON files are the machine-readable
# perf/correctness trajectory of the repo; diff them across commits to see
# what moved.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
out_dir="${1:-"$repo_root/bench-out"}"
build_dir="$repo_root/build-bench"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j"$(nproc)"

mkdir -p "$out_dir"
cd "$out_dir"

failed=()
reports=()
for source in "$repo_root"/bench/bench_*.cpp; do
  bench="$(basename "$source" .cpp)"
  json="$out_dir/BENCH_${bench#bench_}.json"
  rm -f "$json"
  echo "==== $bench ===="
  if ! "$build_dir/$bench" > "$out_dir/$bench.log" 2>&1; then
    echo "  FAILED (see $out_dir/$bench.log)"
    failed+=("$bench")
    continue
  fi
  tail -3 "$out_dir/$bench.log"
  # A bench that runs but emits no JSON silently drops out of the perf
  # trajectory, which is exactly the failure mode that left
  # BENCH_scaling.json empty once.
  if [ ! -s "$json" ]; then
    echo "  FAILED: no JSON report at $json"
    failed+=("$bench")
    continue
  fi
  reports+=("$json")
done

echo
echo "==== gates (bench/gates.json) ===="
gates=0
python3 "$repo_root/bench/check_gates.py" "${reports[@]}" || gates=$?

if [ "${#failed[@]}" -gt 0 ]; then
  echo "FAILED benches: ${failed[*]}"
  exit 1
fi
if [ "$gates" -ne 0 ]; then
  echo "FAILED gates"
  exit 1
fi
echo "All benches passed."
