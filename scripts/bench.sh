#!/usr/bin/env bash
# Run the hot-path benchmarks (sim scheduler, netmodel transfers, monitor
# piggybacking, cost-model scoring, dataflow engine, plus the per-figure and
# ablation benchmarks at the repo root) and record the results as
# BENCH_<date>.json, so performance has a trajectory instead of anecdotes.
#
# Usage: scripts/bench.sh [output.json]
#   BENCH_TIME=2s      per-benchmark time (default 1s)
#   BENCH_COUNT=1      repetitions per benchmark
set -euo pipefail

cd "$(dirname "$0")/.."

out="${1:-BENCH_$(date -u +%Y%m%d).json}"
benchtime="${BENCH_TIME:-1s}"
count="${BENCH_COUNT:-1}"

pkgs=(
  ./internal/sim/
  ./internal/netmodel/
  ./internal/monitor/
  ./internal/plan/
  ./internal/dataflow/
  .
)

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench . -benchmem -benchtime "$benchtime" -count "$count" \
  "${pkgs[@]}" | tee "$raw"

# Fold `go test -bench` output into one JSON document: metadata + one record
# per benchmark line. Pure POSIX-ish awk so the script needs nothing beyond
# the go toolchain and a shell.
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v goversion="$(go version | cut -d' ' -f3)" \
    -v commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" '
BEGIN {
  printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"commit\": \"%s\",\n  \"benchmarks\": [\n", date, goversion, commit
  n = 0
}
/^pkg:/ { pkg = $2 }
/^Benchmark/ {
  name = $1; iters = $2
  nsop = ""; bop = ""; allocs = ""; mbs = ""; evs = ""
  for (i = 3; i < NF; i++) {
    if ($(i+1) == "ns/op") nsop = $i
    if ($(i+1) == "B/op") bop = $i
    if ($(i+1) == "allocs/op") allocs = $i
    if ($(i+1) == "MB/s") mbs = $i
    if ($(i+1) == "events/s") evs = $i
  }
  if (n++) printf ",\n"
  printf "    {\"pkg\": \"%s\", \"name\": \"%s\", \"iterations\": %s", pkg, name, iters
  if (nsop != "")   printf ", \"ns_per_op\": %s", nsop
  if (bop != "")    printf ", \"bytes_per_op\": %s", bop
  if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
  if (mbs != "")    printf ", \"mb_per_sec\": %s", mbs
  if (evs != "")    printf ", \"events_per_sec\": %s", evs
  printf "}"
}
END { printf "\n  ]\n}\n" }
' "$raw" > "$out"

echo "wrote $out ($(grep -c '"name"' "$out") benchmarks)"

# Capture the alloc-site profile behind BenchmarkDataflowPipeline so every
# bench record ships with its allocation breakdown: which subsystem and which
# source line the allocs/op column actually comes from, plus the window's GC
# stats. Render with `simscope allocs`, or set ALLOCSITES_DIR to redirect the
# artifact (CI points it at the upload directory).
sitesdir="${ALLOCSITES_DIR:-$(dirname "$out")}"
mkdir -p "$sitesdir"
if ALLOCSITES_DIR="$sitesdir" go test -run '^TestAllocSiteCapture$' -count 1 ./internal/dataflow/ >/dev/null; then
  echo "wrote $sitesdir/dataflow_pipeline.json (alloc sites behind BenchmarkDataflowPipeline)"
else
  echo "alloc-site capture failed; bench results in $out are unaffected" >&2
fi
