#!/usr/bin/env bash
# Compare a fresh bench.sh result against the committed baseline and print a
# per-benchmark delta table. ns/op deltas are warn-only — benchmark noise on
# shared CI runners makes a hard time gate counterproductive — but with
# --strict-allocs any allocs/op movement on the hot-path packages fails the
# run: allocation counts are exact, noise-free, and covered by the
# //lint:allocbudget contract, so a drift here is a real change that must
# land together with its budget update.
#
# Usage: scripts/bench_compare.sh [--strict-allocs] <new.json> [baseline.json]
#   Default baseline: the lexically newest committed BENCH_*.json.
set -euo pipefail

cd "$(dirname "$0")/.."

strict=0
if [ "${1:-}" = "--strict-allocs" ]; then
  strict=1
  shift
fi

new="${1:?usage: bench_compare.sh [--strict-allocs] <new.json> [baseline.json]}"
base="${2:-}"
if [ -z "$base" ]; then
  # "Committed" means exactly that: only git-tracked baselines qualify, so a
  # stray BENCH_*.json left in the tree by a local run can never silently
  # become the comparison point. Outside a git checkout, fall back to ls.
  base="$( (git ls-files -- 'BENCH_*.json' 2>/dev/null || ls BENCH_*.json 2>/dev/null) |
    grep -v -F "$(basename "$new")" | sort | tail -n1 || true)"
fi
if [ -z "$base" ] || [ ! -f "$base" ]; then
  echo "bench_compare: no committed baseline found; skipping comparison"
  exit 0
fi

echo "comparing $new against baseline $base"
STRICT_ALLOCS="$strict" python3 - "$base" "$new" <<'EOF'
import json, os, sys

def load(path):
    with open(path) as f:
        doc = json.load(f)
    return {(b["pkg"], b["name"]): b for b in doc["benchmarks"]}

base, new = load(sys.argv[1]), load(sys.argv[2])
THRESH = 0.15  # warn when ns/op moved more than this fraction either way
STRICT = os.environ.get("STRICT_ALLOCS") == "1"
# The packages whose hot functions carry //lint:allocbudget annotations:
# alloc movement here is blocking under --strict-allocs.
HOT_PKGS = {"wadc/internal/sim", "wadc/internal/netmodel", "wadc/internal/monitor",
            "wadc/internal/plan", "wadc/internal/dataflow"}

def rate(v):
    if v is None:
        return "-"
    if v >= 1e6:
        return f"{v/1e6:.2f}M"
    if v >= 1e3:
        return f"{v/1e3:.0f}k"
    return f"{v:.0f}"

rows, warned, blocking = [], 0, []
for key in sorted(new):
    nb = new[key]
    bb = base.get(key)
    allocs, evs = nb.get("allocs_per_op"), nb.get("events_per_sec")
    bop = nb.get("bytes_per_op")
    if bb is None or "ns_per_op" not in nb or "ns_per_op" not in bb:
        rows.append((key, nb.get("ns_per_op"), None, allocs, None, bop, None, evs, None, "new"))
        continue
    old, cur = bb["ns_per_op"], nb["ns_per_op"]
    delta = (cur - old) / old if old else 0.0
    dallocs = None
    if allocs is not None and bb.get("allocs_per_op") is not None:
        dallocs = allocs - bb["allocs_per_op"]
    # B/op is warn-only even under --strict-allocs: allocation *counts* are
    # exact, but byte totals shift with size-class rounding and map growth,
    # so they carry signal without deserving a gate.
    dbop = None
    if bop is not None and bb.get("bytes_per_op"):
        dbop = (bop - bb["bytes_per_op"]) / bb["bytes_per_op"]
    devs = None
    if evs and bb.get("events_per_sec"):
        devs = (evs - bb["events_per_sec"]) / bb["events_per_sec"]
    flag = ""
    if delta > THRESH:
        flag, warned = "SLOWER", warned + 1
    elif delta < -THRESH:
        flag = "faster"
    if dallocs:
        # Any alloc-count movement on a hot path is signal, never noise.
        flag = (flag + " " if flag else "") + f"allocs{dallocs:+d}"
        warned += 1
        if STRICT and key[0] in HOT_PKGS:
            flag += " BLOCKING"
            blocking.append((key, bb["allocs_per_op"], allocs))
    elif dbop is not None and abs(dbop) > THRESH:
        flag = (flag + " " if flag else "") + f"B/op{dbop:+.0%}"
        warned += 1
    rows.append((key, cur, delta, allocs, dallocs, bop, dbop, evs, devs, flag))

w = max(len(f"{p}.{n}") for (p, n), *_ in rows)
print(f"{'benchmark'.ljust(w)}  {'ns/op':>12}  {'vs base':>8}  {'allocs/op':>9}  {'B/op':>9}  {'vs base':>8}  {'events/s':>9}  {'vs base':>8}  note")
for (pkg, name), cur, delta, allocs, dallocs, bop, dbop, evs, devs, flag in rows:
    d = "    new " if delta is None else f"{delta:+7.1%}"
    a = "-" if allocs is None else str(allocs)
    b = "-" if bop is None else str(bop)
    db = "    -   " if dbop is None else f"{dbop:+7.1%}"
    e = "    -   " if devs is None else f"{devs:+7.1%}"
    print(f"{(pkg + '.' + name).ljust(w)}  {cur:>12}  {d}  {a:>9}  {b:>9}  {db}  {rate(evs):>9}  {e}  {flag}")

gone = sorted(set(base) - set(new))
for pkg, name in gone:
    print(f"{(pkg + '.' + name).ljust(w)}  {'-':>12}  {'removed':>8}")

if warned:
    print(f"\nWARNING: {warned} benchmark(s) moved more than {THRESH:.0%} vs {sys.argv[1]} (warn-only)")
if blocking:
    print(f"\nERROR: allocs/op moved on {len(blocking)} hot-path benchmark(s) (--strict-allocs):")
    for (pkg, name), old, cur in blocking:
        print(f"  {pkg}.{name}: {old} -> {cur} allocs/op")
    print("update the //lint:allocbudget annotations (and this baseline) in the same change, or revert the allocation drift")
    sys.exit(1)
EOF
