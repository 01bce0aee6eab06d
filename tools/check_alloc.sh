#!/usr/bin/env sh
# Allocation-regression smoke gate.  Runs two fixed reference cells,
# both at 1 domain and 16 ops/txn:
#   - stm-map, Lazy_lazy, 10% updates: the read-heavy hot path the
#     log-structured read/write sets are tuned for;
#   - lazy-memo, Eager_eager, 50% updates: the Proust layer's get/put
#     path (abstract-lock acquisition, replay log, base map), in the
#     mode of perfbench's map-txn workload.
# It reads each cell's minor_words_per_commit figure out of the
# proust-bench/v1 report and fails if any regressed more than its
# row's tolerance (default 10%) over tools/alloc_baseline.json.
#
# The cells are single-threaded on purpose: no contention means no
# aborts, so words-per-commit is a deterministic property of the code
# path, not of the schedule.  Refresh every row of the baseline after a
# deliberate allocation change with:
#   tools/check_alloc.sh --update
set -eu
cd "$(dirname "$0")/.."

BASELINE=tools/alloc_baseline.json
OUT="${ALLOC_SMOKE_OUT:-/tmp/alloc_smoke}"

# cell IMPL MODE U: one t=1, o=16 sweep cell, reported to $OUT-IMPL.json.
cell() {
  PROUST_MODE=$2 PROUST_THREADS=1 PROUST_OPS=30000 PROUST_TRIALS=3 \
    dune exec bench/main.exe -- sweep --impl "$1" -u "$3" -o 16 \
    --json "$OUT-$1.json" >/dev/null
}
cell stm-map lazy-lazy 0.1
cell lazy-memo eager-eager 0.5

python3 - "$BASELINE" "$OUT" "${1:-}" <<'EOF'
import json, platform, os, sys
path, out, mode = sys.argv[1:4]
cells = [("stm-map", "stm-map t=1 u=0.1 o=16"),
         ("lazy-memo", "lazy-memo eager-eager t=1 u=0.5 o=16")]
reports = {name: json.load(open(f"{out}-{impl}.json")) for impl, name in cells}
cur = {name: r["cells"][0]["minor_words_per_commit"] for name, r in reports.items()}
if mode == "--update":
    ocaml = next(iter(reports.values()))["config"]["ocaml"]
    host = f"{os.cpu_count()} CPU {platform.machine()}, OCaml {ocaml}"
    rows = [{"cell": name, "minor_words_per_commit": round(cur[name], 1),
             "tolerance_pct": 10, "host": host} for _, name in cells]
    json.dump({"cells": rows}, open(path, "w"), indent=2)
    for r in rows:
        print(f"baseline updated: {r['cell']}: {r['minor_words_per_commit']:.1f} minor words/commit")
    sys.exit(0)
failed = False
for row in json.load(open(path))["cells"]:
    ref, tol, c = row["minor_words_per_commit"], row.get("tolerance_pct", 10), cur[row["cell"]]
    print(f"{row['cell']}: minor words/commit baseline {ref:.1f}, current {c:.1f} (tolerance {tol}%)")
    if c > ref * (1 + tol / 100):
        print(f"FAIL: {row['cell']}: allocation per committed transaction regressed past tolerance")
        failed = True
if failed:
    sys.exit(1)
print("OK")
EOF
