#!/usr/bin/env sh
# Allocation-regression smoke gate.  Runs the fixed reference cell
# (stm-map, 1 domain, 90% reads, 16 ops/txn — the read-heavy hot path
# the log-structured read/write sets are tuned for), reads the
# minor_words_per_commit figure out of the proust-bench/v1 report, and
# fails if it regressed more than the baseline's tolerance (default
# 10%) over tools/alloc_baseline.json.
#
# The cell is single-threaded on purpose: no contention means no
# aborts, so words-per-commit is a deterministic property of the code
# path, not of the schedule.  Refresh the baseline after a deliberate
# allocation change with:
#   tools/check_alloc.sh --update
set -eu
cd "$(dirname "$0")/.."

BASELINE=tools/alloc_baseline.json
OUT="${ALLOC_SMOKE_OUT:-/tmp/alloc_smoke.json}"

PROUST_MODE=lazy-lazy PROUST_THREADS=1 PROUST_OPS=30000 PROUST_TRIALS=3 \
  dune exec bench/main.exe -- sweep --impl stm-map -u 0.1 -o 16 \
  --json "$OUT" >/dev/null

if [ "${1:-}" = "--update" ]; then
  python3 - "$OUT" "$BASELINE" <<'EOF'
import json, sys
cur = json.load(open(sys.argv[1]))["cells"][0]["minor_words_per_commit"]
json.dump({"cell": "stm-map t=1 u=0.1 o=16", "minor_words_per_commit": round(cur, 1), "tolerance_pct": 10}, open(sys.argv[2], "w"), indent=2)
print(f"baseline updated: {cur:.1f} minor words/commit")
EOF
  exit 0
fi

python3 - "$BASELINE" "$OUT" <<'EOF'
import json, sys
base = json.load(open(sys.argv[1]))
cur = json.load(open(sys.argv[2]))["cells"][0]["minor_words_per_commit"]
ref = base["minor_words_per_commit"]
tol = base.get("tolerance_pct", 10)
print(f"minor words/commit: baseline {ref:.1f}, current {cur:.1f} (tolerance {tol}%)")
if cur > ref * (1 + tol / 100):
    print("FAIL: allocation per committed transaction regressed past tolerance")
    sys.exit(1)
print("OK")
EOF
