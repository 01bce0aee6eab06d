#!/usr/bin/env python3
"""Build and run the perfbench benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository.  Builds perfbench/main.exe with
dune, runs it, prints every metric by name with its unit and sample
counts, the host fingerprint, and, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end_to_end metrics of BENCHMARK.json; with --trace 1
the per_layer ones.  The full result, with notes, problems and the
fingerprint, is also written to perfbench/out/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

OUT = os.path.join("perfbench", "out")

# A 32 MB minor heap per domain (4M words).  A minor collection stops
# every domain, and a domain blocked in a join, a sleep or a parked retry
# answers it from a thread the OS must wake first.  On a virtual machine
# whose idle vCPUs wake slowly, the default 2 MB heap put a collection
# every few requests of open-brownout and swung its gold p99 between 0.1
# and 11 ms across runs of one commit.  Set through the environment
# because it must hold for every domain, the runner's included.
OCAMLRUNPARAM = "s=4M"
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune not found")


def build():
    try:
        r = subprocess.run(
            dune() + ["build", "--root", ".", "./perfbench/main.exe"],
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def output(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def fingerprint(host):
    return {
        "nproc": os.cpu_count(),
        "recommended_domain_count": host.get("recommended_domain_count"),
        "ocaml": host.get("ocaml"),
        "git_commit": output(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else "unknown",
        "log_dir_fs": output(["stat", "-f", "-c", "%T", OUT]),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the repository root")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + a.workload)
    declared = spec["per_layer"] if a.trace else spec["end_to_end"]

    build()
    os.makedirs(OUT, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PROUST_")}
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.abspath(OUT)
    env["OCAMLRUNPARAM"] = OCAMLRUNPARAM
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail("run failed with exit code %d" % r.returncode)
    for line in lines[:-1]:
        print(line)
    res = json.loads(lines[-1])

    measured = res["metrics"]
    metrics, rows = {}, []
    for d in declared:
        name = d["name"]
        if name in measured:
            value, note = measured[name]["value"], measured[name]["note"]
        elif a.trace:
            value, note = 0.0, "layer not exercised by this workload"
        else:
            fail("workload %s did not report %s" % (a.workload, name))
        metrics[name] = {"value": value, "unit": d["unit"]}
        rows.append((name, value, d["unit"], note))

    host = fingerprint(res.get("host", {}))
    width = max(len(r[0]) for r in rows)
    print("%s seed=%d seconds=%d trace=%d" % (a.workload, a.seed, a.seconds, a.trace))
    for name, value, unit, note in rows:
        print("  %-*s %16.6g %-6s %s" % (width, name, value, unit, note))
    print("  host " + json.dumps(host, sort_keys=True))
    for p in res["problems"]:
        print("  problem: " + p)
    if res.get("trace_file"):
        print("  trace " + res["trace_file"])

    result = {
        "correct": res["correct"],
        "attempted": max(1, res["attempted"]),
        "failed": res["failed"],
        "metrics": metrics,
    }
    full = dict(result, host=host, problems=res["problems"], notes={r[0]: r[3] for r in rows},
                trace_file=res.get("trace_file"), workload=a.workload, seed=a.seed,
                seconds=a.seconds, trace=a.trace)
    with open(os.path.join(OUT, "result-%s-%d-%d.json" % (a.workload, a.seed, a.trace)), "w") as f:
        json.dump(full, f, indent=2, sort_keys=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
