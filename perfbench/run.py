#!/usr/bin/env python3
"""Run one workload of the fixed-work benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload signoff_flow --seed 1 --seconds 25 --trace 0

Steps: build perfbench/main.exe from source with dune, generate the seeded
corpus as .bench files, run the measured program on it, compare every
quality number, program counter and corpus fingerprint with the first run
at the same seed (a mismatch is a harness bug and fails the run), then
print one provenance line and, last, the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Everything the run writes stays under perfbench/_work and
_build inside the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

WORKLOADS = ("signoff_flow", "masked_signoff", "supply_chain_attack")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORK = os.path.join("perfbench", "_work")


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run(cmd, env):
    """Run a subprocess to completion; its stdout is parsed as JSON."""
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if proc.returncode != 0:
        die(f"{' '.join(cmd)} exited with {proc.returncode}")
    return proc.stdout


def tool_version(cmd):
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True).stdout.strip()
    except OSError:
        return "unknown"


def check_determinism(path, current):
    """The first run at a seed writes the record; every later run of the same
    program at that seed must reproduce it exactly. Returns the fields that
    differ."""
    record = {}
    if os.path.exists(path):
        with open(path) as f:
            record = json.load(f)
    diffs = []
    for field, value in current.items():
        if field not in record:
            record[field] = value
        elif record[field] != value:
            diffs.append(field)
    with open(path, "w") as f:
        json.dump(record, f)
    return diffs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True,
                    help="nominal run length; the work per run is fixed, so this is recorded, not enforced")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("BENCHMARK.json", "dune-project", "lib"):
        if not os.path.exists(needed):
            die(f"{needed} not found: run from the root of a complete checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
                           env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        die("build failed")
    with open(EXE, "rb") as f:
        program = hashlib.sha256(f.read()).hexdigest()[:16]

    tag = f"{args.workload}-{args.seed}"
    corpus = os.path.join(WORK, "corpus", tag)
    records = os.path.join(WORK, "records")
    os.makedirs(corpus, exist_ok=True)
    os.makedirs(records, exist_ok=True)

    generated = json.loads(run([EXE, "gen", args.workload, str(args.seed), corpus], env))
    out = json.loads(run([EXE, "run", args.workload, corpus, str(args.trace)], env))

    current = {
        "fingerprints": generated["fingerprints"],
        "designs": out["record"],
        "failures": out["failures"],
    }
    if args.trace:
        current["counters"] = out["counters"]
    diffs = check_determinism(os.path.join(records, f"{tag}-{program}.json"), current)
    if diffs:
        die(f"seed {args.seed} reproduced different {', '.join(diffs)} than its first run (harness bug)", 3)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds_arg": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "ocaml": tool_version(["ocamlopt", "-version"]),
        "python": platform.python_version(),
        "program_sha256_16": program,
        "corpus_designs": generated["designs"],
        "family_mix": generated["family_mix"],
        "corpus_bytes": out["corpus_bytes"],
        "measured_s": out["measured_s"],
        "failures_by_cause": out["failures"],
        "not_applicable": out["not_applicable"],
    }
    with open(os.path.join(WORK, f"provenance-{tag}-trace{args.trace}.json"), "w") as f:
        json.dump(dict(provenance, latencies=out["latencies"], per_design=out["record"]), f)

    section = "per_layer" if args.trace else "end_to_end"
    values = out[section]
    metrics = {}
    for m in spec[section]:
        if m["name"] not in values:
            die(f"metric {m['name']} missing from the {section} output")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": out["failures"]["check_failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
