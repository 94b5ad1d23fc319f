#!/usr/bin/env python3
"""antmd end-to-end benchmark: one command per workload run.

    python3 ledger/run.py --workload water12k --seed 1 --seconds 10 --trace 0

Builds ledger_driver from the checkout's sources on first use (into
.bench_build/ledger), runs the workload, checks the correctness gate and
prints, as its last stdout line, one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a separate traced run.  --out FILE
appends the full record (run descriptor, gate, metrics) as one JSON line,
the input format of ledger/diff.py.  Traced runs also write their spans to
.bench_build/ledger/spans/.  See ledger/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
DRIVER = os.path.join(BUILD, "ledger_driver")
WORKLOADS = ("water12k", "lj32k", "water-machine64")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("antmd sources (src/) not found next to ledger/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "ledger_driver",
                    "-j", jobs], check=True, stdout=sys.stderr)


def run_driver(args):
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed no result")
    return json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", help="append the full record to this JSONL file")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    try:
        build()
        raw = run_driver(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1

    gate = raw["gate"]
    correct = bool(gate["ok"])
    attempted = int(raw["attempted"])
    # A run that fails the correctness gate fails every step it timed.
    failed = int(raw["failed"]) if correct else attempted
    if args.trace:
        values, terms = stats.per_layer(raw)
        units = stats.PER_LAYER
        spans = os.path.join(BUILD, "spans",
                             f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        with open(spans, "w") as f:
            json.dump(raw["trace"]["spans"], f)
        log(f"spans written to {spans}")
    else:
        values, terms = stats.end_to_end(raw), {}
        units = stats.END_TO_END
        interval = raw["kspace_interval"]
        samples = len(stats.cycle_means(raw["window"]["step_ms"], interval))
        log(f"step_ms_p50 over {samples} samples of {interval} step(s)")

    log(f"descriptor: {json.dumps(raw['descriptor'], sort_keys=True)}")
    if not raw["descriptor"]["measured"]:
        log("UNMEASURED: the workload wants more threads than this host has "
            "cores; do not compare these figures")
    log(f"gate: {json.dumps(gate, sort_keys=True)}")
    if "modeled_ns_per_day" in raw:
        log(f"modeled_ns_per_day: {raw['modeled_ns_per_day']:.6g}")
    for name, ms in terms.items():
        log(f"  per-step estimate {name:24s} {ms:10.3f} ms")
    for name in units:
        log(f"  {name:28s} {values[name]:14.6g} {units[name]}")

    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "descriptor": raw["descriptor"],
                  "gate": gate, "correct": correct, "attempted": attempted,
                  "failed": failed, "metrics": metrics}
        with open(args.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
