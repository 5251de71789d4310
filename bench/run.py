"""ellhyp benchmark: time to a verified result per command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One run is a closed loop with one client:
a fresh worker interpreter (bench/worker.py) runs the workload's ops one
after another through `ellhyp.cli.main(argv)`.  After it, an untimed check phase
checks every output against an oracle (bench/oracles.py), replays the
cheapest op in another interpreter with another hash seed and requires
byte-identical output, and runs each tame query swapped.  Set-up-only
interpreters run before the worker and again after the check phase, so that
the set-up samples span the run.

With --trace 1 a second worker runs the same ops with spans and counters
installed (bench/tracer.py) and the run reports the per-layer metrics, the
tracing overhead and the share of op time no layer span covers.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
with the metrics named in BENCHMARK.json.  Each run also writes
bench/results/<workload>-seed<N>-trace<T>-<ms>.json with every argv list, so
that a run can be replayed, and with --trace 1 a gzipped CSV of its spans.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import workloads
from tracer import TARGETS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 2          # set-up-only interpreters before the ops, and again after
DEADLINE_S = 170          # the whole run, all subprocesses included


class BenchError(Exception):
    pass


def run_worker(request: dict, deadline: float, hash_seed: int = 0) -> dict:
    """Start a fresh interpreter, send it the request, wait for its reply.
    Its set-up time runs from just before the start to its `ready` time.
    Workers write no bytecode caches, so every set-up compiles the sources
    and the first run in a checkout sets up like the others."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")], input=json.dumps(request),
            capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker passed the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-3000:]}")
    reply = json.loads(proc.stdout)
    reply["setup_s"] = reply["setup"]["ready"] - start
    return reply


def check_phase(ops, main, traced, claims, deadline) -> tuple:
    """Outcome per op, and the outcome of the determinism replay."""
    divisors = workloads.query_divisors(claims)
    outcomes = [oracles.check(op, res, claims, divisors)
                for op, res in zip(ops, main["ops"])]
    if traced is not None:
        for i, (a, b) in enumerate(zip(main["ops"], traced["ops"])):
            if (a["rc"], a["stdout"]) != (b["rc"], b["stdout"]):
                outcomes[i] = {"outcome": "wrong", "why": "traced output differs"}
    passed = [i for i, o in enumerate(outcomes) if o["outcome"] == "pass"]
    cheapest = min(passed or range(len(ops)), key=lambda i: main["ops"][i]["seconds"])
    tame = [i for i, op in enumerate(ops)
            if op["role"] == "tame" and outcomes[i]["outcome"] == "pass"]
    swapped = [workloads.tame_argv(ops[i]["curve"], ops[i]["g"], ops[i]["f"],
                                   ops[i]["place"]) for i in tame]
    check = run_worker({"ops": [ops[cheapest]["argv"]] + swapped}, deadline,
                       hash_seed=1)
    replay, first = check["ops"][0], main["ops"][cheapest]
    same = (replay["rc"], replay["stdout"]) == (first["rc"], first["stdout"])
    determinism = {"op": cheapest, "outcome": "pass" if same else "wrong",
                   "why": "" if same else "replayed output differs"}
    for i, res in zip(tame, check["ops"][1:]):
        why = oracles.check_tame_pair(main["ops"][i], res)
        if why:
            outcomes[i] = {"outcome": "wrong", "why": why}
    return outcomes, determinism


def op_times(ops, main) -> dict:
    """Median op time per role."""
    by_role = {}
    for op, res in zip(ops, main["ops"]):
        by_role.setdefault(op["role"], []).append(res["seconds"])
    return {role: statistics.median(times) for role, times in by_role.items()}


def end_to_end(workload, ops, main, probes, verdicts) -> dict:
    return {
        "setup_s": statistics.median([p["setup_s"] for p in probes] + [main["setup_s"]]),
        "run_s": sum(res["seconds"] for res in main["ops"]),
        "heavy_op_s": op_times(ops, main)[workloads.HEAVY[workload]],
        "passed_share": sum(v["outcome"] == "pass" for v in verdicts) / len(verdicts),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def per_layer(ops, main, traced, probes, verdicts) -> dict:
    tr = traced["trace"]
    calls, self_s, counts, stats = tr["calls"], tr["self_s"], tr["counts"], tr["stats"]
    values = {}
    for _, _, name, timed, _ in TARGETS:
        if timed:
            values[f"{name}.calls"] = calls.get(name, 0)
            values[f"{name}.self_s"] = self_s.get(name, 0.0)
        else:
            values[f"{name}.calls"] = counts.get(name, 0)
    values.update({"hyp3f2.tail_coefficients.count_max": 0, "hecke.afe_terms": 0})
    values.update(stats)      # hook-derived, including the err_understated counts
    attempts = counts.get("ksym.series.expand", 0)
    lattice = counts.get("ellper.lattice", 0)
    run_s = sum(res["seconds"] for res in main["ops"])
    traced_s = sum(res["seconds"] for res in traced["ops"])
    shortfalls = [v["shortfall_digits"] for v in verdicts if "shortfall_digits" in v]
    times = op_times(ops, main)
    values.update({f"{role}_s": times.get(role, 0.0) for role in workloads.ROLES})
    values.update({
        "failed_share": sum(v["outcome"] != "pass" for v in verdicts) / len(verdicts),
        "claims.load_s": statistics.median(p["setup"]["claims.load_s"] for p in probes),
        "ksym.import_s": statistics.median(p["setup"]["ksym.import_s"] for p in probes),
        "ksym.series.expand.attempts": attempts,
        "ksym.series.expand_useful_ratio":
            stats.get("ksym.series.expand.useful", 0) / attempts if attempts else 0.0,
        "ellper.lattice_reuse_ratio":
            tr["lattice_distinct"] / lattice if lattice else 0.0,
        "cli.report_s": self_s.get("cli.report", 0.0),
        "accuracy_shortfall_digits": max(shortfalls, default=0),
        "trace.overhead_s": traced_s - run_s,
        "trace.overhead_share": (traced_s - run_s) / run_s,
        "trace.uncovered_share": tr["uncovered_s"] / tr["op_s"],
    })
    return values


def select(values: dict, specs: list) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def run(args) -> dict:
    if not (ROOT / "src" / "ellhyp" / "cli.py").is_file():
        raise BenchError(f"no ellhyp sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    claims = workloads.load_claims(ROOT)
    ops = workloads.generate(args.workload, args.seed, claims)
    argvs = [op["argv"] for op in ops]
    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns() // 10**6}"

    # set-up samples on both sides of the ops, so that they span the run
    probes = [run_worker({"ops": []}, deadline) for _ in range(SETUP_PROBES)]
    main = run_worker({"ops": argvs}, deadline)
    traced = None
    if args.trace:
        spans = RESULTS / f"{stem}-spans.csv.gz"
        traced = run_worker({"ops": argvs, "trace": True, "spans": str(spans)},
                            deadline)
    outcomes, determinism = check_phase(ops, main, traced, claims, deadline)
    probes += [run_worker({"ops": []}, deadline) for _ in range(SETUP_PROBES)]
    verdicts = outcomes + [determinism]
    failed = sum(v["outcome"] != "pass" for v in verdicts)
    correct = all(v["outcome"] != "wrong" for v in verdicts)

    if args.trace:
        metrics = select(per_layer(ops, main, traced, probes, verdicts),
                         spec["per_layer"])
    else:
        metrics = select(end_to_end(args.workload, ops, main, probes, verdicts),
                         spec["end_to_end"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "heavy": workloads.HEAVY[args.workload],
        "setup_s": [p["setup_s"] for p in probes] + [main["setup_s"]],
        "ops": [{"argv": op["argv"], "role": op["role"], "rc": res["rc"],
                 "seconds": res["seconds"], **verdict}
                for op, res, verdict in zip(ops, main["ops"], outcomes)],
        "determinism": determinism,
        "correct": correct, "attempted": len(verdicts), "failed": failed,
        "metrics": metrics,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return {"correct": correct, "attempted": len(verdicts), "failed": failed,
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=40,
                    help="expected length of the timed phase; the work per "
                         "run is fixed, so this is only recorded")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result = run(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
