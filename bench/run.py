"""kpex benchmark: seeded corpora, the real CLI, checked outputs.

Run from the root of a source checkout (no install, no network):

    python3 bench/run.py --workload predict_page --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Everything above it is for people: the environment, the corpus properties,
each command's rate and every failed check.

This process imports no numpy. It starts the workload process a few times
with ``--setup-only`` to time set-up, then once for the measurement, and
waits for each to end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train_mixed", "predict_page", "predict_long")
SETUP_PROBES = 4  # extra set-up-only processes; set-up time is the median
RUN_LIMIT = 170  # seconds for all processes of one workload; a run must end within 180

# command label -> (name, unit) of its rate, printed above the result line
RATE_LINES = {
    "train": ("train_tokens_per_s", "tokens/s"),
    "predict": ("predict_docs_per_s", "docs/s"),
    "tfidf": ("tfidf_docs_per_s", "docs/s"),
    "textrank": ("textrank_docs_per_s", "docs/s"),
    "chunked": ("chunked_docs_per_s", "docs/s"),
    "chunked_dedup": ("chunked_dedup_docs_per_s", "docs/s"),
}


class BenchError(RuntimeError):
    pass


def _child(workload, seed, seconds, trace, work, setup_only, deadline):
    """Start one workload process; returns (its JSON report, set-up seconds)."""
    argv = [sys.executable, os.path.join(HERE, "workload.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--root", ROOT, "--work", work]
    if setup_only:
        argv.append("--setup-only")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - started, 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} ran past {RUN_LIMIT} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["ready"] - started


def run_workload(workload, seed, seconds, trace, spec):
    work = os.path.join(ROOT, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    deadline = time.monotonic() + RUN_LIMIT
    setups = [_child(workload, seed, seconds, trace, work, True, deadline)[1]
              for _ in range(SETUP_PROBES)]
    report, setup = _child(workload, seed, seconds, trace, work, False, deadline)
    setups.append(setup)

    commands = report["commands"]
    attempted = sum(c["attempted"] for c in commands.values())
    failed = sum(c["failed"] for c in commands.values())
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = report["per_layer"]
    else:
        values = {"setup_s": statistics.median(setups), "peak_rss_mb": report["peak_rss_mb"],
                  "tokens_per_s": report["tokens_per_s"]}
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(values) - set(units) or set(names) - set(values):
        raise BenchError("metrics do not match BENCHMARK.json: "
                         f"{sorted(set(values) ^ set(units))}")

    _describe(workload, seed, report, setups, trace)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }


def _describe(workload, seed, report, setups, trace):
    """Human-readable account of one run, printed above the result line."""
    print(f"== {workload} seed {seed} ({'traced' if trace else 'untraced'}), "
          f"{report['passes']} passes")
    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    print("corpus: " + json.dumps(report["corpus"], sort_keys=True))
    print(f"  {'setup_s':<25} {statistics.median(setups):10.3f} s         samples "
          + ", ".join(f"{s:.3f}" for s in setups))
    for label, c in report["commands"].items():
        name, unit = RATE_LINES[label]
        line = (f"  {name:<25} {c['rate']:10.3f} {unit:<9} attempted {c['attempted']:>5}"
                f"  failed {c['failed']:>4}  calls {len(c['rates'])}")
        if trace:
            line += f"  untraced {c['untraced_rate']:.3f}"
        print(line)
        for i, message in c["problems"]:
            where = "run" if i is None else f"doc {i}"
            print(f"    CHECK FAILED ({where}): {message}")
    if trace:
        for label, rows in report["largest_self_ms"].items():
            tops = ", ".join(f"{n} {ms:.1f}" for n, ms in rows)
            print(f"  largest self ms per call of {label}: {tops}")
    print(f"  {'tokens_per_s':<25} {report['tokens_per_s']:10.3f} tokens/s  all commands")
    print(f"  {'peak_rss_mb':<25} {report['peak_rss_mb']:10.1f} MB")


def main(argv=None):
    parser = argparse.ArgumentParser(description="kpex benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "kpex", "cli.py")):
        print(f"error: no kpex sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, seconds, args.trace, spec)
            if len(workloads) > 1:
                print(json.dumps(results[workload]))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps({w: r["correct"] for w, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
