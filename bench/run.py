"""The uwq benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in fresh processes
(bench/child.py), started one after another while the next one is expected
to end within --seconds (at least MIN_PROCESSES), from a single client in a
closed loop: a pass starts only when the previous one has ended, so the
load never uses more than one process; BLAS keeps its default thread count,
which the metadata records.  A process runs its cold pass, then warm passes
while less than child.PROCESS_SECONDS have passed since its set-up ended (at
least one).

--trace 0 reports the end-to-end metrics:
  setup_s      process start until the first pass can start (interpreter,
               import uwq, seeded inputs), median over the fresh processes
  cold_s       first pass of a fresh process, median over the processes
  wall_s       median warm pass (first pass of each process excluded)
  peak_rss_mb  peak resident memory of a workload process, median
--trace 1 reports the per-layer metrics of spans.layer_metrics(): processes
alternate untraced (for suites, cli byte counts, cpu time and the reference
wall time) and traced; process.trace_overhead is the ratio of the two median
warm passes.

Every pass's outputs are checked outside the timed region; error_rate is
failed checks over checks attempted.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
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
sys.path.insert(0, HERE)

import spans  # noqa: E402

WORKLOADS = ("verify", "operators", "cli-io", "calculus")
END_TO_END = (("setup_s", "s"), ("cold_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
MIN_PROCESSES = 4
TIME_LIMIT_S = 170.0    # the whole run, set-up included
WORKDIR = ".bench_work"


def median(values):
    return statistics.median(values) if values else 0.0


def git_revision(root: str) -> str:
    """HEAD of the checkout at ``root``; "unknown" outside a git work tree
    (git does not search the directories above ``root``)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_process(root, workload, seed, traced, workdir, deadline) -> dict:
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--workdir", workdir]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} process exited with code {proc.returncode}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["ready"] - spawned
    rec["traced"] = traced
    return rec


def warm(records, key="wall_s"):
    return [p[key] for r in records for p in r["passes"][1:]]


def end_to_end(records) -> dict:
    return {
        "setup_s": [r["setup_s"] for r in records],
        "cold_s": [r["passes"][0]["wall_s"] for r in records if r["passes"]],
        "wall_s": warm(records),
        "peak_rss_mb": [r["peak_rss_mb"] for r in records if "peak_rss_mb" in r],
    }


def per_layer(untraced, traced) -> dict:
    """Samples of every per-layer metric: per-pass values from warm passes."""
    samples = {name: [] for name, _ in spans.layer_metrics()}
    for r in traced:
        for p in r["passes"][1:]:
            layers = p.get("layers", {})
            for name in spans.span_names():
                agg = layers.get(name, {})
                for field in ("calls", "self_s", "total_s", "peak_mb"):
                    key = f"{name}.{field}"
                    if key in samples:
                        samples[key].append(agg.get(field, 0))
            samples["expansion.terms_out"].append(sum(a["terms"] for a in layers.values()))
    for r in untraced:
        for p in r["passes"][1:]:
            for key, val in p.get("metrics", {}).items():
                if key in samples:
                    samples[key].append(val)
            samples["process.cpu_s"].append(p["cpu_s"])
    ref = median(warm(untraced))
    samples["process.trace_overhead"] = [median(warm(traced)) / ref] if ref > 0 else []
    return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    started = time.monotonic()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "uwq", "__init__.py")):
        sys.stderr.write("error: no uwq sources at ./src/uwq; run from the repository root\n")
        return 2

    workdir = os.path.join(root, WORKDIR)
    records = []
    try:
        # fresh processes back to back while the next one, taking as long
        # as the average so far, ends within the run's time; a traced run
        # alternates untraced and traced processes
        while len(records) < MIN_PROCESSES or (
                (time.monotonic() - started) * (len(records) + 1) / len(records)
                <= args.seconds):
            traced = bool(args.trace) and len(records) % 2 == 1
            records.append(run_process(root, args.workload, args.seed, traced,
                                       os.path.join(workdir, str(len(records))),
                                       started + TIME_LIMIT_S))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    if args.trace:
        samples = per_layer(untraced, traced)
        units = dict(spans.layer_metrics())
    else:
        samples = end_to_end(untraced)
        units = dict(END_TO_END)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    absent = sorted({a for r in records for a in r["absent"]})
    meta = {
        **records[0]["env"],
        "git_revision": git_revision(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "processes": len(records),
        "warm_passes": len(warm(untraced)),
        "traced_warm_passes": len(warm(traced)),
        "absent": absent,
    }

    print(f"uwq benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} single client, closed loop")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"{'metric':46s} {'median':>14s} {'unit':6s} samples")
    metrics = {}
    for name, unit in units.items():
        value = float(median(samples[name]))
        metrics[name] = {"value": value, "unit": unit}
        note = "  absent" if any(name.startswith(a + ".") for a in absent) else ""
        print(f"{name:46s} {value:14.6g} {unit:6s} {len(samples[name])}{note}")
    error_rate = failed / attempted if attempted else 1.0
    print(f"{'error_rate':46s} {error_rate:14.6g} {'ratio':6s} {attempted} checks, "
          f"{failed} failed")
    for r in records:
        for name in r["failures"]:
            print(f"failed check: {name}")
    print(json.dumps({"correct": attempted > 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
