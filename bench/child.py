"""One benchmark process: set up a workload, run passes back to back until
PROCESS_SECONDS have passed since set-up ended, check every pass outside
the timed region, and print one JSON record as the last line of standard
output.

Started by run.py from the repository root:

    python3 bench/child.py --workload W --seed S --trace 0|1 --workdir DIR

Exit code 3 means uwq could not be imported from ./src.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback

MAX_REPORTED_FAILURES = 20
PROCESS_SECONDS = 2.5   # passes start until this long after set-up (at least two)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def blas_info() -> dict:
    """BLAS vendor and thread count of the numpy in use; "unknown" where the
    library does not say."""
    import ctypes

    import numpy as np

    info = {"numpy": np.__version__, "blas": "unknown", "blas_threads": "unknown"}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        info["blas"] = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    try:
        import uwq
    except ImportError as exc:
        sys.stderr.write(f"cannot import uwq from {src}: {exc}\n")
        return 3
    if not os.path.abspath(uwq.__file__).startswith(src + os.sep):
        sys.stderr.write(f"uwq imported from {uwq.__file__}, not from {src}\n")
        return 3

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    ready = time.monotonic()

    tracer = spans.Tracer().install() if args.trace else None
    record = {"ready": ready, "passes": [], "attempted": 0, "failed": 0,
              "failures": [], "absent": tracer.absent if tracer else []}

    def fail(name: str) -> None:
        record["failed"] += 1
        if len(record["failures"]) < MAX_REPORTED_FAILURES:
            record["failures"].append(name)

    while True:
        cpu0 = _cpu_s()
        if tracer:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out = workload.run()
        except Exception:
            record["attempted"] += 1
            fail("pass raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1])
            break
        finally:
            wall = time.perf_counter() - t0
            if tracer:
                tracer.enabled = False
        info = {"wall_s": wall, "cpu_s": _cpu_s() - cpu0}
        record["peak_rss_mb"] = _maxrss_mb()
        if tracer:
            info["layers"] = tracer.collect()
        if hasattr(workload, "pass_metrics"):
            info["metrics"] = workload.pass_metrics(out)
        try:
            checks = workload.check(out)
        except Exception:
            checks = [("check raised: " + traceback.format_exc(limit=3).strip()
                       .splitlines()[-1], False)]
        record["attempted"] += len(checks)
        for name, ok in checks:
            if not ok:
                fail(name)
        record["passes"].append(info)
        if len(record["passes"]) >= 2 and time.monotonic() - ready >= PROCESS_SECONDS:
            break

    record["env"] = {**blas_info(), "python": platform.python_version(),
                     "cpu_count": os.cpu_count()}
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
