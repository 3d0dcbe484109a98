"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py``.  It imports numpy, scipy and gnlab from the
checkout's ``src/``, derives the seeded inputs, prints ``READY`` (the parent
times set-up from process start to that line), runs the task list once and
prints one JSON line with its timings, the per-task checks and digests, and,
with ``--trace 1``, the per-layer numbers.

``--setup-only`` stops after ``READY``; ``--machine`` prints the machine
record; ``--record-reference`` prints the seed-independent values of the
fixed-corpus tasks (this is how ``reference.json`` was made).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_gnlab():
    sys.path.insert(0, str(SRC))
    import gnlab
    if Path(gnlab.__file__).resolve().parent != SRC / "gnlab":
        raise SystemExit(f"gnlab imported from {gnlab.__file__}, not {SRC}")
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    from gnlab import cli, control, covering, extremal, funcspace, gn, norms
    return {"cli": cli, "control": control, "covering": covering,
            "extremal": extremal, "funcspace": funcspace, "gn": gn,
            "norms": norms}


def _rusage():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime, r.ru_maxrss / 1024.0


def run_tasks(tasks, tracer=None):
    """Time the task list back to back, then check it with tracing off."""
    from workloads import check_tasks
    outputs, errors, seconds = {}, {}, {}
    cpu0, _ = _rusage()
    t0 = time.perf_counter()
    for task in tasks:
        start = time.perf_counter()
        try:
            outputs[task.name] = task.run()
        except Exception as exc:  # a failed task is counted, not fatal
            errors[task.name] = f"{type(exc).__name__}: {exc}"
        seconds[task.name] = time.perf_counter() - start
    wall = time.perf_counter() - t0
    cpu1, peak = _rusage()
    if tracer is not None:
        tracer.enabled = False
    rows, report_bytes = check_tasks(tasks, outputs, errors)
    for row in rows:
        row["seconds"] = seconds[row["name"]]
    return {"wall_s": wall, "cpu_s": cpu1 - cpu0, "peak_rss_mb": peak,
            "tasks": rows, "report_bytes": report_bytes}


def machine_record() -> dict:
    import numpy
    import scipy
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # the record is informational
        pass
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS") if k in os.environ}
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "ram_gb": round(pages / 2 ** 30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration", blas.get("name", "unknown")),
        "blas_threads": env or "unset (library default: one per core)",
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE",
                                                 "unset (numpy default: on)"),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--machine", action="store_true")
    mode.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    os.chdir(ROOT)

    modules = import_gnlab()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.machine:
        print(json.dumps(machine_record()), flush=True)
        return 0
    if args.record_reference:
        ref = {}
        for name, build in workloads.WORKLOADS.items():
            workloads.prepare(name)
            for task in build(workloads.make_inputs(args.seed)):
                if task.fixed is not None:
                    ref[task.name] = task.fixed(task.collect(task.run())[0])
        print(json.dumps(ref, indent=1, sort_keys=True))
        return 0

    build = workloads.WORKLOADS[args.workload]
    tasks = build(workloads.make_inputs(args.seed))
    workloads.prepare(args.workload)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install(modules)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    out = run_tasks(tasks, tracer)
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, out["report_bytes"])
        out["unwrapped"] = tracer.unwrapped
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
