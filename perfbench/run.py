"""gnlab benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seconds 24

Each repetition of a workload runs in a fresh interpreter (``worker.py``),
because every CLI user pays imports and cold caches on every run.  The run
repeats the task list until ``--seconds`` are used up, measured as the
whole-run time, and reports medians over the repetitions.  All repetitions
of one run use the same seed, so their report digests must agree.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced repetition and prints the per-layer metrics of the
traced ones; a traced digest that differs from the untraced one fails the
task.  ``--workload all`` runs every workload both ways and prints a table
with sample counts and the machine record.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` counts
tasks over all repetitions; ``failed`` counts tasks that raised, exited
non-zero, failed their output check or changed digest.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("search", "special", "cover", "control")

#: a run ends well inside the 180 s a run may take
HARD_LIMIT_S = 150.0
#: untraced repetitions per run at least: a neighbour on the host can slow
#: one repetition by 20-30%, and a median of three ignores one such burst
MIN_REPS = 3
#: set-up is sampled at least this often per untraced run (extra
#: set-up-only starts), because one start varies by tens of percent
MIN_SETUPS = 5

#: every worker runs with numpy's huge-page advice off.  Whether a 2 MiB page
#: can be had on a shared virtual machine changes from minute to minute.  With
#: the advice on, the 50 MB seminorm temporaries of ``special`` made its
#: repetitions twice as variable (CV of wall_s 0.08 against 0.04, 8 alternating
#: pairs on a 2-vCPU VM).  With it off every fault is a 4 KiB fault, so the
#: cost of allocation shows more, never less.
WORKER_ENV = dict(os.environ, NUMPY_MADVISE_HUGEPAGE="0")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


class RunError(RuntimeError):
    pass


def start_worker(args: list, deadline: float):
    """Start a worker; return (process, set-up seconds to READY)."""
    t0 = time.perf_counter()
    # unbuffered, so reading the READY line cannot swallow later output
    # that communicate() must see
    proc = subprocess.Popen([sys.executable, str(WORKER)] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, bufsize=0, env=WORKER_ENV)
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(1.0, deadline - time.perf_counter()))
    line = proc.stdout.readline().decode() if ready else ""
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise RunError(f"worker did not start: {line.strip() or 'timeout'}")
    return proc, setup


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish_worker(proc, deadline: float) -> str:
    """Wait for the worker; return the rest of its standard output."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RunError("worker timed out") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    return out.decode()


def repetition(workload: str, seed: int, trace: int, deadline: float) -> dict:
    proc, setup = start_worker(["--workload", workload, "--seed", str(seed),
                                "--trace", str(trace)], deadline)
    rep = json.loads(finish_worker(proc, deadline).strip().splitlines()[-1])
    rep["setup_s"] = setup
    return rep


def setup_probe(workload: str, seed: int, deadline: float) -> float:
    proc, setup = start_worker(["--workload", workload, "--seed", str(seed),
                                "--setup-only"], deadline)
    finish_worker(proc, deadline)
    return setup


def _failed_tasks(rep: dict, digests: dict) -> int:
    """Count failed tasks; the first digest seen for a task is the one every
    later repetition must reproduce."""
    failed = 0
    for task in rep["tasks"]:
        want = digests.setdefault(task["name"], task["digest"])
        if task["digest"] is None or task["digest"] != want:
            task["problems"].append(f"digest {task['digest']} != {want}")
        if task["problems"]:
            failed += 1
            print(f"FAILED {task['name']}: {'; '.join(task['problems'])}",
                  file=sys.stderr)
    return failed


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Repeat the workload until ``seconds`` are used; return the samples."""
    t0 = time.perf_counter()
    deadline = t0 + HARD_LIMIT_S
    plain, traced, setups = [], [], []
    digests: dict = {}
    attempted = failed = 0
    while True:
        batch = [0, 1] if trace else [0]
        for mode in batch:
            rep = repetition(workload, seed, mode, deadline)
            attempted += len(rep["tasks"])
            failed += _failed_tasks(rep, digests)
            (traced if mode else plain).append(rep)
            setups.append(rep["setup_s"])
        elapsed = time.perf_counter() - t0
        rounds = len(traced if trace else plain)
        per_round = elapsed / rounds
        if elapsed + 2 * per_round > HARD_LIMIT_S:
            break
        # stop at the round boundary nearest to the requested duration, after
        # MIN_REPS rounds unless one more would run past 1.5 x the duration
        if elapsed + per_round / 2 > seconds and \
                (trace or rounds >= MIN_REPS or elapsed + per_round > 1.5 * seconds):
            break
    while not trace and len(setups) < MIN_SETUPS and \
            time.perf_counter() + 10.0 < deadline:
        setups.append(setup_probe(workload, seed, deadline))
    return {"plain": plain, "traced": traced, "setups": setups,
            "attempted": attempted, "failed": failed}


def end_to_end(samples: dict) -> dict:
    plain = samples["plain"]
    values = {
        "setup_s": samples["setups"],
        "wall_s": [r["wall_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    out = {name: (statistics.median(v), len(v)) for name, v in values.items()}
    ok = 1.0 - samples["failed"] / max(1, samples["attempted"])
    out["ok_frac"] = (ok, samples["attempted"])
    return out


def per_layer(samples: dict) -> dict:
    traced = samples["traced"]
    keys = traced[0]["layers"].keys()
    out = {k: (statistics.median(r["layers"][k] for r in traced), len(traced))
           for k in keys}
    overhead = [t["wall_s"] - p["wall_s"]
                for p, t in zip(samples["plain"], traced)]
    out["trace.overhead_s"] = (statistics.median(overhead), len(overhead))
    out["trace.wall_s"] = (statistics.median(r["wall_s"] for r in traced),
                           len(traced))
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if "ns_per" in name:
        return "ns"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def result_line(samples: dict, metrics: dict) -> str:
    return json.dumps({
        "correct": samples["failed"] == 0,
        "attempted": samples["attempted"],
        "failed": samples["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, (v, _) in metrics.items()},
    })


def print_table(title: str, metrics: dict) -> None:
    """Metrics with unit and sample count; layers that did not run (0) are
    left out of the table but not out of the result line."""
    print(f"== {title}")
    for name, (value, count) in metrics.items():
        if value or name in END_TO_END:
            print(f"  {name:42s} {value:16.6g} {unit_of(name):6s} n={count}")


def machine() -> dict:
    out = subprocess.run([sys.executable, str(WORKER), "--machine"], cwd=ROOT,
                         stdout=subprocess.PIPE, text=True, timeout=60,
                         check=True, env=WORKER_ENV).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gnlab" / "__init__.py").is_file():
        print(f"perfbench: no gnlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            samples = measure(args.workload, args.seed, args.seconds, args.trace)
            metrics = per_layer(samples) if args.trace else end_to_end(samples)
            print_table(f"{args.workload} (trace={args.trace}, "
                        f"seed={args.seed})", metrics)
            print(result_line(samples, metrics))
            return 0
        print("== machine")
        for key, value in machine().items():
            print(f"  {key:42s} {value}")
        combined = {"attempted": 0, "failed": 0}
        flat = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                samples = measure(workload, args.seed, args.seconds, trace)
                metrics = per_layer(samples) if trace else end_to_end(samples)
                print_table(f"{workload} (trace={trace})", metrics)
                combined["attempted"] += samples["attempted"]
                combined["failed"] += samples["failed"]
                flat.update({f"{workload}.{k}": v for k, v in metrics.items()})
        print(result_line(combined, flat))
        return 0
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
