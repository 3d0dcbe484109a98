"""Spans around the calls into each gnlab module, recorded from outside.

The traced run wraps each public name where its caller looks it up, so no
file under ``src/`` changes:

* ``gn`` imports ``lebesgue_norm``, ``product_norm`` and
  ``gagliardo_seminorm`` into its own namespace, so the norms calls are
  patched there;
* ``extremal._TAG_FN`` captured ``gn.ratio4``/``ratio6`` at import, so its
  entries are patched as well;
* class methods are patched on the class.

Every span records its thread, because ``estimate``'s thread pool runs spans
concurrently.  A span opened on a worker thread with no open span of its own
takes the main thread's innermost open span as parent.  Spans stay in memory
until the run ends; ``layer_metrics`` then turns them into the per-layer
numbers.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _finite(x) -> bool:
    return x is not None and not math.isinf(float(x))


# count hooks: (counts, args, kwargs, result, seconds) -> None
def _simpson(attr):
    def hook(counts, args, kwargs, result, seconds):
        spec = _arg(args, kwargs, 1, "spec")
        if spec is not None and _finite(getattr(spec, attr)):
            counts["simpson_calls"] += 1
            counts["simpson_s"] += seconds
    return hook


def _seminorm(counts, args, kwargs, result, seconds):
    n = _arg(args, kwargs, 0, "g").n
    entries = 3 * (n - 1) ** 2
    counts["seminorm_entries"] += entries
    counts[f"seminorm_entries.n{n}"] += entries
    counts[f"seminorm_s.n{n}"] += seconds


def _sample(counts, args, kwargs, result, seconds):
    counts["sample_nodes"] += result.stack.size


def _estimate(counts, args, kwargs, result, seconds):
    counts["evals"] += result.evaluations
    counts["degenerate"] += result.degenerate


def _batch(counts, args, kwargs, result, seconds):
    counts["batch_candidates"] += result["count"]
    counts["degenerate"] += result["degenerate"]


def _radii(counts, args, kwargs, result, seconds):
    counts["radii_points"] += len(result)


def _select(counts, args, kwargs, result, seconds):
    counts["selected"] += len(result)
    counts["candidates"] += len(_arg(args, kwargs, 0, "centers"))


def _tally(key):
    def hook(counts, args, kwargs, result, seconds):
        counts[key] += 1
    return hook


def _scaling(counts, args, kwargs, result, seconds):
    counts["integrations"] += 1
    counts["step_batch"] += result.steps * len(result.rows)


def _obstruction(counts, args, kwargs, result, seconds):
    counts["integrations"] += 1
    counts["step_batch"] += result.steps * result.trials


def _p1(counts, args, kwargs, result, seconds):
    counts["step_batch"] += result["steps"] * len(result["rows"])


#: (module attribute path, hook) for every wrapped name, per module
TARGETS = {
    "funcspace": [("sample", _sample), ("chi_stack", None)],
    "gn": [("evaluate_generalized", None), ("special_constants", None),
           ("open_problem_probe", None), ("ibp_identities", None),
           ("ratio4", _tally("ratio_calls")), ("ratio6", _tally("ratio_calls")),
           ("ratio_half", _tally("ratio_calls"))],
    "norms": [("lebesgue_norm", _simpson("p")), ("product_norm", _simpson("q")),
              ("gagliardo_seminorm", _seminorm)],
    "covering": [("build_cover", None),
                 ("BalanceEvaluator.critical_radii", _radii),
                 ("BalanceEvaluator.alpha", _tally("alpha_beta_calls")),
                 ("BalanceEvaluator.beta", _tally("alpha_beta_calls")),
                 ("besicovitch_select", _select), ("overlap_profile", None)],
    "extremal": [("estimate_constant", _estimate),
                 ("random_ratio_batch", _batch)],
    "control": [("scaling_experiment", _scaling),
                ("obstruction_check", _obstruction),
                ("monotone_check_p1", _p1),
                ("integrate", _tally("integrations"))],
    "cli": [("main", None)],
}


class Tracer:
    """In-memory span recorder.  Install once per process."""

    def __init__(self):
        self.spans = []  # [name, thread id, parent index, start, end]
        self.counts = defaultdict(float)
        self.enabled = True
        self.unwrapped = []
        self._lock = threading.Lock()
        self._stacks = {}
        self._main = threading.get_ident()

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tid = threading.get_ident()
            stack = tracer._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = tracer._stacks.get(tracer._main)
                parent = main[-1] if main and tid != tracer._main else -1
            with tracer._lock:
                index = len(tracer.spans)
                span = [name, tid, parent, 0.0, 0.0]
                tracer.spans.append(span)
            stack.append(index)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if hook is not None:
                with tracer._lock:
                    hook(tracer.counts, args, kwargs, result, span[4] - span[3])
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Patch every target; names that no longer exist are listed in
        ``unwrapped`` and counted, not fatal."""
        for layer, targets in TARGETS.items():
            module = modules[layer]
            for path, hook in targets:
                owner = module
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.unwrapped.append(f"{layer}.{path}")
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn, hook)
                if layer == "norms":
                    # gn looks the norms up in its own namespace
                    setattr(modules["gn"], attr, wrapped)
                setattr(owner, attr, wrapped)
        tags = getattr(modules["extremal"], "_TAG_FN", None)
        if isinstance(tags, dict):
            gn = modules["gn"]
            for key, fn in tags.items():
                tags[key] = getattr(gn, fn.__name__, fn)


def _union(intervals) -> float:
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _self_times(spans):
    """Layer self time: the union of the layer's outermost spans minus the
    union of the spans of other layers that it called.  Concurrent child
    spans on worker threads count once, as the interval they cover."""
    layer = [s[0].split(".", 1)[0] for s in spans]
    tops = defaultdict(list)
    children = defaultdict(list)
    for i, (name, _, parent, t0, t1) in enumerate(spans):
        parent_layer = layer[parent] if parent >= 0 else None
        if parent_layer != layer[i]:
            tops[layer[i]].append((t0, t1))
            if parent_layer is not None:
                children[parent_layer].append((t0, t1))
    return {key: max(0.0, _union(tops[key]) - _union(children[key]))
            for key in tops}


def _function_self(spans, name: str) -> float:
    """Time inside ``name`` not covered by any span it called directly."""
    own = {i for i, s in enumerate(spans) if s[0] == name}
    kids = defaultdict(list)
    for s in spans:
        if s[2] in own:
            kids[s[2]].append((s[3], s[4]))
    return sum(spans[i][4] - spans[i][3] - _union(kids[i]) for i in own)


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer, report_bytes: int) -> dict:
    """Per-layer numbers from one traced task list.  Busy times sum span
    durations; on the thread pool they add up across threads."""
    spans = tracer.spans
    c = tracer.counts
    busy = defaultdict(float)
    for name, _, parent, t0, t1 in spans:
        busy[name] += t1 - t0
    own = _self_times(spans)
    evals = c["evals"]
    out = {
        "extremal.estimate_s": busy["extremal.estimate_constant"],
        "extremal.evals": evals,
        "extremal.eval_us": _ratio(busy["extremal.estimate_constant"], evals, 1e6),
        "extremal.self_s": own.get("extremal", 0.0),
        "extremal.degenerate_frac": _ratio(c["degenerate"],
                                           evals + c["batch_candidates"]),
        "extremal.batch_s": busy["extremal.random_ratio_batch"],
        "extremal.batch_per_s": _ratio(c["batch_candidates"],
                                       busy["extremal.random_ratio_batch"]),
        "norms.simpson_calls": c["simpson_calls"],
        "norms.simpson_s": c["simpson_s"],
        "norms.simpson_us": _ratio(c["simpson_s"], c["simpson_calls"], 1e6),
        "norms.seminorm_calls": float(sum(1 for s in spans
                                          if s[0] == "norms.gagliardo_seminorm")),
        "norms.seminorm_s": busy["norms.gagliardo_seminorm"],
        "norms.seminorm_entries": c["seminorm_entries"],
    }
    for n in (2049, 1025):
        out[f"norms.seminorm_ns_per_entry.n{n}"] = _ratio(
            c[f"seminorm_s.n{n}"], c[f"seminorm_entries.n{n}"], 1e9)
    out.update({
        "funcspace.sample_s": busy["funcspace.sample"],
        "funcspace.sample_nodes": c["sample_nodes"],
        "funcspace.chi_stack_s": busy["funcspace.chi_stack"],
        "gn.ratio_calls": c["ratio_calls"],
        "gn.self_s": own.get("gn", 0.0),
        "gn.evaluate_s": busy["gn.evaluate_generalized"],
        "gn.ibp_s": busy["gn.ibp_identities"],
        "covering.critical_radii_s": busy["covering.critical_radii"],
        "covering.radii_points": c["radii_points"],
        "covering.alpha_beta_calls": c["alpha_beta_calls"],
        "covering.select_s": busy["covering.besicovitch_select"],
        "covering.selected": c["selected"],
        "covering.selected_frac": _ratio(c["selected"], c["candidates"]),
        "covering.overlap_s": busy["covering.overlap_profile"],
        "covering.build_cover_self_s": _function_self(spans,
                                                      "covering.build_cover"),
        "control.scaling_s": busy["control.scaling_experiment"],
        "control.obstruction_s": busy["control.obstruction_check"],
        "control.p1_s": busy["control.monotone_check_p1"],
        "control.integrate_calls": c["integrations"],
        "control.step_batch": c["step_batch"],
    })
    chain = (out["control.scaling_s"] + out["control.obstruction_s"]
             + out["control.p1_s"])
    out["control.ns_per_step_batch"] = _ratio(chain, c["step_batch"], 1e9)
    out["cli.self_s"] = own.get("cli", 0.0)
    out["cli.report_bytes"] = float(report_bytes)
    out["trace.spans"] = float(len(spans))
    out["trace.unwrapped"] = float(len(tracer.unwrapped))
    return out
