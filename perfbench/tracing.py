"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps chosen functions of the ``subgrad`` modules and
rebinds every module-level name that points at them (modules import helpers
by name, so patching the defining module alone would miss callers).  Methods
are patched on their class.  Each wrapped call records a span: layer name,
start, end, parent span and item id, kept in compact per-thread arrays and
written out when the run ends.

A call whose innermost open span has the same layer name is folded into that
span (``DCFunction.evaluate_batch`` calling ``g.evaluate_batch``, a calmness
probe calling the derivative estimate), so ``calls`` counts entries into a
layer.  A span opened on a worker thread with nothing open there (the
``--jobs`` pool) takes as parent the innermost span open on the thread that
installed the tracer.  Self time is a span's duration minus the part of it
that its children cover.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np


class _ThreadLog:
    __slots__ = ("name", "start", "end", "parent", "item", "stack", "counts", "current_item", "adopted")

    def __init__(self):
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.current_item = -1
        # root span index -> (thread log, span) it was started from
        self.adopted: dict[int, tuple[_ThreadLog, int]] = {}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self._next_item = 0
        self._home: _ThreadLog | None = None

    # -- recording ---------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def set_item(self, item: int) -> None:
        self._log().current_item = item

    def count(self, key: str, n: int = 1) -> None:
        self._log().counts[key] += n

    def reset(self) -> None:
        with self._lock:
            self._logs = []
            self._next_item = 0
        self._local = threading.local()
        self._home = self._log()

    def _wrap(self, layer: str, fn, skip=None, after=None, new_item=False):
        if layer not in self._ids:
            self._ids[layer] = len(self.names)
            self.names.append(layer)
        nid = self._ids[layer]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = self._log()
            stack = log.stack
            if (stack and log.name[stack[-1]] == nid) or (skip is not None and skip(args)):
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, result, False)
                return result
            if new_item:
                with self._lock:
                    log.current_item = self._next_item
                    self._next_item += 1
            idx = len(log.start)
            if not stack and log is not self._home and self._home.stack:
                log.adopted[idx] = (self._home, self._home.stack[-1])
            log.name.append(nid)
            log.parent.append(stack[-1] if stack else -1)
            log.item.append(log.current_item)
            log.end.append(0.0)
            stack.append(idx)
            log.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result, True)
            return result

        return wrapper

    def install(self, targets) -> None:
        """Wrap each (owner, attribute, layer, options) target.

        ``owner`` is a class or a module; for a module every ``subgrad``
        module-level name bound to the same function object is rebound.
        """
        self._home = self._log()
        modules = [m for n, m in sys.modules.items() if n == "subgrad" or n.startswith("subgrad.")]
        for owner, attr, layer, opts in targets:
            original = owner.__dict__[attr]
            wrapped = self._wrap(layer, original, **opts)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []

    # -- results -----------------------------------------------------------

    def raw(self) -> dict:
        """Summed counters: ``<layer>.calls``, ``<layer>.self_s`` and the
        extra counts, plus ``_self_total_s`` (largest per-thread sum of self
        times, for the accounting check) and DD runs inside canonicalization.
        """
        logs = list(self._logs)
        cols = [_columns(log) for log in logs]
        covered = []
        for name, start, end, parent in cols:
            child = np.zeros(len(start))
            inside = parent >= 0
            np.add.at(child, parent[inside], (end - start)[inside])
            covered.append(child)
        # Children on other threads may overlap: count the union they cover.
        adopted: dict[tuple[int, int], list] = {}
        position = {id(log): i for i, log in enumerate(logs)}
        for (_, start, end, _), log in zip(cols, logs):
            for idx, (home, pidx) in log.adopted.items():
                adopted.setdefault((position[id(home)], pidx), []).append((start[idx], end[idx]))
        for (li, pidx), spans in adopted.items():
            covered[li][pidx] += _union_length(spans)
        calls: Counter = Counter()
        self_s: Counter = Counter()
        counts: Counter = Counter()
        worst_thread_self = 0.0
        canon = self._ids.get("polykernel.canonicalize")
        cone = self._ids.get("polykernel.cone_generators")
        for log, (name, start, end, parent), child in zip(logs, cols, covered):
            own = end - start - child
            worst_thread_self = max(worst_thread_self, float(own.sum()))
            for nid, layer in enumerate(self.names):
                mask = name == nid
                calls[layer + ".calls"] += int(mask.sum())
                self_s[layer + ".self_s"] += float(own[mask].sum())
            if canon is not None and cone is not None:
                counts["polykernel.dd_in_canonical"] += _descendants_of(name, parent, cone, canon)
            counts.update(log.counts)
        out: dict = {}
        out.update(calls)
        out.update(self_s)
        out.update(counts)
        out["_self_total_s"] = worst_thread_self
        return out

    def dump(self, path: Path) -> None:
        """Write every span: layer, start, end, parent (index within the
        parent's thread), parent thread, item and thread."""
        logs = list(self._logs)
        position = {id(log): i for i, log in enumerate(logs)}
        cols = {k: [] for k in ("name", "start", "end", "parent", "parent_thread", "item", "thread")}
        for tid, log in enumerate(logs):
            n = len(log.start)
            parent = np.array(log.parent, dtype=np.int32)
            parent_thread = np.where(parent >= 0, tid, -1).astype(np.int32)
            for idx, (home, pidx) in log.adopted.items():
                parent[idx], parent_thread[idx] = pidx, position[id(home)]
            cols["name"].append(np.array(log.name, dtype=np.uint16))
            cols["start"].append(np.array(log.start, dtype=float))
            cols["end"].append(np.array(log.end, dtype=float))
            cols["parent"].append(parent)
            cols["parent_thread"].append(parent_thread)
            cols["item"].append(np.array(log.item, dtype=np.int32))
            cols["thread"].append(np.full(n, tid, dtype=np.int32))
        arrays = {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in cols.items()}
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, layers=np.array(self.names), **arrays)


def _columns(log: _ThreadLog):
    n = len(log.start)
    if not n:
        return np.zeros(0, np.uint16), np.zeros(0), np.zeros(0), np.zeros(0, np.int32)
    return (
        np.frombuffer(log.name, dtype=np.uint16, count=n),
        np.frombuffer(log.start, dtype=float, count=n),
        np.frombuffer(log.end, dtype=float, count=n),
        np.frombuffer(log.parent, dtype=np.int32, count=n),
    )


def _union_length(spans) -> float:
    total, reach = 0.0, -np.inf
    for lo, hi in sorted(spans):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def _descendants_of(name, parent, child_id: int, ancestor_id: int) -> int:
    """Spans named child_id that have an ancestor named ancestor_id."""
    found = 0
    for idx in np.flatnonzero(name == child_id):
        p = parent[idx]
        while p >= 0:
            if name[p] == ancestor_id:
                found += 1
                break
            p = parent[p]
    return found


# ---------------------------------------------------------------------------
# What is traced
# ---------------------------------------------------------------------------


def _rays_out(tracer, args, result, opened):
    if opened:
        tracer.count("polykernel.cone_generators.rays_out", len(result[1]))


def _verdict(tracer, args, result, opened):
    if opened:
        tracer.count("calculus.verdict." + result.verdict)


def _batch_points(tracer, args, result, opened):
    if opened:
        tracer.count("funcmodel.evaluate_batch.points", len(result))


def _ball_points(tracer, args, result, opened):
    if opened:
        tracer.count("dinioracle.l1_ball_points.points", len(result))


def _absorbed(tracer, args, result, opened):
    from subgrad import dinioracle

    plan = args[3] if len(args) > 3 else dinioracle.DEFAULT_PLAN
    drawn = plan.samples_per_shell + dinioracle._ANCHORS
    tracer.count("dinioracle.dini.absorbed", sum(s["absorbed"] for s in result.shells))
    tracer.count("dinioracle.dini.drawn", drawn * len(result.shells))


def _idle_canonicalize(args) -> bool:
    return args[0]._hrep is not None


def targets() -> list:
    from subgrad import calculus, cli, dinioracle, funcmodel, optimality, polykernel, rationals, simplex

    plain = {}
    t = [
        (rationals, "primitive", "rationals.primitive", plain),
        (rationals, "vdot", "rationals.vdot", plain),
        (rationals, "rref", "rationals.rref", plain),
        (polykernel.Polyhedron, "_canonicalize", "polykernel.canonicalize", {"skip": _idle_canonicalize}),
        (polykernel, "_hrep_to_vrep", "polykernel.hrep_to_vrep", plain),
        (polykernel, "_vrep_to_hrep", "polykernel.vrep_to_hrep", plain),
        (polykernel, "_cone_generators", "polykernel.cone_generators", {"after": _rays_out}),
        (polykernel, "minkowski_sum", "polykernel.minkowski_sum", plain),
        (polykernel, "star_difference", "polykernel.star_difference", plain),
        (polykernel, "contains_polyhedron", "polykernel.contains_polyhedron", plain),
        (polykernel, "gap", "polykernel.gap", plain),
        (simplex, "solve_lp", "simplex.solve_lp", plain),
        (simplex, "_pivot", "simplex.pivot", plain),
        (funcmodel.PAConvexFunction, "subdifferential_at", "funcmodel.subdifferential_at", plain),
        (funcmodel.PAConvexFunction, "eps_subdifferential_at", "funcmodel.eps_subdifferential_at", plain),
        (funcmodel, "dc_dini_subdifferential", "funcmodel.dc_erosion", plain),
        (funcmodel, "dc_dini_subdifferential_definitional", "funcmodel.dc_definitional", plain),
        (optimality, "certify_blunt_minimizer", "optimality.certify", plain),
        (optimality, "check_inclusion_28", "optimality.inclusion28", plain),
        (optimality, "normal_cone_feasible", "optimality.normal_cone_feasible", plain),
        (optimality, "_descent_direction", "optimality.descent_direction", plain),
        (optimality, "blunt_min_probe", "optimality.blunt_probe", plain),
        (dinioracle, "_l1_ball_points", "dinioracle.l1_ball_points", {"after": _ball_points}),
        (dinioracle, "dini_directional_estimate", "dinioracle.probe", {"after": _absorbed}),
        (dinioracle, "gap_continuity_probe", "dinioracle.gap_probe", plain),
        (cli, "corpus_run", "cli.corpus_run", plain),
        (cli, "run_scenario", "cli.run_scenario", {"new_item": True}),
    ]
    for cls in (funcmodel.PAConvexFunction, funcmodel.DCFunction, funcmodel.BlackBoxFunction):
        t.append((cls, "evaluate_batch", "funcmodel.evaluate_batch", {"after": _batch_points}))
    for name in ("calmness_probe", "eps_subgradient_membership_probe", "approx_regularity_probe"):
        t.append((dinioracle, name, "dinioracle.probe", plain))
    for name in ("check_sum_rule", "check_difference_formula", "check_inclusion_13",
                 "check_intersection_formula", "check_corollary11", "check_corollary12",
                 "local_min_necessary"):
        t.append((calculus, name, "calculus.check", {"after": _verdict}))
    return t


# Counts that must repeat exactly between two traced runs of one seed.
def deterministic_counts(raw: dict) -> dict:
    return {k: v for k, v in raw.items() if not k.endswith("_s")}


def layer_metrics(raw: dict, overhead_ratio: float) -> dict:
    """Per-layer metric values, named as in BENCHMARK.json."""
    out = {k: v for k, v in raw.items() if not k.startswith("_")}

    def ratio(num: str, den: str) -> float:
        d = raw.get(den, 0)
        return raw.get(num, 0) / d if d else 0.0

    out["polykernel.dd_runs_per_canonical"] = ratio("polykernel.dd_in_canonical", "polykernel.canonicalize.calls")
    out["simplex.pivots_per_lp"] = ratio("simplex.pivot.calls", "simplex.solve_lp.calls")
    out["dinioracle.dini.absorbed_ratio"] = ratio("dinioracle.dini.absorbed", "dinioracle.dini.drawn")
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def merge(raws) -> dict:
    total: Counter = Counter()
    worst = 0.0
    for r in raws:
        worst = max(worst, r.get("_self_total_s", 0.0))
        total.update({k: v for k, v in r.items() if k != "_self_total_s"})
    out = dict(total)
    out["_self_total_s"] = worst
    return out
