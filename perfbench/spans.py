"""Spans recorded around the package's public functions, and per-layer metrics.

Tracing lives entirely in the benchmark: each function is replaced, for the
length of a traced run, by a wrapper at the name its caller looks up (a
module global for ``from x import f`` callers, a class attribute for
methods).  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import contextmanager

# Cut families the loop can pool; anything else lands in engine.cuts.other.
FAMILIES = (
    "rc", "cstrong", "ksplit", "liftedcover", "cutset", "flowcutset", "mf",
    "metric", "partition", "threepartition", "threepartition-metric",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "instance", "info")

    def __init__(self, name, start, end, parent, instance, info=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index into Tracer.spans, or -1 for a root
        self.instance = instance
        self.info = info if info is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``instance`` tags every span opened after it is set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.instance = None

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` recording a span per call.

        ``before(args, kwargs)`` returns the span's info dict; ``after(info,
        args, result)`` adds to it once the call has returned.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            span = Span(name, clock(), None, stack[-1] if stack else -1, self.instance,
                        before(args, kwargs) if before else None)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
                if after:
                    after(span.info, args, result)
                return result
            finally:
                span.end = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def abandon(self) -> None:
        """Close spans left open by an interrupted call (a deadline)."""
        now = self.clock()
        for s in self.spans:
            if s.end is None:
                s.end = now
        self._stack.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, s.name, s.start, s.end, s.parent, s.instance, s.info]))
                fh.write("\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


# -- where each layer is entered ------------------------------------------------


def _flag(pos, key, default=False):
    """Read a boolean argument given by position or keyword."""

    def before(args, kwargs):
        value = kwargs[key] if key in kwargs else (args[pos] if len(args) > pos else default)
        return {key: bool(value)}

    return before


def _lp_result(info, args, res):
    info["status"] = res.status
    info["iters"] = res.iterations


def _count(info, args, res):
    info["n"] = len(res)


def _rows(info, args, model):
    info["rows"] = len(model.rows)


def _pool_add(info, args, added):
    if added:
        info["family"] = args[1].family


def _verdicts(info, args, verdicts):
    info["n"] = len(verdicts)
    info["bad"] = sum(1 for ok, _ in verdicts if not ok)


def wrap_targets():
    """(owner, attribute, span name, before, after) for every wrapped call.

    Callers that import a function by name hold their own reference, so
    each such name is wrapped where the caller looks it up.
    """
    from netdes_cuts import arc_cuts, cli, core, cutset_cuts, engine, lp, partition_cuts

    solve_lp = (_flag(4, "exact"), _lp_result)
    routing = (_flag(4, "exact", True), None)
    return [
        (cli, "main", "cli.main", None, None),
        (cli, "load_instance", "core.load_instance", None, None),
        (core.LinearCut, "violation", "core.violation", None, None),
        (cli, "cutting_plane_loop", "engine.cutting_plane_loop", None, None),
        (engine, "cutting_plane_loop", "engine.cutting_plane_loop", None, None),
        (engine, "separate_all", "engine.separate_all", None, _count),
        (engine.CutPool, "add", "engine.pool_add", None, _pool_add),
        (engine, "validate_cuts", "engine.validate_cuts", None, _verdicts),
        (engine, "build_relaxation", "lp.build_relaxation", None, _rows),
        (engine, "solve", "lp.solve", _flag(1, "exact"), _lp_result),
        (lp.LPSolution, "point", "lp.point", None, None),
        (engine, "check_feasible_routing", "lp.check_feasible_routing", *routing),
        (partition_cuts, "check_feasible_routing", "lp.check_feasible_routing", *routing),
        (engine, "solve_lp", "simplex.solve_lp", *solve_lp),
        (lp, "solve_lp", "simplex.solve_lp", *solve_lp),
        (engine, "hull_inequalities", "mir.hull_inequalities", None, None),
        (cutset_cuts, "build_cutset", "cutset_cuts.build_cutset", None, None),
        (cutset_cuts, "separate_flow_cutset", "cutset_cuts.separate_flow_cutset", None, None),
        (cutset_cuts, "separate_multifacility", "cutset_cuts.separate_multifacility", None, None),
        (cutset_cuts, "separate_commodity_subset", "cutset_cuts.separate_commodity_subset", None, None),
        (arc_cuts, "separate_residual_capacity", "arc_cuts.separate_residual_capacity", None, None),
        (arc_cuts, "separate_c_strong", "arc_cuts.separate_c_strong", None, None),
        (arc_cuts, "lifted_cover_cut", "arc_cuts.lifted_cover_cut", None, None),
        (partition_cuts, "shrink", "partition_cuts.shrink", None, None),
        (partition_cuts, "three_partition_cut", "partition_cuts.three_partition", None, None),
        (partition_cuts, "three_partition_metric_cut", "partition_cuts.three_partition", None, None),
        (partition_cuts, "separate_metric", "partition_cuts.separate_metric", None, None),
    ]


@contextmanager
def installed(tracer: Tracer, targets):
    """Swap every target for its traced wrapper; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, name, before, after in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, before, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics ----------------------------------------------------------


def _within(spans, i, name) -> bool:
    """Does span ``i`` have an ancestor called ``name``?"""
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans, wall_s: float) -> dict[str, float]:
    """Per-layer counts and times (seconds) over one traced pass of ``wall_s``.

    A ``_s`` figure sums the outermost spans of its name, so recursion is
    not counted twice; ``_calls`` counts every span.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i, s in enumerate(spans):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[i]
        if not _within(spans, i, s.name):
            secs[s.name] = secs.get(s.name, 0.0) + s.duration

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return secs.get(name, 0.0)

    lp_float = [s for s in spans if s.name == "simplex.solve_lp" and not s.info["exact"]]
    lp_exact = [s for s in spans if s.name == "simplex.solve_lp" and s.info["exact"]]
    oracle_float = [s for i, s in enumerate(spans) if s.name == "simplex.solve_lp"
                    and not s.info["exact"] and _within(spans, i, "engine.validate_cuts")]
    oracle_exact = [i for i, s in enumerate(spans) if s.name == "simplex.solve_lp"
                    and s.info["exact"] and _within(spans, i, "engine.validate_cuts")]
    fallbacks = sum(
        1 for s in lp_exact
        if s.parent >= 0 and spans[s.parent].name == "lp.solve" and not spans[s.parent].info["exact"]
    )
    separations = [s for s in spans if s.name == "engine.separate_all"]
    candidates = sum(s.info.get("n", 0) for s in separations)
    pooled = [s.info["family"] for s in spans if s.name == "engine.pool_add" and "family" in s.info]
    validations = [s for s in spans if s.name == "engine.validate_cuts"]

    m = {
        "simplex.float_calls": len(lp_float),
        "simplex.float_s": sum(s.duration for s in lp_float),
        "simplex.float_iters": sum(s.info.get("iters", 0) for s in lp_float),
        "simplex.float_stalled": sum(1 for s in lp_float if s.info.get("status") == "stalled"),
        "simplex.exact_calls": len(lp_exact),
        "simplex.exact_s": sum(s.duration for s in lp_exact),
        "simplex.exact_iters": sum(s.info.get("iters", 0) for s in lp_exact),
        "lp.build_calls": c("lp.build_relaxation"),
        "lp.build_s": t("lp.build_relaxation"),
        "lp.rows_max": max((s.info.get("rows", 0) for s in spans if s.name == "lp.build_relaxation"), default=0),
        "lp.solve_calls": c("lp.solve"),
        "lp.solve_s": t("lp.solve"),
        "lp.exact_fallbacks": fallbacks,
        "lp.point_s": t("lp.point"),
        "lp.routing_calls": c("lp.check_feasible_routing"),
        "lp.routing_s": t("lp.check_feasible_routing"),
        "cutset_cuts.build_s": t("cutset_cuts.build_cutset"),
        "cutset_cuts.flowcutset_calls": c("cutset_cuts.separate_flow_cutset"),
        "cutset_cuts.flowcutset_s": t("cutset_cuts.separate_flow_cutset"),
        "cutset_cuts.mf_calls": c("cutset_cuts.separate_multifacility"),
        "cutset_cuts.mf_s": t("cutset_cuts.separate_multifacility"),
        "cutset_cuts.subset_s": t("cutset_cuts.separate_commodity_subset"),
        "arc_cuts.rc_calls": c("arc_cuts.separate_residual_capacity"),
        "arc_cuts.rc_s": t("arc_cuts.separate_residual_capacity"),
        "arc_cuts.cstrong_calls": c("arc_cuts.separate_c_strong"),
        "arc_cuts.cstrong_s": t("arc_cuts.separate_c_strong"),
        "arc_cuts.lifted_s": t("arc_cuts.lifted_cover_cut"),
        "partition_cuts.shrink_s": t("partition_cuts.shrink"),
        "partition_cuts.threepart_s": t("partition_cuts.three_partition"),
        "partition_cuts.metric_calls": c("partition_cuts.separate_metric"),
        "partition_cuts.metric_s": t("partition_cuts.separate_metric"),
        "mir.hull_calls": c("mir.hull_inequalities"),
        "mir.hull_s": t("mir.hull_inequalities"),
        "core.load_s": t("core.load_instance"),
        "core.violation_calls": c("core.violation"),
        "core.violation_s": t("core.violation"),
        "engine.loop_s": t("engine.cutting_plane_loop"),
        "engine.rounds": len(separations),
        "engine.separate_s": t("engine.separate_all"),
        "engine.separate_self_s": self_s.get("engine.separate_all", 0.0),
        "engine.candidates": candidates,
        "engine.cuts_pooled": len(pooled),
        "engine.admit_ratio": len(pooled) / candidates if candidates else 0.0,
        "engine.validate_s": t("engine.validate_cuts"),
        "engine.cuts_checked": sum(s.info.get("n", 0) for s in validations),
        "engine.counterexamples": sum(s.info.get("bad", 0) for s in validations),
        "engine.oracle_float_lps": len(oracle_float),
        "engine.oracle_exact_lps": len(oracle_exact),
        "engine.oracle_infeasible_ratio": (
            sum(1 for s in oracle_float if s.info.get("status") == "infeasible") / len(oracle_float)
            if oracle_float else 0.0
        ),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "trace.wall_s": wall_s,
        "trace.spans": len(spans),
    }
    for fam in FAMILIES + ("other",):
        m[f"engine.cuts.{fam}"] = 0
    for fam in pooled:
        key = f"engine.cuts.{fam}" if fam in FAMILIES else "engine.cuts.other"
        m[key] += 1
    return m
