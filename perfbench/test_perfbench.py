"""Tests of the benchmark's own code: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import random
import re
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
import hostload  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, str(bench.SRC))

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _declared():
    return json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_same_seed_same_instances(workload):
    from netdes_cuts import core, engine

    w = bench.WORKLOADS[workload]

    def ladder():
        return [json.dumps(core.instance_to_dict(engine.generate_instance(**s.gen))) for s in w.specs]

    first, second = ladder(), ladder()
    assert first == second
    assert len(set(first)) == len(first)  # no instance repeats in a ladder

    def order(seed):
        rng = random.Random(seed)
        idx = list(range(len(w.specs)))
        rng.shuffle(idx)
        return idx

    assert order(5) == order(5)


def test_metric_names():
    declared = _declared()
    produced = set(spans.layer_metrics([], 1.0))
    assert {m["name"] for m in declared["per_layer"]} == produced
    e2e = {m["name"] for m in declared["end_to_end"]}
    assert "setup_s" in e2e
    assert e2e <= {"setup_s", "wall_s", "instance_s.p50", "instance_s.tail", "failed_frac",
                   "bound_lift", "peak_rss_mb"}
    for name in produced | e2e | set(bench.WORKLOADS):
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_tail_percentile_rule():
    assert bench.tail_percentile(list(range(10))) is None
    assert bench.tail_percentile(list(range(11))) == (9, 0)  # ten samples above the minimum
    values = list(range(40, 0, -1))
    p, value = bench.tail_percentile(values)
    assert (p, value) == (75, 30)
    assert sum(v > value for v in values) == 10
    p, value = bench.tail_percentile(list(range(32)))
    assert p == 68 and sum(v > value for v in range(32)) == 10


def test_self_time_on_synthetic_tree():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, -1, "i"),
        S("a", 1.0, 4.0, 0, "i"),
        S("a.x", 1.5, 2.0, 1, "i"),
        S("b", 5.0, 9.0, 0, "i"),
        S("b", 6.0, 7.0, 3, "i"),  # recursion: counted once in b's seconds
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.5, 0.5, 3.0, 1.0])
    m = spans.layer_metrics(tree, 10.0)
    assert m["trace.spans"] == 5 and m["trace.wall_s"] == 10.0


def test_deadline_charges_the_deadline():
    run = bench.RunResult("w", deadline_s=0.05, passes=1)
    t0, t1, result, reason = bench.timed_call(lambda: time.sleep(5), 0.05)
    assert (result, reason) == (None, "deadline") and t1 - t0 < 1.0
    run.calls["slow"] = [(t0, t1, reason)]
    t0, t1, result, reason = bench.timed_call(lambda: 1 / 0, 1.0)
    assert result is None and reason == "exception:ZeroDivisionError"
    t0, t1, result, reason = bench.timed_call(lambda: 7, 1.0)
    assert result == 7 and reason is None
    run.calls["fast"] = [(t0, t1, reason)]
    assert run.seconds(lambda a, b: b - a) == {"slow": 0.05, "fast": t1 - t0}


def test_load_correction():
    ref = hostload.REF_S
    clock = hostload.LoadClock()
    clock.samples = [(0.0, ref), (0.5, 2 * ref), (1.0, ref), (2.0, 4 * ref)]
    corrected = clock.corrector()
    # probes at 0.5 and 1.0 lie inside; the ones at 0.0 and 2.0 border it
    assert corrected(0.4, 1.1) == pytest.approx((0.7 - 3 * ref) * (1 + 0.5 + 1 + 0.25) / 4)
    assert hostload.LoadClock().corrector()(1.0, 3.0) == 2.0
    clock = hostload.LoadClock()
    clock.start()
    try:
        end = time.process_time() + 0.1
        while time.process_time() < end:
            pass
    finally:
        clock.stop()
    assert clock.samples


def test_wrappers_trace_and_restore():
    from netdes_cuts import engine, lp

    targets = spans.wrap_targets()
    originals = [owner.__dict__[attr] for owner, attr, *_ in targets]
    tracer = spans.Tracer()
    inst = engine.generate_instance(seed=1, nodes=3, density=0.9, facilities=(1,))
    with spans.installed(tracer, targets):
        res = engine.cutting_plane_loop(inst, engine.Config(max_rounds=2))
        # an exact solve nested in a float lp.solve counts as a fallback
        stalled = tracer.wrap(
            "lp.solve", lambda: lp.solve_lp(1, [({0: 1}, ">=", 1)], {0: 1}, exact=True),
            spans._flag(1, "exact"),
        )
        stalled()
    assert [owner.__dict__[attr] for owner, attr, *_ in targets] == originals
    m = spans.layer_metrics(tracer.spans, 1.0)
    assert m["engine.rounds"] == len(res.reports)
    assert m["engine.cuts_pooled"] == len(res.pool)
    assert m["lp.solve_calls"] >= len(res.reports) + 1
    assert m["lp.exact_fallbacks"] == 1
    assert all(s.end is not None and s.end >= s.start for s in tracer.spans)
