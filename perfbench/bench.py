"""Workloads, per-instance deadlines and output checks of the benchmark.

Every workload is a fixed ladder of generated instances (fixed instance
seeds, in the spirit of the acceptance sweep), so parent and change are
timed on identical work and a stalling instance stays in every run.  The
workload seed only fixes the order in which the ladder runs.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import io
import json
import math
import os
import random
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

# criterion 11's batch shapes: (first seed, nodes, density, facilities, families, unsplittable)
_ORACLE_BATCHES = [
    (1001, 3, 0.9, (1,), ("rc", "cutset", "flowcutset", "metric", "partition"), False),
    (1101, 4, 0.5, (1,), ("rc", "cutset", "flowcutset", "partition"), False),
    (1141, 3, 0.7, (1, 2), ("mf", "metric", "partition"), False),
    (1176, 3, 0.9, (1,), ("rc", "cstrong", "cutset", "flowcutset"), True),
]


@dataclass(frozen=True)
class Spec:
    """One instance of a ladder: ``generate_instance`` arguments plus how to run it."""

    name: str
    gen: dict
    families: tuple = ()  # oracle instances only; loop instances use the CLI defaults


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "loop": cli run; "oracle": loop then validate_cuts
    deadline_s: float
    pass_s: float  # seconds budgeted per pass over the ladder; sets the passes per run
    specs: tuple

    def passes(self, seconds: float) -> int:
        """Passes for a budget of ``seconds``: the work of a run is fixed by its budget."""
        return max(1, int(seconds // self.pass_s))


def _loop_ladder(nodes, density, count):
    # odd instance seeds get two facility sizes, even ones a single size
    return tuple(
        Spec(f"n{nodes}-s{s}", dict(seed=s, nodes=nodes, density=density,
                                   facilities=(1, 3) if s % 2 else (1,)))
        for s in range(1, count + 1)
    )


def _oracle_ladder(per_batch):
    specs = []
    for first, nodes, density, facilities, families, unsplittable in _ORACLE_BATCHES:
        for s in range(first, first + per_batch):
            gen = dict(seed=s, nodes=nodes, density=density, facilities=facilities,
                       mode="disaggregated" if unsplittable else "aggregated",
                       unsplittable=unsplittable, flow_cost_prob=0.4)
            specs.append(Spec(f"c11-s{s}", gen, families))
    return tuple(specs)


# Deadlines sit well clear of the slowest instance that finishes at the seed
# commit (1.3 s, 4.9 s and 9 s, twice that while the host is busy) and below
# the time a stall takes (over 60 s before the float simplex gives up).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("loop-4n", "loop", 10.0, 15.0, _loop_ladder(4, 0.6, 40)),
        Workload("loop-5n", "loop", 30.0, 45.0, _loop_ladder(5, 0.5, 8)),
        Workload("oracle-sweep", "oracle", 60.0, 20.0, _oracle_ladder(6)),
    )
}


# -- deadlines --------------------------------------------------------------------


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM; a BaseException so the program's handlers let it through."""


@contextlib.contextmanager
def deadline(seconds: float):
    def fire(signum, frame):
        raise DeadlineExceeded()

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        try:
            signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    """What a finished instance produced."""

    bounds: list  # per-round LP bounds
    final_bound: float
    pooled: int
    status: str = "optimal"
    counterexamples: int = 0

    def digest(self) -> str:
        return f"pool={self.pooled} bound={round(self.final_bound, 9) + 0.0:.9f}"

    def lift(self) -> float:
        b0 = self.bounds[0] if self.bounds else self.final_bound
        return (self.final_bound - b0) / max(abs(b0), 1.0)

    def problems(self) -> list[str]:
        """Output checks for a finished instance."""
        out = []
        if self.status != "optimal":
            out.append(f"final LP status {self.status}")
        seq = list(self.bounds) + [self.final_bound]
        if not all(math.isfinite(b) for b in seq):
            out.append("non-finite bound")
        elif any(b < a - 1e-9 * max(1.0, abs(a)) for a, b in zip(seq, seq[1:])):
            out.append(f"bounds decrease: {seq}")
        if self.counterexamples:
            out.append(f"{self.counterexamples} counterexample(s)")
        return out


def timed_call(fn, deadline_s: float):
    """Run ``fn()`` under a deadline: (start, end, result, failure reason)."""
    t0 = time.perf_counter()
    try:
        with deadline(deadline_s):
            result = fn()
    except DeadlineExceeded:
        return t0, time.perf_counter(), None, "deadline"
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return t0, time.perf_counter(), None, f"exception:{type(exc).__name__}"
    return t0, time.perf_counter(), result, None


# -- the two ways an instance runs -------------------------------------------------


def run_loop(path: Path, report: Path) -> Outcome:
    """The user entry point, in-process: ``netdes-cuts run`` with default families."""
    from netdes_cuts import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--instance", str(path), "--rounds", "10", "--report", str(report)])
    if code != 0:
        raise RuntimeError(f"netdes-cuts run exited with {code}")
    data = json.loads(report.read_text())
    rounds = data["rounds"]
    return Outcome(
        bounds=[r["bound"] for r in rounds],
        final_bound=data["final_bound"],
        pooled=sum(sum(r["cuts"].values()) for r in rounds),
    )


def run_oracle(path: Path, families) -> Outcome:
    """Criterion 11's check: four loop rounds, then every pooled cut on the grid."""
    from netdes_cuts import core, engine

    instance = core.load_instance(path)
    res = engine.cutting_plane_loop(instance, engine.Config(families=families, max_rounds=4))
    cuts = res.pool.cuts()
    verdicts = engine.validate_cuts(cuts, instance, ybound=1)
    return Outcome(
        bounds=[r.bound for r in res.reports],
        final_bound=res.final_bound,
        pooled=len(cuts),
        status=res.final_solution.status,
        counterexamples=sum(1 for ok, _ in verdicts if not ok),
    )


# -- set-up ------------------------------------------------------------------------


def write_instances(workload: Workload, workdir: Path) -> list[Path]:
    """Generate the ladder and write one instance file per spec."""
    from netdes_cuts import core, engine

    workdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for spec in workload.specs:
        path = workdir / f"{spec.name}.json"
        core.save_instance(engine.generate_instance(**spec.gen), path)
        paths.append(path)
    return paths


def code_hash() -> str:
    """Hash of the package and benchmark sources: digests are compared per hash."""
    h = hashlib.sha256()
    for base in (SRC / "netdes_cuts", Path(__file__).resolve().parent):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


# -- statistics --------------------------------------------------------------------


def tail_percentile(values) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it.

    Returns ``(p, value)`` by nearest rank, or ``None`` below 11 samples.
    """
    n = len(values)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(values)[rank - 1]


# -- one run of a workload ----------------------------------------------------------


@dataclass
class RunResult:
    workload: str
    deadline_s: float
    passes: int = 0
    calls: dict = field(default_factory=dict)  # instance name -> (start, end, reason) per pass
    reasons: dict = field(default_factory=dict)  # instance name -> failure reasons
    digests: dict = field(default_factory=dict)  # instance name -> digest
    lifts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)  # failed output checks

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.calls.values())

    @property
    def failed(self) -> int:
        return sum(len(v) for v in self.reasons.values())

    @property
    def correct(self) -> bool:
        return not self.problems

    def raw_pass_seconds(self) -> list:
        """Uncorrected time of each pass, for comparison with the corrected figures."""
        return [
            sum(calls[p][1] - calls[p][0] for calls in self.calls.values())
            for p in range(self.passes)
        ]

    def seconds(self, corrected) -> dict:
        """Each instance's median time over the passes, ``corrected`` for host load.

        A pass that misses the deadline is charged exactly the deadline.
        """
        return {
            name: statistics.median(
                self.deadline_s if reason == "deadline" else corrected(t0, t1)
                for t0, t1, reason in calls
            )
            for name, calls in self.calls.items()
        }


def run_workload(workload: Workload, paths, seed: int, passes: int, tracer=None) -> RunResult:
    """Run the ladder ``passes`` times, each pass in a fresh seeded order."""
    result = RunResult(workload.name, workload.deadline_s, passes)
    report = paths[0].parent / "report.json"
    rng = random.Random(seed)
    for _ in range(passes):
        order = list(range(len(workload.specs)))
        rng.shuffle(order)
        for i in order:
            spec, path = workload.specs[i], paths[i]
            if tracer is not None:
                tracer.instance = spec.name
            # start every instance from a collected heap, as a fresh process would,
            # so collections left over from earlier instances are not charged to it
            gc.collect()
            if workload.kind == "loop":
                call = functools.partial(run_loop, path, report)
            else:
                call = functools.partial(run_oracle, path, spec.families)
            t0, t1, outcome, reason = timed_call(call, workload.deadline_s)
            if tracer is not None:
                tracer.abandon()
            if outcome is not None:
                if outcome.counterexamples:
                    reason = "counterexample"
                result.problems += [f"{spec.name}: {p}" for p in outcome.problems()]
                digest = outcome.digest()
                if result.digests.setdefault(spec.name, digest) != digest:
                    result.problems.append(f"{spec.name}: digest changed between passes")
                if not reason:
                    result.lifts.setdefault(spec.name, outcome.lift())
            if reason:
                result.reasons.setdefault(spec.name, []).append(reason)
            result.calls.setdefault(spec.name, []).append((t0, t1, reason))
    return result


def check_digests(result: RunResult, store: Path) -> None:
    """Compare digests with earlier runs of the same code; record new ones."""
    known = json.loads(store.read_text()) if store.exists() else {}
    seen = known.setdefault(result.workload, {})
    for name, digest in sorted(result.digests.items()):
        if seen.setdefault(name, digest) != digest:
            result.problems.append(f"{name}: digest {digest} differs from earlier run ({seen[name]})")
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)


def end_to_end(result: RunResult, workload: Workload, per_instance, setup_s: float,
               peak_rss_mb: float) -> dict:
    """The end-to-end metrics: name -> (value, unit)."""
    m = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_instance), "s"),
        "instance_s.p50": (statistics.median(per_instance), "s"),
    }
    tail = tail_percentile(per_instance)
    if tail is not None:
        m["instance_s.tail"] = (tail[1], "s")
    m["failed_frac"] = (result.failed / result.attempted, "ratio")
    m["bound_lift"] = (
        sum(result.lifts.get(s.name, 0.0) for s in workload.specs
            if s.name not in result.reasons) / len(workload.specs),
        "ratio",
    )
    m["peak_rss_mb"] = (peak_rss_mb, "MB")
    return m
