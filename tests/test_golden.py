"""Every pinned result of the loop, the benchmark's ladders and the command
line, checked against ``golden.json``.

A pin is a value recorded from a run: a bound, a count, or the sha256 of
cuts, verdicts or files.  A speed-up must leave each one as it is; a change
that alters one on purpose edits ``golden.json`` and lists the old and new
values in CHANGES.md.  Each test's docstring says what its pins cover.
"""

import hashlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from netdes_cuts import cli, engine, lp, oracle
from netdes_cuts.core import LinearCut, generate_instance
from netdes_cuts.engine import Config, Separation, cutting_plane_loop
from helpers import GOLDEN, untimed_report

BENCH = Path(__file__).resolve().parent.parent / "perfbench" / "bench.py"
# the families of the built-once candidates, whose cuts a loop builds on first admission
BUILT_ONCE = ("cutset", "partition", "threepartition", "threepartition-metric")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def built_once(gen: dict, config: Config) -> list:
    """Per built-once candidate of ``generate_instance(**gen)``: its
    family, flow and cap items in order, rhs and params."""
    fixed = Separation(generate_instance(**gen), config).fixed
    return [(cut.family, list(cut.flow.items()), list(cut.cap.items()), cut.rhs, cut.params)
            for forms in fixed.values() for cut in (form.cut for form in forms)]


def drop_the_next_pooled_cut(monkeypatch):
    """Turn away the next cut offered to a pool, as a duplicate would be."""
    add, dropped = engine.CutPool.add, []

    def dropping(pool, cut):
        if dropped:
            return add(pool, cut)
        dropped.append(cut)
        return False

    monkeypatch.setattr(engine.CutPool, "add", dropping)


def probe(pin: dict) -> dict:
    """What ``pin`` holds for a probe, from one loop of at most 10 rounds,
    with its stop reason and each round's LP start."""
    res = cutting_plane_loop(generate_instance(**pin["gen"]), Config(max_rounds=10))
    candidates = Counter()
    for rep in res.reports:
        candidates.update({name: counts["candidates"] for name, counts in rep.families.items()})
    values = {
        "stop": res.stop, "rounds": len(res.reports), "pooled": len(res.pool), "candidates": dict(candidates),
        "lp_iterations": sum(rep.lp_iterations for rep in res.reports),
        "lp_starts": [rep.lp_start for rep in res.reports], "lp_rows": [rep.lp_rows for rep in res.reports],
        "pool_digest": sha256(repr(sorted(cut.normalized_key() for cut in res.pool.cuts()))),
        "built_once_digest": sha256(repr(built_once(pin["gen"], Config()))),
    }
    if "exact_bound" in pin:
        values["exact_bound"] = str(res.exact_bound)
    else:
        values["final_bound"] = res.final_bound
    return values


@pytest.mark.parametrize("name", list(GOLDEN["probes"]))
def test_probe(name):
    """The probe stops with no-cuts at its bound, and every round after the
    first re-solves warm from the previous round's tableau.  The candidates
    are each family's violated candidates summed over the rounds.  The pool
    digest hashes the repr of the sorted pooled ``normalized_key()``s; the
    built-once digest covers the candidates no round admits too.  The
    16-node probe pins its float final bound to 1e-9, not ``exact_bound``,
    whose exact solve does not finish at 16 nodes (ROADMAP item 1)."""
    pin = GOLDEN["probes"][name]
    want = dict(pin, lp_starts=["cold"] + ["warm"] * (pin["rounds"] - 1))
    del want["gen"]
    if "final_bound" in want:
        want["final_bound"] = pytest.approx(want["final_bound"], abs=1e-9)
    assert probe(pin) == want


def ladder_pins(bench, workload, workdir: Path) -> dict:
    """What ``golden.json`` pins for a ladder of ``perfbench/bench.py``,
    from one run of each instance as the benchmark runs it (written,
    loaded, then ``bench.run_loop`` or ``bench.run_oracle``), with
    counters on the ``LinearCut``s built, the oracle's routing LPs and the
    capacity vectors it decides."""
    made, results, built_by_loops, verdicts, objectives, decided = [], [], [], [], [], []
    init, loop, validate = LinearCut.__init__, engine.cutting_plane_loop, engine.validate_cuts
    solve_lp_many, minima = lp.solve_lp_many, oracle._Routing.minima

    def counting(self, flow, cap, rhs, family, *args, **kwargs):
        made.append(family)
        init(self, flow, cap, rhs, family, *args, **kwargs)

    def looping(instance, config):
        first = len(made)
        results.append(loop(instance, config))
        built_by_loops.extend(family for family in made[first:] if family in BUILT_ONCE)
        return results[-1]

    def validating(cuts, instance, **kwargs):
        verdicts.append(validate(cuts, instance, **kwargs))
        return verdicts[-1]

    def pricing(n_vars, rows, objs, *args, **kwargs):
        objectives.append(len(objs))
        return solve_lp_many(n_vars, rows, objs, *args, **kwargs)

    def deciding(routing, scaled_caps, *args):
        decided.append(scaled_caps)
        return minima(routing, scaled_caps, *args)

    outcomes, report = [], workdir / "report.json"
    with pytest.MonkeyPatch.context() as mp:
        for owner, name, wrapper in ((LinearCut, "__init__", counting), (engine, "cutting_plane_loop", looping),
                                     (cli, "cutting_plane_loop", looping), (engine, "validate_cuts", validating),
                                     (lp, "solve_lp_many", pricing), (oracle._Routing, "minima", deciding)):
            mp.setattr(owner, name, wrapper)
        for spec, path in zip(workload.specs, bench.write_instances(workload, workdir)):
            if workload.kind == "loop":
                outcomes.append(bench.run_loop(path, report))
            else:
                outcomes.append(bench.run_oracle(path, spec.families))

    digests, keys, details, fixed = [], [], [], []
    for spec, outcome, res in zip(workload.specs, outcomes, results):
        digests.append(f"digest {workload.name} {spec.name} {outcome.digest()}\n")
        keys.append(f"{spec.name} {sha256(repr([cut.normalized_key() for cut in res.pool.cuts()]))}")
        pooled = [(cut.family, repr(cut.params)) for cut in res.pool.cuts()]
        rounds = [([(family, counts["candidates"], counts["admitted"], counts["skipped"])
                    for family, counts in rep.families.items()], rep.max_violation) for rep in res.reports]
        details.append(f"{spec.name} {sha256(repr((pooled, rounds)))}")
        fixed.append(built_once(spec.gen, Config(families=spec.families) if spec.families else Config()))
    pins = {
        "built_once": sum(map(len, fixed)),
        "built_by_loops": len(built_by_loops),
        "digests": sha256("".join(sorted(digests))),
        "pooled_keys": sha256("\n".join(keys)),
        "params_and_rounds": sha256("\n".join(details)),
        "built_once_digest": sha256("".join(map(repr, fixed))),
    }
    if workload.kind == "oracle":
        pins["verdicts"] = {
            "routing_lps": len(objectives), "objectives": sum(objectives),
            "counterexamples": sum(not ok for answer in verdicts for ok, _ in answer),
            "vectors_decided": len(decided), "digest": sha256("".join(map(repr, verdicts))),
        }
    return pins


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("perfbench_bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def ladders(bench, tmp_path_factory):
    """Each ladder's pins, from one run of its instances."""
    return {name: ladder_pins(bench, bench.WORKLOADS[name], tmp_path_factory.mktemp(name)) for name in GOLDEN["ladders"]}


@pytest.mark.parametrize("ladder", list(GOLDEN["ladders"]))
def test_ladder(ladders, ladder):
    """Every pin of a benchmark ladder.

    - ``digests`` hashes the sorted lines ``perfbench/run.py`` prints, each
      an instance's pool size and final bound.
    - Those pass cuts swapped at equal count: ``pooled_keys`` hashes each
      instance's pooled ``normalized_key()``s in admission order.
    - Keys pass a change of a cut's params (r, eta, facet_report) or of a
      round's counts: ``params_and_rounds`` hashes each pooled cut's
      ``(family, repr(params))`` and each round's per-family candidates,
      admitted and skipped counts with its ``max_violation``.
    - ``built_once`` and its digest cover every built-once candidate, and
      ``built_by_loops`` counts those a loop builds: it builds a
      candidate's cut only when the pool first admits its key.
    - ``verdicts``: criterion 11's check of every pooled cut with
      ``ybound=1``.  The 2,060 capacity vectors decided are 1,664 grid
      points and 396 maximal pure-capacity patterns, so a walk of the grid
      that skips, repeats or reorders a vector fails even where the
      verdicts agree.

    Each was recorded before a speed-up that had to keep it: ``digests``
    the cut-set separation memo (loop-5n's the integer-only
    ``LinearCut``); ``pooled_keys`` the per-relaxation cut-set pass
    (loop-5n's separators yielding ``(cut, violation)`` pairs);
    ``params_and_rounds`` admission on ints; ``built_once`` the partition
    family reading the cut-set relaxations; the verdict digest the oracle
    making its objective columns and unsplittable flows on first use; the
    vectors decided the odometer walk of the pure-capacity check.
    ``built_by_loops`` was recorded when the loop began to check a form's
    key against the pool before building its cut."""
    assert ladders[ladder] == GOLDEN["ladders"][ladder]


def test_a_ladder_pass_shrinks_no_partition(bench, tmp_path, monkeypatch):
    """One pass over the ``loop-4n`` and ``oracle-sweep`` ladders as their
    pins are taken, each instance's loop and a read of every built-once
    candidate's cut, shrinks no partition: every built-once cut is built
    from its form's ints, a three-partition winner's too.  The loops still
    build the pinned ``built_by_loops`` cuts."""
    from netdes_cuts import partition_cuts

    shrunk, shrink = [], partition_cuts.NodePairTable.shrink
    monkeypatch.setattr(partition_cuts.NodePairTable, "shrink",
                        lambda table, partition: shrunk.append(partition) or shrink(table, partition))
    counts = {}
    for name in ("loop-4n", "oracle-sweep"):
        del shrunk[:]
        built = ladder_pins(bench, bench.WORKLOADS[name], tmp_path / name)["built_by_loops"]
        counts[name] = (len(shrunk), built)
    assert counts == {"loop-4n": (0, 145), "oracle-sweep": (0, 29)}


def test_a_dropped_cut_fails_the_ladder_and_probe_pins(bench, tmp_path, monkeypatch):
    """One cut that a loop would pool, turned away, changes the pins that
    read the pools: a ladder's pooled keys and its params and round
    counts, and a probe's pool digest."""
    drop_the_next_pooled_cut(monkeypatch)
    pins, pinned = ladder_pins(bench, bench.WORKLOADS["loop-5n"], tmp_path), GOLDEN["ladders"]["loop-5n"]
    assert pins["pooled_keys"] != pinned["pooled_keys"] and pins["params_and_rounds"] != pinned["params_and_rounds"]
    drop_the_next_pooled_cut(monkeypatch)
    assert probe(GOLDEN["probes"]["10 nodes"])["pool_digest"] != GOLDEN["probes"]["10 nodes"]["pool_digest"]


def call(capsys, *argv) -> tuple[int, list[str], list[str]]:
    """``cli.main(argv)``: its exit code and its stdout and stderr lines."""
    capsys.readouterr()
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err.splitlines()


def generated(capsys, path: Path, gen: str) -> str:
    """``netdes-cuts gen`` with the arguments ``gen``, into ``path``."""
    assert call(capsys, "gen", *gen.split(), "--out", str(path))[0] == 0
    return str(path)


def oracle_says(capsys, tmp_path, pin: dict) -> tuple[int, list[str]]:
    """``netdes-cuts oracle`` on the pin's instance: its exit code and its
    first stdout line, or its stderr lines when it prints nothing."""
    instance = generated(capsys, tmp_path / "instance.json", pin["gen"])
    code, out, err = call(capsys, "oracle", "--instance", instance, "--ybound", pin["ybound"])
    return code, out[:1] or err


@pytest.mark.parametrize("name", list(GOLDEN["oracle"]))
def test_oracle(tmp_path, capsys, name):
    """The oracle prints the exact optimum over its grid.

    - s4-n4, four nodes and two facility sizes: it prices 5 flow parts on
      the routing LPs it solves.
    - s5-n3 and s35-n3: the instance scale exceeds the lcm of the
      capacities' and the total demand's denominators, 2 against 1 (seed
      5, demands 1, 3/2, 1/2) and 3 against 1 (seed 35).
    - s1103-n4 and s1101-n4, 4-node splittable: node cuts refute grid
      points before any routing LP.  No point of seed 1101's grid routes,
      and the oracle says so on stderr with exit code 1.
    - u29-n3 is routed unsplittably; its splittable copy has optimum 9/4.
    - u7-n4: the demands 1/3, 2/3 and 3/4 are not integral at the
      capacity scale 4."""
    pin = GOLDEN["oracle"][name]
    assert oracle_says(capsys, tmp_path, pin) == (pin.get("exit", 0), [pin["says"]])


def test_a_changed_oracle_answer_fails_the_optimum_pin(tmp_path, capsys, monkeypatch):
    """The optimum pin reads the oracle's answer through ``cli.main``'s
    output: an answer one higher prints another line."""
    real = cli.brute_force_ip

    def off_by_one(instance, **kwargs):
        value, point = real(instance, **kwargs)
        return value + 1, point

    monkeypatch.setattr(cli, "brute_force_ip", off_by_one)
    assert oracle_says(capsys, tmp_path, GOLDEN["oracle"]["s4-n3"]) == (0, ["optimum 31/6"])


@pytest.mark.parametrize("name", list(GOLDEN["dump_lp"]))
def test_dumped_relaxation(tmp_path, capsys, name):
    """``run --dump-lp`` writes the final relaxation's exact rows in LP
    format (``lp.LPModel.to_lp_format``).  Each sha256 was recorded before
    the routing LP made its rows' coefficients once and shared them across
    capacity vectors."""
    pin, dump = GOLDEN["dump_lp"][name], tmp_path / "relaxation.lp"
    instance = generated(capsys, tmp_path / "instance.json", pin["gen"])
    assert call(capsys, "run", "--instance", instance, "--rounds", "10", "--dump-lp", str(dump))[0] == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == pin["sha256"]


def test_run_report(tmp_path, capsys):
    """``run --report`` on the 4-node dump-LP instance: per-round bounds,
    per-family candidates, skipped and admitted counts, lp_rows,
    lp_iterations, lp_start, stop and inapplicable, hashed as JSON with
    sorted keys, timings aside.  Recorded before the parser was built once
    per process and the loader parsed each rational string once; a second
    call in one process writes the same report
    (``test_cli.test_one_process_answers_good_bad_good_alike``)."""
    instance, report = generated(capsys, tmp_path / "instance.json", GOLDEN["run_report"]["gen"]), tmp_path / "report.json"
    assert call(capsys, "run", "--instance", instance, "--rounds", "10", "--report", str(report))[0] == 0
    assert sha256(json.dumps(untimed_report(report), sort_keys=True)) == GOLDEN["run_report"]["sha256"]
