import dataclasses
import json
import math
import re
from fractions import Fraction

import pytest

from netdes_cuts.cli import main
from netdes_cuts.core import generate_instance, load_instance
from netdes_cuts.engine import FAMILIES, RelaxationError, RoundReport, cutting_plane_loop
from netdes_cuts.oracle import GRID_BUDGET
from helpers import untimed_report


def test_gen_run_oracle_roundtrip(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    report_path = tmp_path / "report.json"
    lp_path = tmp_path / "model.lp"

    assert main(["gen", "--seed", "3", "--nodes", "3", "--density", "0.9",
                 "--facilities", "1", "--out", str(inst_path)]) == 0
    inst = load_instance(inst_path)
    assert len(inst.nodes) == 3

    assert main([
        "run", "--instance", str(inst_path),
        "--cuts", "rc,cutset,flowcutset,metric,partition",
        "--rounds", "8", "--eps", "1/1000000",
        "--report", str(report_path),
        "--oracle-ybound", "2",
        "--dump-lp", str(lp_path),
    ]) == 0
    report = json.loads(report_path.read_text())
    assert {"instance", "rounds", "stop", "inapplicable", "final_bound", "oracle_optimum", "gap_closed"} <= set(report)
    assert report["inapplicable"] == ["metric"]
    assert report["rounds"], "at least one round recorded"
    for entry in report["rounds"]:
        assert list(entry) == [f.name for f in dataclasses.fields(RoundReport)]
        assert entry["lp_start"] == ("cold" if entry["round"] == 0 else "warm")
        assert entry["lp_rows"] > 0 and entry["lp_iterations"] > 0 and entry["lp_seconds"] > 0
        assert entry["build_seconds"] >= 0 and entry["point_seconds"] >= 0
        assert math.isfinite(entry["rationalization_error"]) and entry["rationalization_error"] >= 0
    if report["oracle_optimum"] is not None:
        assert report["final_bound"] <= report["oracle_optimum"] + 1e-6
        assert report["gap_closed"] is None or 0 <= report["gap_closed"] <= 1 + 1e-9
    assert lp_path.read_text().startswith("Minimize")

    capsys.readouterr()
    assert main(["oracle", "--instance", str(inst_path), "--ybound", "2"]) == 0
    out = capsys.readouterr().out
    assert "optimum" in out
    # the optimum is exact: an integer or a reduced fraction, never a float
    value = out.splitlines()[0].removeprefix("optimum ")
    assert re.fullmatch(r"-?\d+(/\d+)?", value), out
    assert float(Fraction(value)) == pytest.approx(report["oracle_optimum"], abs=1e-12)


def test_run_report_gives_stop_reason_and_family_counters(tmp_path):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--seed", "1", "--nodes", "4", "--density", "0.6", "--out", str(inst)]) == 0
    stops = {}
    for rounds in ("1", "50"):
        report_path = tmp_path / f"report-{rounds}.json"
        assert main(["run", "--instance", str(inst), "--rounds", rounds, "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        stops[rounds] = report["stop"]
        for entry in report["rounds"]:
            families = entry["families"]
            assert families and set(families) <= set(FAMILIES)
            for counts in families.values():
                assert set(counts) == {"seconds", "candidates", "skipped", "admitted"}
            assert sum(c["admitted"] for c in families.values()) == sum(entry["cuts"].values())
    assert stops == {"1": "round-cap", "50": "no-cuts"}


def test_run_names_the_families_that_do_not_apply(tmp_path, capsys):
    """``--cuts mf`` on a one-facility instance says that ``mf`` did not
    apply, in its output and its report, and runs no cut-set family."""
    inst, report_path = tmp_path / "inst.json", tmp_path / "report.json"
    assert main(["gen", "--seed", "2", "--nodes", "4", "--density", "0.6", "--facilities", "1",
                 "--out", str(inst)]) == 0
    capsys.readouterr()
    assert main(["run", "--instance", str(inst), "--cuts", "mf,partition", "--report", str(report_path)]) == 0
    assert "not applicable to this instance: mf" in capsys.readouterr().out.splitlines()
    report = json.loads(report_path.read_text())
    assert report["inapplicable"] == ["mf"]
    assert all(list(entry["families"]) == ["partition"] for entry in report["rounds"])


def test_one_node_instance_runs_and_has_optimum_zero(tmp_path, capsys):
    """An instance with no arc and no demand is valid: its relaxation is
    an LP without columns, whose optimum is 0, and so is its oracle's."""
    inst = tmp_path / "one.json"
    inst.write_text('{"nodes": [1], "arcs": [], "facilities": [{"capacity": "1", "cost": []}], "demands": []}')
    assert main(["run", "--instance", str(inst), "--rounds", "2"]) == 0
    assert "final bound 0 with 0 pooled cuts" in capsys.readouterr().out.splitlines()
    assert main(["oracle", "--instance", str(inst), "--ybound", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "optimum 0"


def test_a_three_node_instance_without_a_facility_runs(tmp_path, capsys):
    """Without a facility no partition has a capacity to cover, and the
    partition family yields nothing.  Generated seed 1 routes its demand
    on the existing capacity and stops at no-cuts; seeds 2 and 3 put
    demand on arcs without capacity, and their relaxation is infeasible;
    a document without demand runs to bound 0."""
    res = cutting_plane_loop(generate_instance(seed=1, nodes=3, facilities=()))
    assert (res.stop, res.final_bound, len(res.pool)) == ("no-cuts", 0.25, 0)
    for seed in (2, 3):
        with pytest.raises(RelaxationError, match="ended with status infeasible"):
            cutting_plane_loop(generate_instance(seed=seed, nodes=3, facilities=()))
    inst = tmp_path / "bare.json"
    inst.write_text('{"nodes": [1, 2, 3], "arcs": [{"tail": 1, "head": 2}, {"tail": 2, "head": 3}], '
                    '"facilities": [], "demands": []}')
    assert main(["run", "--instance", str(inst), "--rounds", "2"]) == 0
    assert "final bound 0 with 0 pooled cuts" in capsys.readouterr().out.splitlines()


def test_run_report_rounds_read_as_asdict_gives_them(tmp_path, monkeypatch):
    """The report's rounds are copied field by field; the JSON is byte for
    byte the one built with ``dataclasses.asdict``."""
    from netdes_cuts import cli

    results = []
    real_loop = cli.cutting_plane_loop

    def recording(*args):
        results.append(real_loop(*args))
        return results[-1]

    monkeypatch.setattr(cli, "cutting_plane_loop", recording)
    inst, report_path = tmp_path / "inst.json", tmp_path / "report.json"
    assert main(["gen", "--seed", "7", "--nodes", "4", "--density", "0.6", "--out", str(inst)]) == 0
    argv = ["run", "--instance", str(inst), "--report", str(report_path), "--oracle-ybound", "1"]
    assert main(argv) == 0
    text = report_path.read_text()
    report = json.loads(text)
    assert len(report["rounds"]) == 3 and report["gap_closed"] is not None
    expected = dict(report, rounds=[dataclasses.asdict(rep) for rep in results[0].reports])
    assert text == json.dumps(expected) + "\n"


def test_run_says_when_the_oracle_grid_routes_nothing(tmp_path, capsys):
    """``run --oracle-ybound`` on a grid where no installation routes the
    demand says so in the ``oracle`` command's line on stderr, exits 0 and
    reports no optimum and no gap closed."""
    inst, report_path = tmp_path / "inst.json", tmp_path / "report.json"
    assert main(["gen", "--seed", "4", "--nodes", "3", "--density", "0.9", "--facilities", "1,2",
                 "--out", str(inst)]) == 0
    capsys.readouterr()
    assert main(["run", "--instance", str(inst), "--oracle-ybound", "0", "--report", str(report_path)]) == 0
    assert capsys.readouterr().err == "no feasible installation within the grid\n"
    report = json.loads(report_path.read_text())
    assert report["oracle_optimum"] is None and report["gap_closed"] is None


def test_the_oracle_refuses_a_grid_over_its_budget(tmp_path, capsys):
    """A y-grid of more than ``GRID_BUDGET`` points is refused: ``oracle``
    exits 1 with the reason on stderr, and ``run --oracle-ybound`` says the
    oracle was skipped, exits 0 and reports no optimum and no gap closed."""
    inst, report_path = tmp_path / "inst.json", tmp_path / "report.json"
    assert main(["gen", "--seed", "1", "--nodes", "4", "--density", "0.6", "--facilities", "1,3",
                 "--out", str(inst)]) == 0
    capsys.readouterr()
    refusal = f"y-grid has more than {GRID_BUDGET} points"
    assert main(["oracle", "--instance", str(inst), "--ybound", "2"]) == 1
    assert capsys.readouterr() == ("", refusal + "\n")
    assert main(["run", "--instance", str(inst), "--oracle-ybound", "2", "--report", str(report_path)]) == 0
    assert capsys.readouterr().err == f"oracle skipped: {refusal}\n"
    report = json.loads(report_path.read_text())
    assert report["oracle_optimum"] is None and report["gap_closed"] is None


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for p in (a, b):
        main(["gen", "--seed", "11", "--nodes", "4", "--out", str(p)])
    assert a.read_text() == b.read_text()


def test_run_rejects_invalid_instance(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "nodes": [1, 2],
        "arcs": [{"tail": 1, "head": 2, "existing_capacity": "-1"}],
        "facilities": [{"capacity": "1", "cost": ["1"]}],
        "demands": [{"from": 1, "to": 2, "amount": "1"}],
        "flow_costs": "0",
    }))
    for command in ("run", "oracle"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--instance", str(bad)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == f"netdes-cuts: error: cannot load instance {bad}: arc (1,2) has negative existing capacity -1\n"


def test_a_second_call_builds_no_parser(tmp_path, monkeypatch):
    """``main`` builds its parsers (the command's and one per subcommand)
    on its first call in a process, and a later call only parses."""
    from netdes_cuts import cli

    built = []
    real_init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    cli._parser.cache_clear()
    inst = tmp_path / "inst.json"
    counts = []
    for argv in (["gen", "--seed", "1", "--nodes", "3", "--out", str(inst)],
                 ["run", "--instance", str(inst), "--rounds", "1"]):
        built.clear()
        assert main(argv) == 0
        counts.append(len(built))
    assert counts == [4, 0]


def test_one_process_answers_good_bad_good_alike(tmp_path, capsys):
    """A refused call leaves no state behind: good, bad and good argument
    lists in one process exit 0, 2 and 0, and both good calls print the
    same lines and write the same report, timings aside."""
    inst = tmp_path / "inst.json"
    assert main(["gen", "--seed", "3", "--nodes", "4", "--density", "0.6", "--facilities", "1,3",
                 "--out", str(inst)]) == 0
    capsys.readouterr()
    reports = [tmp_path / "first.json", tmp_path / "second.json"]
    calls = [["run", "--instance", str(inst), "--rounds", "10", "--report", str(reports[0])],
             ["run", "--instance", str(inst), "--rounds", "10", "--eps", "0"],
             ["run", "--instance", str(inst), "--rounds", "10", "--report", str(reports[1])]]
    codes, outs = [], []
    for argv in calls:
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        outs.append(capsys.readouterr().out)
    assert codes == [0, 2, 0]
    assert outs[0] == outs[2] and "final bound" in outs[0]
    assert untimed_report(reports[0]) == untimed_report(reports[1])


def test_unsplittable_gen_flag(tmp_path):
    path = tmp_path / "u.json"
    main(["gen", "--seed", "2", "--nodes", "3", "--mode", "disaggregated",
          "--unsplittable", "--out", str(path)])
    inst = load_instance(path)
    assert inst.unsplittable and inst.mode == "disaggregated"


@pytest.mark.parametrize("argv", [
    ["run", "--instance", "{inst}", "--eps", "abc"],
    ["run", "--instance", "{inst}", "--eps", "0"],
    ["run", "--instance", "{inst}", "--cuts", "nonsense"],
    ["run", "--instance", "{inst}", "--rounds", "0"],
    ["run", "--instance", "{inst}", "--oracle-ybound", "-1"],
    ["run", "--instance", "{missing}"],
    ["oracle", "--instance", "{missing}"],
    ["oracle", "--instance", "{inst}", "--ybound", "-1"],
    ["gen", "--seed", "1", "--nodes", "3", "--facilities", "1,x", "--out", "{out}"],
    ["gen", "--seed", "1", "--nodes", "3", "--density", "inf", "--out", "{out}"],
    ["gen", "--seed", "1", "--nodes", "3", "--facilities", "3,1", "--out", "{out}"],
    ["gen", "--seed", "1", "--nodes", "3", "--facilities", "1,1", "--out", "{out}"],
    ["gen", "--seed", "1", "--nodes", "3", "--unsplittable", "--out", "{out}"],
    ["run", "--instance", "{inst}", "--report", "{unwritable}"],
    ["run", "--instance", "{inst}", "--dump-lp", "{unwritable}"],
    ["run", "--instance", "{empty}"],
    ["oracle", "--instance", "{unknown_node}"],
    ["run", "--instance", "{float_cost}"],
    ["run", "--instance", "{duplicate_node}"],
    ["oracle", "--instance", "{duplicate_node}", "--ybound", "1"],
    ["run", "--instance", "{unsplittable_string}", "--rounds", "1"],
    ["oracle", "--instance", "{unsplittable_string}", "--ybound", "1"],
    ["run", "--instance", "{bool_capacity}", "--rounds", "1"],
    ["oracle", "--instance", "{bool_capacity}", "--ybound", "1"],
    ["run", "--instance", "{bool_amount}", "--rounds", "1"],
    ["oracle", "--instance", "{bool_cost}", "--ybound", "1"],
    ["run", "--instance", "{bool_existing_capacity}", "--rounds", "1"],
    ["oracle", "--instance", "{bool_flow_costs}", "--ybound", "1"],
    ["run", "--instance", "{repeated_demand}", "--rounds", "1"],
    ["oracle", "--instance", "{repeated_demand}", "--ybound", "1"],
    ["oracle", "--instance", "{string_cost}", "--ybound", "1"],
    ["oracle", "--instance", "{object_cost}", "--ybound", "1"],
    ["oracle", "--instance", "{object_flow_costs}", "--ybound", "1"],
    ["run", "--instance", "{list_document}", "--rounds", "1"],
    ["oracle", "--instance", "{list_document}", "--ybound", "1"],
    ["run", "--instance", "{string_document}", "--rounds", "1"],
    ["oracle", "--instance", "{string_document}", "--ybound", "1"],
], ids=["eps-abc", "eps-0", "cuts", "rounds-0", "oracle-ybound", "run-missing", "oracle-missing",
        "ybound", "facilities", "density-inf", "facilities-decreasing", "facilities-equal", "gen-unsplittable-aggregated",
        "report-unwritable", "dump-lp-unwritable", "instance-empty", "instance-unknown-node",
        "instance-float-cost", "run-duplicate-node", "oracle-duplicate-node", "run-unsplittable-string",
        "oracle-unsplittable-string", "run-bool-capacity", "oracle-bool-capacity", "run-bool-amount",
        "oracle-bool-cost", "run-bool-existing-capacity", "oracle-bool-flow-costs", "run-repeated-demand",
        "oracle-repeated-demand", "oracle-string-cost", "oracle-object-cost", "oracle-object-flow-costs",
        "run-list-document", "oracle-list-document", "run-string-document", "oracle-string-document"])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv):
    inst = tmp_path / "inst.json"
    main(["gen", "--seed", "3", "--nodes", "3", "--out", str(inst)])
    capsys.readouterr()
    paths = {"inst": inst, "missing": tmp_path / "missing.json", "out": tmp_path / "out.json",
             "unwritable": tmp_path / "no-such-dir" / "out.txt"}
    good = {"nodes": [1, 2], "arcs": [{"tail": 1, "head": 2}], "facilities": [{"capacity": "1", "cost": ["1"]}],
            "demands": [{"from": 1, "to": 2, "amount": "1"}]}
    malformed = {"empty": {}, "unknown_node": {**good, "arcs": [{"tail": 1, "head": 3}]},
                 "float_cost": {**good, "flow_costs": [1.5]},
                 "duplicate_node": {**good, "nodes": [1, 2, 2],
                                    "arcs": [{"tail": 1, "head": 2}, {"tail": 2, "head": 1}]},
                 # a string is not a boolean: "false" must not read as true
                 "unsplittable_string": {**good, "commodity_mode": "disaggregated", "unsplittable": "false"},
                 # nor is a boolean a number: true must not read as 1
                 "bool_capacity": {**good, "facilities": [{"capacity": True, "cost": ["1"]}]},
                 "bool_amount": {**good, "demands": [{"from": 1, "to": 2, "amount": True}]},
                 "bool_cost": {**good, "facilities": [{"capacity": "1", "cost": [True]}]},
                 "bool_existing_capacity": {**good, "arcs": [{"tail": 1, "head": 2, "existing_capacity": True}]},
                 "bool_flow_costs": {**good, "flow_costs": [True]},
                 # a JSON string or object must not be read by its characters or its keys
                 "string_cost": {**good, "arcs": [{"tail": 1, "head": 2}, {"tail": 2, "head": 1}],
                                 "facilities": [{"capacity": "1", "cost": "34"}]},
                 "object_cost": {**good, "arcs": [{"tail": 1, "head": 2}, {"tail": 2, "head": 1}],
                                 "facilities": [{"capacity": "1", "cost": {"2": "9", "3": "9"}}]},
                 "object_flow_costs": {**good, "arcs": [{"tail": 1, "head": 2}, {"tail": 2, "head": 1}],
                                       "flow_costs": {"5": "0", "7": "0"}},
                 # a pair listed twice has no one demand: the second amount must not replace the first
                 "repeated_demand": {**good, "demands": [{"from": 1, "to": 2, "amount": "1"},
                                                         {"from": 1, "to": 2, "amount": "2"}]},
                 # a document that is not a JSON object has no fields to read
                 "list_document": [1, 2], "string_document": "abc"}
    for name, data in malformed.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        main([a.format(**paths) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error:" in err
    assert not (tmp_path / "out.json").exists()


def test_failed_run_leaves_no_output_file_behind(tmp_path):
    """The writability check of --report and --dump-lp removes a file it
    created, so a run that then fails leaves none, and it leaves an
    existing file as it was."""
    report, dump = tmp_path / "r.json", tmp_path / "m.lp"
    argv = ["run", "--instance", str(tmp_path / "missing.json"), "--report", str(report), "--dump-lp", str(dump)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not report.exists() and not dump.exists()

    report.write_text("kept\n")
    before = report.stat().st_mtime_ns
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert report.read_text() == "kept\n" and report.stat().st_mtime_ns == before
    assert not dump.exists()


def test_an_instance_without_a_facility_that_cannot_route_exits_1_with_one_line(tmp_path, capsys):
    """A valid instance with no facility and no capacity has an infeasible
    relaxation and no feasible installation: ``run`` and ``oracle`` each
    say so in one line on stderr and exit 1, without a traceback."""
    inst = tmp_path / "stuck.json"
    inst.write_text('{"nodes": [1, 2], "arcs": [{"tail": 1, "head": 2}], "facilities": [], '
                    '"demands": [{"from": 1, "to": 2, "amount": "1"}]}')
    assert main(["run", "--instance", str(inst), "--rounds", "2"]) == 1
    err = capsys.readouterr().err
    assert err == "relaxation solve ended with status infeasible\n"
    assert main(["oracle", "--instance", str(inst), "--ybound", "1"]) == 1
    assert capsys.readouterr().err == "no feasible installation within the grid\n"
