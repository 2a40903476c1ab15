import json

import pytest

from netdes_cuts.cli import main
from netdes_cuts.core import load_instance


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
    assert {"instance", "rounds", "final_bound", "oracle_optimum", "gap_closed"} <= set(report)
    assert report["rounds"], "at least one round recorded"
    for entry in report["rounds"]:
        assert {"round", "bound", "cuts", "max_violation", "exact_fallback"} <= set(entry)
    if report["oracle_optimum"] is not None:
        assert report["final_bound"] <= report["oracle_optimum"] + 1e-6
        assert report["gap_closed"] is None or 0 <= report["gap_closed"] <= 1 + 1e-9
    assert lp_path.read_text().startswith("Minimize")

    assert main(["oracle", "--instance", str(inst_path), "--ybound", "2"]) == 0
    out = capsys.readouterr().out
    assert "optimum" in out


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
        assert main([command, "--instance", str(bad)]) == 2
        assert "invalid instance" in capsys.readouterr().err


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
    ["run", "--instance", "{inst}", "--report", "{unwritable}"],
    ["run", "--instance", "{inst}", "--dump-lp", "{unwritable}"],
], ids=["eps-abc", "eps-0", "cuts", "rounds-0", "oracle-ybound", "run-missing", "oracle-missing",
        "ybound", "facilities", "density-inf", "report-unwritable", "dump-lp-unwritable"])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv):
    inst = tmp_path / "inst.json"
    main(["gen", "--seed", "3", "--nodes", "3", "--out", str(inst)])
    capsys.readouterr()
    paths = {"inst": inst, "missing": tmp_path / "missing.json", "out": tmp_path / "out.json",
             "unwritable": tmp_path / "no-such-dir" / "out.txt"}
    with pytest.raises(SystemExit) as exc:
        main([a.format(**paths) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error:" in err
    assert not (tmp_path / "out.json").exists()
