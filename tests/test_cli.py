"""Config schema, CSV formats, exit codes and byte-level determinism."""

from __future__ import annotations

import copy
import io
import json
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toroboris import cli
from toroboris.errors import SchemaError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SUBCOMMANDS = ("simulate", "drift", "compare", "converge", "theorem1", "check-field")


def base_config(tmp_path, **overrides):
    cfg = {
        "epsilon": 1e-3,
        "h": 0.04,
        "t_final": 40.0,
        "variant": "modified",
        "field": {"preset": "paper-toroidal", "a0": 0, "a1": 1, "a2": 1, "c": 0.1},
        "x0": [1 / 3, 1 / 4, 1 / 2],
        "v0": [2 / 5, 2 / 3, 1],
        "output": {"path": str(tmp_path / "out.csv")},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# parse_config


def test_parse_minimal_fills_defaults(tmp_path):
    cfg = cli.parse_config(json.dumps(base_config(tmp_path)))
    assert cfg["r_min"] == 1e-9
    assert cfg["c"] == 0.5
    assert cfg["output"]["stride"] == 0.5  # max(h, 0.5)
    assert cfg["budget_steps"] == 500000000


def test_parse_rejects_unknown_variant(tmp_path):
    raw = base_config(tmp_path, variant="boris")
    with pytest.raises(SchemaError) as err:
        cli.parse_config(json.dumps(raw))
    assert err.value.path == "/variant"


def test_parse_rejects_unknown_key(tmp_path):
    raw = base_config(tmp_path)
    raw["surprise"] = 1
    with pytest.raises(SchemaError) as err:
        cli.parse_config(json.dumps(raw))
    assert err.value.path == "/surprise"


def test_parse_rejects_nonfinite(tmp_path):
    raw = base_config(tmp_path, epsilon=float("nan"))
    with pytest.raises(SchemaError):
        cli.parse_config(json.dumps(raw).replace("NaN", "1e999"))


@pytest.mark.parametrize("key", ["epsilon", "budget_steps"])
def test_parse_rejects_booleans_as_numbers(tmp_path, key):
    with pytest.raises(SchemaError) as err:
        cli.parse_config(json.dumps(base_config(tmp_path, **{key: True})))
    assert err.value.path == f"/{key}"


def test_parse_rejects_bad_vector(tmp_path):
    raw = base_config(tmp_path, x0=[1, 2])
    with pytest.raises(SchemaError) as err:
        cli.parse_config(json.dumps(raw))
    assert err.value.path == "/x0"


def test_parse_rejects_deep_nesting():
    # json.loads raises RecursionError here, which used to exit 3
    with pytest.raises(SchemaError) as err:
        cli.parse_config("[" * 100_000 + "]" * 100_000)
    assert err.value.path == ""


def test_parse_serialize_round_trip(tmp_path):
    text = json.dumps(base_config(tmp_path))
    cfg1 = cli.parse_config(text)
    cfg2 = cli.parse_config(cli.serialize_config(cfg1))
    assert cfg1 == cfg2


def test_round_trip_keeps_optional_nulls(tmp_path):
    raw = base_config(tmp_path, against="drift", reference={"filtered": True})
    raw["output"]["summary_path"] = None
    cfg = cli.parse_config(json.dumps(raw))
    assert cfg["output"]["summary_path"] is None
    assert cfg["reference"] == {"h_factor": 0.05, "filtered": True}
    assert cli.parse_config(cli.serialize_config(cfg)) == cfg


# ---------------------------------------------------------------------------
# simulate


def test_simulate_golden_first_row(tmp_path, capsys):
    cfg = base_config(tmp_path)
    code = cli.cli_main(["simulate", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,v1,v2,v3,r,z,vpar,mu,energy"
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "0.33333333333333331"
    assert first[2] == "0.25"
    assert first[3] == "0.5"
    assert first[7] == "0.41666666666666669"
    assert first[8] == "0.5"
    # file reloads to the exact binary64 value of sqrt(x1^2 + x2^2)
    import math

    assert float(first[7]) == math.sqrt((1 / 3) ** 2 + 0.25**2)


def test_simulate_byte_identical_reruns(tmp_path):
    cfg = base_config(tmp_path)
    path = write_config(tmp_path, cfg)
    assert cli.cli_main(["simulate", "--config", path]) == 0
    first = (tmp_path / "out.csv").read_bytes()
    assert cli.cli_main(["simulate", "--config", path]) == 0
    assert (tmp_path / "out.csv").read_bytes() == first
    assert b"\r" not in first


def test_simulate_malformed_json_exit_2_no_output(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    code = cli.cli_main(["simulate", "--config", str(path)])
    assert code == 2
    assert not (tmp_path / "out.csv").exists()
    err = capsys.readouterr().err.strip()
    diag = json.loads(err)
    assert diag["error"] == "SchemaError"


def test_simulate_schema_error_exit_2(tmp_path, capsys):
    cfg = base_config(tmp_path, variant="boris")
    code = cli.cli_main(["simulate", "--config", write_config(tmp_path, cfg)])
    assert code == 2
    diag = json.loads(capsys.readouterr().err.strip())
    assert diag["path"] == "/variant"
    assert not (tmp_path / "out.csv").exists()


def test_simulate_runtime_abort_exit_3(tmp_path, capsys):
    # r_min above the starting radius minus drift: run aborts mid-flight
    cfg = base_config(tmp_path, r_min=0.416, variant="modified", t_final=400.0)
    code = cli.cli_main(["simulate", "--config", write_config(tmp_path, cfg)])
    assert code == 3
    diag = json.loads(capsys.readouterr().err.strip())
    assert diag["tag"] == "axis_singularity"
    assert (tmp_path / "out.csv").exists()  # partial trajectory is kept


def test_simulate_missing_file_exit_2(tmp_path, capsys):
    assert cli.cli_main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


# ---------------------------------------------------------------------------
# drift subcommand


def test_drift_csv(tmp_path):
    cfg = base_config(tmp_path, t_final=1000.0, c=1.0)
    cfg["output"]["stride"] = 100.0
    code = cli.cli_main(["drift", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0] == "t,r,z,vpar,rv_invariant"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert data.shape == (11, 5)
    rv = data[:, 4]
    assert np.max(np.abs(rv - rv[0])) <= 1e-9 * abs(rv[0])
    np.testing.assert_allclose(data[:, 1] * data[:, 3], rv, rtol=1e-15)


# ---------------------------------------------------------------------------
# compare subcommand


def test_compare_csv_mode_zero_errors(tmp_path, capsys):
    cfg = base_config(tmp_path)
    path = write_config(tmp_path, cfg)
    assert cli.cli_main(["simulate", "--config", path]) == 0
    a = tmp_path / "out.csv"
    b = tmp_path / "copy.csv"
    b.write_bytes(a.read_bytes())
    out = tmp_path / "err.csv"
    code = cli.cli_main(["compare", "--csv-a", str(a), "--csv-b", str(b), "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["max_err"] == {"r": 0.0, "z": 0.0, "vpar": 0.0}
    lines = out.read_text().splitlines()
    assert lines[0] == "t,err_r,err_z,err_vpar"


def test_compare_csv_mode_grid_mismatch_exit_3(tmp_path, capsys):
    cfg = base_config(tmp_path)
    path = write_config(tmp_path, cfg)
    assert cli.cli_main(["simulate", "--config", path]) == 0
    a = tmp_path / "out.csv"
    cfg2 = base_config(tmp_path, t_final=80.0)
    cfg2["output"]["path"] = str(tmp_path / "out2.csv")
    assert cli.cli_main(["simulate", "--config", write_config(tmp_path, cfg2, "c2.json")]) == 0
    code = cli.cli_main(
        ["compare", "--csv-a", str(a), "--csv-b", str(tmp_path / "out2.csv"),
         "--out", str(tmp_path / "err.csv")]
    )
    assert code == 3


def test_compare_config_mode_against_drift(tmp_path):
    cfg = base_config(tmp_path, against="drift", t_final=100.0)
    cfg["output"]["path"] = str(tmp_path / "err.csv")
    cfg["output"]["summary_path"] = str(tmp_path / "summary.json")
    code = cli.cli_main(["compare", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["against"] == "drift"
    assert 0 < summary["max_err"]["z"] < 0.05
    assert summary["steps"]["run"] == 2500


def test_compare_config_mode_against_reference(tmp_path):
    cfg = base_config(tmp_path, epsilon=1e-2, h=0.05, t_final=20.0, against="reference")
    cfg["output"]["summary_path"] = str(tmp_path / "summary.json")
    code = cli.cli_main(["compare", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["steps"]["reference"] == 40000
    assert summary["max_err"]["z"] < 0.05


def test_compare_needs_inputs(capsys):
    assert cli.cli_main(["compare"]) == 2


# ---------------------------------------------------------------------------
# converge / theorem1 / check-field


def test_converge_scaled_pairs_gate_passes(tmp_path):
    cfg = {
        "mode": "scaled_pairs",
        "pairs": [[1e-3, 0.04], [2.5e-4, 0.02]],
        "field": {"preset": "paper-toroidal"},
        "x0": [1 / 3, 1 / 4, 1 / 2],
        "v0": [2 / 5, 2 / 3, 1],
        "c": 0.5,
        "output": {"path": str(tmp_path / "report.json"), "csv_dir": str(tmp_path / "runs")},
    }
    code = cli.cli_main(["converge", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"]
    for slope in report["slopes"].values():
        assert 1.7 <= slope <= 2.3
    assert len(list((tmp_path / "runs").glob("*.csv"))) == 2
    # the serialized report round-trips losslessly
    assert json.loads(json.dumps(report)) == report


def test_converge_impossible_band_exit_4(tmp_path, capsys):
    cfg = {
        "mode": "scaled_pairs",
        "pairs": [[1e-2, 0.1], [2.5e-3, 0.05]],
        "field": {"preset": "paper-toroidal"},
        "x0": [1 / 3, 1 / 4, 1 / 2],
        "v0": [2 / 5, 2 / 3, 1],
        "order_band": [10.0, 11.0],
        "output": {"path": str(tmp_path / "report.json")},
    }
    code = cli.cli_main(["converge", "--config", write_config(tmp_path, cfg)])
    assert code == 4
    assert json.loads(capsys.readouterr().err.strip())["error"] == "GateFailure"
    assert (tmp_path / "report.json").exists()


def test_converge_rejects_inconsistent_pairs(tmp_path, capsys):
    cfg = {
        "mode": "scaled_pairs",
        "pairs": [[1e-3, 0.04], [2.5e-4, 0.025]],
        "field": {"preset": "paper-toroidal"},
        "x0": [1 / 3, 1 / 4, 1 / 2],
        "v0": [2 / 5, 2 / 3, 1],
        "output": {"path": str(tmp_path / "report.json")},
    }
    assert cli.cli_main(["converge", "--config", write_config(tmp_path, cfg)]) == 2


def test_theorem1_cli(tmp_path):
    cfg = {
        "eps_list": [1e-2, 1e-3],
        "c": 0.5,
        "field": {"preset": "paper-toroidal"},
        "x0": [1 / 3, 1 / 4, 1 / 2],
        "v0": [2 / 5, 2 / 3, 1],
        "output": {"path": str(tmp_path / "t1.json"), "csv_dir": str(tmp_path / "t1")},
    }
    code = cli.cli_main(["theorem1", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    report = json.loads((tmp_path / "t1.json").read_text())
    assert report["passed"]
    for ratio in report["ratios"][0].values():
        assert 10 / 3 <= ratio <= 30
    assert len(list((tmp_path / "t1").glob("*.csv"))) == 2


def test_check_field_cli(tmp_path, capsys):
    cfg = {
        "epsilon": 1e-3,
        "field": {"preset": "paper-toroidal"},
        "probes": {"count": 20, "seed": 3},
        "delta": 1e-6,
    }
    code = cli.cli_main(["check-field", "--config", write_config(tmp_path, cfg)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]
    names = {c["name"] for c in report["checks"]}
    assert names == {"grad_b", "epar_dot_E", "curl_E", "div_B_rel"}


def test_check_field_cli_writes_file(tmp_path):
    cfg = {
        "epsilon": 1e-3,
        "field": {"preset": "paper-toroidal"},
        "output": {"path": str(tmp_path / "field.json")},
    }
    assert cli.cli_main(["check-field", "--config", write_config(tmp_path, cfg)]) == 0
    assert json.loads((tmp_path / "field.json").read_text())["passed"]


def test_unknown_subcommand_exit_2():
    assert cli.cli_main(["frobnicate"]) == 2


def test_simulate_budget_exit_3_no_output(tmp_path, capsys):
    # the run's own 1000 steps exceed the budget; this used to run and exit 0
    cfg = base_config(tmp_path, budget_steps=999)
    assert cli.cli_main(["simulate", "--config", write_config(tmp_path, cfg)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "BudgetExceeded"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("simulate", "h", 5e-324),  # overflowed round() in ExperimentSpec
        ("compare", "h", 1e-300),  # stalled the output stride alignment
        ("drift", "dtau", 1e-300),  # stalled the RK4 loop: tau + dtau == tau
        ("compare", "dtau", 1e-300),
    ],
)
def test_tiny_steps_exceed_the_budget(tmp_path, capsys, command, key, value):
    cfg = base_config(tmp_path, **{key: value}, against="drift")
    assert cli.cli_main([command, "--config", write_config(tmp_path, cfg)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "BudgetExceeded"


def test_unrunnable_configs_exit_3_with_one_line(tmp_path, capsys):
    # 2**53 probes need 64 PiB (MemoryError); a1=1e308 overflows the field (numpy
    # used to warn on stderr and go on)
    for probes, field, error in [
        ({"count": 2**53}, {"preset": "paper-toroidal"}, "MemoryError"),
        ({"count": 3}, {"preset": "paper-toroidal", "a0": 1e308, "a1": 1e308}, "FloatingPoint"),
    ]:
        cfg = {"epsilon": 1e-3, "field": field, "probes": probes}
        assert cli.cli_main(["check-field", "--config", write_config(tmp_path, cfg)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and error in json.loads(lines[0])["error"]


# ---------------------------------------------------------------------------
# input holes: malformed configs and CSVs that used to end in a traceback
# (or ran silently) now exit 2 with a SchemaError at the offending path


def study_config(command, tmp_path):
    orbit = {"field": {"preset": "paper-toroidal"}, "x0": [1 / 3, 1 / 4, 1 / 2],
             "v0": [2 / 5, 2 / 3, 1]}
    output = {"path": str(tmp_path / "report.json")}
    if command == "converge":
        return {"mode": "scaled_pairs", "pairs": [[1e-3, 0.04], [2.5e-4, 0.02]], **orbit,
                "output": output}
    if command == "theorem1":
        return {"eps_list": [1e-2, 1e-3], **orbit, "output": output}
    if command == "check-field":
        return {"epsilon": 1e-3, "field": {"preset": "paper-toroidal"}, "probes": {"count": 5}}
    return base_config(tmp_path)


CSV = "t,r,z,vpar\n0,0.5,0.5,1\n0.5,0.5,0.5,1\n"

INPUT_HOLES = [
    # (subcommand, {"/pointer": value} patch or a --csv-a text, expected path)
    ("converge", {"/pairs/0": [None, 0.1]}, "/pairs/0/0"),
    ("converge", {"/pairs/0": [True, 0.1]}, "/pairs/0/0"),
    ("converge", {"/stride": "x"}, "/stride"),
    ("converge", {"/stride": -1}, "/stride"),
    ("converge", {"/order_band": [None, 1]}, "/order_band/0"),
    ("converge", {"/mode": "fixed_eps", "/epsilon": 1e-2, "/h_list": [None, 0.1]}, "/h_list/0"),
    ("converge", {"/output/csv_dir": 5}, "/output/csv_dir"),
    ("theorem1", {"/output/csv_dir": 5}, "/output/csv_dir"),
    ("theorem1", {"/eps_list": [None]}, "/eps_list/0"),
    ("check-field", {"/probes/r_range": 5}, "/probes/r_range"),
    ("check-field", {"/probes/r_range": [0.1, 0.2, 0.3]}, "/probes/r_range"),
    ("check-field", {"/probes/count": 0}, "/probes/count"),
    ("simulate", {"/epsilon": 10**400}, "/epsilon"),
    ("converge", {"/budget_steps": 10**400}, "/budget_steps"),
    ("check-field", {"/probes/count": 10**400}, "/probes/count"),
    ("compare", "t,r,z,vpar\n", "/{csv_a}"),
    ("compare", "t,r,z,vpar\n0,0.5,0.5,1\n0.5,0.5\n", "/{csv_a}"),
]


@pytest.mark.parametrize("command, patch, path", INPUT_HOLES)
def test_input_holes_exit_2_with_schema_path(tmp_path, capsys, command, patch, path):
    if isinstance(patch, str):
        csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
        csv_a.write_text(patch)
        csv_b.write_text(CSV)
        argv = ["compare", "--csv-a", str(csv_a), "--csv-b", str(csv_b),
                "--out", str(tmp_path / "err.csv")]
        path = path.format(csv_a=csv_a)
    else:
        cfg = study_config(command, tmp_path)
        for pointer, value in patch.items():
            *parents, key = pointer.strip("/").split("/")
            node = cfg
            for part in parents:
                node = node[int(part)] if isinstance(node, list) else node[part]
            node[int(key) if isinstance(node, list) else key] = value
        argv = [command, "--config", write_config(tmp_path, cfg)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.cli_main(argv)
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.err.splitlines()
    assert len(lines) == 1
    diag = json.loads(lines[0])
    assert (diag["error"], diag["path"]) == ("SchemaError", path)


# ---------------------------------------------------------------------------
# property: every subcommand, given any JSON value or a one-key mutation of a
# shipped config, exits 0, 2, 3 or 4 with at most one JSON line on stderr

# Work per example is bounded three ways: integers stay within +-300 (plus two
# beyond the binary64 range, which must be rejected), so no count or budget
# asks for real work; the mutated configs are the shipped ones with horizons
# cut to a few hundred steps and budget_steps=5000, which caps every pusher,
# reference and RK4 run a mutation can ask for; and check-field runs 5 probes.
# Text excludes "/" and "." so a mutated output path stays in the scratch
# directory the test runs in.
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-300, 300)
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.text(st.characters(exclude_characters="/."), max_size=6)
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=8,
)


def bounded_shipped_configs() -> dict:
    def load(name):
        return json.loads((CONFIGS / name).read_text())

    run = dict(load("simulate_eps1e-3_h0.04.json"), t_final=0.2, budget_steps=5000)
    check = load("check_field.json")
    check["probes"]["count"] = 5
    return {
        "simulate": run,
        "drift": run,
        "compare": run,
        "converge": dict(load("converge_scaled_pairs.json"), c=0.002, budget_steps=5000),
        "theorem1": dict(load("theorem1_eps_scaling.json"), c=1e-4, budget_steps=5000),
        "check-field": check,
    }


BOUNDED = bounded_shipped_configs()


def run_in_scratch(command, config_text):
    """cli_main in a fresh directory; returns (code, stderr, recorded warnings)."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(config_text)
        os.chdir(tmp)
        err = io.StringIO()
        try:
            with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), \
                    redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                code = cli.cli_main([command, "--config", path])
        finally:
            os.chdir(cwd)
    return code, err.getvalue(), caught


def assert_clean_exit(code, err, caught):
    assert code in (0, 2, 3, 4)
    lines = err.splitlines()
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict), err
    assert not caught, [str(w.message) for w in caught]


def key_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, prefix + (key,))


@st.composite
def mutated_configs(draw):
    command = draw(st.sampled_from(SUBCOMMANDS))
    cfg = copy.deepcopy(BOUNDED[command])
    path = draw(st.sampled_from(list(key_paths(cfg))))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if isinstance(node, dict) and draw(st.booleans()):
        del node[path[-1]]
    else:
        node[path[-1]] = draw(JSON_VALUES)
    return command, cfg


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_bounded_shipped_configs_run(command):
    # the mutation base itself runs end to end; theorem1's eps gate needs the
    # full horizon, so at the cut one it reports a gate failure (exit 4)
    code, err, caught = run_in_scratch(command, json.dumps(BOUNDED[command]))
    assert code == (4 if command == "theorem1" else 0)
    assert_clean_exit(code, err, caught)


@settings(max_examples=60, deadline=None)
@given(value=JSON_VALUES)
def test_any_json_value_exits_cleanly(value):
    """Any JSON value as any subcommand's config.

    Work is bounded by the values: integers stay within +-300 and containers
    hold at most 3 items, so nothing valid enough to run asks for real work.
    """
    text = json.dumps(value)
    for command in SUBCOMMANDS:
        assert_clean_exit(*run_in_scratch(command, text))


@settings(max_examples=150, deadline=None)
@given(case=mutated_configs())
def test_mutated_shipped_config_exits_cleanly(case):
    """One key of a shipped config replaced by any JSON value, or deleted.

    Work is bounded by the base configs (horizons of a few hundred steps,
    budget_steps=5000, which caps every pusher, reference and RK4 run a
    single mutation can ask for, and 5 field probes) and by the values as in
    test_any_json_value_exits_cleanly.
    """
    command, cfg = case
    assert_clean_exit(*run_in_scratch(command, json.dumps(cfg)))
