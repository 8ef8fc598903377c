"""Config schema, CSV formats, exit codes and byte-level determinism."""

from __future__ import annotations

import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import python_backend
from toroboris import _kernels, boris, cli, geometry, harness
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
    # the stride default is ExperimentSpec's, decided with the run's step count
    assert cfg["output"]["stride"] is None
    assert cfg["budget_steps"] == 500000000
    # the CLI adds no default of its own: the required keys alone give the spec
    # that the model and ExperimentSpec build from them
    raw = base_config(tmp_path, field={"preset": "paper-toroidal"})
    assert cli._run_spec(cli.parse_config(json.dumps(raw))) == harness.ExperimentSpec(
        geometry.ToroidalFieldModel(1e-3), tuple(raw["x0"]), tuple(raw["v0"]), h=0.04,
        t_final=40.0, variant="modified",
    )


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
    cfg2 = cli.parse_config(json.dumps(cfg1))
    assert cfg1 == cfg2


def test_round_trip_keeps_optional_nulls(tmp_path):
    raw = base_config(tmp_path, against="drift", reference={"filtered": True})
    raw["output"]["summary_path"] = None
    cfg = cli.parse_config(json.dumps(raw))
    assert cfg["output"]["summary_path"] is None
    assert cfg["reference"] == {"h_factor": 0.05, "filtered": True}
    assert cli.parse_config(json.dumps(cfg)) == cfg


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


@pytest.mark.parametrize("variant, moments", [("modified", 1), ("standard", 0)])
def test_a_dense_simulate_takes_mu_and_the_frame_once(monkeypatch, tmp_path, variant,
                                                       moments):
    # mu0 is the one magnetic_moment a simulate takes: the CSV's mu column has no
    # per-sample Python expression, and observables takes one frame, not potential's too
    calls, frames, inside = [], [], [False]
    moment, observables = harness.magnetic_moment, cli.observables
    monkeypatch.setattr(harness, "magnetic_moment", lambda *a: calls.append(a) or moment(*a))

    def observed(traj):
        inside[0] = True
        try:
            return observables(traj)
        finally:
            inside[0] = False

    monkeypatch.setattr(cli, "observables", observed)
    for module in (harness, geometry):
        monkeypatch.setattr(module, "frame",
                            lambda *a, f=module.frame: frames.append(inside[0]) or f(*a))
    cfg = base_config(tmp_path, variant=variant, t_final=4.0)
    cfg["output"]["stride"] = 0.04
    assert cli.cli_main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 102
    assert len(calls) == moments
    assert frames.count(True) == 1


def test_simulate_malformed_json_exit_2_no_output(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    code = cli.cli_main(["simulate", "--config", str(path)])
    assert code == 2
    assert not (tmp_path / "out.csv").exists()
    err = capsys.readouterr().err.strip()
    diag = json.loads(err)
    assert diag["error"] == "SchemaError"
    assert diag["message"].startswith("invalid JSON: ")  # not ": invalid JSON"


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


def test_non_finite_step_aborts_as_runaway(tmp_path, capsys):
    # c=1e300 throws x^1 past 1e296, so r*r overflows and the first step is NaN;
    # the runaway guard used to let a NaN step through
    cfg = base_config(tmp_path, variant="standard", t_final=0.4, against="drift",
                      field={"preset": "paper-toroidal", "c": 1e300})
    assert cli.cli_main(["simulate", "--config", write_config(tmp_path, cfg)]) == 3
    diag = json.loads(capsys.readouterr().err)
    assert (diag["error"], diag["tag"], diag["steps"]) == ("RuntimeDomainError", "sanity_guard", 0)
    assert len((tmp_path / "out.csv").read_text().splitlines()) == 2  # header and t = 0
    # at eps 1e-160 and 1e-300, (h/2)|B| squared overflows in the first step
    for eps in (1e-160, 1e-300):
        cfg = base_config(tmp_path, variant="standard", t_final=0.4, against="drift", epsilon=eps)
        path = write_config(tmp_path, cfg)
        assert cli.cli_main(["compare", "--config", path]) == 3
        diag = json.loads(capsys.readouterr().err)
        assert diag == {"error": "RuntimeDomainError", "message": "run aborted: sanity_guard",
                        "tag": "sanity_guard"}
    # simulate aborts too, after the t = 0 row: its mu, |v x e|^2 / |B| / 2, is
    # representable where |B|^3 is not.  So is the modified run's mu0, which
    # takes the form |v x e|^2 / (2 |B|) where 0.5 |v x B|^2 / |B|**3 overflows
    # (libm pow past |B| ~ 5.6e102, a square in |v x B|^2 past ~1.3e154).
    out = tmp_path / "out.csv"
    for eps in (1e-104, 1e-160, 1e-300):
        for variant in boris.VARIANTS:
            out.unlink(missing_ok=True)
            cfg = base_config(tmp_path, variant=variant, t_final=0.4, epsilon=eps)
            assert cli.cli_main(["simulate", "--config", write_config(tmp_path, cfg)]) == 3
            assert json.loads(capsys.readouterr().err) == {
                "error": "RuntimeDomainError", "message": "run aborted: sanity_guard",
                "tag": "sanity_guard", "steps": 0}, (eps, variant)
            assert len(out.read_text().splitlines()) == 2
    # from |B| ~ 9e307 on 2 |B| overflows, so the CSV's mu halves last: here |B|
    # is about 1.66e308 and the t = 0 row's mu subnormal
    cfg = base_config(tmp_path, variant="standard", t_final=0.4, epsilon=1.5e-308,
                      x0=[2, 1, 0.5])
    assert cli.cli_main(["simulate", "--config", write_config(tmp_path, cfg)]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "RuntimeDomainError", "message": "run aborted: sanity_guard",
        "tag": "sanity_guard", "steps": 0}
    header, row = out.read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["mu"] == "4.3147117310341416e-309"


@pytest.mark.parametrize(
    "command, field, against",
    [
        ("simulate", {"c": 1e308}, "reference"),
        ("compare", {"c": 1e308}, "drift"),
        ("simulate", {"a2": 1e308}, "reference"),
    ],
)
def test_field_overflow_raises_where_it_meets_the_frame(tmp_path, capsys, command, field, against):
    # E_r = c z or b = ... + a2 z^2 overflows to inf silently, like |B| and b / r;
    # at x0 = (3, 0, 2) a frame component is 0, so inf * 0 is the first error
    cfg = base_config(tmp_path, x0=[3, 0, 2], against=against,
                      field={"preset": "paper-toroidal", **field})
    assert cli.cli_main([command, "--config", write_config(tmp_path, cfg)]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "FloatingPointError", "message": "invalid value encountered in multiply"
    }


def test_simulate_missing_file_exit_2(tmp_path, capsys):
    assert cli.cli_main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


def test_failed_rename_leaves_no_temp_file(monkeypatch, tmp_path, capsys):
    # the trajectory is written, then the rename fails
    def refuse(src, dst):
        raise OSError(f"cannot rename {src} to {dst}")

    monkeypatch.setattr(cli.os, "replace", refuse)
    out = tmp_path / "out.csv"
    cfg = base_config(tmp_path, t_final=4.0)
    assert cli.cli_main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    assert not out.exists()
    assert list(tmp_path.glob("*.tmp-*")) == []


def test_failed_chunk_source_leaves_no_file(tmp_path):
    # the header is written, then formatting the first rows fails
    def chunks():
        yield b"t,x\n"
        raise FloatingPointError("overflow while formatting")

    with pytest.raises(FloatingPointError):
        cli._atomic_write(str(tmp_path / "out.csv"), chunks())
    assert list(tmp_path.iterdir()) == []


def csv_write_peak(tmp_path, chunks: int) -> int:
    """Peak traced bytes while a 12-column CSV of chunks full chunks of rows is written."""
    columns = np.random.default_rng(chunks).normal(size=(12, chunks * cli._CHUNK_ROWS))
    tracemalloc.start()
    try:
        cli._atomic_write(str(tmp_path / f"{chunks}.csv"), cli._columns_csv("h", *columns))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("python", [False, True], ids=["loaded", "python"])
def test_csv_writer_memory_does_not_grow_with_the_rows(tmp_path, python):
    # each chunk is written as it is formatted: four times the rows, the same peak
    with python_backend() if python else nullcontext():
        _kernels.compiled_kernel()  # loaded before the first measurement
        peaks = {n: csv_write_peak(tmp_path, n) for n in (16, 64)}
    one_chunk = (tmp_path / "64.csv").stat().st_size / 64
    assert peaks[64] <= peaks[16] + one_chunk, (peaks, one_chunk)


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


@pytest.mark.parametrize("flags", [["--out", "x.csv", "--summary", "x.json"],
                                   ["--csv-a", "a.csv", "--csv-b", "b.csv", "--out", "x.csv"]],
                         ids=["out-summary", "csv-mode"])
def test_compare_config_rejects_the_csv_modes_flags(tmp_path, capsys, flags):
    # with --out and --summary it wrote the config's output and printed the
    # summary; with --csv-a and --csv-b it ran CSV mode and never read the config
    (tmp_path / "a.csv").write_text(CSV)
    (tmp_path / "b.csv").write_text(CSV)
    cfg = write_config(tmp_path, base_config(tmp_path, t_final=4.0, against="drift"))
    argv = ["compare", "--config", cfg, *[str(tmp_path / f) if f[0] != "-" else f for f in flags]]
    assert cli.cli_main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "ConfigError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv", "config.json"]


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
    # both runs sample every 0.4: 101 and 201 samples (it read "differ by up to inf")
    diag = json.loads(capsys.readouterr().err)
    assert diag == {"error": "GridMismatch", "message": "the series have 101 and 201 samples"}


@pytest.mark.parametrize("stride", [None, 0.4])
def test_one_config_samples_on_one_grid(tmp_path, capsys, stride):
    # simulate and drift of one config share their t column, so CSV compare of the
    # two writes what compare against the drift writes; drift sampled every 0.5
    # by default here, and compare --csv-a/--csv-b exited 3
    cfg = base_config(tmp_path, against="drift")
    cfg["output"].update(stride=stride, path=str(tmp_path / "sim.csv"))
    assert cli.cli_main(["simulate", "--config", write_config(tmp_path, cfg)]) == 0
    cfg["output"]["path"] = str(tmp_path / "drift.csv")
    assert cli.cli_main(["drift", "--config", write_config(tmp_path, cfg)]) == 0

    def t_column(name):
        return [line.split(",")[0] for line in (tmp_path / name).read_text().splitlines()]

    assert t_column("sim.csv") == t_column("drift.csv")
    assert len(t_column("sim.csv")) == 102  # the header and 0, 0.4, ..., 40
    argv = ["compare", "--csv-a", str(tmp_path / "sim.csv"), "--csv-b",
            str(tmp_path / "drift.csv"), "--out", str(tmp_path / "csv_err.csv")]
    assert cli.cli_main(argv) == 0
    cfg["output"]["path"] = str(tmp_path / "config_err.csv")
    assert cli.cli_main(["compare", "--config", write_config(tmp_path, cfg)]) == 0
    assert (tmp_path / "csv_err.csv").read_bytes() == (tmp_path / "config_err.csv").read_bytes()


@pytest.mark.parametrize("command", ["simulate", "drift", "compare", "converge", "theorem1"])
def test_a_stride_that_is_not_whole_steps_exits_2(tmp_path, capsys, command):
    # 0.3 is 7.5 steps of 0.04, and 600 steps of theorem1's 5e-4 that do not
    # divide its 2000; each used to be rounded to another grid
    cfg = study_config(command, tmp_path)
    if command == "theorem1":
        cfg.update(eps_list=[1e-2], c=0.01, stride=0.3)
        h = 0.0005
    elif command == "converge":
        cfg.update(c=0.02, stride=0.3)
        h = 0.04
    else:
        cfg["output"]["stride"] = 0.3
        h = 0.04
    assert cli.cli_main([command, "--config", write_config(tmp_path, cfg)]) == 2
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "ConfigError"
    assert diag["message"].startswith(f"output stride 0.3 must be a whole number of steps h={h} ")


def test_a_study_checks_every_grid_before_it_runs(tmp_path, capsys, monkeypatch):
    # the base grid is 0.4 (10 steps of 0.04 in 30), 13.3 steps of 0.03: exit 2
    # before any pusher run (the first point used to run, and the second on 0.3)
    calls = []
    integrate = harness.integrate
    monkeypatch.setattr(harness, "integrate", lambda *a, **k: calls.append(a) or integrate(*a, **k))
    cfg = study_config("converge", tmp_path)
    cfg.update(mode="fixed_eps", epsilon=1e-2, h_list=[0.04, 0.03], c=0.012)
    del cfg["pairs"]
    assert cli.cli_main(["converge", "--config", write_config(tmp_path, cfg)]) == 2
    assert "output stride 0.4 must be a whole number of steps h=0.03 " in capsys.readouterr().err
    assert calls == []


def test_simulate_refuses_t_final_a_fraction_of_a_step_off(tmp_path, capsys, monkeypatch):
    # 1e8 steps of 1e-6 and 0.05 of one: it used to run 1e8 steps, to t = 100
    calls = []
    monkeypatch.setattr(harness, "integrate", lambda *a, **k: calls.append(a))
    cfg = base_config(tmp_path, h=1e-6, t_final=100.00000005, c=1.0)
    assert cli.cli_main(["simulate", "--config", write_config(tmp_path, cfg)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigError", "message": "t_final=100.00000005 must be a multiple (>= 2) of h=1e-06",
    }
    assert calls == [] and not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("eps_list, c, code, error", [
    # 1e15 steps at 1e-7: found after two reference runs, of 1e5 and 1e7 steps
    ([1e-2, 1e-3, 1e-7], 0.5, 3, "BudgetExceeded"),
    # c/eps at 3e-3 is 2222.2 steps of 0.05 eps
    ([1e-2, 3e-3], 0.1, 2, "SchemaError"),
])
def test_theorem1_checks_every_entry_before_it_runs_any(
    tmp_path, capsys, monkeypatch, eps_list, c, code, error
):
    calls = []
    integrate = harness.integrate
    monkeypatch.setattr(harness, "integrate", lambda *a, **k: calls.append(a) or integrate(*a, **k))
    cfg = study_config("theorem1", tmp_path)
    cfg.update(eps_list=eps_list, c=c)
    assert cli.cli_main(["theorem1", "--config", write_config(tmp_path, cfg)]) == code
    assert json.loads(capsys.readouterr().err)["error"] == error
    assert calls == [] and not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command, overrides, message", [
    # 8e6 reference steps of 5e-5; the run's own 10000 steps are within budget
    pytest.param("compare", {"t_final": 400.0, "budget_steps": 10_000},
                 "reference needs 8000000 steps, above the budget of 10000;",
                 id="compare-reference"),
    pytest.param("compare", {"t_final": 400.0, "against": "drift", "dtau": 1e-7,
                             "budget_steps": 10**6},
                 "slow-system RK4 needs 4000000 steps, above the budget of 1000000;",
                 id="compare-drift"),
    # the first entry's whole 1e7-step reference used to run first
    pytest.param("theorem1", {"eps_list": [1e-3, 2e-3], "dtau": 8e-10},
                 "slow-system RK4 needs 625000000 steps, above the budget of 500000000;",
                 id="theorem1-drift"),
    # 1e15 steps of 0.05 eps at 1e-7; theorem1 has no h key, which the message named
    pytest.param("theorem1", {"eps_list": [1e-2, 1e-3, 1e-7], "c": 0.5},
                 "run needs 1000000000000000 steps, above the budget of 500000000; its step "
                 "is 0.05*epsilon=5e-09: ", id="theorem1-run"),
    # RK4 counts of 33500 and 34000 steps: only the last pair's is over budget
    pytest.param("converge", {"c": 0.1, "dtau": 3e-6, "budget_steps": 33_750},
                 "slow-system RK4 needs 34000 steps, above the budget of 33750;",
                 id="converge-last-pair"),
])
def test_every_budget_is_checked_before_the_first_step(tmp_path, capsys, monkeypatch, command,
                                                        overrides, message):
    # each used to exit 3 only after the main run, or every run before the last
    calls = []
    integrate = harness.integrate
    monkeypatch.setattr(harness, "integrate", lambda *a, **k: calls.append(a) or integrate(*a, **k))
    cfg = study_config(command, tmp_path)
    cfg.update(overrides)
    assert cli.cli_main([command, "--config", write_config(tmp_path, cfg)]) == 3
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "BudgetExceeded" and diag["message"].startswith(message)
    assert calls == []


def test_theorem1_reference_takes_its_whole_nominal_steps(tmp_path):
    # c/eps is 40 steps of 0.05 eps, and dt_out / (0.05 eps) lands an ulp above 40:
    # its ceil made the reference 41 steps of 0.00180488, which budget_steps 40 refused
    eps, c = 0.037, 0.002738
    spec = harness.ExperimentSpec(harness.ToroidalFieldModel(eps), (1 / 3, 1 / 4, 1 / 2),
                                  (2 / 5, 2 / 3, 1), h=0.05 * eps, t_final=c / eps,
                                  variant="standard", c=c)
    assert spec.reference_stride == spec.sample_stride == 40
    cfg = study_config("theorem1", tmp_path)
    cfg.update(eps_list=[eps], c=c, budget_steps=40)
    assert cli.cli_main(["theorem1", "--config", write_config(tmp_path, cfg)]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["steps"] == [40]


@pytest.mark.parametrize("line, column, value", [
    pytest.param(2, "r", "nan", id="2-r"),
    pytest.param(3, "t", "nan", id="3-t"),
    # a column compare does not read is checked all the same (it used to exit 0)
    pytest.param(2, "mu", "abc", id="2-mu-abc"),
    pytest.param(3, "mu", "", id="3-mu-empty"),
])
def test_compare_csv_mode_rejects_nan_naming_file_and_line(tmp_path, capsys, line, column, value):
    rows = [["0", "0.5", "0.5", "1", "0"], ["0.5", "0.5", "0.5", "1", "0"]]
    rows[line - 2][["t", "r", "z", "vpar", "mu"].index(column)] = value
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("t,r,z,vpar,mu\n" + "".join(",".join(row) + "\n" for row in rows))
    b.write_text(CSV)
    argv = ["compare", "--csv-a", str(a), "--csv-b", str(b), "--out", str(tmp_path / "e.csv")]
    code = cli.cli_main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    diag = json.loads(captured.err)
    assert diag["error"] == "SchemaError"
    assert f"{a}: line {line}: " in diag["message"]
    assert not (tmp_path / "e.csv").exists()


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
    assert summary["sigma_min"] == pytest.approx(0.9996463583457076, rel=1e-12)
    assert summary["warnings"] == []


# (t, sigma) of every sample below the 0.1 threshold in a standard run at
# eps=1e-3, h=0.04, sampled every step to t=20
STANDARD_WARNINGS = [
    (13.0, 0.06805989193710002),
    (13.200000000000001, 0.08795824417930931),
    (13.24, 0.019588917969697348),
    (14.8, 0.026111291136084076),
    (14.84, 0.07554086566690987),
    (16.4, 0.0544824708909697),
    (19.240000000000002, 0.011617128991569019),
    (19.44, 0.021553410496018766),
]


def test_compare_reports_nondegeneracy_warnings(tmp_path):
    cfg = base_config(tmp_path, variant="standard", t_final=20.0, against="drift")
    cfg["output"].update(stride=0.04, summary_path=str(tmp_path / "summary.json"))
    assert cli.cli_main(["compare", "--config", write_config(tmp_path, cfg)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_samples"] == 501
    assert summary["sigma_min"] == pytest.approx(0.011617128991569019, rel=1e-12)
    got = [(w["kind"], w["t"], w["sigma"]) for w in summary["warnings"]]
    want = [("nondegeneracy", pytest.approx(t, rel=1e-12), pytest.approx(sig, rel=1e-12))
            for t, sig in STANDARD_WARNINGS]
    assert got == want


def count_sigma_calls(monkeypatch) -> list:
    """Record the arguments of every nondegeneracy_sigma call in the package."""
    original = boris.nondegeneracy_sigma
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "toroboris" and vars(module).get("nondegeneracy_sigma") is original:
            monkeypatch.setattr(module, "nondegeneracy_sigma", counted)
    return calls


@pytest.mark.parametrize("against", ["drift", "reference"])
def test_only_compare_monitors_and_only_the_main_run(tmp_path, monkeypatch, against):
    calls = count_sigma_calls(monkeypatch)
    cfg = base_config(tmp_path, epsilon=1e-2, h=0.05, t_final=20.0, against=against)
    cfg["output"]["summary_path"] = str(tmp_path / "summary.json")
    path = write_config(tmp_path, cfg)
    assert cli.cli_main(["simulate", "--config", path]) == 0
    assert calls == []
    # the main run's sample positions, as simulate wrote them
    main_x = np.loadtxt(tmp_path / "out.csv", delimiter=",", skiprows=1)[:, 1:4]
    assert cli.cli_main(["compare", "--config", path]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    # the main run's samples, every one at its step; none of the comparator's
    assert len(main_x) == summary["n_samples"] == 41
    assert {args[2] for args in calls} == {0.05}
    seen = np.concatenate([np.reshape(args[0], (-1, 3)) for args in calls])
    np.testing.assert_array_equal(seen, main_x)


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
    sigma_min = [0.9996463583457076, 0.9999112831493899]
    assert [p["sigma_min"] for p in report["points"]] == pytest.approx(sigma_min, rel=1e-12)
    assert [p["warnings"] for p in report["points"]] == [0, 0]
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


@pytest.mark.parametrize("mode", ["scaled_pairs", "fixed_eps"])
def test_converge_rejects_a_repeated_step(tmp_path, capsys, monkeypatch, mode):
    # every run used to complete; then the slope fit divided 0/0 and exited 3
    calls = []
    monkeypatch.setattr(harness, "integrate", lambda *a, **k: calls.append(a))
    cfg = study_config("converge", tmp_path)
    cfg.update(c=0.04, pairs=[[1e-2, 0.04], [1e-2, 0.04]])
    cfg["output"]["csv_dir"] = str(tmp_path / "runs")
    if mode == "fixed_eps":
        del cfg["pairs"]
        cfg.update(mode=mode, epsilon=1e-2, h_list=[0.04, 0.04])
    assert cli.cli_main(["converge", "--config", write_config(tmp_path, cfg)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigError",
        "message": f"{mode} mode needs distinct step sizes, got h=[0.04, 0.04]",
    }
    assert calls == [] and [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_theorem1_rejects_a_repeated_epsilon(tmp_path, capsys, monkeypatch):
    # every ratio used to be 1, inside its band [1/3, 3]: the gate passed and one
    # error CSV was written twice
    calls = []
    monkeypatch.setattr(harness, "integrate", lambda *a, **k: calls.append(a))
    cfg = study_config("theorem1", tmp_path)
    cfg.update(eps_list=[1e-2, 1e-2], c=0.01)
    cfg["output"]["csv_dir"] = str(tmp_path / "runs")
    assert cli.cli_main(["theorem1", "--config", write_config(tmp_path, cfg)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigError", "message": "eps_list needs distinct values, got [0.01, 0.01]",
    }
    assert calls == [] and [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("command, overrides, path, name", [
    # 2000000 and 1999999 whole reference steps
    ("theorem1", {"eps_list": [0.01, 0.010000002500000937], "c": 10.0}, "/eps_list/1",
     "errors_eps0.01.csv"),
    ("converge", {"pairs": [[1e-2, 0.1], [1.00000001e-2, 0.1]]}, "/pairs/1",
     "errors_eps0.01_h0.1.csv"),
    ("converge", {"mode": "fixed_eps", "epsilon": 1e-2, "h_list": [0.04, 0.02, 0.0400000001],
                  "c": 0.04}, "/h_list/2", "errors_eps0.01_h0.04.csv"),
], ids=["theorem1", "scaled_pairs", "fixed_eps"])
def test_a_study_refuses_error_csv_names_that_collide(tmp_path, capsys, monkeypatch, command,
                                                      overrides, path, name):
    # the later entry's CSV used to overwrite the earlier's, with exit 0
    calls = []
    monkeypatch.setattr(harness, "integrate", lambda *a, **k: calls.append(a))
    cfg = study_config(command, tmp_path)
    cfg.update(overrides)
    if "h_list" in overrides:
        del cfg["pairs"]
    cfg["output"]["csv_dir"] = str(tmp_path / "runs")
    assert cli.cli_main([command, "--config", write_config(tmp_path, cfg)]) == 2
    diag = json.loads(capsys.readouterr().err)
    assert diag == {"error": "SchemaError", "path": path,
                    "message": f"{path}: its error CSV name {name} is an earlier entry's"}
    assert calls == [] and [p.name for p in tmp_path.iterdir()] == ["config.json"]


def assert_refused_before_any_work(monkeypatch, tmp_path, capsys, argv, diag):
    """argv exits 2 with diag alone on stderr, no integrate call and every file as it was."""
    calls = []
    monkeypatch.setattr(harness, "integrate", lambda *a, **k: calls.append(a))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert cli.cli_main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == diag
    assert calls == [] and {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# The outputs are relative to the run's directory and link.json is a symlink to
# config.json: files are compared by where they resolve, not by their spelling.
# Each run exited 0 with the earlier file replaced.
OVERWRITES = {
    "simulate-over-its-config": (
        "simulate", {"/output/path": "config.json"},
        "/output/path", "writes config.json, the file of --config"),
    "drift-over-its-config": (
        "drift", {"/output/path": "link.json"},
        "/output/path", "writes link.json, the file of --config"),
    "compare-summary-over-its-errors": (
        "compare", {"/output/summary_path": "out.csv"},
        "/output/summary_path", "writes out.csv, the file of /output/path"),
    "theorem1-report-over-an-error-csv": (
        "theorem1", {"/output/path": "runs/errors_eps0.01.csv", "/output/csv_dir": "runs"},
        "/output/path", "writes runs/errors_eps0.01.csv, the file of /eps_list/0"),
    "converge-report-over-its-config": (
        "converge", {"/output/path": "link.json"},
        "/output/path", "writes link.json, the file of --config"),
    "check-field-over-its-config": (
        "check-field", {"/output": {"path": "config.json"}},
        "/output/path", "writes config.json, the file of --config"),
}


@pytest.mark.parametrize("command, patch, path, message", OVERWRITES.values(), ids=OVERWRITES)
def test_a_config_whose_outputs_overwrite_a_file_exits_2(monkeypatch, tmp_path, capsys, command,
                                                         patch, path, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link.json").symlink_to("config.json")
    cfg = patched(study_config(command, tmp_path), patch)
    argv = [command, "--config", write_config(tmp_path, cfg)]
    assert_refused_before_any_work(monkeypatch, tmp_path, capsys, argv, {
        "error": "SchemaError", "path": path, "message": f"{path}: {message}"})


@pytest.mark.parametrize("csv_dir", ["config.json", "config.json/runs"])
@pytest.mark.parametrize("command", ["converge", "theorem1"])
def test_a_study_refuses_a_csv_dir_that_is_a_file_before_any_run(monkeypatch, tmp_path, capsys,
                                                                 command, csv_dir):
    # os.makedirs used to refuse it, after every run of the study
    monkeypatch.chdir(tmp_path)
    cfg = patched(study_config(command, tmp_path), {"/output/csv_dir": csv_dir})
    argv = [command, "--config", write_config(tmp_path, cfg)]
    assert_refused_before_any_work(monkeypatch, tmp_path, capsys, argv, {
        "error": "SchemaError", "path": "/output/csv_dir",
        "message": "/output/csv_dir: config.json exists and is not a directory"})


# An empty path passed the schema: summary_path "" printed the summary to stdout,
# and the others failed when they wrote, after the whole run.
EMPTY_PATHS = {
    "simulate-path": ("simulate", "/output/path"),
    "compare-summary-path": ("compare", "/output/summary_path"),
    "converge-path": ("converge", "/output/path"),
    "theorem1-csv-dir": ("theorem1", "/output/csv_dir"),
    "check-field-path": ("check-field", "/output/path"),
}


@pytest.mark.parametrize("command, path", EMPTY_PATHS.values(), ids=EMPTY_PATHS)
def test_an_empty_output_path_exits_2_before_any_run(monkeypatch, tmp_path, capsys, command,
                                                     path):
    cfg = patched(study_config(command, tmp_path), {"/output": {"path": "report.json"}}
                  if command == "check-field" else {})
    argv = [command, "--config", write_config(tmp_path, patched(cfg, {path: ""}))]
    assert_refused_before_any_work(monkeypatch, tmp_path, capsys, argv, {
        "error": "SchemaError", "path": path, "message": f"{path}: must not be empty"})


@pytest.mark.parametrize("flags, message", [
    (["--csv-a", "a.csv", "--csv-b", "a.csv", "--out", "x", "--summary", ""],
     "--summary must not be empty: leave it out to print the summary"),
    # --config writes the config's own outputs, and ignored the empty flag
    (["--config", "config.json", "--summary", ""],
     "--config writes the config's outputs: it takes no --csv-a, --csv-b, --out or --summary"),
], ids=["csv-mode", "config-mode"])
def test_compare_refuses_an_empty_summary_flag(monkeypatch, tmp_path, capsys, flags, message):
    # in CSV mode it printed the summary to stdout, as if --summary were left out
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.csv").write_text(CSV)
    write_config(tmp_path, base_config(tmp_path))
    assert_refused_before_any_work(monkeypatch, tmp_path, capsys, ["compare", *flags],
                                   {"error": "ConfigError", "message": message})


@pytest.mark.parametrize("flags, message", [
    (["--csv-a", "a.csv", "--csv-b", "a.csv", "--out", "x", "--summary", "x"],
     "--summary writes x, the file of --out"),
    (["--csv-a", "a.csv", "--csv-b", "b.csv", "--out", "b.csv"],
     "--out writes b.csv, the file of --csv-b"),
], ids=["summary-over-out", "out-over-an-input"])
def test_compare_csv_mode_refuses_outputs_that_overwrite_a_file(monkeypatch, tmp_path, capsys,
                                                               flags, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.csv").write_text(CSV)
    (tmp_path / "b.csv").write_text(CSV)
    assert_refused_before_any_work(monkeypatch, tmp_path, capsys, ["compare", *flags],
                                   {"error": "ConfigError", "message": message})


# Each run ran first and failed when it wrote, at the rename or with the temp file's
# name and the process id in its message; a study left its error CSVs behind, and
# compare its error CSV when the summary was a directory.
NO_DIRECTORY = {
    "simulate-path-in-a-missing-dir": (
        "simulate", {"/output/path": "nodir/out.csv"}, "/output/path", "nodir does not exist"),
    "drift-path-under-a-file": (
        "drift", {"/output/path": "config.json/out.csv"},
        "/output/path", "config.json exists and is not a directory"),
    "compare-path-in-a-missing-dir": (
        "compare", {"/output/path": "a/b/out.csv"}, "/output/path", "a/b does not exist"),
    "compare-summary-path-under-a-file": (
        "compare", {"/output/summary_path": "config.json/sub/s.json"},
        "/output/summary_path", "config.json exists and is not a directory"),
    "converge-path-in-a-missing-dir": (
        "converge", {"/output/path": "nodir/report.json", "/output/csv_dir": "runs"},
        "/output/path", "nodir does not exist"),
    "theorem1-path-under-a-file": (
        "theorem1", {"/output/path": "config.json/report.json"},
        "/output/path", "config.json exists and is not a directory"),
    # csv_dir makes runs, not runs/sub
    "theorem1-path-below-the-csv-dir": (
        "theorem1", {"/output/csv_dir": "runs", "/output/path": "runs/sub/report.json"},
        "/output/path", "runs/sub does not exist"),
    "check-field-path-in-a-missing-dir": (
        "check-field", {"/output": {"path": "nodir/report.json"}},
        "/output/path", "nodir does not exist"),
    "compare-out-in-a-missing-dir": (
        "compare", ["--out", "nodir/x.csv"], "--out", "nodir does not exist"),
    "compare-summary-under-a-file": (
        "compare", ["--out", "x.csv", "--summary", "a.csv/s.json"],
        "--summary", "a.csv exists and is not a directory"),
    # "." is the run's directory, and ".." its parent
    "simulate-path-is-a-directory": (
        "simulate", {"/output/path": "."}, "/output/path", ". is a directory"),
    "compare-summary-path-is-a-directory": (
        "compare", {"/output/summary_path": ".."}, "/output/summary_path", ".. is a directory"),
    "compare-summary-is-a-directory": (
        "compare", ["--out", "x.csv", "--summary", "."], "--summary", ". is a directory"),
}


@pytest.mark.parametrize("command, edit, key, message", NO_DIRECTORY.values(), ids=NO_DIRECTORY)
def test_an_output_with_no_directory_exits_2_before_any_run(monkeypatch, tmp_path, capsys,
                                                            command, edit, key, message):
    # a config key gives a SchemaError at it, a flag of CSV mode a ConfigError
    monkeypatch.chdir(tmp_path)
    if isinstance(edit, list):
        (tmp_path / "a.csv").write_text(CSV)
        argv = [command, "--csv-a", "a.csv", "--csv-b", "a.csv", *edit]
        diag = {"error": "ConfigError", "message": f"{key} {message}"}
    else:
        cfg = patched(study_config(command, tmp_path), edit)
        argv = [command, "--config", write_config(tmp_path, cfg)]
        diag = {"error": "SchemaError", "path": key, "message": f"{key}: {message}"}
    assert_refused_before_any_work(monkeypatch, tmp_path, capsys, argv, diag)


def test_an_output_may_go_where_an_earlier_output_makes_its_directory(monkeypatch, tmp_path):
    # csv_dir is made with its parents before the files that follow it are written
    monkeypatch.chdir(tmp_path)
    outputs = [("/output/csv_dir", "a/runs"), ("/pairs/0", "a/runs/e.csv"),
               ("/output/path", "a/report.json")]
    cli._check_outputs([("--config", "config.json")], outputs)
    cli._write_outputs(outputs, [None, [b"e\n"], [b"{}", b"\n"]])
    assert (tmp_path / "a/runs/e.csv").read_bytes() == b"e\n"
    assert (tmp_path / "a/report.json").read_bytes() == b"{}\n"


def test_theorem1_fails_its_gate_on_a_zero_maximum(tmp_path, capsys):
    # an orbit at rest with no electric field: every error is 0, and the ratio
    # 0 / 0 used to raise ZeroDivisionError, exiting 3 with no report
    cfg = study_config("theorem1", tmp_path)
    cfg.update(eps_list=[1e-2, 5e-3], c=0.01, v0=[0, 0, 0],
               field={"preset": "paper-toroidal", "a0": 1, "a1": 0, "a2": 0, "c": 0})
    assert cli.cli_main(["theorem1", "--config", write_config(tmp_path, cfg)]) == 4
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["max_err"] == [{"r": 0.0, "z": 0.0, "vpar": 0.0}] * 2
    assert report["ratios"] == [{"r": None, "z": None, "vpar": None}]
    assert report["passed"] is False
    diag = json.loads(capsys.readouterr().err)
    assert (diag["error"], diag["ratios"]) == ("GateFailure", report["ratios"])


def test_an_aborted_reference_is_reported(tmp_path, capsys):
    # the main runs complete and the fine reference leaves the field domain; in
    # converge this used to surface as a grid mismatch of its shortened series
    field = {"preset": "paper-toroidal", "a0": -0.2}
    cfg = base_config(tmp_path, epsilon=0.05, h=0.1, t_final=10.0, field=field)
    assert cli.cli_main(["compare", "--config", write_config(tmp_path, cfg)]) == 3
    diag = json.loads(capsys.readouterr().err)
    assert diag == {"error": "RuntimeDomainError", "message": "reference aborted: domain_error",
                    "tag": "domain_error"}
    cfg = {
        "mode": "fixed_eps",
        "epsilon": 0.05,
        "h_list": [0.1, 0.05],
        "field": field,
        "x0": [1 / 3, 1 / 4, 1 / 2],
        "v0": [2 / 5, 2 / 3, 1],
        "c": 0.5,
        "output": {"path": str(tmp_path / "report.json")},
    }
    assert cli.cli_main(["converge", "--config", write_config(tmp_path, cfg)]) == 3
    diag = json.loads(capsys.readouterr().err)
    assert diag == {"error": "RuntimeError", "message": "reference (h=0.1) aborted: domain_error"}
    assert not (tmp_path / "report.json").exists()


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


def test_theorem1_names_the_step_an_eps_needs(tmp_path, capsys):
    cfg = study_config("theorem1", tmp_path)
    cfg.update(eps_list=[3e-3], c=0.1)
    assert cli.cli_main(["theorem1", "--config", write_config(tmp_path, cfg)]) == 2
    diag = json.loads(capsys.readouterr().err)
    assert diag == {
        "error": "SchemaError",
        "message": "/eps_list/0: the horizon c/eps = 0.1/0.003 must be a whole number (>= 2) "
                   "of steps of 0.05*eps = 0.00015000000000000001",
        "path": "/eps_list/0",
    }
    assert not (tmp_path / "report.json").exists()


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


def test_check_field_cli_writes_file(tmp_path, capsys):
    cfg = {
        "epsilon": 1e-3,
        "field": {"preset": "paper-toroidal"},
        "output": {"path": str(tmp_path / "field.json")},
    }
    assert cli.cli_main(["check-field", "--config", write_config(tmp_path, cfg)]) == 0
    assert json.loads((tmp_path / "field.json").read_text())["passed"]
    # the minimal config prints, and writes, the report of the library's defaults
    report = geometry.check_field(geometry.ToroidalFieldModel(1e-3), geometry.toroidal_probes(50))
    del cfg["output"]
    assert cli.cli_main(["check-field", "--config", write_config(tmp_path, cfg)]) == 0
    text = json.dumps(report, indent=2) + "\n"
    assert capsys.readouterr().out == text == (tmp_path / "field.json").read_text()


def test_check_field_cli_overflow_exit_3(tmp_path, capsys):
    # |B| = b / epsilon overflows at every probe; the library reports NaN
    # values as failed checks, the CLI stops at the first overflow
    cfg = {"epsilon": 1e-3, "field": {"preset": "paper-toroidal", "a1": 1e308, "a2": 1e308}}
    assert cli.cli_main(["check-field", "--config", write_config(tmp_path, cfg)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "FloatingPointError"


@pytest.mark.parametrize("python", [False, True])
def test_domain_error_exits_3_with_one_line(tmp_path, capsys, python):
    # b = a0 + r + z^2 falls through 0: on the slow orbit of the shipped
    # simulate config at a0 -0.4, and at the default probes at a0 -2
    cfg = json.loads((CONFIGS / "simulate_eps1e-3_h0.04.json").read_text())
    cfg["field"]["a0"] = -0.4
    cfg["output"]["path"] = str(tmp_path / "drift.csv")
    check = {"epsilon": 1e-3, "field": {"preset": "paper-toroidal", "a0": -2}}
    with python_backend() if python else nullcontext():
        for command, config, b in (("drift", cfg, "-0.289392"), ("check-field", check, "-1.08682")):
            assert cli.cli_main([command, "--config", write_config(tmp_path, config)]) == 3
            out, err = capsys.readouterr()
            assert out == "" and err == ('{"error": "DomainError", "message": "field profile '
                                         f'b={b} is not positive"}}\n')
    assert os.listdir(tmp_path) == ["config.json"]


def test_unknown_subcommand_exit_2():
    assert cli.cli_main(["frobnicate"]) == 2


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    cfg = write_config(tmp_path, base_config(tmp_path, t_final=4.0, against="drift"))
    # a usage error after --csv-a was parsed; a leaked csv_a would send the
    # next compare into CSV mode
    assert cli.cli_main(["compare", "--csv-a", str(tmp_path / "a.csv"), "--bogus"]) == 2
    capsys.readouterr()
    code = cli.cli_main(["compare", "--config", cfg])
    out, err = capsys.readouterr()
    in_process = (code, out, err, (tmp_path / "out.csv").read_bytes())
    os.remove(tmp_path / "out.csv")
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", "from toroboris.cli import main; main()", "compare", "--config", cfg],
        capture_output=True, text=True, timeout=120,
        # this process gave its one kernel fallback warning, if any, long ago
        env=dict(os.environ, PYTHONPATH=str(src), PYTHONWARNINGS="ignore::RuntimeWarning"),
    )
    fresh = (proc.returncode, proc.stdout, proc.stderr, (tmp_path / "out.csv").read_bytes())
    assert in_process == fresh
    assert code == 0 and json.loads(out)["against"] == "drift"


def test_simulate_budget_exit_3_no_output(tmp_path, capsys):
    # the run's own 1000 steps exceed the budget; this used to run and exit 0
    cfg = base_config(tmp_path, budget_steps=999)
    assert cli.cli_main(["simulate", "--config", write_config(tmp_path, cfg)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "BudgetExceeded"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    "command, overrides, need, budget",
    [
        # one step over: both counts used to print as 1e+05
        ("simulate", {"t_final": 4000.0, "c": 4.0}, "100000", 99_999),
        # the slow system's RK4 steps at dtau 1e-6: 400 per interval of 0.4; the
        # run's own 100000 steps are within the budget
        ("drift", {"t_final": 4000.0, "c": 4.0, "dtau": 1e-6}, "4000000", 3_999_999),
    ],
)
def test_budget_message_prints_both_numbers_exactly(tmp_path, capsys, command, overrides, need,
                                                     budget):
    cfg = base_config(tmp_path, budget_steps=budget, **overrides)
    cfg["output"]["stride"] = 0.4
    assert cli.cli_main([command, "--config", write_config(tmp_path, cfg)]) == 3
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "BudgetExceeded"
    run = "slow-system RK4" if command == "drift" else "run"
    assert diag["message"].startswith(f"{run} needs {need} steps, above the budget of {budget};")


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


def patched(cfg, patch):
    """cfg with each {"/pointer": value} of patch set in place."""
    for pointer, value in patch.items():
        *parents, key = pointer.strip("/").split("/")
        node = cfg
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        node[int(key) if isinstance(node, list) else key] = value
    return cfg


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
    # a bad CSV is reported at the whole document, "", and the message names the file
    ("compare", "t,r,z,vpar\n", ""),
    ("compare", "t,r,z,vpar\n0,0.5,0.5,1\n0.5,0.5\n", ""),
    # non-finite fields: NaN in r printed "r": NaN (not JSON), NaN in t passed the grid check
    ("compare", "t,r,z,vpar\n0,nan,0.5,1\n0.5,0.5,0.5,1\n", ""),
    ("compare", "t,r,z,vpar\n0,0.5,0.5,1\nnan,0.5,0.5,1\n", ""),
    ("compare", "t,r,z,vpar\n0,0.5,0.5,1\n0.5,0.5,-inf,1\n", ""),
    # text and nothing in a column compare does not read
    ("compare", "t,r,z,vpar,mu\n0,0.5,0.5,1,abc\n0.5,0.5,0.5,1,\n", ""),
    # c/eps is not a whole number of steps 0.05 eps (it was a ValueError naming that step)
    ("theorem1", {"/eps_list": [1e-2, 3e-3], "/c": 0.1}, "/eps_list/1"),
    # reversed ranges (numpy's "high - low < 0" with no path), and negative radii,
    # which were probed silently mirrored to |r|; a reversed band failed the order gate
    ("check-field", {"/probes/r_range": [1.0, 0.25]}, "/probes/r_range"),
    ("check-field", {"/probes/r_range": [-1.0, -0.25]}, "/probes/r_range"),
    ("check-field", {"/probes/z_range": [0.75, -0.75]}, "/probes/z_range"),
    ("converge", {"/order_band": [2.3, 1.7]}, "/order_band"),
    # the other mode's keys, which were accepted and never read
    ("converge", {"/epsilon": 0.5}, "/epsilon"),
    ("converge", {"/h_list": [0.04, 0.02]}, "/h_list"),
    ("converge", {"/mode": "fixed_eps", "/epsilon": 1e-2, "/h_list": [0.04, 0.02]}, "/pairs"),
    # a null where the default is an owner's value, not the CLI's null
    ("simulate", {"/field/a0": None}, "/field/a0"),
    ("simulate", {"/reference": {"h_factor": None}}, "/reference/h_factor"),
    ("check-field", {"/probes/seed": None}, "/probes/seed"),
    ("check-field", {"/delta": None}, "/delta"),
]


@pytest.mark.parametrize("command, patch, path", INPUT_HOLES)
def test_input_holes_exit_2_with_schema_path(tmp_path, capsys, command, patch, path):
    if isinstance(patch, str):
        csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
        csv_a.write_text(patch)
        csv_b.write_text(CSV)
        argv = ["compare", "--csv-a", str(csv_a), "--csv-b", str(csv_b),
                "--out", str(tmp_path / "err.csv")]
    else:
        cfg = patched(study_config(command, tmp_path), patch)
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
    # "path: what is wrong", or what is wrong alone at the whole document
    assert diag["message"].startswith(f"{path}: ") if path else diag["message"][0] != ":"
    if isinstance(patch, str):
        assert str(csv_a) in diag["message"]


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

    run = load("simulate_eps1e-3_h0.04.json")
    # five steps sampled at the end: the shipped stride of 0.4 is ten steps
    run = dict(run, t_final=0.2, budget_steps=5000, output=dict(run["output"], stride=0.2))
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
