"""Shipped and derived configs through the CLI entry point, on both kernel backends.

A case is a config of configs/ with key-path edits, its subcommands and their
exit code.  Each runs as a fresh ``python -m toroboris.cli`` in an empty
directory, on the compiled backend and on the Python fallback (no cc on PATH,
an empty XDG_CACHE_HOME); check() says what the two runs must show.  The
digests are printed, so the diff of the output of ``python tests/cli_cases.py``
from two checkouts checks byte identity between them.  It exits 1 naming each
failed case.  pytest does not collect it; tests/test_cli_cases.py checks the table.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DROP = object()  # an edit that deletes its key


@dataclass(frozen=True)
class Case:
    name: str
    base: str  # a config of configs/, without .json
    commands: tuple
    edits: dict = field(default_factory=dict)  # {"/key/path": value or DROP}
    code: int = 0
    fallback: bool = True  # False: the compiled backend alone
    like: str | None = None  # an earlier case whose bytes this one must write


SIM, T1, CONV = "simulate_eps1e-3_h0.04", "theorem1_eps_scaling", "converge_scaled_pairs"
DEFAULT_FIELD = {f"/field/{key}": DROP for key in ("a0", "a1", "a2", "c")}

CASES = [
    # each shipped config as it is
    Case("check_field", "check_field", ("check-field",)),
    Case(CONV, CONV, ("converge",)),
    Case(SIM, SIM, ("simulate", "drift")),
    # compiled alone: 1e7 reference steps take about 50 s on the Python loops
    Case(T1, T1, ("theorem1",), fallback=False),
    # the same study at 2e5 reference steps
    Case("theorem1_c0.01", T1, ("theorem1",), {"/c": 0.01}),
    # the run-and-compare path that the benchmark's compare workloads measure
    Case("compare_drift", SIM, ("compare",), {"/against": "drift"}),
    # 80000 reference steps, where t_final 1000 needs 2e7
    Case("compare_reference", SIM, ("compare",), {"/against": "reference", "/t_final": 4.0}),
    # the slow-compare grid: 1000 whole RK4 steps per interval, whose summed tau falls short
    Case("compare_slow_grid", SIM, ("compare",),
         {"/against": "drift", "/t_final": 100.0, "/dtau": 1e-5, "/output/stride": 10.0}),
    # large standard steps: the summary's eight nondegeneracy warnings of test_cli.py
    Case("compare_warnings", SIM, ("compare",), {"/against": "drift", "/variant": "standard",
         "/t_final": 20.0, "/output/stride": 0.04}),
    # 10001 rows: ten chunks of the CSV writer, where the shipped config writes three
    Case("simulate_dense", SIM, ("simulate", "drift"), {"/t_final": 400.0, "/output/stride": 0.04}),
    # leaves b > 0: simulate stops at step 2831 and drift in its RK4, each C loop's domain branch
    Case("simulate_domain", SIM, ("simulate", "drift"), {"/field/a0": -0.4}, code=3),
    # the study's shared reference; the default band fails on the reference's gyration floor
    Case("converge_fixed_eps", CONV, ("converge",), {"/pairs": DROP, "/mode": "fixed_eps",
         "/epsilon": 1e-2, "/h_list": [0.04, 0.02], "/c": 0.1}, code=4),
    # a repeated epsilon is refused before any run, so before any kernel loads
    Case("theorem1_repeated", T1, ("theorem1",), {"/eps_list": [0.01, 0.01], "/c": 0.01}, code=2),
    # two entries whose error CSVs would both be errors_eps0.01.csv, refused before any run
    Case("theorem1_colliding_names", T1, ("theorem1",), {"/eps_list": [0.01, 0.010000002500000937],
         "/c": 10.0, "/output/csv_dir": "runs"}, code=2),
    # a csv_dir that is the config file itself, refused before any run
    Case("theorem1_csv_dir_over_its_config", T1, ("theorem1",),
         {"/c": 0.01, "/output/csv_dir": "../theorem1_csv_dir_over_its_config.json"}, code=2),
    # an orbit at rest: every maximum is 0, every ratio null, and the gate fails after the report
    Case("theorem1_at_rest", T1, ("theorem1",), {"/eps_list": [0.01, 0.005], "/c": 0.01,
         "/v0": [0, 0, 0], "/field/a0": 1, "/field/a1": 0, "/field/a2": 0, "/field/c": 0}, code=4),
    # a CSV that would replace the run's own config, refused before any run
    Case("simulate_over_its_config", SIM, ("simulate",),
         {"/output/path": "../simulate_over_its_config.json"}, code=2),
    # a report in a directory that nothing makes, refused before any run
    Case("converge_report_in_a_missing_dir", CONV, ("converge",),
         {"/output/path": "nodir/report.json"}, code=2),
    # a CSV path that is the run's directory, refused before any run
    Case("simulate_path_is_a_directory", SIM, ("simulate",), {"/output/path": "."}, code=2),
    # a summary that would replace the error CSV, refused before any run
    Case("compare_summary_over_errors", SIM, ("compare",),
         {"/against": "drift", "/output/summary_path": "trajectory.csv"}, code=2),
    # each key equal to its default dropped: the CLI reads each default from its owner
    Case("simulate_stripped", SIM, ("simulate", "drift"), DEFAULT_FIELD, like=SIM),
    Case("check_field_stripped", "check_field", ("check-field",), {**DEFAULT_FIELD, "/delta": DROP},
         like="check_field"),
]


def config(case: Case) -> dict:
    """The case's base config with its edits applied."""
    cfg = json.loads((ROOT / "configs" / f"{case.base}.json").read_text())
    for pointer, value in case.edits.items():
        *parents, key = pointer.strip("/").split("/")
        node = functools.reduce(dict.__getitem__, parents, cfg)
        if value is DROP:
            del node[key]
        else:
            node[key] = value
    return cfg


def digests(directory: Path) -> dict:
    return {f"./{p.relative_to(directory)}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def run(case: Case, command: str, work: Path) -> dict:
    """Run command on the case's backends at once; each one's (exit code, stderr lines, digests)."""
    argv = [sys.executable, "-m", "toroboris.cli", command, "--config", f"../{case.name}.json"]
    procs = {}
    for backend in ("compiled", "fallback")[:1 + case.fallback]:
        out = work / f"{case.name}.{command}.{backend}"
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if backend == "fallback":
            env.update(PATH=str(work / "no-cc"), XDG_CACHE_HOME=tempfile.mkdtemp(dir=work))
        with open(out / "stdout.txt", "wb") as text, open(f"{out}.stderr", "wb") as err:
            procs[backend] = out, subprocess.Popen(argv, cwd=out, env=env, stdout=text, stderr=err)
    # a tuple is evaluated left to right: each run ends before its files are read
    return {backend: (proc.wait(), Path(f"{out}.stderr").read_text().splitlines(), digests(out))
            for backend, (out, proc) in procs.items()}


def one_error_line(lines: list) -> bool:
    try:
        return len(lines) == 1 and "error" in json.loads(lines[0])
    except ValueError:
        return False


def check(case: Case, command: str, runs: dict, like: dict | None) -> list:
    """What went wrong in one command's runs; like holds the like case's digests.

    Both backends exit with the case's code.  The compiled stderr is empty on exit 0, else
    one JSON line with an "error" key (a run that fell back warns, and fails).  The fallback
    warns, except in check-field, which loads no kernel, and on exit 2.  The last stderr
    lines, and every file's sha256 (stdout.txt too), are equal on both, and to the like case's.
    """
    code, err, files = runs["compiled"]
    problems = [f"{backend} exited {r[0]}" for backend, r in runs.items() if r[0] != case.code]
    if not (err == [] if code == 0 else one_error_line(err)):
        problems.append(f"compiled stderr is not the contract's: {err}")
    if "fallback" in runs:
        _, fallback_err, fallback_files = runs["fallback"]
        warns = command != "check-field" and case.code != 2
        if warns and "C kernel unavailable" not in str(fallback_err):
            problems.append("the fallback run printed no fallback warning")
        if code != 0 and err[-1:] != fallback_err[-1:]:
            problems.append(f"last stderr lines differ: {err[-1:]} and {fallback_err[-1:]}")
        other = sorted({path for path, _ in files.items() ^ fallback_files.items()})
        if other:
            problems.append(f"the fallback wrote other bytes to {other}")
    if case.like and like != files:
        problems.append(f"other bytes than {case.like}")
    return problems


def t_column(csv: Path) -> list:
    return [row.split(",")[0] for row in csv.read_text().splitlines()]


def main() -> int:
    failed, seen = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "no-cc").mkdir()
        for case in CASES:
            cfg = config(case)
            (work / f"{case.name}.json").write_text(json.dumps(cfg))
            for command in case.commands:
                print(f"{case.name}: toroboris {command} (exits {case.code})", flush=True)
                runs = run(case, command, work)
                code, err, files = runs["compiled"]
                print(*err[-1:] if code else [], *(f"{d}  {p}" for p, d in files.items()), sep="\n")
                like = seen.get((case.like, command))
                failed += [f"{case.name}: {command}: {p}" for p in check(case, command, runs, like)]
                seen[case.name, command] = files
            if {"simulate", "drift"} <= set(case.commands) and case.code == 0:  # one sample grid
                simulate, drift = (work / f"{case.name}.{c}.compiled" / cfg["output"]["path"]
                                   for c in ("simulate", "drift"))
                if t_column(simulate) != t_column(drift):
                    failed.append(f"{case.name}: simulate and drift wrote other t columns")
    print(*["FAILED:", *failed] if failed else ["every case passed"], sep="\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
