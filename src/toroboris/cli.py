"""Command-line front end: JSON configs in, CSV series and JSON reports out.

Numbers are printed with 17 significant digits so every CSV reloads to the
exact binary64 value that was written; identical configs therefore yield
byte-identical outputs.  All file writes go through a temp-file rename, so
a failing run never leaves a partial file behind.

Exit codes: 0 success, 2 configuration or schema error, 3 runtime domain
error (axis singularity, field domain, runaway guard, budget, arithmetic
overflow, memory), 4 a scaling gate failed (converge / theorem1).
Diagnostics go to stderr as a single JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from . import _kernels
from .boris import Trajectory
from .drift import DEFAULT_DTAU, _SlowSeries
from .errors import RunAborted, SchemaError, ToroborisError
from .geometry import PRESET_NAME, ToroidalFieldModel, check_field, toroidal_probes
from .harness import (
    _ORDER_BAND, DEFAULT_BUDGET, ErrorSeries, ExperimentSpec, _error_series, compare,
    convergence_study, monitor_nondegeneracy, observables, run_drift, run_trajectory,
    theorem1_suite,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_GATE = 4


def _atomic_write(path: str, chunks: Iterable[bytes]) -> None:
    """Write the bytes chunks to path as they arrive, through a temp file and a rename.

    The temp file is removed when a chunk, the write or the rename fails.
    """
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


_CSV_DIR = "/output/csv_dir"  # the output that names a directory


def _check_outputs(inputs: list, outputs: list) -> None:
    """Before any run: refuse the first output that would overwrite a file or has no directory.

    inputs and outputs hold (label, path) pairs, the outputs in write order; a None path is
    stdout.  Refused: an output whose directory is or lies under a file, or is missing and
    made by no earlier output, a file output that is a directory, and one that is an input
    or an earlier output, told apart by os.path.realpath (a symlink to a file is that file;
    two inputs may share one).  The refusal is a SchemaError at a config key label ("/..."),
    a ValueError naming a flag.
    """
    seen = {os.path.realpath(path): label for label, path in inputs}
    made = set()  # the directories that the _CSV_DIR output creates
    for label, path in outputs:
        if path is None:
            continue
        head = folder = path if label == _CSV_DIR else os.path.dirname(path)
        while head and not os.path.lexists(head):
            if label == _CSV_DIR:
                made.add(os.path.realpath(head))
            head = os.path.dirname(head)
        if head and not os.path.isdir(head):
            problem = f"{head} exists and is not a directory"
        elif head != folder and os.path.realpath(folder) not in made:
            problem = f"{folder} does not exist"
        elif label != _CSV_DIR and os.path.isdir(path):
            problem = f"{path} is a directory"
        elif (real := os.path.realpath(path)) in seen:
            problem = f"writes {path}, the file of {seen[real]}"
        else:
            seen[real] = label
            continue
        raise SchemaError(label, problem) if label[0] == "/" else ValueError(f"{label} {problem}")


def _write_outputs(outputs: list, contents: list) -> None:
    """Write each output's bytes chunks in order: a file through _atomic_write, a None path
    to stdout.  The _CSV_DIR output, whose content is None, is made with its parents."""
    for (label, path), chunks in zip(outputs, contents, strict=True):
        if path is None:
            sys.stdout.write(b"".join(chunks).decode())
        elif label == _CSV_DIR:
            os.makedirs(path, exist_ok=True)
        else:
            _atomic_write(path, chunks)


def _diag(name: str, message: str, **extra) -> None:
    payload = {"error": name, "message": message}
    payload.update(extra)
    print(json.dumps(payload), file=sys.stderr)


# ---------------------------------------------------------------------------
# config schema
#
# A check takes (value, path), returns the parsed value and raises
# SchemaError at the JSON-pointer-style path otherwise.  A schema table maps
# each key to (check, default): _REQUIRED keys must be present; a default of
# None makes the key optional with no value (an explicit null is accepted);
# any other default goes through the check when the key is absent, which
# fills the defaults of nested objects.  Defaults are read from their owners:
# ToroidalFieldModel, ExperimentSpec, drift, harness and the signatures of
# toroidal_probes and check_field; only probes.count and against are the CLI's.

_REQUIRED = object()


def _finite(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, "expected a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the binary64 range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(path, "number must be finite")
    return number


def _typed(kind: type, name: str):
    """Accept instances of kind; bool, a subclass of int, is not an integer."""
    def check(value, path: str):
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise SchemaError(path, f"expected {name}")
        return value

    return check


_INTEGER = _typed(int, "an integer")
_STRING = _typed(str, "a string")
_BOOLEAN = _typed(bool, "a boolean")


def _bounded(check, accept, message: str):
    """check, then reject a parsed value v unless accept(v); message may format v."""
    def bounded(value, path: str):
        parsed = check(value, path)
        if not accept(parsed):
            raise SchemaError(path, message.format(parsed))
        return parsed

    return bounded


def _choice(*options: str):
    message = f"expected one of {sorted(options)}, got {{!r}}"
    return _bounded(_STRING, lambda v: v in options, message)


def _array(item, what: str, size: int | None = None, min_size: int = 0):
    """A JSON array of item values (exactly size, or at least min_size) as a tuple."""
    def check(value, path: str) -> tuple:
        if not isinstance(value, list) or len(value) < min_size or size not in (None, len(value)):
            raise SchemaError(path, f"expected {what}")
        return tuple(item(v, f"{path}/{i}") for i, v in enumerate(value))

    return check


def _object(table: dict):
    """A JSON object checked against table: unknown keys, then missing ones, then values."""
    def check(value, path: str) -> dict:
        if not isinstance(value, dict):
            raise SchemaError(path, f"expected an object, got {type(value).__name__}")
        for key in value:
            if key not in table:
                raise SchemaError(f"{path}/{key}", "unknown key")
        for key, (_, default) in table.items():
            if default is _REQUIRED and key not in value:
                raise SchemaError(f"{path}/{key}", "missing required key")
        out = {}
        for key, (check_key, default) in table.items():
            given = value.get(key, default)
            keep_null = given is None and default is None
            out[key] = None if keep_null else check_key(given, f"{path}/{key}")
        return out

    return check


_POSITIVE = _bounded(_finite, lambda v: v > 0, "must be positive")
_NONNEGATIVE = _bounded(_finite, lambda v: v >= 0, "must be nonnegative")
# 2**53 keeps step budgets exact as binary64 and probe counts in numpy's size range.
_COUNT = _bounded(_INTEGER, lambda v: 0 < v <= 2**53, "must lie in [1, 2**53]")
_UNIT = _bounded(_finite, lambda v: 0.0 < v <= 1.0, "must lie in (0, 1], got {}")
_PAIR = _array(_finite, "[low, high]", size=2)
_RANGE = _bounded(_PAIR, lambda v: v[0] <= v[1], "expected [low, high] with low <= high")
_VEC3 = _array(_finite, "an array of 3 numbers", size=3)
_PATH = _bounded(_STRING, lambda v: v != "", "must not be empty")

# Entries shared by the tables below.
_FIELD = _object({
    "preset": (_choice(PRESET_NAME), _REQUIRED),
    **{key: (_finite, getattr(ToroidalFieldModel, key)) for key in ("a0", "a1", "a2", "c")},
})
_ORBIT = {"field": (_FIELD, _REQUIRED), "x0": (_VEC3, _REQUIRED), "v0": (_VEC3, _REQUIRED)}
_LIMITS = {
    "c": (_POSITIVE, ExperimentSpec.c), "dtau": (_POSITIVE, DEFAULT_DTAU),
    "budget_steps": (_COUNT, DEFAULT_BUDGET),
}
_R_MIN = (_POSITIVE, ToroidalFieldModel.r_min)
_STUDY_OUTPUT = _object({"path": (_PATH, _REQUIRED), "csv_dir": (_PATH, None)})

# simulate, drift and compare; a null stride is ExperimentSpec's default.
_RUN = _object({
    "epsilon": (_UNIT, _REQUIRED),
    "h": (_POSITIVE, _REQUIRED),
    "t_final": (_NONNEGATIVE, _REQUIRED),
    "variant": (_choice("standard", "modified"), _REQUIRED),
    **_ORBIT,
    "output": (_object({
        "path": (_PATH, _REQUIRED),
        "stride": (_POSITIVE, None),
        "summary_path": (_PATH, None),
    }), _REQUIRED),
    "r_min": _R_MIN,
    **_LIMITS,
    "against": (_choice("reference", "drift"), "reference"),
    "reference": (_object({"h_factor": (_UNIT, ExperimentSpec.ref_h_factor),
                           "filtered": (_BOOLEAN, ExperimentSpec.ref_filtered_init)}), {}),
})

# converge: scaled_pairs mode needs pairs, fixed_eps mode epsilon and h_list.
_CONVERGE = _object({
    "mode": (_choice("scaled_pairs", "fixed_eps"), _REQUIRED),
    **_ORBIT,
    "output": (_STUDY_OUTPUT, _REQUIRED),
    "pairs": (_array(_array(_POSITIVE, "[epsilon, h]", size=2),
                     "a list of at least 2 [epsilon, h] pairs", min_size=2), None),
    "h_list": (_array(_POSITIVE, "a list of at least 2 step sizes", min_size=2), None),
    "epsilon": (_UNIT, None),
    "stride": (_POSITIVE, None),
    "order_band": (_RANGE, list(_ORDER_BAND)),
    **_LIMITS,
})

_THEOREM1 = _object({
    "eps_list": (_array(_UNIT, "a non-empty list of numbers", min_size=1), _REQUIRED),
    **_ORBIT,
    "output": (_STUDY_OUTPUT, _REQUIRED),
    "stride": (_POSITIVE, None),
    **_LIMITS,
})

_PROBE_SEED, _PROBE_R, _PROBE_Z = toroidal_probes.__defaults__
(_DELTA,) = check_field.__defaults__
_CHECK_FIELD = _object({
    "epsilon": (_UNIT, _REQUIRED),
    "field": (_FIELD, _REQUIRED),
    "probes": (_object({
        "count": (_COUNT, 50),
        "seed": (_bounded(_INTEGER, lambda v: v >= 0, "must be nonnegative"), _PROBE_SEED),
        "r_range": (_bounded(_PAIR, lambda v: 0 < v[0] <= v[1],
                             "expected [low, high] with 0 < low <= high"), list(_PROBE_R)),
        "z_range": (_RANGE, list(_PROBE_Z)),
    }), {}),
    "delta": (_finite, _DELTA),
    "output": (_object({"path": (_PATH, _REQUIRED)}), None),
    "r_min": _R_MIN,
})


def _decode(text: str, schema) -> dict:
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise SchemaError("", f"invalid JSON: {e}") from e
    return schema(raw, "")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def parse_config(text: str) -> dict:
    """Parse and validate a run configuration, filling defaults.

    Unknown keys are rejected; errors carry a JSON-pointer-style path to
    the offending key.  The result is a dict shaped like the JSON.
    """
    return _decode(text, _RUN)


def _model(field: dict, epsilon: float, **r_min) -> ToroidalFieldModel:
    coefficients = {key: value for key, value in field.items() if key != "preset"}
    return ToroidalFieldModel(epsilon, **coefficients, **r_min)


def _run_spec(config: dict) -> ExperimentSpec:
    return ExperimentSpec(
        field=_model(config["field"], config["epsilon"], r_min=config["r_min"]),
        x0=config["x0"], v0=config["v0"], h=config["h"], t_final=config["t_final"],
        variant=config["variant"], dt_out=config["output"]["stride"],
        ref_h_factor=config["reference"]["h_factor"],
        ref_filtered_init=config["reference"]["filtered"],
        c=config["c"], budget_steps=config["budget_steps"], dtau=config["dtau"],
    )


# ---------------------------------------------------------------------------
# CSV writers / readers

TRAJECTORY_HEADER = "t,x1,x2,x3,v1,v2,v3,r,z,vpar,mu,energy"
DRIFT_HEADER = "t,r,z,vpar,rv_invariant"
ERROR_HEADER = "t,err_r,err_z,err_vpar"


# Rows per formatted chunk: large enough to amortise the per-chunk work, small
# enough that each chunk's copies stay a few hundred kB.  A CSV is written one
# chunk at a time, so the writer's memory does not grow with the run.
_CHUNK_ROWS = 1024


def _python_rows(block: np.ndarray) -> bytes:
    """The rows of a (rows, cols) array as CSV lines, one %.17g field per value.

    %.17g round-trips binary64 exactly.  This is the definition of the text:
    the C formatter of _kernels writes the same bytes.
    """
    row = ",".join(["%.17g"] * block.shape[1])
    return ("\n".join([row % values for values in zip(*block.T.tolist())]) + "\n").encode()


def _columns_csv(header: str, *columns) -> Iterator[bytes]:
    """The CSV as bytes chunks: the header line, then _CHUNK_ROWS lines at a time.

    Line i holds sample i, one field per column.  Each chunk is formatted
    when it is asked for: by the C kernel when it is available (its columns
    set up once per CSV), by _python_rows when there is none or when the C
    formatter refuses the chunk for a value outside its range.  Such a value
    costs its chunk's Python formatting, about 5.5 ms at 12 columns on 2
    cores; in every row, what _python_rows alone costs, about 6.5 us a row.
    """
    kernel = _kernels.compiled_kernel()
    yield header.encode() + b"\n"
    lines = kernel.format_rows(columns) if kernel else None
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        if lines is None or (chunk := lines(start, stop)) is None:
            chunk = _python_rows(np.column_stack([c[start:stop] for c in columns]))
        yield chunk


def trajectory_csv(traj: Trajectory) -> Iterator[bytes]:
    """The trajectory CSV's chunks; the observables are computed here, over the whole run."""
    obs = observables(traj)
    return _columns_csv(
        TRAJECTORY_HEADER, traj.t, *traj.x.T, *traj.v.T, obs.r, obs.z, obs.vpar, obs.mu, obs.energy
    )


def error_csv(err: ErrorSeries) -> Iterator[bytes]:
    return _columns_csv(ERROR_HEADER, err.t, err.err_r, err.err_z, err.err_vpar)


def read_series_csv(path: str, columns: tuple[str, ...]):
    """Read named columns from a CSV produced by this tool.

    A malformed file, or any field (read or not) that is not a finite
    number, is a SchemaError at path "" (the whole document) whose message
    names the file.
    """
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        missing = [c for c in columns if c not in header]
        if missing:
            raise SchemaError("", f"{path}: CSV lacks columns {missing}")
        idx = [header.index(c) for c in columns]
        rows = []
        for lineno, line in enumerate(f, start=2):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            if len(parts) != len(header):
                raise SchemaError("", f"{path}: line {lineno}: expected {len(header)} fields")
            try:
                row = [float(part) for part in parts]
            except ValueError:
                raise SchemaError("", f"{path}: line {lineno}: fields must be numbers") from None
            if not all(map(math.isfinite, row)):
                raise SchemaError("", f"{path}: line {lineno}: fields must be finite")
            rows.append([row[i] for i in idx])
    if not rows:
        raise SchemaError("", f"{path}: CSV has no data rows")
    data = np.asarray(rows, dtype=float)
    return {c: data[:, k] for k, c in enumerate(columns)}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    config = parse_config(_read(args.config))
    outputs = [("/output/path", config["output"]["path"])]
    _check_outputs([("--config", args.config)], outputs)
    traj = run_trajectory(_run_spec(config))
    _write_outputs(outputs, [trajectory_csv(traj)])
    if traj.error is not None:
        _diag("RuntimeDomainError", f"run aborted: {traj.error}", tag=traj.error,
              steps=traj.steps_completed)
        return EXIT_RUNTIME
    return EXIT_OK


def _cmd_drift(args) -> int:
    config = parse_config(_read(args.config))
    outputs = [("/output/path", config["output"]["path"])]
    _check_outputs([("--config", args.config)], outputs)
    traj = run_drift(_run_spec(config))
    columns = (traj.t, traj.r, traj.z, traj.vpar, traj.rv_invariant)
    _write_outputs(outputs, [_columns_csv(DRIFT_HEADER, *columns)])
    return EXIT_OK


def _cmd_compare(args) -> int:
    if args.config and (args.csv_a, args.csv_b, args.out, args.summary) != (None,) * 4:
        raise ValueError("--config writes the config's outputs: it takes no --csv-a, --csv-b, "
                         "--out or --summary")
    if args.csv_a or args.csv_b:
        if not (args.csv_a and args.csv_b and args.out):
            raise ValueError("CSV mode needs --csv-a, --csv-b and --out")
        if args.summary == "":
            raise ValueError("--summary must not be empty: leave it out to print the summary")
        outputs = [("--out", args.out), ("--summary", args.summary)]
        _check_outputs([("--csv-a", args.csv_a), ("--csv-b", args.csv_b)], outputs)
        cols = ("t", "r", "z", "vpar")
        a, b = (_SlowSeries(**read_series_csv(path, cols)) for path in (args.csv_a, args.csv_b))
        err = _error_series(a, b)
        summary = {"max_err": err.max_by_component(), "n_samples": len(err.t)}
    elif not args.config:
        raise ValueError("compare needs either --config or --csv-a/--csv-b/--out")
    else:
        config = parse_config(_read(args.config))
        outputs = [(f"/output/{key}", config["output"][key]) for key in ("path", "summary_path")]
        _check_outputs([("--config", args.config)], outputs)
        spec, against = _run_spec(config), config["against"]
        try:
            traj, err = compare(spec, against)
        except RunAborted as e:
            _diag("RuntimeDomainError", str(e), tag=e.tag)
            return EXIT_RUNTIME
        sigma_min, warnings = monitor_nondegeneracy(traj)
        summary = {
            "max_err": err.max_by_component(),
            "n_samples": len(err.t),
            "against": against,
            "epsilon": config["epsilon"],
            "h": config["h"],
            "variant": config["variant"],
            "steps": {"run": traj.steps_completed,
                      "reference": spec.reference_steps if against == "reference" else None},
            "sigma_min": sigma_min,
            "warnings": warnings,
        }
    text = json.dumps(summary, indent=2 if outputs[1][1] else None) + "\n"
    _write_outputs(outputs, [error_csv(err), [text.encode()]])
    return EXIT_OK


def _run_study(config: str, output: dict, path: str, entries: list, study, message: str,
               key: str) -> int:
    """Run study(), write its error CSVs (when csv_dir is set) and report; exit 4 on a failed gate.

    Entry i, (epsilon[, h]), names its CSV in {:g}'s 6 digits.  With csv_dir set, a name
    that an earlier, different entry gives is a SchemaError at path/<i> before any run; a
    repeated entry is the study's to refuse.  The outputs, in write order, are csv_dir, the
    CSV of each entry at path/<i> and the report at /output/path.
    """
    csv_dir = output["csv_dir"]
    outputs = []
    if csv_dir is not None:
        outputs.append((_CSV_DIR, csv_dir))
        names = ["errors_" + "_".join(f"{k}{v:g}" for k, v in zip(("eps", "h"), entry)) + ".csv"
                 for entry in entries]
        for i, (entry, name) in enumerate(zip(entries, names)):
            first = names.index(name)
            if entries[first] != entry:
                raise SchemaError(f"{path}/{i}", f"its error CSV name {name} is an earlier entry's")
            if first == i:
                outputs.append((f"{path}/{i}", os.path.join(csv_dir, name)))
    outputs.append(("/output/path", output["path"]))
    _check_outputs([("--config", config)], outputs)
    report, series = study()
    csvs = [None, *map(error_csv, series)] if csv_dir is not None else []
    _write_outputs(outputs, [*csvs, [(json.dumps(report, indent=2) + "\n").encode()]])
    if not report["passed"]:
        _diag("GateFailure", message, **{key: report[key]})
        return EXIT_GATE
    return EXIT_OK


def _cmd_converge(args) -> int:
    cfg = _decode(_read(args.config), _CONVERGE)
    scaled = cfg["mode"] == "scaled_pairs"
    for key in ("pairs", "epsilon", "h_list"):
        used = (key == "pairs") == scaled
        if used and cfg[key] is None:
            raise SchemaError(f"/{key}", "missing required key")
        if not used and cfg[key] is not None:
            raise SchemaError(f"/{key}", f"not used in {cfg['mode']} mode")
    pairs = cfg["pairs"] if scaled else [(cfg["epsilon"], h) for h in cfg["h_list"]]
    eps0, h0 = pairs[0]
    base_spec = ExperimentSpec(
        field=_model(cfg["field"], eps0), x0=cfg["x0"], v0=cfg["v0"], h=h0,
        t_final=cfg["c"] / eps0, variant="modified", dt_out=cfg["stride"], c=cfg["c"],
        budget_steps=cfg["budget_steps"], dtau=cfg["dtau"],
    )
    return _run_study(
        args.config, cfg["output"], "/pairs" if scaled else "/h_list", pairs,
        lambda: convergence_study(base_spec, cfg["mode"], h_list=cfg["h_list"],
                                  pairs=cfg["pairs"], order_band=cfg["order_band"]),
        "convergence order gate failed", "slopes",
    )


def _cmd_theorem1(args) -> int:
    cfg = _decode(_read(args.config), _THEOREM1)
    return _run_study(
        args.config, cfg["output"], "/eps_list", [(eps,) for eps in cfg["eps_list"]],
        lambda: theorem1_suite(
            _model(cfg["field"], cfg["eps_list"][0]), cfg["eps_list"], cfg["c"], cfg["x0"],
            cfg["v0"], dt_out=cfg["stride"], budget_steps=cfg["budget_steps"], dtau=cfg["dtau"],
        ),
        "epsilon scaling gate failed", "ratios",
    )


def _cmd_check_field(args) -> int:
    cfg = _decode(_read(args.config), _CHECK_FIELD)
    outputs = [("/output/path", cfg["output"] and cfg["output"]["path"])]
    _check_outputs([("--config", args.config)], outputs)
    probes = dict(cfg["probes"])
    points = toroidal_probes(probes.pop("count"), **probes)
    model = _model(cfg["field"], cfg["epsilon"], r_min=cfg["r_min"])
    text = json.dumps(check_field(model, points, delta=cfg["delta"]), indent=2) + "\n"
    _write_outputs(outputs, [[text.encode()]])
    return EXIT_OK


_COMMANDS = {
    "simulate": (_cmd_simulate, "run a pusher and write the trajectory CSV"),
    "drift": (_cmd_drift, "integrate the slow system and write its CSV"),
    "compare": (_cmd_compare, "error series of a run against reference or drift"),
    "converge": (_cmd_converge, "order-of-accuracy study (exit 4 on gate failure)"),
    "theorem1": (_cmd_theorem1, "epsilon-scaling study (exit 4 on gate failure)"),
    "check-field": (_cmd_check_field, "numerical field self-validation report"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="toroboris",
        description="Large-stepsize Boris pushers and slow-drift studies in toroidal fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", required=name != "compare")
        if name == "compare":
            for flag in ("--csv-a", "--csv-b", "--out", "--summary"):
                p.add_argument(flag)
    return parser


def cli_main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        # numpy overflow becomes FloatingPointError (exit 3), not a warning on stderr
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except SchemaError as e:
        _diag("SchemaError", str(e), path=e.path)
        return EXIT_CONFIG
    except (OSError, ValueError) as e:
        _diag("ConfigError", str(e))
        return EXIT_CONFIG
    except (ToroborisError, RuntimeError, ArithmeticError, MemoryError) as e:
        _diag(type(e).__name__, str(e))
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
