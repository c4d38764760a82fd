"""Command-line entry point.

    gradflow1d simulate   <config.json> [--output-dir D] [--quiet]
    gradflow1d equilibria <config.json> [--output-dir D] [--quiet]
    gradflow1d connect    <config.json> [--output-dir D] [--quiet]
    gradflow1d verify     <config.json> [--output-dir D] [--quiet]

Exit codes: 0 success, 1 config error, 2 blow-up, 3 verification failure.
All outputs are reproducible bit-for-bit for identical configs (seeds
included) on one host with one numpy and BLAS build.  Across CPUs, the
trajectory `simulate` writes (snapshots, step counts, times, sup norms,
ut_sup) and the eigenpairs `connect` launches along are host-independent:
the step and inverse iteration solve with LAPACK dpttrs (no BLAS), the
eigenvalue is a bisection whose probes factor with dpttrf (no BLAS), and P
and Q use no power kernel.  The action, energy_cum and connection energies take
sums of squares through BLAS ddot, whose last bits depend on the CPU.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import connections, dynamics, equilibria, problem, verify
from .exprlang import ExprError
from .grid import Field, write_field_csv
from .nonlinearity import Nonlinearity
from .problem import (
    SpecValidationError,
    read_boolean,
    read_integer,
    read_keys,
    read_list,
    read_number,
    read_object,
    read_positive,
    read_string,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BLOW_UP = 2
EXIT_VERIFY = 3


# the keys each object may hold; `control` is checked by StepControl, `spec`
# by problem.spec_from_dict (its keys: problem.SPEC_KEYS)
SECTION_KEYS = {
    "equilibria": {"constant_roots", "newton_guesses", "shooting"},
    "connect": {"match_tol", "tail_tol", "launches"},
    "verify": {"suites"},
}
TOP_KEYS = {"spec", "control", "initial_condition", "t_max", "snapshot_stride",
            "output_dir", "seed", "tol_eq", *SECTION_KEYS}
SHOOTING_KEYS = {"u_left", "slope"}
LAUNCH_KEYS = {
    "launch": {"kind", "from_index", "from_value", "amplitude", "t_max"},
    "front": {"kind", "initial_condition", "t_max"},
}


@dataclass
class RunConfig:
    """A config with every section validated; the subcommands only read it."""

    spec: problem.ProblemSpec
    control: dynamics.StepControl
    u0: Field  # the initial condition, sampled on the spec's grid
    t_max: float
    snapshot_stride: int
    output_dir: str
    seed: int
    tol_eq: float
    constant_roots: bool
    newton_guesses: list  # expressions; one that fails is an `errors` entry
    shooting: list  # {"u_left", "slope"} objects; bad values are `errors` entries
    match_tol: float
    tail_tol: float
    launches: list  # LaunchSpecs; from_value is resolved by `cmd_connect`
    suites: tuple


def load_config(path: str) -> RunConfig:
    """Read a config and check every section, whichever subcommand runs;
    only the launch checks against the catalog are left to `cmd_connect`."""
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise SpecValidationError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise SpecValidationError(f"invalid JSON: {e}") from e
    if not isinstance(data, dict) or "spec" not in data:
        raise SpecValidationError("config must be an object with a 'spec' section")
    read_keys(data, TOP_KEYS, "config")
    spec = problem.spec_from_dict(data["spec"])
    grid = problem.make_grid(spec)
    eqs, conn, ver = (read_keys(data.get(name, {}), keys, name)
                      for name, keys in SECTION_KEYS.items())
    t_max = read_positive(data, "t_max", 10.0, "run")
    tol_eq = read_number(data, "tol_eq", dynamics.DEFAULT_TOL_EQ, "run")
    if not tol_eq >= 0:
        raise SpecValidationError(f"tol_eq must be >= 0, got {tol_eq!r}")
    suites = read_list(ver, "suites", "verify") if "suites" in ver else list(verify.SUITES)
    unknown = [n for n in suites if n not in verify.SUITES]
    if unknown:
        raise SpecValidationError(f"unknown verify suites {unknown}; "
                                  f"known: {list(verify.SUITES)}")
    output_dir = read_string(data.get("output_dir", "out"), "output_dir")
    return RunConfig(
        spec=spec,
        control=_control(data.get("control", {}), spec),
        u0=_sampled(grid, data.get("initial_condition", "0"), "initial_condition"),
        t_max=t_max,
        snapshot_stride=read_integer(data, "snapshot_stride", 64, 1),
        output_dir=output_dir,
        seed=read_integer(data, "seed", 0, 0),
        tol_eq=tol_eq,
        constant_roots=read_boolean(eqs, "constant_roots", True, "equilibria"),
        newton_guesses=[read_string(src, "newton_guesses entry")
                        for src in read_list(eqs, "newton_guesses", "equilibria")],
        shooting=[read_keys(shot, SHOOTING_KEYS, "shooting entry")
                  for shot in read_list(eqs, "shooting", "equilibria")],
        match_tol=read_number(conn, "match_tol", connections.DEFAULT_MATCH_TOL, "connect"),
        tail_tol=read_number(conn, "tail_tol", connections.DEFAULT_TAIL_TOL, "connect"),
        launches=[_launch(entry, grid, t_max)
                  for entry in read_list(conn, "launches", "connect")],
        suites=tuple(suites),
    )


def _launch(entry, grid, t_max: float) -> connections.LaunchSpec:
    """One `connect.launches` entry; a front's initial condition is sampled."""
    kind = read_string(read_object(entry, "launch entry").get("kind", "launch"),
                       "launch kind")
    if kind not in LAUNCH_KEYS:
        raise SpecValidationError(f"launch kind must be one of {sorted(LAUNCH_KEYS)}, "
                                  f"got {kind!r}")
    read_keys(entry, LAUNCH_KEYS[kind], f"{kind} entry")
    run_t_max = read_positive(entry, "t_max", t_max, "launch")
    if kind == "front":
        if "initial_condition" not in entry:
            raise SpecValidationError("front entry needs initial_condition")
        u0 = _sampled(grid, entry["initial_condition"], "front initial_condition")
        return connections.LaunchSpec(u0=u0, t_max=run_t_max)
    if len({"from_index", "from_value"} & entry.keys()) != 1:
        raise SpecValidationError("launch entry needs one of from_index and from_value")
    from_value = None
    if "from_index" in entry:
        idx = entry["from_index"]
        if isinstance(idx, bool) or not isinstance(idx, int):
            raise SpecValidationError(f"from_index must be an integer, got {idx!r}")
    else:
        idx, from_value = 0, read_number(entry, "from_value", 0.0, "launch")
    amplitude = read_number(entry, "amplitude", 1e-3, "launch")
    return connections.LaunchSpec(from_index=idx, from_value=from_value,
                                  amplitude=amplitude, t_max=run_t_max)


def _control(value, spec) -> dynamics.StepControl:
    """The StepControl of the `control` object; sup_guard defaults to the spec's."""
    data = {"sup_guard": spec.sup_guard, **read_object(value, "control")}
    data = {key: read_number(data, key, None, "control") for key in data}
    try:
        return dynamics.StepControl(**data)
    except (TypeError, ValueError) as e:
        raise SpecValidationError(f"bad control section: {e}") from e


def _sampled(grid, value, what: str) -> Field:
    """An expression string sampled on the grid."""
    source = read_string(value, what)
    try:
        return Field.from_expr(grid, source)
    except (ExprError, ValueError) as e:
        raise SpecValidationError(f"bad {what}: {e}") from e


def _say(quiet: bool, *args) -> None:
    if not quiet:
        print(*args)


def cmd_simulate(cfg: RunConfig, out_dir: str, quiet: bool) -> int:
    nl = Nonlinearity(cfg.spec, cfg.u0.grid)
    traj = dynamics.run(cfg.spec, cfg.u0, cfg.control, cfg.t_max, cfg.tol_eq,
                        nl=nl, snapshot_stride=cfg.snapshot_stride)
    summary = traj.summary_dict()
    summary["coefficient_norms"] = [
        {"L1": l1, "Linf": li} for l1, li in problem.coefficient_norms(nl)
    ]
    summary["note"] = ("domain truncated to a box; constant coefficients are "
                       "integrable on the box only")
    traj.write_outputs(out_dir, summary)
    _say(quiet, f"status: {traj.status}  t={traj.final_time:.6g}  "
                f"steps={traj.steps}")
    if traj.status == dynamics.BLOW_UP:
        return EXIT_BLOW_UP
    return EXIT_OK


def build_catalog(cfg: RunConfig, nl: Nonlinearity):
    """Equilibrium catalog plus per-entry error records."""
    g = nl.grid
    catalog = []
    errors = []

    def is_new(eq) -> bool:
        return equilibria.nearest(catalog, eq.field)[1] > 1e-8

    if cfg.constant_roots:
        try:
            catalog.extend(equilibria.constant_equilibria(nl))
        except (equilibria.NonConstantCoefficientsError, ArithmeticError) as e:
            errors.append({"source": "constant", "error": str(e)})
    for src in cfg.newton_guesses:
        try:
            eq = equilibria.newton_refine(nl, Field.from_expr(g, src))
            if is_new(eq):
                catalog.append(eq)
        except (ExprError, ValueError, ArithmeticError) as e:
            errors.append({"source": "newton", "guess": src, "error": str(e)})
    half = cfg.spec.box_half_length
    for shot in cfg.shooting:
        try:
            # a SpecValidationError is a ValueError: a bad start is an `errors` entry
            u_left, slope = (read_number(shot, key, None, "shooting")
                             for key in ("u_left", "slope"))
            path = equilibria.shoot(nl, u_left, slope, (-half, half))
            if path.escaped:
                errors.append({"source": "shooting", "start": shot,
                               "error": "path escaped the box"})
                continue
            guess = Field(g, np.interp(g.nodes, path.xs, path.us))
            eq = replace(equilibria.newton_refine(nl, guess), source="shooting")
            if is_new(eq):
                catalog.append(eq)
        except (ValueError, ArithmeticError) as e:
            errors.append({"source": "shooting", "start": shot, "error": str(e)})
    return catalog, errors


def cmd_equilibria(cfg: RunConfig, out_dir: str, quiet: bool) -> int:
    catalog, errors = build_catalog(cfg, Nonlinearity(cfg.spec, cfg.u0.grid))
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for i, eq in enumerate(catalog):
        snap = f"eq_{i}.csv"
        write_field_csv(eq.field, os.path.join(out_dir, snap))
        entries.append({
            "residual": eq.residual,
            "action": eq.action,
            "bounded_below": eq.bounded_below,
            "bounded_above": eq.bounded_above,
            "source": eq.source,
            "snapshot": snap,
        })
    with open(os.path.join(out_dir, "equilibria.json"), "w") as f:
        json.dump({"equilibria": entries, "errors": errors}, f, indent=2)
        f.write("\n")
    _say(quiet, f"catalog: {len(entries)} equilibria, {len(errors)} error entries")
    return EXIT_OK


def cmd_connect(cfg: RunConfig, out_dir: str, quiet: bool) -> int:
    nl = Nonlinearity(cfg.spec, cfg.u0.grid)  # the one reaction of the catalog and the audit
    catalog, _ = build_catalog(cfg, nl)
    plan = []
    for launch in cfg.launches:
        want = launch.from_value
        if want is not None:
            if not catalog:
                raise SpecValidationError("from_value needs a non-empty catalog")
            nearest = min(range(len(catalog)), key=lambda i: abs(
                float(catalog[i].field.values.mean()) - want))
            launch = replace(launch, from_index=nearest)
        elif launch.u0 is None and not 0 <= launch.from_index < len(catalog):
            raise SpecValidationError(f"from_index {launch.from_index} outside the catalog")
        plan.append(launch)
    table = connections.connection_energy_audit(
        nl, catalog, plan, cfg.control,
        tol_eq=cfg.tol_eq, match_tol=cfg.match_tol,
        tail_tol=cfg.tail_tol)
    os.makedirs(out_dir, exist_ok=True)
    table.write_csv(os.path.join(out_dir, "connections.csv"))
    for launch_id, row in enumerate(table.rows):
        verdict = "excluded" if row.passed is None else ("pass" if row.passed else "FAIL")
        _say(quiet, f"launch {launch_id}: {row.status} "
                    f"[{row.from_index}->{row.to_index}] {verdict}"
                    + (f"; {row.note}" if row.note else ""))
    return EXIT_OK if table.all_passed else EXIT_VERIFY


def cmd_verify(cfg: RunConfig, out_dir: str, quiet: bool) -> int:
    results = verify.default_suites(cfg.seed, cfg.suites)
    for res in results:
        _say(quiet, f"{res.name}: {'pass' if res.passed else 'FAIL'}")
    os.makedirs(out_dir, exist_ok=True)
    report = {
        "suites": [
            {"name": r.name, "passed": bool(r.passed), "details": _jsonable(r.details)}
            for r in results
        ],
        "all_passed": bool(all(r.passed for r in results)),
    }
    with open(os.path.join(out_dir, "verify_report.json"), "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    return EXIT_OK if report["all_passed"] else EXIT_VERIFY


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.bool_):
        value = bool(value)
    if isinstance(value, np.floating):
        value = float(value)
    if isinstance(value, np.integer):
        value = int(value)
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gradflow1d",
        description="1-D semilinear reaction-diffusion gradient-flow laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "equilibria", "connect", "verify"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a JSON run configuration")
        p.add_argument("--output-dir", default=None)
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out_dir = cfg.output_dir if args.output_dir is None else args.output_dir
        _check_output_dir(out_dir)
        handler = {
            "simulate": cmd_simulate,
            "equilibria": cmd_equilibria,
            "connect": cmd_connect,
            "verify": cmd_verify,
        }[args.command]
        return handler(cfg, out_dir, args.quiet)
    except SpecValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:  # the config was read in load_config
        print(f"error: cannot write outputs: {e}", file=sys.stderr)
        return EXIT_CONFIG


def _check_output_dir(out_dir: str) -> None:
    """Raise OSError before any computation when out_dir is not a
    directory and cannot be made one, and SpecValidationError when it is
    empty.  Nothing is created: a config error found later (a launch outside
    the catalog) still leaves no output."""
    if not out_dir:
        raise SpecValidationError("output_dir must not be empty")
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), path)
    if not os.access(path, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


if __name__ == "__main__":
    sys.exit(main())
