"""Command-line entry point.

    gradflow1d simulate   <config.json> [--output-dir D] [--quiet]
    gradflow1d equilibria <config.json> [--output-dir D] [--quiet]
    gradflow1d connect    <config.json> [--output-dir D] [--quiet]
    gradflow1d verify     <config.json> [--output-dir D] [--quiet]

Exit codes: 0 success, 1 config error, 2 blow-up, 3 verification failure.
All outputs are reproducible bit-for-bit for identical configs (seeds
included).
"""

from __future__ import annotations

import argparse
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

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BLOW_UP = 2
EXIT_VERIFY = 3


class ConfigError(ValueError):
    pass


# the keys each object may hold; `control` and `verify.control` are checked
# by StepControl, `spec` by problem.spec_from_dict
SECTION_KEYS = {
    "equilibria": {"constant_roots", "newton_guesses", "shooting"},
    "connect": {"match_tol", "tail_tol", "launches"},
    "verify": {"control", "suites", "t_max"},
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
    launches: list  # (LaunchSpec, from_value or None) pairs
    suites: tuple
    verify_control: dynamics.StepControl | None  # None: the suite's default
    verify_t_max: float | None


def load_config(path: str) -> RunConfig:
    """Read a config and check every section, whichever subcommand runs;
    only the launch checks against the catalog are left to `cmd_connect`."""
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON: {e}") from e
    if not isinstance(data, dict) or "spec" not in data:
        raise ConfigError("config must be an object with a 'spec' section")
    _keys(data, TOP_KEYS, "config")
    try:
        spec = problem.spec_from_dict(data["spec"])
    except problem.SpecValidationError as e:
        raise ConfigError(str(e)) from e
    grid = problem.make_grid(spec)
    eqs, conn, ver = (_keys(data.get(name, {}), keys, name)
                      for name, keys in SECTION_KEYS.items())
    t_max = _positive(data, "t_max", 10.0, "run")
    tol_eq = _number(data, "tol_eq", 1e-8, "run")
    if not tol_eq >= 0:
        raise ConfigError(f"tol_eq must be >= 0, got {tol_eq!r}")
    seed = _integer(data, "seed", 0, 0)
    constant_roots = eqs.get("constant_roots", True)
    if not isinstance(constant_roots, bool):
        raise ConfigError(f"equilibria.constant_roots must be true or false, "
                          f"got {constant_roots!r}")
    suites = ver.get("suites", list(verify.SUITES))
    if not isinstance(suites, list):
        raise ConfigError("verify.suites must be a list of suite names")
    unknown = [n for n in suites if n not in verify.SUITES]
    if unknown:
        raise ConfigError(f"unknown verify suites {unknown}; "
                          f"known: {list(verify.SUITES)}")
    verify_control = _object(ver.get("control", {}), "verify.control")
    return RunConfig(
        spec=spec,
        control=_control(data.get("control", {}), "control", spec),
        u0=_sampled(grid, data.get("initial_condition", "0"), "initial_condition"),
        t_max=t_max,
        snapshot_stride=_integer(data, "snapshot_stride", 64, 1),
        output_dir=_string(data.get("output_dir", "out"), "output_dir"),
        seed=seed,
        tol_eq=tol_eq,
        constant_roots=constant_roots,
        newton_guesses=[_string(src, "newton_guesses entry")
                        for src in _list(eqs, "newton_guesses", "equilibria")],
        shooting=[_keys(shot, SHOOTING_KEYS, "shooting entry")
                  for shot in _list(eqs, "shooting", "equilibria")],
        match_tol=_number(conn, "match_tol", connections.DEFAULT_MATCH_TOL, "connect"),
        tail_tol=_number(conn, "tail_tol", connections.DEFAULT_TAIL_TOL, "connect"),
        launches=[_launch(entry, grid, t_max, seed)
                  for entry in _list(conn, "launches", "connect")],
        suites=tuple(suites),
        # an empty verify.control keeps the suite's default
        verify_control=(_control(verify_control, "verify.control", spec)
                        if verify_control else None),
        verify_t_max=(None if ver.get("t_max") is None
                      else _positive(ver, "t_max", None, "verify")),
    )


def _launch(entry, grid, t_max: float, seed: int):
    """One `connect.launches` entry as (LaunchSpec, from_value or None)."""
    kind = _object(entry, "launch entry").get("kind", "launch")
    if not isinstance(kind, str) or kind not in LAUNCH_KEYS:
        raise ConfigError(f"launch kind must be one of {sorted(LAUNCH_KEYS)}, "
                          f"got {kind!r}")
    _keys(entry, LAUNCH_KEYS[kind], f"{kind} entry")
    run_t_max = _positive(entry, "t_max", t_max, "launch")
    if kind == "front":
        if "initial_condition" not in entry:
            raise ConfigError("front entry needs initial_condition")
        source = entry["initial_condition"]
        _sampled(grid, source, "front initial_condition")
        return connections.LaunchSpec(kind="front", initial_condition=source,
                                      t_max=run_t_max), None
    from_value = None
    if "from_index" in entry:
        idx = entry["from_index"]
        if isinstance(idx, bool) or not isinstance(idx, int):
            raise ConfigError(f"from_index must be an integer, got {idx!r}")
    elif "from_value" in entry:
        idx, from_value = 0, _number(entry, "from_value", 0.0, "launch")
    else:
        raise ConfigError("launch entry needs from_index or from_value")
    return connections.LaunchSpec(
        kind="launch", from_index=idx, amplitude=_number(entry, "amplitude", 1e-3, "launch"),
        t_max=run_t_max, seed=seed), from_value


def _control(value, what: str, spec) -> dynamics.StepControl:
    """A StepControl from a config object; sup_guard defaults to the spec's."""
    data = {"sup_guard": spec.sup_guard, **_object(value, what)}
    try:
        return dynamics.StepControl(**data)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad {what} section: {e}") from e


def _sampled(grid, value, what: str) -> Field:
    """An expression string sampled on the grid."""
    source = _string(value, what)
    try:
        return Field.from_expr(grid, source)
    except (ExprError, ValueError) as e:
        raise ConfigError(f"bad {what}: {e}") from e


def _keys(value, allowed, what: str) -> dict:
    """value as an object whose keys all lie in allowed."""
    unknown = _object(value, what).keys() - allowed
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {value!r}")
    return value


def _list(section: dict, key: str, where: str) -> list:
    value = section.get(key, [])
    if not isinstance(value, list):
        raise ConfigError(f"{where}.{key} must be a list, got {value!r}")
    return value


def _string(value, what: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    return value


def _integer(section: dict, key: str, default: int, least: int) -> int:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")
    return value


def _number(section: dict, key: str, default: float, where: str) -> float:
    try:
        value = float(section.get(key, default))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad {where} field {key!r}: {e}") from e
    if not math.isfinite(value):
        raise ConfigError(f"{where} field {key!r} must be finite, got {value!r}")
    return value


def _positive(section: dict, key: str, default: float, where: str) -> float:
    value = _number(section, key, default, where)
    if not value > 0:
        raise ConfigError(f"{where} field {key!r} must be > 0, got {value!r}")
    return value


def _say(quiet: bool, *args) -> None:
    if not quiet:
        print(*args)


def cmd_simulate(cfg: RunConfig, out_dir: str, quiet: bool) -> int:
    traj = dynamics.run(cfg.spec, cfg.u0, cfg.control, cfg.t_max,
                        dynamics.StopRule(cfg.tol_eq),
                        snapshot_stride=cfg.snapshot_stride)
    summary = traj.summary_dict()
    summary["coefficient_norms"] = [
        {"L1": l1, "Linf": li} for l1, li in problem.coefficient_norms(cfg.spec)
    ]
    summary["note"] = ("domain truncated to a box; constant coefficients are "
                       "integrable on the box only")
    traj.write_outputs(out_dir, summary)
    _say(quiet, f"status: {traj.status}  t={traj.final_time:.6g}  "
                f"steps={traj.steps}")
    if traj.status == dynamics.BLOW_UP:
        return EXIT_BLOW_UP
    return EXIT_OK


def build_catalog(cfg: RunConfig):
    """Equilibrium catalog plus per-entry error records."""
    g = problem.make_grid(cfg.spec)
    nl = Nonlinearity(cfg.spec, g)
    catalog = []
    errors = []

    def is_new(eq) -> bool:
        return all(np.max(np.abs(eq.field.values - c.field.values)) > 1e-8
                   for c in catalog)

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
            path = equilibria.shoot(nl, float(shot["u_left"]),
                                    float(shot["slope"]), (-half, half))
            if path.escaped:
                errors.append({"source": "shooting", "start": shot,
                               "error": "path escaped the box"})
                continue
            guess = Field(g, np.interp(g.nodes, path.xs, path.us))
            eq = replace(equilibria.newton_refine(nl, guess), source="shooting")
            if eq.residual <= equilibria.RESIDUAL_TOL_SHOOTING and is_new(eq):
                catalog.append(eq)
        except (KeyError, TypeError, ValueError, ArithmeticError) as e:
            errors.append({"source": "shooting", "start": shot, "error": str(e)})
    return catalog, errors


def cmd_equilibria(cfg: RunConfig, out_dir: str, quiet: bool) -> int:
    catalog, errors = build_catalog(cfg)
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
    catalog, _ = build_catalog(cfg)
    plan = []
    for launch, want in cfg.launches:
        if want is not None:
            if not catalog:
                raise ConfigError("from_value needs a non-empty catalog")
            nearest = min(range(len(catalog)), key=lambda i: abs(
                float(catalog[i].field.values.mean()) - want))
            launch = replace(launch, from_index=nearest)
        elif launch.kind == "launch" and not 0 <= launch.from_index < len(catalog):
            raise ConfigError(f"from_index {launch.from_index} outside the catalog")
        plan.append(launch)
    table = connections.connection_energy_audit(
        cfg.spec, catalog, plan, cfg.control,
        stop=dynamics.StopRule(cfg.tol_eq), match_tol=cfg.match_tol,
        tail_tol=cfg.tail_tol)
    os.makedirs(out_dir, exist_ok=True)
    table.write_csv(os.path.join(out_dir, "connections.csv"))
    for row in table.rows:
        verdict = "excluded" if row.passed is None else ("pass" if row.passed else "FAIL")
        _say(quiet, f"launch {row.launch_id}: {row.status} "
                    f"[{row.from_index}->{row.to_index}] {verdict}")
    return EXIT_OK if table.all_passed else EXIT_VERIFY


def cmd_verify(cfg: RunConfig, out_dir: str, quiet: bool) -> int:
    results = verify.default_suites(seed=cfg.seed, ctrl=cfg.verify_control,
                                    t_max=cfg.verify_t_max, names=cfg.suites)
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
        out_dir = args.output_dir or cfg.output_dir
        handler = {
            "simulate": cmd_simulate,
            "equilibria": cmd_equilibria,
            "connect": cmd_connect,
            "verify": cmd_verify,
        }[args.command]
        return handler(cfg, out_dir, args.quiet)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
