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
from dataclasses import dataclass, field

import numpy as np

from . import connections, dynamics, equilibria, problem, verify
from .exprlang import ExprError
from .grid import Field, sup_norm, write_field_csv
from .nonlinearity import Nonlinearity

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_BLOW_UP = 2
EXIT_VERIFY = 3


class ConfigError(ValueError):
    pass


# the keys each optional section may hold; `control` is checked by StepControl
SECTION_KEYS = {
    "equilibria": {"constant_roots", "newton_guesses", "shooting"},
    "connect": {"match_tol", "tail_tol", "launches"},
    "verify": {"control", "suites", "t_max"},
}
SHOOTING_KEYS = {"u_left", "slope"}
LAUNCH_KEYS = {
    "launch": {"kind", "from_index", "from_value", "amplitude", "t_max"},
    "front": {"kind", "initial_condition", "t_max"},
}


@dataclass
class RunConfig:
    spec: problem.ProblemSpec
    control: dynamics.StepControl
    initial_condition: str = "0"
    t_max: float = 10.0
    snapshot_stride: int = 64
    output_dir: str = "out"
    seed: int = 0
    tol_eq: float = 1e-8
    equilibria: dict = field(default_factory=dict)
    connect: dict = field(default_factory=dict)
    verify: dict = field(default_factory=dict)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON: {e}") from e
    if not isinstance(data, dict) or "spec" not in data:
        raise ConfigError("config must be an object with a 'spec' section")
    try:
        spec = problem.spec_from_dict(data["spec"])
    except problem.SpecValidationError as e:
        raise ConfigError(str(e)) from e
    ctrl_data = dict(_object(data.get("control", {}), "control"))
    ctrl_data.setdefault("sup_guard", spec.sup_guard)
    try:
        ctrl = dynamics.StepControl(**ctrl_data)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad control section: {e}") from e
    known = {"spec", "control", "initial_condition", "t_max", "snapshot_stride",
             "output_dir", "seed", "tol_eq", *SECTION_KEYS}
    unknown = data.keys() - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    t_max = _positive(data, "t_max", 10.0, "run")
    tol_eq = _number(data, "tol_eq", 1e-8, "run")
    if not tol_eq >= 0:
        raise ConfigError(f"tol_eq must be >= 0, got {tol_eq!r}")
    seed = _integer(data, "seed", 0, 0)
    stride = _integer(data, "snapshot_stride", 64, 1)
    initial_condition = _string(data.get("initial_condition", "0"), "initial_condition")
    output_dir = _string(data.get("output_dir", "out"), "output_dir")
    sections = {}
    for name, keys in SECTION_KEYS.items():
        section = sections[name] = _object(data.get(name, {}), name)
        unknown = section.keys() - keys
        if unknown:
            raise ConfigError(f"unknown {name} fields: {sorted(unknown)}")
    constant_roots = sections["equilibria"].get("constant_roots", True)
    if not isinstance(constant_roots, bool):
        raise ConfigError(f"equilibria.constant_roots must be true or false, "
                          f"got {constant_roots!r}")
    for src in _list(sections["equilibria"], "newton_guesses", "equilibria"):
        _string(src, "newton_guesses entry")
    for shot in _list(sections["equilibria"], "shooting", "equilibria"):
        unknown = _object(shot, "shooting entry").keys() - SHOOTING_KEYS
        if unknown:
            raise ConfigError(f"unknown shooting entry fields: {sorted(unknown)}")
    _list(sections["connect"], "launches", "connect")
    if "control" in sections["verify"]:
        _object(sections["verify"]["control"], "verify.control")
    return RunConfig(
        spec=spec,
        control=ctrl,
        initial_condition=initial_condition,
        t_max=t_max,
        snapshot_stride=stride,
        output_dir=output_dir,
        seed=seed,
        tol_eq=tol_eq,
        **sections,
    )


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
    g = problem.make_grid(cfg.spec)
    try:
        u0 = Field.from_expr(g, cfg.initial_condition)
    except (ExprError, ValueError) as e:
        print(f"error: bad initial condition: {e}", file=sys.stderr)
        return EXIT_CONFIG
    traj = dynamics.run(cfg.spec, u0, cfg.control, cfg.t_max,
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
    opts = cfg.equilibria
    catalog = []
    errors = []
    if opts.get("constant_roots", True):
        try:
            catalog.extend(equilibria.constant_equilibria(nl))
        except (equilibria.NonConstantCoefficientsError, ArithmeticError) as e:
            errors.append({"source": "constant", "error": str(e)})
    for src in opts.get("newton_guesses", []):
        try:
            guess = Field.from_expr(g, src)
            eq = equilibria.newton_refine(nl, guess)
            if all(sup_norm(Field(g, eq.field.values - c.field.values)) > 1e-8
                   for c in catalog):
                catalog.append(eq)
        except (ExprError, ValueError, ArithmeticError) as e:
            errors.append({"source": "newton", "guess": src, "error": str(e)})
    half = cfg.spec.box_half_length
    for shot in opts.get("shooting", []):
        try:
            path = equilibria.shoot(nl, float(shot["u_left"]),
                                    float(shot["slope"]), (-half, half))
            if path.escaped:
                errors.append({"source": "shooting", "start": shot,
                               "error": "path escaped the box"})
                continue
            guess = Field(g, np.interp(g.nodes, path.xs, path.us))
            eq = equilibria.newton_refine(nl, guess)
            eq = equilibria.Equilibrium(
                field=eq.field, residual=eq.residual, action=eq.action,
                bounded_below=eq.bounded_below, bounded_above=eq.bounded_above,
                source="shooting")
            if (eq.residual <= equilibria.RESIDUAL_TOL_SHOOTING
                    and all(sup_norm(Field(g, eq.field.values - c.field.values)) > 1e-8
                            for c in catalog)):
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


def _parse_plan(cfg: RunConfig, catalog) -> list[connections.LaunchSpec]:
    plan = []
    for entry in cfg.connect.get("launches", []):
        if not isinstance(entry, dict):
            raise ConfigError(f"launch entry must be an object, got {entry!r}")
        kind = entry.get("kind", "launch")
        if not isinstance(kind, str) or kind not in LAUNCH_KEYS:
            raise ConfigError(f"launch kind must be one of {sorted(LAUNCH_KEYS)}, "
                              f"got {kind!r}")
        unknown = entry.keys() - LAUNCH_KEYS[kind]
        if unknown:
            raise ConfigError(f"unknown {kind} entry fields: {sorted(unknown)}")
        if kind == "front":
            if "initial_condition" not in entry:
                raise ConfigError("front entry needs initial_condition")
            plan.append(connections.LaunchSpec(
                kind="front",
                initial_condition=_string(entry["initial_condition"],
                                          "front initial_condition"),
                t_max=_positive(entry, "t_max", cfg.t_max, "launch"),
            ))
            continue
        if "from_index" in entry:
            idx = entry["from_index"]
            if isinstance(idx, bool) or not isinstance(idx, int):
                raise ConfigError(f"from_index must be an integer, got {idx!r}")
        elif "from_value" in entry:
            want = _number(entry, "from_value", 0.0, "launch")
            if not catalog:
                raise ConfigError("from_value needs a non-empty catalog")
            idx = min(range(len(catalog)),
                      key=lambda i: abs(float(catalog[i].field.values.mean()) - want))
        else:
            raise ConfigError("launch entry needs from_index or from_value")
        if not 0 <= idx < len(catalog):
            raise ConfigError(f"from_index {idx} outside the catalog")
        plan.append(connections.LaunchSpec(
            kind="launch",
            from_index=idx,
            amplitude=_number(entry, "amplitude", 1e-3, "launch"),
            t_max=_positive(entry, "t_max", cfg.t_max, "launch"),
            seed=cfg.seed,
        ))
    return plan


def cmd_connect(cfg: RunConfig, out_dir: str, quiet: bool) -> int:
    opts = cfg.connect
    match_tol = _number(opts, "match_tol", connections.DEFAULT_MATCH_TOL, "connect")
    tail_tol = _number(opts, "tail_tol", connections.DEFAULT_TAIL_TOL, "connect")
    catalog, _ = build_catalog(cfg)
    plan = _parse_plan(cfg, catalog)
    table = connections.connection_energy_audit(
        cfg.spec, catalog, plan, cfg.control,
        stop=dynamics.StopRule(cfg.tol_eq), match_tol=match_tol, tail_tol=tail_tol)
    os.makedirs(out_dir, exist_ok=True)
    table.write_csv(os.path.join(out_dir, "connections.csv"))
    for row in table.rows:
        verdict = "excluded" if row.passed is None else ("pass" if row.passed else "FAIL")
        _say(quiet, f"launch {row.launch_id}: {row.status} "
                    f"[{row.from_index}->{row.to_index}] {verdict}")
    return EXIT_OK if table.all_passed else EXIT_VERIFY


def cmd_verify(cfg: RunConfig, out_dir: str, quiet: bool) -> int:
    ctrl = None
    if cfg.verify.get("control"):
        data = dict(cfg.verify["control"])
        data.setdefault("sup_guard", cfg.spec.sup_guard)
        try:
            ctrl = dynamics.StepControl(**data)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad verify.control section: {e}") from e
    names = cfg.verify.get("suites", verify.SUITES)
    if not isinstance(names, (list, tuple)):
        raise ConfigError("verify.suites must be a list of suite names")
    unknown = [n for n in names if n not in verify.SUITES]
    if unknown:
        raise ConfigError(f"unknown verify suites {unknown}; "
                          f"known: {list(verify.SUITES)}")
    t_max = None
    if cfg.verify.get("t_max") is not None:
        t_max = _positive(cfg.verify, "t_max", None, "verify")
    results = verify.default_suites(seed=cfg.seed, ctrl=ctrl, t_max=t_max, names=names)
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
