"""The three seeded workloads of the gradflow1d benchmark.

`plan(name, seed, root)` turns a seed into plain JSON data (specs, configs,
initial-data parameters) and imports nothing from gradflow1d, so two plans
can be compared directly.  `build(name, plan, root, work_dir)` turns a plan
into validated program inputs and a list of `Op`s.  Each op's `run` is the
timed call into the program; its `check` runs afterwards, untimed, and
returns the checks that failed.

The layout of each workload (grid sizes, closures, degrees, which members
blow up) is fixed and only the continuous parameters come from the seed, so
every seed costs about the same and run-to-run spread stays small.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("ensemble_small", "cli_session", "catalog_varcoef")
CLOSURES = ("periodic", "dirichlet0", "neumann0")
BOX_HALF_LENGTH = 5.0
OUTPUT_FILES = ("diagnostics.csv", "run_summary.json", "equilibria.json",
                "connections.csv", "verify_report.json")


@dataclass
class Op:
    kind: str                                  # e.g. "simulate", "unstable_direction"
    label: str                                 # which input, e.g. "fisher"
    run: Callable[[str], object]               # op_dir -> result; the timed part
    check: Callable[[object, str], list]       # (result, op_dir) -> failed checks
    then: Callable[[object, str], list] | None = None  # follow-up ops from the result


# -- plans -------------------------------------------------------------------

# ensemble_small: every (M, closure) cell runs each bounded class once; the
# four blow-up members (even N, leading -u^N, negative data) sit in fixed
# cells, so 4 of 40 members (10%) blow up.
ENSEMBLE_SIZES = (16, 32, 64)
ENSEMBLE_BOUNDED = ((2, True), (3, False), (3, True), (4, True))  # (N, signed_power)
ENSEMBLE_BLOWUP = ((2, 32, "periodic"), (4, 16, "dirichlet0"),
                   (4, 32, "neumann0"), (4, 64, "periodic"))      # (N, M, closure)
ENSEMBLE_T_MAX = 0.5

# cli_session: one op per subcommand section of each shipped config.
CLI_OPS = (("simulate", "blowup"), ("simulate", "cubic"), ("simulate", "fisher"),
           ("simulate", "front"), ("equilibria", "cubic"), ("equilibria", "fisher"),
           ("connect", "cubic"), ("connect", "fisher"), ("connect", "front"),
           ("verify", "verify"))
CLI_VERIFY_SUITES = ["action_monotonicity", "blowup_timing"]
CLI_TINY_OPS = (("simulate", "blowup"), ("simulate", "cubic"),
                ("equilibria", "fisher"), ("connect", "cubic"))

# catalog_varcoef: one spatially varying spec per (M, closure) cell, the
# coefficient family rotating across cells, plus one constant spec per M.
# a_0 = 0, so u = 0 is an equilibrium on every closure; the Newton guesses
# 0 and +-1 give every catalog the same size (N members), whatever the seed.
CATALOG_SIZES = (256, 1024, 2048)
FAMILIES = ("cos", "tanh", "gauss")


def plan(name: str, seed: int, root: str, tiny: bool = False) -> list[dict]:
    """Generated inputs of workload `name` for `seed`, as plain data."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "ensemble_small":
        return _plan_ensemble(rng, root, tiny)
    if name == "cli_session":
        return _plan_cli(rng, root, tiny)
    if name == "catalog_varcoef":
        return _plan_catalog(rng, tiny)
    raise ValueError(f"unknown workload {name!r}")


def _num(v: float) -> str:
    return repr(round(float(v), 6))


def _shipped(root: str, config: str) -> dict:
    with open(os.path.join(root, "configs", f"{config}.json")) as f:
        return json.load(f)


def _plan_ensemble(rng, root, tiny) -> list[dict]:
    control = _shipped(root, "blowup")["control"]
    cells = [(m, bc) for m in ENSEMBLE_SIZES for bc in CLOSURES]
    bounded = [(n, sp, m, bc) for m, bc in cells for n, sp in ENSEMBLE_BOUNDED]
    blowup = list(ENSEMBLE_BLOWUP)
    t_max = ENSEMBLE_T_MAX
    if tiny:
        bounded = [(n, sp, 16, "periodic") for n, sp in ENSEMBLE_BOUNDED]
        blowup = [ENSEMBLE_BLOWUP[1]]
        t_max = 0.05
    members = []
    for n, signed, m, bc in bounded:
        members.append({
            "spec": _ensemble_spec(n, m, bc, signed, rng.uniform(-1.0, 1.0, n)),
            "offset": float(rng.uniform(-0.3, 0.3)),
            "amplitude": float(rng.uniform(0.2, 0.8)),
            "field_seed": int(rng.integers(2**31)),
            "t_max": t_max,
            "blows_up": False,
            "control": control,
        })
    for n, m, bc in blowup:
        members.append({
            "spec": _ensemble_spec(n, m, bc, False, rng.uniform(-0.5, 0.5, n)),
            "offset": -1.5,
            "amplitude": 0.5,
            "field_seed": int(rng.integers(2**31)),
            "t_max": 2.0,
            "blows_up": True,
            "control": control,
        })
    return [members[i] for i in rng.permutation(len(members))]


def _ensemble_spec(n, m, bc, signed, coeffs) -> dict:
    return {"N": n, "coeffs": [_num(c) for c in coeffs],
            "box_half_length": BOX_HALF_LENGTH, "grid_points": m,
            "boundary": bc, "signed_power": bool(signed)}


def _plan_cli(rng, root, tiny) -> list[dict]:
    ops = []
    for command, config in (CLI_TINY_OPS if tiny else CLI_OPS):
        data = _shipped(root, config)
        data["seed"] = int(rng.integers(2**31))
        if command == "verify":
            data["verify"] = {"suites": list(CLI_VERIFY_SUITES)}
        ops.append({"command": command, "config": config, "data": data,
                    "expect_exit": 2 if config == "blowup" else 0})
    return ops


def _coefficient(rng, family: str) -> str:
    b = rng.uniform(0.8, 1.2)
    amp = rng.uniform(0.1, 0.4)
    x0 = rng.uniform(-2.0, 2.0)
    if family == "cos":
        return (f"{b:.4f}+{amp:.4f}*cos({rng.uniform(0.3, 1.5):.4f}*x"
                f"+{rng.uniform(0.0, 2 * math.pi):.4f})")
    if family == "tanh":
        return f"{b:.4f}+{amp:.4f}*tanh({rng.uniform(0.5, 2.0):.4f}*(x{-x0:+.4f}))"
    return f"{b:.4f}+{amp:.4f}*exp(-(x{-x0:+.4f})^2/{rng.uniform(0.5, 3.0):.4f})"


def _plan_catalog(rng, tiny) -> list[dict]:
    cells = []
    for i, m in enumerate(CATALOG_SIZES):
        for j, bc in enumerate(CLOSURES):
            cells.append((m, bc, FAMILIES[(i + j) % 3], 2 + (i + j) % 2))
        cells.append((m, CLOSURES[i], "constant", 2 + i % 2))
    if tiny:
        cells = [(256, "dirichlet0", "cos", 2), (256, "periodic", "constant", 3)]
    specs = []
    for m, bc, family, n in cells:
        if family == "constant":
            a1 = f"{rng.uniform(0.8, 1.2):.4f}"
        else:
            a1 = _coefficient(rng, family)
        coeffs = ["0", a1]
        guesses = ["0", f"{rng.uniform(0.8, 1.2):.4f}"]
        if n == 3:
            coeffs.append(f"{rng.uniform(-0.2, 0.2):.4f}")
            guesses.append(f"{-rng.uniform(0.8, 1.2):.4f}")
        specs.append({
            "family": family,
            "spec": {"N": n, "coeffs": coeffs, "box_half_length": BOX_HALF_LENGTH,
                     "grid_points": m, "boundary": bc},
            "equilibria": {
                "constant_roots": family == "constant",
                "newton_guesses": guesses,
                "shooting": [{"u_left": round(float(rng.uniform(0.005, 0.05)), 4),
                              "slope": round(float(rng.uniform(-0.01, 0.01)), 4)}],
            },
        })
    return [specs[i] for i in rng.permutation(len(specs))]


# -- ops ---------------------------------------------------------------------


def build(name: str, the_plan: list[dict], root: str, work_dir: str) -> list[Op]:
    """Validated program inputs and the ops of one pass."""
    if name == "ensemble_small":
        return _build_ensemble(the_plan)
    if name == "cli_session":
        return _build_cli(the_plan, work_dir)
    if name == "catalog_varcoef":
        return _build_catalog(the_plan, work_dir)
    raise ValueError(f"unknown workload {name!r}")


def _write_config(work_dir, name, data) -> str:
    """Write one generated config under work_dir/configs; returns its path."""
    path = os.path.join(work_dir, "configs", name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(data, f)
    return path


def _read_json(op_dir, name):
    with open(os.path.join(op_dir, name)) as f:
        return json.load(f)


def _build_ensemble(members) -> list[Op]:
    from gradflow1d import dynamics, functionals, problem, verify
    from gradflow1d.grid import Field
    from gradflow1d.nonlinearity import Nonlinearity

    ops = []
    for i, m in enumerate(members):
        spec = problem.spec_from_dict(m["spec"])
        g = problem.make_grid(spec)
        nl = Nonlinearity(spec, g)
        shape = verify.random_smooth_field(g, np.random.default_rng(m["field_seed"]))
        u0 = Field(g, m["offset"] + m["amplitude"] * shape.values)
        control = dict(m["control"])
        control.setdefault("sup_guard", spec.sup_guard)
        ctrl = dynamics.StepControl(**control)

        def run(_op_dir, spec=spec, u0=u0, ctrl=ctrl, nl=nl, t_max=m["t_max"]):
            traj = dynamics.run(spec, u0, ctrl, t_max, nl=nl)
            return traj, functionals.identity_residual(traj, nl)

        def check(result, _op_dir, m=m, h=g.h):
            traj, residual = result
            failed = []
            blew_up = traj.status == dynamics.BLOW_UP
            if blew_up != m["blows_up"]:
                failed.append(f"status {traj.status}")
            if blew_up and traj.escape_sign != -1:
                failed.append(f"escape_sign {traj.escape_sign}")
            if verify.monotonicity_violations(traj):
                failed.append("action decreased beyond the 10*dt slack")
            energy = float(traj.diagnostics.energy_cum[-1])
            bound = _identity_bound(energy, float(np.max(traj.diagnostics.dt)), h)
            if not residual <= bound:
                failed.append(f"identity residual {residual:.3g} > {bound:.3g}")
            return failed

        sp = m["spec"]
        label = (f"M{sp['grid_points']}-{sp['boundary']}-N{sp['N']}"
                 f"{'-signed' if sp['signed_power'] else ''}"
                 f"{'-blowup' if m['blows_up'] else ''}-{i}")
        ops.append(Op("run", label, run, check))
    return ops


def _identity_bound(energy: float, dt: float, h: float) -> float:
    """Allowed |E_window - (A(end) - A(start))| for one ensemble member.

    suite_identity_residual allows 1% of the energy scale (L/6 there) on a
    smooth converged run.  Random data on a coarse grid adds the first-order
    IMEX error: per step, energy addend minus action gain is
    0.5*dt*|u_t - r|^2 + 0.5*dt^2*<u_t, -(Lap + P') u_t>, with
    |u_t - r| <= min(1, 4*mu)*|r| and ||Lap|| <= 4/h^2, mu = dt/h^2.  That
    is at most (4*mu + min(1, 4*mu)^2) times the step's energy addend, P'
    aside.
    """
    mu = dt / h**2
    scale = max(2.0 * BOX_HALF_LENGTH / 6.0, abs(energy))
    return 0.01 * scale + (4.0 * mu + min(1.0, 4.0 * mu) ** 2) * abs(energy)


def _build_cli(entries, work_dir) -> list[Op]:
    from gradflow1d import cli

    ops = []
    for i, e in enumerate(entries):
        path = _write_config(work_dir, f"{i}_{e['command']}_{e['config']}.json", e["data"])
        cli.load_config(path)  # validated before the first op

        def run(op_dir, command=e["command"], path=path):
            return cli.main([command, path, "--output-dir", op_dir, "--quiet"])

        def check(rc, op_dir, e=e):
            failed = []
            if rc != e["expect_exit"]:
                failed.append(f"exit code {rc}, expected {e['expect_exit']}")
            if e["config"] == "blowup" and e["command"] == "simulate":
                summary = _read_json(op_dir, "run_summary.json")
                if summary.get("escape_sign") != -1:
                    failed.append(f"escape_sign {summary.get('escape_sign')}")
                if not abs(summary["final_time"] - 1.0) <= 0.05:
                    failed.append(f"blow-up detected at t={summary['final_time']}")
            if e["command"] == "verify":
                report = _read_json(op_dir, "verify_report.json")
                names = sorted(s["name"] for s in report["suites"])
                if names != sorted(e["data"]["verify"]["suites"]):
                    failed.append(f"verify ran suites {names}")
            return failed

        ops.append(Op(e["command"], e["config"], run, check))
    return ops


def _build_catalog(entries, work_dir) -> list[Op]:
    from gradflow1d import cli, equilibria, problem
    from gradflow1d.grid import Field, read_field_csv
    from gradflow1d.nonlinearity import Nonlinearity

    tolerances = {"constant": equilibria.RESIDUAL_TOL_CONSTANT,
                  "newton": equilibria.RESIDUAL_TOL_NEWTON,
                  "shooting": equilibria.RESIDUAL_TOL_SHOOTING}
    ops = []
    for i, e in enumerate(entries):
        path = _write_config(work_dir, f"{i}_equilibria.json",
                             {"spec": e["spec"], "equilibria": e["equilibria"]})
        cfg = cli.load_config(path)
        nl = Nonlinearity(cfg.spec, problem.make_grid(cfg.spec))
        label = (f"M{cfg.spec.grid_points}-{cfg.spec.boundary}-N{cfg.spec.N}"
                 f"-{e['family']}-{i}")

        def run(op_dir, path=path):
            return cli.main(["equilibria", path, "--output-dir", op_dir, "--quiet"])

        def check(rc, op_dir):
            if rc != 0:
                return [f"exit code {rc}, expected 0"]
            failed = []
            for k, entry in enumerate(_read_json(op_dir, "equilibria.json")["equilibria"]):
                tol = tolerances[entry["source"]]
                if not entry["residual"] <= tol:
                    failed.append(f"member {k} ({entry['source']}) residual "
                                  f"{entry['residual']:.3g} > {tol:g}")
            return failed

        def then(rc, op_dir, nl=nl, label=label):
            if rc != 0:
                return []
            follow = []
            for k, entry in enumerate(_read_json(op_dir, "equilibria.json")["equilibria"]):
                _, values = read_field_csv(os.path.join(op_dir, entry["snapshot"]))
                eq = equilibria.Equilibrium(
                    field=Field(nl.grid, values), residual=entry["residual"],
                    action=entry["action"], bounded_below=entry["bounded_below"],
                    bounded_above=entry["bounded_above"], source=entry["source"])
                follow.append(Op("unstable_direction", f"{label}-eq{k}",
                                 lambda _d, eq=eq: equilibria.unstable_direction(nl, eq),
                                 _check_direction))
            return follow

        ops.append(Op("equilibria", label, run, check, then))
    return ops


def _check_direction(ud, _op_dir) -> list:
    failed = []
    if not math.isfinite(ud.eigenvalue):
        failed.append(f"eigenvalue {ud.eigenvalue}")
    if not abs(float(np.max(np.abs(ud.direction.values))) - 1.0) <= 1e-12:
        failed.append("direction not normalised to sup-norm 1")
    return failed
