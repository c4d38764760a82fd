import csv
import json
from pathlib import Path

import numpy as np
import pytest

from gradflow1d import connections, dynamics, equilibria, exprlang, problem, verify
from gradflow1d.cli import (
    EXIT_BLOW_UP,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFY,
    load_config,
    main,
)
from gradflow1d.grid import Field
from gradflow1d.nonlinearity import Nonlinearity

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _write(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _fisher_config(out_dir, **overrides):
    cfg = {
        "spec": {
            "N": 2,
            "coeffs": ["0", "1"],
            "box_half_length": 5.0,
            "grid_points": 64,
            "boundary": "periodic",
        },
        "control": {"dt_init": 1e-3, "dt_min": 1e-9, "dt_max": 1e-2},
        "initial_condition": "0.5",
        "t_max": 40.0,
        "output_dir": str(out_dir),
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


def test_simulate_converged(tmp_path):
    cfg = _write(tmp_path, _fisher_config(tmp_path / "out"))
    assert main(["simulate", cfg, "--quiet"]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert summary["status"] == summary["stop_reason"] == "converged"
    assert summary["final_ut_sup"] < 1e-8
    assert "coefficient_norms" in summary
    assert (tmp_path / "out" / "diagnostics.csv").exists()


def test_simulate_config_error_degree(tmp_path):
    data = _fisher_config(tmp_path / "out")
    data["spec"]["N"] = 1
    data["spec"]["coeffs"] = ["0"]
    cfg = _write(tmp_path, data)
    assert main(["simulate", cfg, "--quiet"]) == EXIT_CONFIG


def test_simulate_blowup_exit_code(tmp_path):
    data = _fisher_config(tmp_path / "out", initial_condition="-1", t_max=2.0)
    data["spec"]["coeffs"] = ["0", "0"]
    data["control"] = {"dt_init": 1e-3, "dt_min": 1e-7, "dt_max": 1e-3}
    cfg = _write(tmp_path, data)
    assert main(["simulate", cfg, "--quiet"]) == EXIT_BLOW_UP
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert summary["status"] == "blow_up"
    assert summary["escape_sign"] == -1
    # |u| reaches about 4e4, where dt*u^2 <= 0.005*|u| needs dt below dt_min
    assert summary["stop_reason"] == "increment_dt_collapse"


def test_simulate_blowup_with_tiny_dt_min_stops_at_sup_guard(tmp_path):
    # with dt_min 1e-30 only sup_guard can stop u' = -u^2: the increment
    # limit grows with sup|u|, so |u| passes 1e12 in a few thousand steps
    data = _fisher_config(tmp_path / "out", initial_condition="-1", t_max=2.0)
    data["spec"].update(coeffs=["0", "0"], grid_points=16, sup_guard=1e12)
    data["control"] = {"dt_init": 1e-3, "dt_min": 1e-30, "dt_max": 1e-3}
    assert main(["simulate", _write(tmp_path, data), "--quiet"]) == EXIT_BLOW_UP
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert (summary["status"], summary["stop_reason"]) == ("blow_up", "sup_guard")
    assert summary["escape_sign"] == -1
    assert summary["steps"] <= 10_000
    # the end state's sup norm, past the guard; the last diagnostics row,
    # one step earlier, is below it
    assert summary["final_sup_norm"] > 1e12


@pytest.mark.parametrize("m, t_max", ((256, 50.0), (2048, 5.0)))
def test_simulate_stiff_periodic_is_no_blow_up(tmp_path, capsys, m, t_max):
    # Fisher near u = 1 on a box of half-length 1e-6, dt up to 1: mu = dt/h^2
    # is 1.6e16 (M = 256) and 1.0e18 (M = 2048).  Every dt factors, so no dt
    # is halved, and the flow relaxes to u = 1 within rounding
    data = _fisher_config(tmp_path / "out", t_max=t_max,
                          initial_condition="1+1e-3*cos(3.141592653589793/1e-6*x)")
    data["spec"].update(box_half_length=1e-6, grid_points=m)
    data["control"] = {"dt_init": 1.0, "dt_min": 1e-9, "dt_max": 1.0}
    assert main(["simulate", _write(tmp_path, data), "--quiet"]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert summary["status"] != "blow_up"
    with open(tmp_path / "out" / "diagnostics.csv") as f:
        assert {float(r["dt"]) for r in list(csv.DictReader(f))[1:]} == {1.0}
    last = max((tmp_path / "out").glob("snap_*.csv"), key=lambda p: float(p.stem[5:]))
    u = np.loadtxt(last, delimiter=",", skiprows=1)[:, 1]
    assert np.abs(u - 1.0).max() <= 1e-11


def test_missing_config_file(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.json"), "--quiet"]) == EXIT_CONFIG


def test_corrupted_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert main(["verify", str(path), "--quiet"]) == EXIT_CONFIG


@pytest.mark.parametrize("override", (
    {"snapshot_stride": 0},
    {"snapshot_stride": 2.5},
    {"t_max": "abc"},
    {"t_max": float("nan")},
    {"t_max": float("inf")},
    {"seed": "abc"},
), ids=("stride-0", "stride-2.5", "t_max-abc", "t_max-nan", "t_max-inf", "seed-abc"))
def test_bad_run_field_is_config_error(tmp_path, override):
    cfg = _write(tmp_path, _fisher_config(tmp_path / "out", **override))
    assert main(["simulate", cfg, "--quiet"]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


SUBCOMMANDS = ("simulate", "equilibria", "connect", "verify")


def _assert_config_error(tmp_path, capsys, data, commands=SUBCOMMANDS):
    """Each command exits 1 with `error:` on stderr and writes nothing under
    tmp_path/out."""
    out = tmp_path / "out"
    path = _write(tmp_path, data)
    for command in commands:
        assert main([command, path, "--quiet"]) == EXIT_CONFIG, command
        assert "error:" in capsys.readouterr().err, command
        assert not out.exists(), command


def _front(initial_condition):
    return [{"kind": "front", "initial_condition": initial_condition, "t_max": 1.0}]


# every case fails under every subcommand: the whole config is checked at load
_BAD_CONFIGS = {
    # sections of the wrong type
    "control-str": (("control",), "fast"),
    "equilibria-list": (("equilibria",), []),
    "connect-str": (("connect",), "all"),
    "verify-list": (("verify",), [1]),
    "verify.control-list": (("verify", "control"), [1]),
    "launches-object": (("connect", "launches"), {}),
    "newton_guesses-str": (("equilibria", "newton_guesses"), "0.9"),
    "shooting-object": (("equilibria", "shooting"), {"u_left": 0.0, "slope": 0.5}),
    "shooting-entry-list": (("equilibria", "shooting"), [[0.0, 0.5]]),
    # scalar fields
    "match_tol-abc": (("connect", "match_tol"), "abc"),
    "tail_tol-abc": (("connect", "tail_tol"), "abc"),
    "verify.t_max-abc": (("verify", "t_max"), "abc"),
    "verify.t_max-0": (("verify", "t_max"), 0.0),
    "verify.control-dt": (("verify", "control"), {"dt_init": 1.0, "dt_max": 0.1}),
    "verify.suites-unknown": (("verify", "suites"), ["bogus"]),
    "initial_condition-number": (("initial_condition",), 0.5),
    "newton_guess-number": (("equilibria", "newton_guesses"), [5]),
    "front-initial_condition-number": (("connect", "launches"), _front(5)),
    "seed-1.5": (("seed",), 1.5),
    "seed-negative": (("seed",), -1),
    "tol_eq-nan": (("tol_eq",), float("nan")),
    "tol_eq-negative": (("tol_eq",), -1.0),
    "output_dir-number": (("output_dir",), 5),
    "launch-from_index-and-from_value": (
        ("connect", "launches"),
        [{"kind": "launch", "from_index": 0, "from_value": 1.0, "t_max": 5.0}]),
    "box_half_length-abc": (("spec", "box_half_length"), "abc"),
    "box_half_length-inf": (("spec", "box_half_length"), float("inf")),
    # JSON Infinity is a number that is not finite
    "sup_guard-inf": (("spec", "sup_guard"), float("inf")),
    "control.dt_max-inf": (("control", "dt_max"), float("inf")),
    "control.increment_limit-inf": (("control", "increment_limit"), float("inf")),
    "control.sup_guard-inf": (("control", "sup_guard"), float("inf")),
    # an int beyond the float range is not finite either
    "t_max-int-1e400": (("t_max",), 10**400),
    "control.dt_max-int-1e400": (("control", "dt_max"), 10**400),
    "box_half_length-int-1e400": (("spec", "box_half_length"), 10**400),
    # grid_points above problem.MAX_GRID_POINTS = 2**20; M = 10**12 ended
    # in a MemoryError traceback, and 10**400 has no float spacing
    "grid_points-2**20+1": (("spec", "grid_points"), 2**20 + 1),
    "grid_points-1e12": (("spec", "grid_points"), 10**12),
    "grid_points-int-1e400": (("spec", "grid_points"), 10**400),
    # JSON booleans and strings are not numbers
    "t_max-true": (("t_max",), True),
    "t_max-str": (("t_max",), "0.5"),
    "tol_eq-false": (("tol_eq",), False),
    "match_tol-str": (("connect", "match_tol"), "1e-4"),
    "launch-amplitude-true": (
        ("connect", "launches"),
        [{"kind": "launch", "from_value": 1.0, "amplitude": True, "t_max": 5.0}]),
    "verify.t_max-true": (("verify", "t_max"), True),
    # the suites run at their stated parameters: a step control or run
    # length for them is an unknown verify field, valid value or not
    "verify.control-valid": (("verify", "control"), {"dt_init": 1e-3, "dt_min": 1e-9,
                                                     "dt_max": 1e-2}),
    "verify.t_max-valid": (("verify", "t_max"), 3.0),
    "control.dt_max-true": (("control", "dt_max"), True),
    "sup_guard-true": (("spec", "sup_guard"), True),
    "box_half_length-str": (("spec", "box_half_length"), "5"),
    "spatial_dim-true": (("spec", "spatial_dim"), True),
    # spatial_dim is a JSON integer, as N, grid_points and seed are
    "spatial_dim-1.0": (("spec", "spatial_dim"), 1.0),
    # coefficients are expression strings, never JSON numbers
    "coeffs-int": (("spec", "coeffs"), [-1, "1"]),
    "coeffs-float": (("spec", "coeffs"), [1.5, "1"]),
    "coeffs-last-int": (("spec", "coeffs"), ["0", 2]),
    "coeffs-zero-one": (("spec", "coeffs"), [0, 1]),
    # grid spacing h whose square underflows, leaves the normal range or overflows
    "box_half_length-1e-300": (("spec", "box_half_length"), 1e-300),
    "box_half_length-1e-160": (("spec", "box_half_length"), 1e-160),
    "box_half_length-1e-155": (("spec", "box_half_length"), 1e-155),
    "box_half_length-1e300": (("spec", "box_half_length"), 1e300),
    # expressions are parsed and sampled on the grid at load
    "initial_condition-syntax": (("initial_condition",), "0.5*("),
    "initial_condition-nonfinite": (("initial_condition",), "1/(x-x)"),
    "front-initial_condition-syntax": (("connect", "launches"), _front("0.5*(")),
    "front-initial_condition-unknown": (("connect", "launches"), _front("foo(x)")),
    "front-initial_condition-nonfinite": (("connect", "launches"), _front("1/(x-x)")),
    # unknown keys
    "equilibria-unknown": (("equilibria", "newton_guess"), ["0.9"]),
    "connect-unknown": (("connect", "launch"), []),
    "verify-unknown": (("verify", "suite"), ["mms"]),
    "control-safety": (("control", "safety"), 0.9),
    "launch-entry-unknown": (
        ("connect", "launches"),
        [{"kind": "launch", "from_value": 1.0, "amplitud": 0.5, "t_max": 5.0}]),
    "front-entry-launch-key": (
        ("connect", "launches"),
        [{"kind": "front", "initial_condition": "0.5", "amplitude": 1e-3}]),
    "launch-kind-typo": (
        ("connect", "launches"), [{"kind": "frnt", "from_value": 1.0, "t_max": 5.0}]),
    "launch-kind-list": (("connect", "launches"),
                         [{"kind": ["launch"], "from_value": 1.0, "t_max": 5.0}]),
    "shooting-entry-unknown": (("equilibria", "shooting"),
                               [{"u_left": 0.0, "slope": 0.5, "slop": 0.1}]),
    # booleans must be JSON booleans, not truthy values
    "constant_roots-str": (("equilibria", "constant_roots"), "no"),
    "constant_roots-0": (("equilibria", "constant_roots"), 0),
    "signed_power-str": (("spec", "signed_power"), "no"),
}


@pytest.mark.parametrize("path, value", _BAD_CONFIGS.values(), ids=_BAD_CONFIGS.keys())
def test_bad_config_exits_1_without_output(tmp_path, capsys, path, value):
    data = json.loads((CONFIGS / "fisher.json").read_text())
    data["output_dir"] = str(tmp_path / "out")
    section = data
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    _assert_config_error(tmp_path, capsys, data)


def test_equilibria_shooting_start_of_wrong_type_is_error_entry(tmp_path):
    data = _fisher_config(tmp_path / "out")
    data["equilibria"] = {"shooting": [{"u_left": [0.0], "slope": 0.5}]}
    assert main(["equilibria", _write(tmp_path, data), "--quiet"]) == EXIT_OK
    catalog = json.loads((tmp_path / "out" / "equilibria.json").read_text())
    assert [e["source"] for e in catalog["errors"]] == ["shooting"]


@pytest.mark.parametrize("start", (
    {"u_left": True, "slope": 0.0},
    {"u_left": "1.0", "slope": 0.0},
    {"u_left": 1.0, "slope": False},
), ids=("u_left-true", "u_left-str", "slope-false"))
def test_equilibria_shooting_start_bool_or_string_is_error_entry(tmp_path, start):
    # (1, 0) is the fixed point u = 1, so a start read as 1.0 and 0.0 would
    # shoot and refine without any error entry
    data = _fisher_config(tmp_path / "out")
    data["equilibria"] = {"shooting": [start]}
    assert main(["equilibria", _write(tmp_path, data), "--quiet"]) == EXIT_OK
    catalog = json.loads((tmp_path / "out" / "equilibria.json").read_text())
    assert [e["source"] for e in catalog["errors"]] == ["shooting"]
    assert "must be a number" in catalog["errors"][0]["error"]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_unwritable_output_dir_exits_1(tmp_path, capsys, monkeypatch, command):
    def no_stepping(*args, **kwargs):
        raise AssertionError("stepped before checking the output directory")

    # the check comes before any computation: no subcommand steps
    monkeypatch.setattr(dynamics, "run", no_stepping)
    blocker = tmp_path / "file"
    blocker.write_text("")
    data = _fisher_config(tmp_path / "unused", verify={"suites": ["blowup_timing"]})
    argv = [command, _write(tmp_path, data), "--output-dir", str(blocker / "out"),
            "--quiet"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: cannot write outputs: ")
    assert blocker.read_text() == ""


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_empty_output_dir_exits_1(tmp_path, capsys, monkeypatch, command):
    def no_stepping(*args, **kwargs):
        raise AssertionError("stepped before checking the output directory")

    # "" names no directory: a config error before any computation
    monkeypatch.setattr(dynamics, "run", no_stepping)
    data = _fisher_config(tmp_path / "unused", verify={"suites": ["blowup_timing"]})
    data["output_dir"] = ""
    assert main([command, _write(tmp_path, data), "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: output_dir must not be empty\n"


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_empty_output_dir_flag_exits_1(tmp_path, capsys, monkeypatch, command):
    def no_stepping(*args, **kwargs):
        raise AssertionError("stepped before checking the output directory")

    # a given --output-dir wins over the config's, even when it is empty
    monkeypatch.setattr(dynamics, "run", no_stepping)
    data = _fisher_config(tmp_path / "unused", verify={"suites": ["blowup_timing"]})
    argv = [command, _write(tmp_path, data), "--output-dir", "", "--quiet"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: output_dir must not be empty\n"
    assert not (tmp_path / "unused").exists()


def test_main_calls_in_one_process_parse_independently(tmp_path, capsys):
    # the parser is built once per process; neither a flag nor the
    # subcommand of one call carries over to the next
    data = _fisher_config(tmp_path / "config_out", t_max=1.0)
    data["equilibria"] = {"constant_roots": True}
    cfg = _write(tmp_path, data)
    assert main(["equilibria", cfg, "--output-dir", str(tmp_path / "flag_out"),
                 "--quiet"]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert main(["simulate", cfg]) == EXIT_OK
    assert capsys.readouterr().out.startswith("status: ")
    flag_out, config_out = tmp_path / "flag_out", tmp_path / "config_out"
    assert (flag_out / "equilibria.json").is_file()
    assert not (flag_out / "diagnostics.csv").exists()
    assert (config_out / "diagnostics.csv").is_file()
    assert not (config_out / "equilibria.json").exists()


def test_equilibria_catalog_fisher(tmp_path):
    data = _fisher_config(tmp_path / "out")
    data["equilibria"] = {"constant_roots": True}
    cfg = _write(tmp_path, data)
    assert main(["equilibria", cfg, "--quiet"]) == EXIT_OK
    catalog = json.loads((tmp_path / "out" / "equilibria.json").read_text())
    assert len(catalog["equilibria"]) == 2
    assert all(e["residual"] < 1e-10 for e in catalog["equilibria"])
    assert all((tmp_path / "out" / e["snapshot"]).exists()
               for e in catalog["equilibria"])


def test_equilibria_cubic(tmp_path):
    data = _fisher_config(tmp_path / "out")
    data["spec"]["N"] = 3
    data["spec"]["coeffs"] = ["0", "1", "0"]
    cfg = _write(tmp_path, data)
    assert main(["equilibria", cfg, "--quiet"]) == EXIT_OK
    catalog = json.loads((tmp_path / "out" / "equilibria.json").read_text())
    assert len(catalog["equilibria"]) == 3


def test_equilibria_nonconstant_coefficients_error_entry(tmp_path):
    data = _fisher_config(tmp_path / "out")
    data["spec"]["coeffs"] = ["0", "exp(-x^2)"]
    data["equilibria"] = {"constant_roots": True}
    cfg = _write(tmp_path, data)
    assert main(["equilibria", cfg, "--quiet"]) == EXIT_OK
    catalog = json.loads((tmp_path / "out" / "equilibria.json").read_text())
    assert catalog["equilibria"] == []
    assert len(catalog["errors"]) == 1
    assert catalog["errors"][0]["source"] == "constant"


def test_equilibria_newton_guess(tmp_path):
    data = _fisher_config(tmp_path / "out")
    data["equilibria"] = {"constant_roots": False, "newton_guesses": ["0.9"]}
    cfg = _write(tmp_path, data)
    assert main(["equilibria", cfg, "--quiet"]) == EXIT_OK
    catalog = json.loads((tmp_path / "out" / "equilibria.json").read_text())
    assert len(catalog["equilibria"]) == 1
    assert catalog["equilibria"][0]["source"] == "newton"


def test_connect_fisher_batch(tmp_path, capsys):
    data = _fisher_config(tmp_path / "out", t_max=60.0)
    data["control"] = {"dt_init": 1e-3, "dt_min": 1e-9, "dt_max": 1e-3}
    data["spec"]["grid_points"] = 128
    data["connect"] = {
        "launches": [
            {"kind": "launch", "from_value": 0.0, "amplitude": 1e-3},
            {"kind": "launch", "from_value": 1.0, "amplitude": 1e-4},
        ]
    }
    cfg = _write(tmp_path, data)
    assert main(["connect", cfg]) == EXIT_OK
    with open(tmp_path / "out" / "connections.csv") as f:
        rows = list(csv.DictReader(f))
    assert [r["status"] for r in rows] == ["connected", "connected"]
    assert float(rows[0]["total_energy"]) == pytest.approx(10.0 / 6.0, rel=0.02)
    # connected rows carry no note, so the progress lines end at the verdict
    assert capsys.readouterr().out.splitlines() == [
        "launch 0: connected [0->1] pass", "launch 1: connected [1->1] pass"]


def test_connect_prints_the_note_of_a_row(tmp_path, capsys):
    data = _fisher_config(tmp_path / "out")
    data["connect"] = {"launches": [{"from_value": 0.0, "amplitude": 1e-3, "t_max": 0.5}]}
    assert main(["connect", _write(tmp_path, data)]) == EXIT_VERIFY
    assert capsys.readouterr().out.splitlines() == [
        "launch 0: undecided [0->None] FAIL; t_max reached before convergence"]
    # the note is printed only: connections.csv has no column for it
    header = (tmp_path / "out" / "connections.csv").read_text().splitlines()[0]
    assert "note" not in header


def test_connect_builds_one_nonlinearity(tmp_path, monkeypatch):
    # the catalog (constant roots, a Newton guess, a shooting start), a
    # launch and a front all share the Nonlinearity that connect builds
    built = []
    init = Nonlinearity.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Nonlinearity, "__init__", counting_init)
    data = _fisher_config(tmp_path / "out")
    data["equilibria"] = {"newton_guesses": ["0.9"], "shooting": [{"u_left": 0.5, "slope": 0.0}]}
    data["connect"] = {"launches": [
        {"from_value": 1.0, "amplitude": 1e-4, "t_max": 0.05},
        {"kind": "front", "initial_condition": "0.5*(1+tanh(-x))", "t_max": 0.05},
    ]}
    assert main(["connect", _write(tmp_path, data), "--quiet"]) == EXIT_VERIFY
    assert len(built) == 1


def test_front_plan_holds_the_sampled_field():
    # load_config samples a front's initial condition once; the plan keeps
    # the Field, not the expression
    source = json.loads((CONFIGS / "front.json").read_text())["connect"]["launches"][0][
        "initial_condition"]
    cfg = load_config(str(CONFIGS / "front.json"))
    [front] = cfg.launches
    grid = problem.make_grid(cfg.spec)
    want = Field.from_expr(grid, source)
    assert isinstance(front.u0, Field) and front.u0.grid == grid
    assert np.array_equal(front.u0.values, want.values)
    assert not any(isinstance(value, str) for value in vars(front).values())


def test_connect_zero_match_tol_fails(tmp_path):
    data = _fisher_config(tmp_path / "out", t_max=60.0)
    data["spec"]["grid_points"] = 128
    data["connect"] = {
        "match_tol": 0.0,
        "launches": [{"kind": "launch", "from_value": 0.0, "amplitude": 1e-3}],
    }
    cfg = _write(tmp_path, data)
    assert main(["connect", cfg, "--quiet"]) == EXIT_VERIFY


def test_connect_empty_plan(tmp_path):
    data = _fisher_config(tmp_path / "out")
    data["connect"] = {"launches": []}
    cfg = _write(tmp_path, data)
    assert main(["connect", cfg, "--quiet"]) == EXIT_OK
    lines = (tmp_path / "out" / "connections.csv").read_text().splitlines()
    assert len(lines) == 1  # header only


def test_connect_blowup_excluded(tmp_path):
    data = _fisher_config(tmp_path / "out", t_max=30.0)
    data["spec"]["coeffs"] = ["0", "0"]
    data["spec"]["grid_points"] = 16
    data["control"] = {"dt_init": 1e-3, "dt_min": 1e-7, "dt_max": 1e-2}
    data["connect"] = {
        "launches": [{"kind": "launch", "from_value": 0.0, "amplitude": -0.1}],
    }
    cfg = _write(tmp_path, data)
    assert main(["connect", cfg, "--quiet"]) == EXIT_OK
    with open(tmp_path / "out" / "connections.csv") as f:
        rows = list(csv.DictReader(f))
    assert rows[0]["status"] == "blow_up"


def test_connect_blowup_through_nonfinite_reaction_is_excluded(tmp_path, capsys):
    # with guards this loose the run stops only when P overflows; the final
    # field has no finite action and no row, so the identity residual spans
    # the recorded rows and is finite
    data = {
        "spec": {"N": 2, "coeffs": ["0", "0"], "box_half_length": 5,
                 "grid_points": 16, "sup_guard": 1e300},
        "control": {"dt_init": 1e-3, "dt_min": 1e-6, "dt_max": 1e-3,
                    "increment_limit": 1e300},
        "output_dir": str(tmp_path / "out"),
        "connect": {"launches": [{"from_index": 0, "amplitude": -0.5, "t_max": 50}]},
    }
    assert main(["connect", _write(tmp_path, data)]) == EXIT_OK
    with open(tmp_path / "out" / "connections.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1
    assert rows[0]["status"] == "blow_up"
    assert np.isfinite(float(rows[0]["identity_residual"]))
    assert "launch 0: blow_up [0->None] excluded" in capsys.readouterr().out


def test_connect_front_out_of_range_at_step_0_is_excluded(tmp_path, capsys):
    # the run stops before its first diagnostic row: zero energy and tail
    # rate, as for a launch, and a NaN fit
    data = json.loads((CONFIGS / "front.json").read_text())
    data["spec"]["grid_points"] = 64
    data["connect"]["launches"][0]["initial_condition"] = "1e200"
    data["output_dir"] = str(tmp_path / "out")
    assert main(["connect", _write(tmp_path, data)]) == EXIT_OK
    with open(tmp_path / "out" / "connections.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1
    row = rows[0]
    assert row["status"] == "blow_up"
    assert (row["from"], row["to"]) == ("", "")
    assert (row["total_energy"], row["tail_rate"], row["fit_quality"]) == ("0", "0", "nan")
    assert "launch 0: blow_up [None->None] excluded" in capsys.readouterr().out


@pytest.mark.parametrize("launch, equilibria, needs_catalog", (
    ({"from_value": 0.0, "t_max": "abc"}, None, False),
    ({"from_value": 0.0, "amplitude": "abc"}, None, False),
    ({"from_value": 0.0, "t_max": float("nan")}, None, False),
    ({"from_value": 0.0, "t_max": 0.0}, None, False),
    ({"from_value": 0.0, "t_max": -1.0}, None, False),
    ({"from_index": "0"}, None, False),
    ({"kind": "front", "t_max": 1.0}, None, False),
    ({"from_value": 0.0}, {"constant_roots": False}, True),
    ({"from_index": 2}, None, True),
    ({"from_index": -1}, None, True),
), ids=("t_max-abc", "amplitude-abc", "t_max-nan", "t_max-0", "t_max-negative",
        "from_index-str", "front-no-ic", "from_value-empty-catalog",
        "from_index-outside", "from_index-negative"))
def test_connect_bad_launch_is_config_error(tmp_path, capsys, launch, equilibria,
                                            needs_catalog):
    # only the checks against the catalog (two Fisher constants here) are
    # left to connect; every other launch error fails every subcommand
    data = _fisher_config(tmp_path / "out")
    data["connect"] = {"launches": [launch]}
    if equilibria is not None:
        data["equilibria"] = equilibria
    _assert_config_error(tmp_path, capsys, data,
                         ("connect",) if needs_catalog else SUBCOMMANDS)
    if needs_catalog:
        for command in ("simulate", "equilibria"):
            assert main([command, _write(tmp_path, data), "--quiet"]) == EXIT_OK


def test_connect_short_front_is_failed_row(tmp_path):
    # too few diagnostic rows to fit a growth rate: the row fails, the audit
    # still finishes and writes every row
    data = json.loads((CONFIGS / "front.json").read_text())
    data["connect"]["launches"][0]["t_max"] = 0.05
    data["output_dir"] = str(tmp_path / "out")
    cfg = _write(tmp_path, data)
    assert main(["connect", cfg, "--quiet"]) == EXIT_VERIFY
    with open(tmp_path / "out" / "connections.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1
    assert rows[0]["status"] != "growth"
    assert rows[0]["fit_quality"] == "nan"


def test_connect_without_eigenpair_is_failed_row(tmp_path, capsys, monkeypatch):
    # no shipped-scale input leaves an equilibrium without its eigenpair, so
    # the eigenpair fails here by hand: the launch row fails with no run, and
    # the front still runs.  On this box 1/h^2 is about 1e200, so the
    # energy's resid*resid overflows to inf: the front's tail rate and fit
    # are NaN without a warning, and the row fails as t_max_reached, its
    # constant state at the logistic flow's value 1/(1 + e^-1) from 0.5
    def no_eigenpair(nl, eq):
        raise equilibria.PowerIterationError("no convergence after 10000 solves")
    monkeypatch.setattr(equilibria, "unstable_direction", no_eigenpair)
    tables = []
    audit = connections.connection_energy_audit

    def kept(*args, **kwargs):
        tables.append(audit(*args, **kwargs))
        return tables[-1]
    monkeypatch.setattr(connections, "connection_energy_audit", kept)
    data = json.loads((CONFIGS / "fisher.json").read_text())
    data["spec"]["box_half_length"] = 1e-100
    data["connect"]["launches"] = [
        {"kind": "launch", "from_value": 0.0, "amplitude": 1e-3, "t_max": 1.0},
        {"kind": "front", "initial_condition": "0.5", "t_max": 1.0},
    ]
    data["output_dir"] = str(tmp_path / "out")
    assert main(["connect", _write(tmp_path, data)]) == EXIT_VERIFY
    with open(tmp_path / "out" / "connections.csv") as f:
        rows = list(csv.DictReader(f))
    assert [r["status"] for r in rows] == ["no_direction", "t_max_reached"]
    assert rows[0]["from"] == "0" and rows[0]["total_energy"] == "nan"
    assert rows[1]["total_energy"] == "inf"
    assert rows[1]["tail_rate"] == rows[1]["fit_quality"] == "nan"
    front = tables[0].rows[1].trajectory
    assert front.final_time == 1.0
    assert np.abs(front.final_field.values - 1.0 / (1.0 + np.exp(-1.0))).max() <= 1e-4
    out = capsys.readouterr().out
    assert "launch 0: no_direction [0->None] FAIL; no convergence after 10000 solves" in out
    assert "launch 1: t_max_reached [None->None] FAIL" in out


def test_equilibria_shooting_scan(tmp_path):
    # bounded phase-plane paths polish into nonconstant wall-pinned profiles
    data = _fisher_config(tmp_path / "out")
    data["spec"]["N"] = 3
    data["spec"]["coeffs"] = ["0", "1", "0"]
    data["spec"]["boundary"] = "dirichlet0"
    data["spec"]["grid_points"] = 128
    data["equilibria"] = {
        "constant_roots": False,
        "shooting": [
            {"u_left": 0.0, "slope": 0.5},
            {"u_left": 0.0, "slope": 0.8},
        ],
    }
    cfg = _write(tmp_path, data)
    assert main(["equilibria", cfg, "--quiet"]) == EXIT_OK
    catalog = json.loads((tmp_path / "out" / "equilibria.json").read_text())
    assert len(catalog["equilibria"]) == 1
    entry = catalog["equilibria"][0]
    assert entry["source"] == "shooting"
    assert entry["residual"] < 1e-8
    # the slope-0.8 start lies beyond the separatrix and escapes
    assert len(catalog["errors"]) == 1
    assert "escaped" in catalog["errors"][0]["error"]


def test_verify_subset_passes(tmp_path):
    data = _fisher_config(tmp_path / "out")
    data["verify"] = {"suites": ["blowup_timing", "reaction_bound"]}
    cfg = _write(tmp_path, data)
    assert main(["verify", cfg, "--quiet"]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["all_passed"] is True
    assert {s["name"] for s in report["suites"]} == {"blowup_timing",
                                                     "reaction_bound"}


def test_verify_gradient_consistency_suite(tmp_path):
    data = _fisher_config(tmp_path / "out")
    data["verify"] = {"suites": ["gradient_consistency"]}
    assert main(["verify", _write(tmp_path, data), "--quiet"]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["all_passed"] is True
    [suite] = report["suites"]
    assert suite["name"] == "gradient_consistency"
    assert suite["details"]["pairs"] == 100
    assert suite["details"]["worst_abs_error"] <= 1e-6


def test_verify_builds_only_requested_suites(tmp_path, monkeypatch):
    # suites are looked up when called, and the report keeps the suite order
    from gradflow1d import verify

    built = []
    for name in verify.SUITES:
        monkeypatch.setattr(verify, f"suite_{name}",
                            lambda name=name, **_: built.append(name)
                            or verify.SuiteResult(name, True))
    data = _fisher_config(tmp_path / "out")
    data["verify"] = {"suites": ["blowup_timing", "mms"]}
    assert main(["verify", _write(tmp_path, data), "--quiet"]) == EXIT_OK
    assert built == ["mms", "blowup_timing"]
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert [s["name"] for s in report["suites"]] == ["mms", "blowup_timing"]


@pytest.mark.parametrize("suites", (["blowup_timing", "no_such_suite"], "mms"))
def test_verify_unknown_suite_is_config_error(tmp_path, suites):
    data = _fisher_config(tmp_path / "out")
    data["verify"] = {"suites": suites}
    assert main(["verify", _write(tmp_path, data), "--quiet"]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_verify_monotonicity_fails_with_huge_dt():
    # bypassing the explicit-increment guard with a large fixed step breaks
    # the discrete monotonicity of the action: the suite's first Fisher run
    # at dt 25 instead of its step control
    spec = verify.fisher_spec(grid_points=64)
    g = problem.make_grid(spec)
    u0 = Field(g, 0.5 + 0.4 * verify.random_smooth_field(g, np.random.default_rng(0)).values)
    ctrl = dynamics.StepControl(dt_init=25.0, dt_min=25.0, dt_max=25.0,
                                increment_limit=100.0)
    traj = dynamics.run(spec, u0, ctrl, 100.0, nl=Nonlinearity(spec, g))
    assert verify.monotonicity_violations(traj) > 0


def test_verify_exits_3_when_a_suite_fails(tmp_path, monkeypatch):
    # a failing suite fails the report and the exit code; the config's seed
    # reaches the seeded suite
    monkeypatch.setattr(verify, "suite_action_monotonicity", lambda seed: verify.SuiteResult(
        "action_monotonicity", False, {"seed": seed}))
    data = _fisher_config(tmp_path / "out", seed=7,
                          verify={"suites": ["action_monotonicity"]})
    assert main(["verify", _write(tmp_path, data), "--quiet"]) == EXIT_VERIFY
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report == {"suites": [{"name": "action_monotonicity", "passed": False,
                                  "details": {"seed": 7}}],
                      "all_passed": False}


def test_simulate_samples_each_expression_once(tmp_path, monkeypatch):
    # the spec check samples the N coefficients, the initial condition is
    # sampled once, and the run's reaction samples the N coefficients that
    # the summary's coefficient norms then read: 2N + 1 samples
    calls = []
    sample = exprlang.sample
    monkeypatch.setattr(exprlang, "sample", lambda *a: calls.append(a) or sample(*a))
    data = _fisher_config(tmp_path / "out", t_max=0.01)
    data["spec"].update(N=3, coeffs=["0.1*sin(x)", "1+0.1*cos(x)", "0.2*x/5"])
    assert main(["simulate", _write(tmp_path, data), "--quiet"]) == EXIT_OK
    assert len(calls) == 2 * 3 + 1
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert len(summary["coefficient_norms"]) == 3


def test_shipped_configs_load():
    for name in ("fisher.json", "cubic.json", "front.json", "blowup.json",
                 "verify.json"):
        from gradflow1d.cli import load_config

        cfg = load_config(str(CONFIGS / name))
        assert cfg.spec.N >= 2


def test_outputs_reproducible(tmp_path):
    data = _fisher_config(tmp_path / "a", t_max=0.5)
    cfg = _write(tmp_path, data, "a.json")
    assert main(["simulate", cfg, "--quiet"]) == EXIT_OK
    data2 = _fisher_config(tmp_path / "b", t_max=0.5)
    cfg2 = _write(tmp_path, data2, "b.json")
    assert main(["simulate", cfg2, "--quiet"]) == EXIT_OK
    a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert a == b
