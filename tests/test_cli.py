import csv
import json
from pathlib import Path

import pytest

from gradflow1d.cli import (
    EXIT_BLOW_UP,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VERIFY,
    main,
)

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
    # |u| reaches about 950, where dt*u^2 <= 0.09 needs dt below dt_min
    assert summary["stop_reason"] == "increment_dt_collapse"


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
    "box_half_length-abc": (("spec", "box_half_length"), "abc"),
    "box_half_length-inf": (("spec", "box_half_length"), float("inf")),
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


def test_connect_fisher_batch(tmp_path):
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
    assert main(["connect", cfg, "--quiet"]) == EXIT_OK
    with open(tmp_path / "out" / "connections.csv") as f:
        rows = list(csv.DictReader(f))
    assert [r["status"] for r in rows] == ["connected", "connected"]
    assert float(rows[0]["total_energy"]) == pytest.approx(10.0 / 6.0, rel=0.02)


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


def test_verify_monotonicity_fails_with_huge_dt(tmp_path):
    # bypassing the explicit-increment guard with a large fixed step breaks
    # the discrete monotonicity of the action
    data = _fisher_config(tmp_path / "out")
    data["verify"] = {
        "suites": ["action_monotonicity"],
        "control": {"dt_init": 25.0, "dt_min": 25.0, "dt_max": 25.0,
                    "increment_limit": 100.0},
        "t_max": 100.0,
    }
    cfg = _write(tmp_path, data)
    assert main(["verify", cfg, "--quiet"]) == EXIT_VERIFY
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["all_passed"] is False


def test_verify_empty_control_is_the_suite_default(tmp_path):
    # a spec sup_guard of 0.5 would end the Fisher runs (data up to 0.9) as
    # blow-up if an empty verify.control were built into a StepControl
    reports = []
    for name, section in (("none", {}), ("empty", {"control": {}})):
        data = _fisher_config(tmp_path / name)
        data["spec"]["sup_guard"] = 0.5
        data["verify"] = {"suites": ["action_monotonicity"], **section}
        assert main(["verify", _write(tmp_path, data, f"{name}.json"), "--quiet"]) == EXIT_OK
        reports.append((tmp_path / name / "verify_report.json").read_bytes())
    assert reports[0] == reports[1]
    [suite] = json.loads(reports[0])["suites"]
    assert "blow_up" not in suite["details"]["statuses"]


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
