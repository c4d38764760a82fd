"""The exit-code contract under mutated configs.

Each example takes a shipped config, cut to at most 32 grid points and run
lengths of 0.5 (with a shooting start and a cheap verify suite added, so
those sections have leaves too), sets one or two of its leaves to a hostile
value, and runs `cli.main` under every subcommand.  Every run returns 0-3
and raises nothing; a run that exits 1 prints `error:` and writes nothing;
a non-finite number exits 1, except in a shooting start, where it is an
`errors` entry of `equilibria.json`.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from gradflow1d.cli import EXIT_CONFIG, main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SUBCOMMANDS = ("simulate", "equilibria", "connect", "verify")

# JSON Infinity and NaN; an integer beyond the float range is not finite
# either, except where any integer above a floor is valid
_NON_FINITE = (math.inf, -math.inf, math.nan)
_HUGE = 10**400
_UNBOUNDED_INTEGER_KEYS = {"seed", "snapshot_stride"}
_VALUES = (*_NON_FINITE, _HUGE, 1e308, 1e-308, 0, -1, "abc", [], {}, True, None)
# a run length of 1e308 is valid and lasts as long as its run takes to end
# (forever with tol_eq 0), so run lengths draw every other value
_RUN_LENGTH_VALUES = tuple(v for v in _VALUES if v != 1e308)


def _base(path: Path) -> dict:
    data = json.loads(path.read_text())
    data["spec"]["grid_points"] = min(data["spec"]["grid_points"], 32)
    data["t_max"] = 0.5
    for launch in data.get("connect", {}).get("launches", []):
        launch["t_max"] = 0.5
    data["equilibria"] = {**data.get("equilibria", {}),
                          "shooting": [{"u_left": 0.0, "slope": 0.5}]}
    data["verify"] = {"suites": ["gradient_consistency"], "t_max": 0.5}
    return data


def _leaves(node, path=()):
    """Paths to every value that is not a non-empty object or list."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _leaves(value, (*path, i))
    else:
        yield path


_BASES = {p.name: _base(p) for p in sorted(CONFIGS.glob("*.json"))}


@st.composite
def _mutated_configs(draw):
    """(config, [(path, value)]) with one or two leaves replaced."""
    name = draw(st.sampled_from(sorted(_BASES)))
    data = copy.deepcopy(_BASES[name])
    paths = draw(st.lists(st.sampled_from(list(_leaves(data))), min_size=1,
                          max_size=2, unique=True))
    changes = []
    for path in paths:
        value = draw(st.sampled_from(
            _RUN_LENGTH_VALUES if path[-1] == "t_max" else _VALUES))
        section = data
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        changes.append((path, value))
    return data, changes


def _is_non_finite(path, value) -> bool:
    """value is a non-finite number at path, outside any shooting start."""
    if "shooting" in path:
        return False
    if value == _HUGE:
        return path[-1] not in _UNBOUNDED_INTEGER_KEYS
    return value in _NON_FINITE


@settings(deadline=None)
@given(_mutated_configs())
def test_mutated_config_keeps_exit_code_contract(mutated):
    data, changes = mutated
    non_finite = any(_is_non_finite(path, value) for path, value in changes)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(data))
        for command in SUBCOMMANDS:
            out = Path(tmp) / command
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, str(config), "--output-dir", str(out), "--quiet"])
            assert code in (0, 1, 2, 3), command
            if non_finite:
                assert code == EXIT_CONFIG, command
            if code == EXIT_CONFIG:
                assert err.getvalue().startswith("error: "), command
                assert not out.exists(), command
