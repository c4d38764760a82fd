"""Span tracer for the benchmark's traced runs.

`Tracer.install` wraps public functions and methods of the gradflow1d
modules.  Each call through a wrapper records one span: name, start, end,
parent span, op id and, for the hot kernels, the grid size M.  A function
imported by name (`from .grid import laplacian_values`) is bound in several
modules, so every module attribute that is the original object is patched,
and `Tracer.close` puts every original back.  Untraced runs never create a
Tracer, so they run the program with no wrapper installed.

Spans stay in memory in compact arrays until the run ends;
`Tracer.layer_metrics` turns them into per-layer metrics.  Self time is a
span's duration minus the time its child spans cover.  For a recursive
function (`exprlang.evaluate`) only the outermost call records a span.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

SIZES = (16, 256, 2048)  # grid sizes whose per-call cost is reported apart
PACKAGE = "gradflow1d"
SUITES = ("mms", "action_monotonicity", "identity_residual", "reaction_bound",
          "blowup_timing")
SUBCOMMANDS = ("simulate", "equilibria", "connect", "verify")


@dataclass(frozen=True)
class Target:
    module: str       # module that defines the object, e.g. "gradflow1d.grid"
    path: str         # attribute path in that module, e.g. "Field.__init__"
    span: str         # span name
    sized: bool = False       # record the grid size M of the call
    outermost: bool = False   # recursive: only the outermost call is a span


TARGETS = (
    Target("gradflow1d.dynamics", "run", "dynamics.run"),
    Target("gradflow1d.dynamics", "Trajectory.write_outputs", "dynamics.write_outputs"),
    Target("gradflow1d.grid", "Field.__init__", "grid.Field", sized=True),
    Target("gradflow1d.grid", "laplacian_values", "grid.laplacian_values", sized=True),
    Target("gradflow1d.grid", "write_field_csv", "grid.write_field_csv"),
    Target("gradflow1d.nonlinearity", "Nonlinearity.apply_P_values",
           "nonlinearity.apply_P_values", sized=True),
    Target("gradflow1d.nonlinearity", "Nonlinearity.potential",
           "nonlinearity.potential", sized=True),
    Target("gradflow1d.nonlinearity", "Nonlinearity.apply_dP", "nonlinearity.apply_dP"),
    Target("gradflow1d.nonlinearity", "Nonlinearity.scalar_P", "nonlinearity.scalar_P"),
    Target("gradflow1d.functionals", "action", "functionals.action", sized=True),
    Target("gradflow1d.functionals", "identity_residual", "functionals.identity_residual"),
    Target("gradflow1d.tridiag", "ImplicitDiffusionSolver.__init__", "tridiag.factorization"),
    Target("gradflow1d.tridiag", "ImplicitDiffusionSolver.solve", "tridiag.solve", sized=True),
    Target("gradflow1d.tridiag", "ImplicitDiffusionSolver.relative_residual",
           "tridiag.relative_residual", sized=True),
    Target("gradflow1d.tridiag", "thomas_solve", "tridiag.thomas_solve"),
    Target("gradflow1d.exprlang", "parse", "exprlang.parse"),
    Target("gradflow1d.exprlang", "sample", "exprlang.sample"),
    Target("gradflow1d.exprlang", "evaluate", "exprlang.evaluate", outermost=True),
    Target("gradflow1d.problem", "spec_from_dict", "problem.spec_from_dict"),
    Target("gradflow1d.equilibria", "newton_refine", "equilibria.newton_refine"),
    Target("gradflow1d.equilibria", "shoot", "equilibria.shoot"),
    Target("gradflow1d.equilibria", "unstable_direction", "equilibria.unstable_direction"),
    Target("gradflow1d.connections", "connection_energy_audit",
           "connections.connection_energy_audit"),
    Target("gradflow1d.connections", "launch_connection", "connections.launch_connection"),
    *(Target("gradflow1d.verify", f"suite_{s}", f"verify.{s}") for s in SUITES),
    Target("gradflow1d.cli", "main", "cli.main"),
)


def dt_halvings(dt_column) -> int:
    """Halvings visible in a diagnostics `dt` column.

    Row 0 has dt = 0.  A drop by an exact power of two counts as that many
    halvings; other drops are the final step clipped to t_max.
    """
    n = 0
    for before, after in zip(dt_column[1:], dt_column[2:]):
        if 0.0 < after < before:
            k = math.log2(before / after)
            if k == int(k):
                n += int(k)
    return n


def _grid_size(args, grid_type, field_type) -> int:
    for a in args:
        if isinstance(a, grid_type):
            return a.m
        if isinstance(a, np.ndarray):
            return int(a.shape[-1])
        if isinstance(a, field_type):
            return a.grid.m
    return -1


class Tracer:
    """Records spans while `recording` is true; one instance per run."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.size = array("l")
        self.op_pass: list[int] = []    # pass index of each op id
        self.counts = defaultdict(int)  # (counter name, pass index) -> count
        self.current_op = -1            # -1: set-up, outside any op
        self.recording = False
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- ops ---------------------------------------------------------------

    def begin_op(self, pass_index: int) -> int:
        self.op_pass.append(pass_index)
        self.current_op = len(self.op_pass) - 1
        return self.current_op

    def current_pass(self) -> int:
        return -1 if self.current_op < 0 else self.op_pass[self.current_op]

    def count(self, counter: str, n: int = 1) -> None:
        self.counts[(counter, self.current_pass())] += n

    # -- patching ----------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for t in targets:
            importlib.import_module(t.module)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        try:
            for t in targets:
                owner = sys.modules[t.module]
                *outer, attr = t.path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapper = self._wrap(t, original)
                if outer:  # method: the class attribute is the only binding
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)
        except BaseException:
            self.close()
            raise

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def close(self) -> None:
        """Restore every patched attribute to its original object."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.recording = False

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return nid

    def _wrap(self, t: Target, original: Callable) -> Callable:
        tracer = self
        stack = self._stack
        starts, ends, parents = self.start, self.end, self.parent
        names, ops, sizes = self.name, self.op, self.size
        clock = time.perf_counter
        nid = self._name_id(t.span)
        on_return = _ON_RETURN.get(t.span)
        on_error = _ON_ERROR.get(t.span)
        sized = t.sized
        skip_self = "." in t.path
        name_of = _NAME_OF.get(t.span)
        depth = [0]
        from gradflow1d.grid import Field, SpatialGrid

        def wrapper(*args, **kwargs):
            if not tracer.recording or (t.outermost and depth[0]):
                return original(*args, **kwargs)
            idx = len(starts)
            names.append(tracer._name_id(name_of(args)) if name_of else nid)
            parents.append(stack[-1])
            ops.append(tracer.current_op)
            sizes.append(_grid_size(args[1:] if skip_self else args, SpatialGrid, Field)
                         if sized else -1)
            ends.append(0.0)
            stack.append(idx)
            depth[0] += 1
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            except Exception as e:
                if on_error is not None:
                    on_error(tracer, original, args, kwargs, e)
                raise
            finally:
                ends[idx] = clock()
                depth[0] -= 1
                stack.pop()
            if on_return is not None:
                on_return(tracer, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", t.span)
        wrapper.__qualname__ = getattr(original, "__qualname__", t.span)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        wrapper._bench_wrapper = True
        return wrapper

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self, n_passes: int, io_bytes: int) -> dict:
        """Per-layer metrics as {name: (value, unit)}.

        Counts cover set-up plus the first pass, so they repeat exactly for a
        seed.  `self_s` and `.s` times are set-up time plus the mean per pass.
        `us_per_call` is inclusive time per call over every span.  `io_bytes`
        is what the ops of the first pass wrote.
        """
        n = len(self.start)
        start = np.asarray(self.start, dtype=np.float64)
        end = np.asarray(self.end, dtype=np.float64)
        parent = np.asarray(self.parent, dtype=np.int64)
        name = np.asarray(self.name, dtype=np.int64)
        size = np.asarray(self.size, dtype=np.int64)
        op = np.asarray(self.op, dtype=np.int64)
        op_pass = np.asarray(self.op_pass + [-1], dtype=np.int64)
        span_pass = op_pass[op]  # op == -1 indexes the trailing -1
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        first = span_pass <= 0
        per_pass = 1.0 / max(n_passes, 1)

        def select(span_name):
            nid = self._name_ids.get(span_name)
            return np.zeros(n, bool) if nid is None else name == nid

        def calls(span_name):
            return int(np.count_nonzero(select(span_name) & first))

        def total(span_name, values):
            mask = select(span_name)
            return float(values[mask & (span_pass < 0)].sum()
                         + values[mask & (span_pass >= 0)].sum() * per_pass)

        def us_per_call(span_name, m=None):
            mask = select(span_name)
            if m is not None:
                mask &= size == m
            k = int(np.count_nonzero(mask))
            return float(dur[mask].sum()) / k * 1e6 if k else 0.0

        def counted(counter, all_passes=False):
            return sum(v for (c, p), v in self.counts.items()
                       if c == counter and (all_passes or p <= 0))

        out = {}

        def put(key, value, unit):
            out[key] = (value, unit)

        def kernel(span_name):
            put(f"{span_name}.us_per_call", us_per_call(span_name), "us")
            for m in SIZES:
                put(f"{span_name}.us_per_call.m{m}", us_per_call(span_name, m), "us")

        steps_all = counted("dynamics.steps", all_passes=True)
        run_mask = select("dynamics.run")
        put("dynamics.run.self_s", total("dynamics.run", own), "s")
        put("dynamics.steps", counted("dynamics.steps"), "count")
        put("dynamics.us_per_step",
            float(dur[run_mask].sum()) / steps_all * 1e6 if steps_all else 0.0, "us")
        put("dynamics.dt_halvings", counted("dynamics.dt_halvings"), "count")
        put("dynamics.write_outputs.self_s", total("dynamics.write_outputs", own), "s")

        put("grid.Field.calls", calls("grid.Field"), "count")
        kernel("grid.Field")
        kernel("grid.laplacian_values")
        put("grid.write_field_csv.calls", calls("grid.write_field_csv"), "count")
        put("grid.write_field_csv.self_s", total("grid.write_field_csv", own), "s")

        kernel("nonlinearity.apply_P_values")
        kernel("nonlinearity.potential")
        put("nonlinearity.apply_dP.self_s", total("nonlinearity.apply_dP", own), "s")
        put("nonlinearity.scalar_P.calls", calls("nonlinearity.scalar_P"), "count")
        put("nonlinearity.scalar_P.self_s", total("nonlinearity.scalar_P", own), "s")

        put("functionals.action.calls", calls("functionals.action"), "count")
        kernel("functionals.action")
        put("functionals.identity_residual.self_s",
            total("functionals.identity_residual", own), "s")

        kernel("tridiag.solve")
        kernel("tridiag.relative_residual")
        put("tridiag.factorizations", calls("tridiag.factorization"), "count")
        put("tridiag.thomas_solve.calls", calls("tridiag.thomas_solve"), "count")
        put("tridiag.thomas_solve.self_s", total("tridiag.thomas_solve", own), "s")

        put("exprlang.parse.self_s", total("exprlang.parse", own), "s")
        put("exprlang.sample.self_s", total("exprlang.sample", own), "s")
        put("exprlang.evaluate.calls", calls("exprlang.evaluate"), "count")
        put("exprlang.evaluate.self_s", total("exprlang.evaluate", own), "s")
        put("problem.spec_from_dict.self_s", total("problem.spec_from_dict", own), "s")

        put("equilibria.newton_refine.self_s", total("equilibria.newton_refine", own), "s")
        put("equilibria.shoot.self_s", total("equilibria.shoot", own), "s")
        put("equilibria.unstable_direction.calls", calls("equilibria.unstable_direction"),
            "count")
        put("equilibria.unstable_direction.self_s",
            total("equilibria.unstable_direction", own), "s")
        put("equilibria.unstable_direction.failures",
            counted("equilibria.unstable_direction.failures"), "count")
        put("equilibria.power_iterations", counted("equilibria.power_iterations"), "count")

        put("connections.connection_energy_audit.self_s",
            total("connections.connection_energy_audit", own), "s")
        put("connections.launch_connection.calls", calls("connections.launch_connection"),
            "count")

        for s in SUITES:
            put(f"verify.{s}.s", total(f"verify.{s}", dur), "s")
        for sub in SUBCOMMANDS:
            put(f"cli.main.{sub}.s", total(f"cli.main.{sub}", dur), "s")
        put("io.bytes_written", io_bytes, "B")
        return out


# -- hooks that read counts off return values -------------------------------


def _run_returned(tracer: Tracer, traj) -> None:
    tracer.count("dynamics.steps", traj.steps)
    tracer.count("dynamics.dt_halvings", dt_halvings(traj.diagnostics.dt))


def _unstable_returned(tracer: Tracer, result) -> None:
    tracer.count("equilibria.power_iterations", result.iterations)


def _unstable_failed(tracer: Tracer, original, args, kwargs, error) -> None:
    from gradflow1d.equilibria import PowerIterationError

    if isinstance(error, PowerIterationError):
        bound = inspect.signature(original).bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.count("equilibria.power_iterations", bound.arguments["max_iter"])
    tracer.count("equilibria.unstable_direction.failures")


def _cli_span_name(args) -> str:
    argv = args[0] if args else None
    sub = argv[0] if argv else "none"
    return f"cli.main.{sub}"


_ON_RETURN = {
    "dynamics.run": _run_returned,
    "equilibria.unstable_direction": _unstable_returned,
}
_ON_ERROR = {"equilibria.unstable_direction": _unstable_failed}
_NAME_OF = {"cli.main": _cli_span_name}
