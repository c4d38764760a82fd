"""Every definition in the package is reached from the program, not only
from tests.

A top-level function or class, or a method other than a dunder, passes when
its name is referenced from another definition in `src/gradflow1d` or from a
`bench/*.py` file.  References are names and attribute names; in `bench/`
each part of a dotted string counts too, since the tracer names its targets
that way (`"Nonlinearity.apply_P_values"`).  `verify.suite_<name>` is
reached through `verify.SUITES`.  Code outside any definition (imports,
`__all__`, the `__main__` block) reaches nothing.

Every name the benchmark's tracer patches also exists, so a deletion that
would break the benchmark fails here.

Every module under `src/gradflow1d` and `tests/` reads each name it
imports.  Re-exports are exempt: all of `__init__.py`, and a module's
names listed in its `__all__`; so is `from __future__ import annotations`.

Only `tridiag` imports scipy: every LAPACK call the package makes lives in
that one module.  A module counts as importing scipy
when it imports it or names it, or a part of it, in a string constant, as a
load by path does (`find_spec("scipy")`).

No module reaches BLAS or `numpy.linalg`: no `vecdot`, `dot`, `matmul`,
`@`, `einsum`, `inner`, `tensordot`, `polyfit` or `lstsq`, and no `linalg`
attribute other than `LinAlgError`.  Every sum is `np.add.reduce` of
elementwise products, whose bits do not depend on the host's BLAS or SIMD
kernels (`tests/test_kernel_variants.py`).

Every optional parameter of a package function is set by some call in the
package or in `bench/*.py`, and left at its default by another; the few
that no such call sets are listed in `TEST_ONLY_OPTIONS`, each with its
reason.  An option only tests set, or a default only tests use, fails.

`src_lines` and `settable_parameters` count the package's size, the two
numbers that track how simple it is; `python tests/test_reachability.py`
prints them.
"""

import ast
import importlib.util
import re
import sys
from collections import Counter
from pathlib import Path

from gradflow1d import verify

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gradflow1d"

# kept for the run provenance record (a hash of the canonical spec text)
ALLOWED = {"canonical_text"}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _names(node) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _definitions(tree):
    """(name, qualified name, owners, node) per top-level function, class and
    method; owners are the qualified names of node and of its class."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.name, top.name, {top.name}, top
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                if isinstance(item, ast.FunctionDef):
                    qual = f"{top.name}.{item.name}"
                    yield item.name, qual, {top.name, qual}, item


def _unreached(package: Path = PACKAGE) -> list[str]:
    defined = []  # (module, name, qualified name)
    scopes = []   # (owners, referenced names)
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, qual, owners, node in _definitions(tree):
            defined.append((path.stem, name, qual))
            if isinstance(node, ast.ClassDef):
                # class-body statements other than methods (fields, constants)
                rest = [s for s in node.body if not isinstance(s, ast.FunctionDef)]
                scopes.append((owners, set().union(*map(_names, rest))))
            else:
                scopes.append((owners, _names(node)))
    bench = set(f"suite_{s}" for s in verify.SUITES)
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text())
        bench |= _names(tree)
        for n in ast.walk(tree):
            if (isinstance(n, ast.Constant) and isinstance(n.value, str)
                    and _DOTTED.fullmatch(n.value)):
                bench.update(n.value.split("."))
    unreached = []
    for module, name, qual in defined:
        if name.startswith("__") and name.endswith("__"):
            continue
        if name in ALLOWED or name in bench:
            continue
        # references from the definition itself (for a class, its body) do not count
        if not any(name in names for owners, names in scopes if qual not in owners):
            unreached.append(f"{module}.{qual}")
    return unreached


def test_every_definition_is_reached_from_the_program():
    assert _unreached() == []


def test_guard_sees_a_definition_only_tests_reach(tmp_path):
    # a copy of the package with one extra, unreferenced function fails
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    grid = tmp_path / "grid.py"
    grid.write_text(grid.read_text() + "\n\ndef only_tests_call_this(u):\n    return u\n")
    assert _unreached(tmp_path) == ["grid.only_tests_call_this"]


def _unused_imports(path: Path) -> list[str]:
    """`module.name` for each name the module imports but never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.stem}.{name}" for name in sorted(imported - read - exported)]


def test_every_import_is_read():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted((ROOT / "tests").glob("*.py"))
    assert [u for path in modules for u in _unused_imports(path)] == []


def test_import_guard_sees_an_unused_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("from __future__ import annotations\n\nimport json\n"
                    "import os.path\nfrom math import inf, nan\n\n"
                    "__all__ = ['nan']\n\n\ndef f():\n    return os.path.sep\n")
    assert _unused_imports(path) == ["module.inf", "module.json"]


def _scipy_importers(package: Path = PACKAGE) -> list[str]:
    """The package's modules that import scipy or a part of it, or name one
    in a string constant such as "scipy" or "scipy.linalg._flapack"."""
    out = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and _DOTTED.fullmatch(node.value)):
                modules = [node.value]
            else:
                continue
            if any(m.partition(".")[0] == "scipy" for m in modules):
                out.append(path.stem)
                break
    return out


def test_only_tridiag_imports_scipy():
    assert _scipy_importers() == ["tridiag"]


def test_scipy_guard_sees_a_load_by_path(tmp_path):
    # a module that only locates scipy counts; one that mentions scipy in
    # prose does not
    (tmp_path / "finder.py").write_text(
        'import importlib.util\n\nSPEC = importlib.util.find_spec("scipy")\n')
    (tmp_path / "prose.py").write_text('"""Needs no scipy."""\n\nX = "scipyx"\n')
    assert _scipy_importers(tmp_path) == ["finder"]


# numpy functions and methods that call BLAS or LAPACK
BLAS_NAMES = {"vecdot", "dot", "matmul", "einsum", "inner", "tensordot", "polyfit", "lstsq"}


def _blas_uses(package: Path = PACKAGE) -> list[str]:
    """`module.name` per use of a BLAS or numpy.linalg function in package:
    an attribute, a called or imported name in BLAS_NAMES, the `@` operator,
    or a `linalg` attribute or numpy.linalg import other than LinAlgError."""
    out = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Attribute):
                names.append(node.attr)
                outer = node.value
                if getattr(outer, "attr", getattr(outer, "id", None)) == "linalg":
                    names.append(f"linalg.{node.attr}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names.append(node.func.id)
            elif isinstance(node, ast.ImportFrom):
                prefix = "linalg." if node.module == "numpy.linalg" else ""
                names.extend(prefix + a.name for a in node.names)
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                names.append("@")
            out.update(f"{path.stem}.{n}" for n in names
                       if n in BLAS_NAMES or n == "@"
                       or (n.startswith("linalg.") and n != "linalg.LinAlgError"))
    return sorted(out)


def test_no_module_reaches_blas():
    assert _blas_uses() == []


def test_blas_guard_on_a_toy_package(tmp_path):
    # each form counts once per module; LinAlgError, add.reduce and a local
    # variable named like a BLAS function do not count
    (tmp_path / "sums.py").write_text(
        "import numpy as np\n"
        "from numpy import einsum\n"
        "from numpy.linalg import LinAlgError, solve\n"
        "\n"
        "def f(a, b):\n"
        "    inner = np.add.reduce(a * b)\n"
        "    try:\n"
        "        c = a @ b + a.dot(b) + np.vecdot(a, b) + np.linalg.norm(a)\n"
        "    except np.linalg.LinAlgError:\n"
        "        c = inner\n"
        "    c @= b\n"
        "    return np.polyfit(a, b, 1), np.linalg.lstsq(a, b), einsum('i,i', a, b), c\n")
    (tmp_path / "clean.py").write_text(
        "import numpy as np\n\ndef g(a):\n    return np.add.reduce(a * a, axis=-1)\n")
    assert _blas_uses(tmp_path) == [
        "sums.@", "sums.dot", "sums.einsum", "sums.linalg.lstsq", "sums.linalg.norm",
        "sums.linalg.solve", "sums.lstsq", "sums.polyfit", "sums.vecdot"]


def _bench_targets():
    """`TARGETS` of bench/tracer.py, loaded by path: bench/ is no package."""
    name = "_gradflow1d_bench_tracer"
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[name] = tracer  # dataclasses look the module up by name
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[name]
    return tracer.TARGETS


def test_every_traced_name_exists():
    # resolved as Tracer.install resolves it: the last part must be in the
    # owner's own __dict__, not inherited
    missing = []
    for t in _bench_targets():
        *outer, attr = t.path.split(".")
        try:
            owner = importlib.import_module(t.module)
            for part in outer:
                owner = getattr(owner, part)
            owner.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{t.module}:{t.path}")
    assert missing == []


# the optional parameters that no program call sets, and why each stays
TEST_ONLY_OPTIONS = {
    "equilibria.unstable_direction.max_iter":
        "bench/tracer.py reads its default through the signature",
    "equilibria.newton_refine.max_iter": "tests step Newton one iteration at a time",
    "equilibria.newton_refine.tol": "tests step Newton one iteration at a time",
    "connections.energy_growth_diagnostic.window_fraction":
        "acceptance criterion 4's contrast uses a window of 0.1",
}


def _optional_parameters(package: Path):
    """{(called name, module.qualified name.parameter): (index among a
    call's positional arguments, None for a keyword-only one; its name)} per
    optional parameter.  A method's called name is its own, or its class's
    for `__init__`, and a call does not pass its instance."""
    out = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, qual, _, node in _definitions(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            method = qual != name
            called = qual.partition(".")[0] if name == "__init__" else name
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                out[called, f"{path.stem}.{qual}.{arg.arg}"] = (i - method, arg.arg)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    out[called, f"{path.stem}.{qual}.{arg.arg}"] = (None, arg.arg)
    return out


def _test_only_options(package: Path = PACKAGE, callers=None) -> list[str]:
    """The optional parameters of package's functions that serve tests only:
    those no call in package or in callers (default: `bench/*.py`) sets, by
    keyword, by position or through `*` or `**`, and those every such call
    sets, whose default no call uses.  Calls match by the called name."""
    options = _optional_parameters(package)
    files = sorted(package.glob("*.py")) + sorted(
        (ROOT / "bench").glob("*.py") if callers is None else callers)
    calls, sets = Counter(), Counter()
    for path in files:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            called = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            keywords = {k.arg for k in call.keywords}
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            for (name, option), (index, arg) in options.items():
                if name == called:
                    calls[option] += 1
                    sets[option] += (arg in keywords or None in keywords or starred
                                     or (index is not None and index < len(call.args)))
    return sorted(option for _, option in options
                  if sets[option] == 0 or sets[option] == calls[option])


def test_every_option_is_set_by_the_program():
    assert _test_only_options() == sorted(TEST_ONLY_OPTIONS)


def test_option_guard_on_a_toy_package(tmp_path):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "toy.py").write_text(
        "class Solver:\n"
        "    def __init__(self, a, b=1):\n"
        "        self.a = a\n"
        "\n"
        "    def step(self, x, y=2, *, z=3):\n"
        "        return x\n"
        "\n"
        "def f(u, v=0, *, w=None):\n"
        "    return Solver(u).step(u, v)\n"
        "\n"
        "def g(p=1, q=2):\n"
        "    return f(p, **{'w': q}), f(p)\n")
    caller = tmp_path / "caller.py"
    caller.write_text("import toy\n\ntoy.g(*(1,))\ntoy.g()\n")
    # step's y: its one call sets it, so its default serves no call
    assert _test_only_options(package, [caller]) == [
        "toy.Solver.__init__.b", "toy.Solver.step.y", "toy.Solver.step.z"]


def src_lines(package: Path = PACKAGE) -> int:
    """Lines of the package's modules, counted as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in sorted(package.glob("*.py")))


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return "dataclass" in (getattr(target, "id", None), getattr(target, "attr", None))


def settable_parameters(package: Path = PACKAGE) -> tuple[int, int]:
    """(optional parameters of every def, fields of every dataclass): what a
    caller can set beyond what it must pass."""
    optional = fields = 0
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                optional += len(node.args.defaults)
                optional += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(map(_is_dataclass,
                                                            node.decorator_list)):
                fields += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return optional, fields


def test_size_counters_on_a_toy_package(tmp_path):
    (tmp_path / "toy.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: float = 0.0\n"
        "    Z = 3  # no annotation: not a field\n"
        "\n"
        "@dataclasses.dataclass\n"
        "class B:\n"
        "    w: int = 1\n"
        "\n"
        "    def f(self, a, b=1, *, c, d=2):\n"
        "        def g(e=3):\n"
        "            return e\n"
        "        return g\n"
        "\n"
        "class C:  # not a dataclass\n"
        "    v: int = 0\n"
        "    async def h(self, *, k=None):\n"
        "        return k")  # no newline at the end: wc -l counts 21 lines
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert src_lines(tmp_path) == 21
    assert settable_parameters(tmp_path) == (4, 3)


if __name__ == "__main__":
    optional, fields = settable_parameters()
    print(f"src lines: {src_lines()}")
    print(f"settable parameters: {optional} optional def parameters + "
          f"{fields} dataclass fields = {optional + fields}")
