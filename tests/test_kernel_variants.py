"""Every output is the same under every BLAS and SIMD kernel variant the
host offers.

The package calls no BLAS and no numpy power kernel
(`tests/test_reachability.py` guards the rule): its solves are LAPACK
`dpttrf`/`dpttrs` and `dgttrf`/`dgttrs`, plain loops, and every other number
is made by numpy's elementwise ufuncs and `np.add.reduce`.  So nothing it
writes may change when OpenBLAS is told to use another core type or numpy's
AVX-512 kernels are turned off.

Each variant runs, in its own interpreter, `tests/shipped_runs.py`'s 13
shipped-config runs (the sha256 of every file, exit code and stdout) and
writes records of what those runs reach only in part: the leading eigenpair
of every member of the `cubic` and `fisher` catalogs, Newton's catalog of a
Fisher spec with a_1 = 1 + 0.3cos(0.7x) on each closure,
`energy_growth_diagnostic` on fixed synthetic energy windows, and the
`reaction_bound` suite's norm-growth ratios at seed 0, all four (k, p) of
each of its 1000 fields, of which the verify report keeps only the maxima.
Every variant's manifest and records must equal the default's, entry for
entry.  All variants run at once.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ("eigenpairs", "varcoef", "growth", "ratios")
_KERNEL_VARS = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")

_SCRIPT = """
import json
import sys
from pathlib import Path
from types import SimpleNamespace
import numpy as np
sys.path.insert(0, "tests")
from shipped_runs import shipped_runs
from gradflow1d import cli, connections, dynamics, equilibria, problem, verify
from gradflow1d.nonlinearity import Nonlinearity
out = Path(sys.argv[1])
out.mkdir()
(out / "manifest.txt").write_text("\\n".join(shipped_runs(out / "shipped")) + "\\n")
with open(out / "eigenpairs", "w") as f:
    for name in ("cubic", "fisher"):
        cfg = cli.load_config(f"configs/{name}.json")
        nl = Nonlinearity(cfg.spec, cfg.u0.grid)
        for eq in cli.build_catalog(cfg, nl)[0]:
            ud = equilibria.unstable_direction(nl, eq)
            f.write(f"{name} {ud.eigenvalue!r} {ud.direction.values.tobytes().hex()}\\n")
with open(out / "varcoef", "w") as f:
    for boundary in ("periodic", "dirichlet0", "neumann0"):
        data = json.load(open("configs/fisher.json"))
        data["spec"].update(coeffs=["0", "1+0.3*cos(0.7*x)"], boundary=boundary)
        data["equilibria"] = {"constant_roots": False,
                              "newton_guesses": ["1", "0.9+0.1*cos(x)"]}
        path = out / f"varcoef_{boundary}.json"
        path.write_text(json.dumps(data))
        cfg = cli.load_config(str(path))
        for eq in cli.build_catalog(cfg, Nonlinearity(cfg.spec, cfg.u0.grid))[0]:
            f.write(f"{boundary} {eq.residual!r} {eq.field.values.tobytes().hex()}\\n")
rng = np.random.default_rng(7)
with open(out / "growth", "w") as f:
    for rows in (100, 101, 333, 1000, 4097) * 4:
        diag = dynamics.DiagnosticSeries()
        t, _, _, _, energy, _ = diag.columns()
        t.extend(np.cumsum(rng.uniform(1e-3, 1e-2, rows)).tolist())
        energy.extend((rng.uniform(-2, 2) * np.asarray(t) + rng.uniform(-5, 5)
                       + 1e-3 * rng.standard_normal(rows)).tolist())
        g = connections.energy_growth_diagnostic(SimpleNamespace(diagnostics=diag))
        f.write(f"{g.rate!r} {g.fit_quality!r}\\n")
spec = verify.fisher_spec(grid_points=64)
nl = Nonlinearity(spec, problem.make_grid(spec))
rng = np.random.default_rng(0)
with open(out / "ratios", "w") as f:
    for _ in range(verify._RATIO_SAMPLES):
        u = verify.random_smooth_field(nl.grid, rng)
        f.write(" ".join(repr(verify.reaction_norm_ratio(nl, u, k, p))
                         for k, p in verify._RATIO_NORMS) + "\\n")
"""


def _numpy_blas_is_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def _has_avx2() -> bool:
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


def _variants() -> dict:
    variants = {
        "default": {},
        "Nehalem": {"OPENBLAS_CORETYPE": "Nehalem"},
        "Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
        "no-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    }
    if _has_avx2():
        variants["Haswell"] = {"OPENBLAS_CORETYPE": "Haswell"}
    return variants


def _run_all(tmp_path) -> dict:
    """variant -> its output directory, every variant run concurrently."""
    base = {k: v for k, v in os.environ.items() if k not in _KERNEL_VARS}
    base["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([base["PYTHONPATH"]] if base.get("PYTHONPATH") else []))
    base["OPENBLAS_NUM_THREADS"] = "1"
    procs = {}
    for name, extra in _variants().items():
        out = tmp_path / name
        procs[name] = (out, subprocess.Popen(
            [sys.executable, "-c", _SCRIPT, str(out)], cwd=ROOT,
            env={**base, **extra}, stdout=subprocess.PIPE, stderr=subprocess.STDOUT))
    for name, (_, proc) in procs.items():
        output = proc.communicate(timeout=600)[0]
        assert proc.returncode == 0, (name, output.decode())
    return {name: out for name, (out, _) in procs.items()}


def _manifest(out: Path) -> dict:
    """The manifest's lines keyed by their run or file name."""
    lines = (out / "manifest.txt").read_text().splitlines()
    return {" ".join(line.split()[:2]): line for line in lines}


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the kernel variants are x86-64 ones")
@pytest.mark.skipif(not _numpy_blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
def test_every_output_is_independent_of_the_kernel_variant(tmp_path):
    outs = _run_all(tmp_path)
    ref = outs.pop("default")
    want = _manifest(ref)
    assert sum(key.startswith("run ") for key in want) == 13 and len(want) > 13
    records = {name: (ref / name).read_text() for name in RECORDS}
    assert all(len(text.splitlines()) >= 3 for text in records.values()), records.keys()
    for variant, out in outs.items():
        got = _manifest(out)
        assert sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k)) == [], \
            variant
        for name, text in records.items():
            assert (out / name).read_text() == text, (variant, name)
