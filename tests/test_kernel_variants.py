"""`simulate` writes the same trajectory, and every equilibrium the same
leading eigenpair, under every BLAS and SIMD kernel variant the host offers.

The time step calls no BLAS and no power kernel: the diffusion solve is
LAPACK `dpttrf`/`dpttrs` (plain loops) and P and Q are elementwise
multiplies and adds.  So the snapshot files, the `status`, `stop_reason`,
`steps` and `final_time` of `run_summary.json`, and the `t`, `dt`,
`sup_norm` and `ut_sup` columns of `diagnostics.csv` must not change when
OpenBLAS is told to use another core type or numpy's AVX-512 kernels are
turned off.  The `action` and `energy_cum` columns take their sums of
squares row by row through `np.vecdot`, BLAS `ddot`, whose bits depend on
the core type; they are held to a relative 1e-9 only.  Under every variant,
`np.vecdot` on stacked rows must give each row the bits of `ndarray.dot`
(`test_grid.vecdot_rows_differing`), since the block of states in
`dynamics.run` sums with the one and the one-field kernels with the other.

`unstable_direction`'s Noda iteration factors and solves with the same
`dpttrf`/`dpttrs` and elementwise numpy, and takes the eigenvalue as a
Rayleigh quotient summed by numpy's `add.reduce`; the eigenvalue and the
direction's bytes must not change either.  Newton's step solves with
`dgttrf`/`dgttrs` (plain loops) and the periodic border in elementwise
numpy, so the bytes of Newton's equilibria must not change either.

Each variant runs `simulate` on the shipped `blowup`, `cubic` and `front`
configs, `unstable_direction` on every member of the `cubic` and `fisher`
catalogs, and Newton's catalog of a Fisher spec with a_1 = 1 + 0.3cos(0.7x)
on each closure, in its own interpreter, all variants at once.
"""

import csv
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("blowup", "cubic", "front")
EIGEN_CONFIGS = ("cubic", "fisher")
SUMMARY_KEYS = ("status", "stop_reason", "steps", "final_time")
HOST_INDEPENDENT_COLUMNS = ("t", "dt", "sup_norm", "ut_sup")
DDOT_COLUMNS = ("action", "energy_cum")
BOUNDARIES = ("periodic", "dirichlet0", "neumann0")
_KERNEL_VARS = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")

_SCRIPT = """
import json
import sys
sys.path.insert(0, "tests")
from test_grid import vecdot_rows_differing
from gradflow1d import cli, equilibria
from gradflow1d.nonlinearity import Nonlinearity
out, simulated, eigen = sys.argv[1], sys.argv[2].split(","), sys.argv[3].split(",")
with open(f"{out}.vecdot", "w") as f:
    f.write(str(vecdot_rows_differing()))
for name in simulated:
    cli.main(["simulate", f"configs/{name}.json", "--quiet",
              "--output-dir", f"{out}/{name}"])
for name in eigen:
    cfg = cli.load_config(f"configs/{name}.json")
    nl = Nonlinearity(cfg.spec, cfg.u0.grid)
    with open(f"{out}/{name}.eigenpairs", "w") as f:
        for eq in cli.build_catalog(cfg, nl)[0]:
            ud = equilibria.unstable_direction(nl, eq)
            f.write(f"{ud.eigenvalue!r} {ud.direction.values.tobytes().hex()}\\n")
for boundary in ("periodic", "dirichlet0", "neumann0"):
    data = json.load(open("configs/fisher.json"))
    data["spec"].update(coeffs=["0", "1+0.3*cos(0.7*x)"], boundary=boundary)
    data["equilibria"] = {"constant_roots": False, "newton_guesses": ["1", "0.9+0.1*cos(x)"]}
    with open(f"{out}/varcoef_{boundary}.json", "w") as f:
        json.dump(data, f)
    cfg = cli.load_config(f"{out}/varcoef_{boundary}.json")
    with open(f"{out}/varcoef_{boundary}.catalog", "w") as f:
        for eq in cli.build_catalog(cfg, Nonlinearity(cfg.spec, cfg.u0.grid))[0]:
            f.write(f"{eq.residual!r} {eq.field.values.tobytes().hex()}\\n")
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
            [sys.executable, "-c", _SCRIPT, str(out), ",".join(CONFIGS),
             ",".join(EIGEN_CONFIGS)], cwd=ROOT,
            env={**base, **extra}, stdout=subprocess.PIPE, stderr=subprocess.STDOUT))
    for name, (_, proc) in procs.items():
        output = proc.communicate(timeout=300)[0]
        assert proc.returncode == 0, (name, output.decode())
    return {name: out for name, (out, _) in procs.items()}


def _columns(path: Path) -> dict:
    with open(path) as f:
        rows = list(csv.reader(f))
    return {name: [r[j] for r in rows[1:]] for j, name in enumerate(rows[0])}


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the kernel variants are x86-64 ones")
@pytest.mark.skipif(not _numpy_blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
def test_simulate_is_independent_of_the_kernel_variant(tmp_path):
    outs = _run_all(tmp_path)
    for variant, out in outs.items():
        assert out.with_suffix(".vecdot").read_text() == "0", variant
    ref = outs.pop("default")
    for boundary in BOUNDARIES:
        want = (ref / f"varcoef_{boundary}.catalog").read_text()
        assert len(want.splitlines()) >= 1, boundary
        for variant, out in outs.items():
            assert (out / f"varcoef_{boundary}.catalog").read_text() == want, \
                (variant, boundary)
    for config in EIGEN_CONFIGS:
        want = (ref / f"{config}.eigenpairs").read_text()
        assert len(want.splitlines()) >= 2, config
        for variant, out in outs.items():
            assert (out / f"{config}.eigenpairs").read_text() == want, (variant, config)
    for config in CONFIGS:
        want_dir = ref / config
        want_summary = json.loads((want_dir / "run_summary.json").read_text())
        want_snaps = sorted(p.name for p in want_dir.glob("snap_*.csv"))
        want = _columns(want_dir / "diagnostics.csv")
        assert len(want_snaps) >= 2 and len(want["t"]) > 1
        for variant, out in outs.items():
            got_dir = out / config
            where = (variant, config)
            got_summary = json.loads((got_dir / "run_summary.json").read_text())
            for key in SUMMARY_KEYS:
                assert got_summary[key] == want_summary[key], (where, key)
            assert sorted(p.name for p in got_dir.glob("snap_*.csv")) == want_snaps, where
            for name in want_snaps:
                assert (got_dir / name).read_bytes() == (want_dir / name).read_bytes(), \
                    (where, name)
            got = _columns(got_dir / "diagnostics.csv")
            for column in HOST_INDEPENDENT_COLUMNS:
                assert got[column] == want[column], (where, column)
            for column in DDOT_COLUMNS:
                a = np.array(got[column], dtype=float)
                b = np.array(want[column], dtype=float)
                assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(1.0, np.abs(b))), \
                    (where, column)
