"""Run the 13 shipped-config runs and fingerprint what they write.

    python tests/shipped_runs.py OUT_DIR [--compare OTHER_DIR]

The runs are `simulate`, `equilibria` and `connect` on configs/blowup.json,
cubic.json, fisher.json and front.json, plus `verify` on configs/verify.json.
Each runs as `python -m gradflow1d.cli` in its own process, from the root of
the checkout this script sits in (its `src/` first on PYTHONPATH), and writes
under OUT_DIR/<command>_<config>/.  The script prints one line per run (exit
code and sha256 of stdout) and one per output file (sha256), and saves the
same lines as OUT_DIR/manifest.txt.

With --compare, it then lists every run and file whose line differs from, or
is missing in, OTHER_DIR/manifest.txt, and exits 1 if there is one.  To check
that a change keeps every output byte, run the script from a copy of the
parent commit (`git archive`) into OTHER_DIR, then from the change with
--compare OTHER_DIR.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = [(command, name)
        for name in ("blowup", "cubic", "fisher", "front")
        for command in ("simulate", "equilibria", "connect")] + [("verify", "verify")]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def shipped_runs(out_dir: Path) -> list[str]:
    """Run every shipped-config run into out_dir; the manifest lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    lines = []
    for command, name in RUNS:
        run_id = f"{command}_{name}"
        run_dir = out_dir / run_id
        done = subprocess.run(
            [sys.executable, "-m", "gradflow1d.cli", command, f"configs/{name}.json",
             "--output-dir", str(run_dir)],
            cwd=ROOT, env=env, capture_output=True)
        lines.append(f"run {run_id} exit {done.returncode} stdout {_sha256(done.stdout)}")
        if done.stderr:
            print(f"{run_id} stderr: {done.stderr.decode(errors='replace').strip()}")
        for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
            lines.append(f"file {path.relative_to(out_dir).as_posix()} "
                         f"{_sha256(path.read_bytes())}")
    return lines


def _entries(lines) -> dict:
    """Manifest lines keyed by their run or file name."""
    return {" ".join(line.split()[:2]): line for line in lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--compare", type=Path, metavar="OTHER_DIR")
    args = parser.parse_args(argv)
    out_dir = args.out_dir.resolve()
    if out_dir.exists() and any(out_dir.iterdir()):
        parser.error(f"{out_dir} is not empty")  # stale files would join the manifest
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = shipped_runs(out_dir)
    print("\n".join(lines))
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")
    files = sum(line.startswith("file ") for line in lines)
    print(f"{len(RUNS)} runs, {files} files")
    if args.compare is None:
        return 0
    ours = _entries(lines)
    theirs = _entries((args.compare / "manifest.txt").read_text().splitlines())
    differ = sorted(key for key in ours.keys() | theirs.keys()
                    if ours.get(key) != theirs.get(key))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(differ)} of {len(ours.keys() | theirs.keys())} entries differ "
          f"from {args.compare}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
