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
is missing in, OTHER_DIR/manifest.txt, and exits 1 if there is one.  For a
differing CSV file with the same header and row count on both sides it
prints each column's largest relative change, |a - b| / max(|a|, |b|) over
the rows (`text` for a column whose non-numeric cells differ); for a
differing JSON file, each key whose value differs, with both values.  To
check that a change keeps every output byte, or to measure how far it moves
them, run the script from a copy of the parent commit (`git archive`) into
OTHER_DIR, then from the change with --compare OTHER_DIR.
"""

import argparse
import csv
import hashlib
import json
import math
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


def _relative_change(a: str, b: str):
    """|a - b| / max(|a|, |b|) of two CSV cells, None when one is not a number."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y:  # the same number written two ways
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf  # one side inf or nan, the other not the same
    return abs(x - y) / max(abs(x), abs(y))


def _csv_changes(ours: Path, theirs: Path) -> str:
    """`column change` for every column of two CSV files with one header and
    row count, its largest relative change; why not, when they differ."""
    with open(ours, newline="") as f:
        a = list(csv.reader(f))
    with open(theirs, newline="") as f:
        b = list(csv.reader(f))
    if a[:1] != b[:1] or len(a) != len(b):
        return "header or row count differs"
    out = []
    for j, name in enumerate(a[0]):
        changes = [_relative_change(r[j], s[j]) for r, s in zip(a[1:], b[1:])]
        if None in changes:
            out.append(f"{name} text")
        else:
            out.append(f"{name} {max(changes, default=0.0):.2g}")
    return ", ".join(out)


def _flatten(value, key=""):
    """{dotted key: scalar} of a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {key: value}
    flat = {}
    for k, v in items:
        flat.update(_flatten(v, f"{key}.{k}" if key else str(k)))
    return flat


def _json_changes(ours: Path, theirs: Path) -> list[str]:
    """`key: theirs -> ours` for every key whose value differs, compared by
    repr so that NaN equals NaN."""
    a = _flatten(json.loads(ours.read_text()))
    b = _flatten(json.loads(theirs.read_text()))
    texts = [(key, repr(b[key]) if key in b else "(missing)",
              repr(a[key]) if key in a else "(missing)") for key in sorted(a.keys() | b.keys())]
    return [f"{key}: {y} -> {x}" for key, y, x in texts if x != y]


def _changes(key: str, out_dir: Path, other_dir: Path) -> list[str]:
    """How a differing file moved, when it is a CSV or JSON file on both sides."""
    kind, _, name = key.partition(" ")
    ours, theirs = out_dir / name, other_dir / name
    if kind != "file" or not (ours.is_file() and theirs.is_file()):
        return []
    if name.endswith(".csv"):
        return [f"max relative change: {_csv_changes(ours, theirs)}"]
    if name.endswith(".json"):
        return _json_changes(ours, theirs)
    return []


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
        for line in _changes(key, out_dir, args.compare.resolve()):
            print(f"    {line}")
    print(f"{len(differ)} of {len(ours.keys() | theirs.keys())} entries differ "
          f"from {args.compare}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
