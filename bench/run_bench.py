#!/usr/bin/env python3
"""gradflow1d benchmark: three seeded closed-loop workloads.

One run measures one workload in one interpreter:

    python3 bench/run_bench.py --workload ensemble_small --seed 1 --seconds 30 --trace 0

The last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics named in
BENCHMARK.json with `--trace 0`, the per-layer ones with `--trace 1`.  The
line before it, starting with `details `, holds every metric, the failed
ops by kind and exception type, the sha256 of every output file and the
provenance.

    python3 bench/run_bench.py --all --seed 1 --seconds 30 --out bench/results/BENCH_1.json

runs each workload untraced and traced, each in a fresh interpreter, prints
every metric with its unit and the tracing overhead, and writes the results.
See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, deque
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 7
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
CHILD_TIMEOUT_S = 900
PINNED_THREADS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                   "NUMEXPR_NUM_THREADS")}


class LayoutError(RuntimeError):
    pass


def check_layout() -> None:
    """The benchmark needs the program's source, its configs and BENCHMARK.json."""
    for path in (SRC / "gradflow1d" / "__init__.py", ROOT / "configs" / "blowup.json",
                 SPEC_FILE):
        if not path.is_file():
            raise LayoutError(f"missing {path.relative_to(ROOT)}: run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gradflow1d

    if Path(gradflow1d.__file__).resolve().parent != SRC / "gradflow1d":
        raise LayoutError(f"gradflow1d imported from {gradflow1d.__file__}, not {SRC}")


def make_work_dir() -> Path:
    work = ROOT / ".bench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def remove_work_dir(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass  # other runs still use it, or it is already gone


# -- set-up time ----------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """What a fresh process pays before its first op: import and build inputs."""
    import gradflow1d  # noqa: F401
    import workloads

    work = make_work_dir()
    try:
        workloads.build(workload, workloads.plan(workload, seed, str(ROOT)), str(ROOT),
                        str(work))
    finally:
        remove_work_dir(work)


def setup_seconds(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return times


# -- one measured run -------------------------------------------------------------


def tail_percentile(times: list[float]):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(times)
    ordered = sorted(times)
    for p in TAIL_PERCENTILES:
        beyond = n - int(n * p / 100.0 + 0.5)
        if beyond >= 10:
            rank = max(1, min(n, int(n * p / 100.0 + 0.5)))  # nearest rank
            return p, ordered[rank - 1]
    return None, None


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, with_setup: bool = True) -> dict:
    """Run whole passes of one workload while they fit in `seconds` (at least one)."""
    import workloads
    from tracer import Tracer

    setup = setup_seconds(workload, seed) if with_setup and not trace else []
    work = make_work_dir()
    tracer = Tracer() if trace else None
    try:
        if tracer is not None:
            tracer.install()
            tracer.recording = True
        ops = workloads.build(workload, workloads.plan(workload, seed, str(ROOT), tiny),
                              str(ROOT), str(work))
        if tracer is not None:
            tracer.recording = False
        record = _run_passes(ops, seconds, work, tracer)
        if tracer is not None:
            tracer.close()
            record["per_layer"] = {
                k: {"value": v, "unit": u}
                for k, (v, u) in tracer.layer_metrics(
                    record["passes"], record["io_bytes_written"]).items()}
    finally:
        if tracer is not None:
            tracer.close()
        remove_work_dir(work)

    times = record.pop("op_times")
    e2e = {
        "wall_s": {"value": statistics.median(record["pass_s"]), "unit": "s"},
        "op_p50_s": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0, "unit": "MiB"},
        "fail_ratio": {"value": record["failed"] / record["attempted"], "unit": "ratio"},
    }
    p, tail = tail_percentile(times)
    if p is not None:
        e2e["op_tail_s"] = {"value": tail, "unit": "s", "percentile": p,
                            "samples": len(times)}
    if setup:
        e2e["setup_s"] = {"value": statistics.median(setup), "unit": "s",
                          "samples": setup}
    record["end_to_end"] = e2e
    record.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                  provenance=provenance(seed))
    return record


def _run_passes(ops, seconds, work: Path, tracer) -> dict:
    """Closed loop with one client: each op starts when the previous one ends."""
    import workloads

    pass_s, op_times = [], []
    kinds = {}
    failures = Counter()
    errors = {}
    problems = []
    hashes = {}
    mismatched = []
    bytes_first = 0
    attempted = failed = 0
    t_begin = time.perf_counter()
    n_op = 0
    pass_index = 0
    while True:
        pass_time = 0.0
        queue = deque(ops)
        while queue:
            op = queue.popleft()
            op_dir = work / f"op{n_op}"
            op_dir.mkdir()
            n_op += 1
            if tracer is not None:
                tracer.begin_op(pass_index)
                tracer.recording = True
            t0 = time.perf_counter()
            try:
                result, error = op.run(str(op_dir)), None
            except (Exception, SystemExit) as e:  # a traceback is counted, never fatal
                result, error = None, e
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.recording = False
            pass_time += elapsed
            op_times.append(elapsed)
            attempted += 1
            k = kinds.setdefault(op.kind, {"ops": 0, "failed": 0, "times": []})
            k["ops"] += 1
            k["times"].append(elapsed)
            if error is not None:
                failed += 1
                k["failed"] += 1
                key = f"{op.kind}: {type(error).__name__}"
                failures[key] += 1
                errors.setdefault(key, f"{op.label}: {error}")
            else:
                try:
                    problems += [f"{op.kind} {op.label}: {m}"
                                 for m in op.check(result, str(op_dir))]
                    if op.then is not None:
                        queue.extendleft(reversed(op.then(result, str(op_dir))))
                except Exception as e:  # an output the check reads is missing or malformed
                    problems.append(f"{op.kind} {op.label}: check raised "
                                    f"{type(e).__name__}: {e}")
            for name in workloads.OUTPUT_FILES:
                path = op_dir / name
                if path.is_file():
                    key = f"{op.kind} {op.label}/{name}"
                    digest = sha256(path)
                    if hashes.setdefault(key, digest) != digest:
                        mismatched.append(key)
            if pass_index == 0:
                bytes_first += dir_bytes(op_dir)
            shutil.rmtree(op_dir)
        pass_s.append(pass_time)
        pass_index += 1
        elapsed = time.perf_counter() - t_begin
        if elapsed + elapsed / pass_index > seconds:  # the next pass would overrun
            break
    problems = list(dict.fromkeys(problems))  # a failed check repeats on every pass
    problems += [f"{key}: output differs between passes" for key in sorted(set(mismatched))]
    return {
        "passes": pass_index,
        "pass_s": pass_s,
        "op_times": op_times,
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "check_failures": problems,
        "failures": dict(failures),
        "failure_examples": errors,
        "op_kinds": {kind: {"ops": v["ops"], "failed": v["failed"],
                            "p50_s": statistics.median(v["times"])}
                     for kind, v in kinds.items()},
        "outputs_sha256": hashes,
        "io_bytes_written": bytes_first,
    }


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "thread_pinning": dict(PINNED_THREADS),
        "seed": seed,
    }


def host_provenance() -> dict:
    """CPU model and git commit; read only when writing a results file."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"cpu_model": cpu, "git_commit": commit}


# -- output -------------------------------------------------------------------------


def benchmark_spec() -> dict:
    with open(SPEC_FILE) as f:
        return json.load(f)


def result_line(record: dict) -> dict:
    section, table = (("per_layer", record["per_layer"]) if record["trace"]
                      else ("end_to_end", record["end_to_end"]))
    metrics = {}
    for m in benchmark_spec()[section]:
        entry = table[m["name"]]
        metrics[m["name"]] = {"value": entry["value"], "unit": entry["unit"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_table(title: str, table: dict) -> None:
    print(title)
    for name, entry in table.items():
        extra = ""
        if "percentile" in entry:
            extra = f"  (p{entry['percentile']:g} of {entry['samples']} ops)"
        print(f"  {name:48s} {entry['value']:>16.6g} {entry['unit']}{extra}")


def print_record(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"passes {record['passes']}  ops {record['attempted']}  "
          f"failed {record['failed']}  correct {record['correct']}")
    print_table("end to end:", record["end_to_end"])
    if "per_layer" in record:
        print_table("per layer:", record["per_layer"])
    for key, n in record["failures"].items():
        print(f"  failed op kind {key}: {n} of {record['op_kinds'][key.split(':')[0]]['ops']}"
              f"  e.g. {record['failure_examples'][key]}")
    for problem in record["check_failures"]:
        print(f"  CHECK FAILED {problem}")


# -- --all: every workload, untraced and traced ------------------------------------


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    for line in proc.stdout.splitlines():
        if line.startswith("details "):
            return json.loads(line[len("details "):])
    raise RuntimeError(f"{' '.join(cmd)} printed no details line")


def run_all(seed: int, seconds: float, out: str | None) -> int:
    import workloads

    results = {"seed": seed, "seconds": seconds, "provenance": {}, "workloads": {}}
    for name in workloads.WORKLOADS:
        plain = run_child(name, seed, seconds, 0)
        traced = run_child(name, seed, seconds, 1)
        e2e = plain["end_to_end"]
        layers = traced["per_layer"]
        steps = layers["dynamics.steps"]["value"]
        if steps:
            e2e["steps_per_s"] = {"value": steps / e2e["wall_s"]["value"], "unit": "1/s"}
        overhead = traced["end_to_end"]["wall_s"]["value"] - e2e["wall_s"]["value"]
        e2e["trace_overhead_s"] = {"value": overhead, "unit": "s"}
        e2e["trace_overhead_ratio"] = {"value": overhead / e2e["wall_s"]["value"],
                                       "unit": "ratio"}
        plain["per_layer"] = layers
        print_record(plain)
        print()
        results["provenance"] = plain.pop("provenance")
        traced.pop("provenance")
        results["workloads"][name] = {
            "untraced": plain,
            "traced": {k: traced[k] for k in ("passes", "pass_s", "attempted", "failed",
                                              "correct", "check_failures", "failures")},
        }
    results["provenance"].update(host_provenance())
    if out:
        with open(out, "w") as f:
            json.dump(results, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--out", help="with --all: write the results JSON here")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # pin BLAS/OpenMP to one thread before numpy loads; child processes inherit it
    os.environ.update(PINNED_THREADS)
    try:
        check_layout()
    except (LayoutError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import workloads

    if args.all:
        return run_all(args.seed, args.seconds, args.out)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_record(record)
    print("details " + json.dumps(record, sort_keys=True))
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
