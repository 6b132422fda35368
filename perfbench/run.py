"""dfra benchmark: time the toolkit's public entry points from outside.

    python3 perfbench/run.py --workload suite-all --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Run from the root of a checkout; the program is imported from its src/.
Each pass of a workload runs in a fresh interpreter (worker.py) with BLAS
pinned to --blas-threads threads: one process, one client.  Passes repeat
while the next one is expected to end within --seconds; every pass is
checked, and the checks run outside its timed span.

--trace 0 prints the end-to-end metrics: set-up (import) time, pass wall
time and peak RSS.  --trace 1 runs one untraced and one traced pass and
prints the per-layer metrics (layers.py), with the tracing overhead.  The
last line of output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads as wl  # noqa: E402

WORKER = HERE / "worker.py"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 20         # extra fresh interpreters that only import dfra.cli
WORKER_TIMEOUT_S = 170    # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def worker_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = str(blas_threads)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(env: dict, *args: str) -> dict:
    """Start worker.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(WORKER), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=WORKER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout} s: {cmd}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {cmd}")
    return json.loads(lines[-1])


def probe_imports(env: dict, count: int) -> list[float]:
    return [run_worker(env, "--import-only")["import_s"] for _ in range(count)]


def pass_args(workload: str, seed: int, out_dir: str) -> list[str]:
    return ["--workload", workload, "--seed", str(seed), "--out-dir", out_dir]


def measure(workload: str, seed: int, seconds: int, env: dict,
            out_dir: str) -> tuple[dict, dict, list]:
    """Untraced run: (metrics, sample counts per metric, worker results)."""
    # half the import probes run before the passes and half after, so that
    # set-up time samples the whole run, not only its first seconds
    imports = probe_imports(env, SETUP_PROBES // 2)
    workers = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        workers.append(run_worker(env, *pass_args(workload, seed, out_dir)))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break
    imports += probe_imports(env, SETUP_PROBES - SETUP_PROBES // 2)
    imports += [w["import_s"] for w in workers]
    pass_s = [w["pass_s"] for w in workers]
    metrics = {
        "setup_s": statistics.median(imports),
        "wall_s": statistics.median(pass_s),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
    }
    samples = {
        "setup_s": f"median of {len(imports)} imports",
        "wall_s": f"median of {len(pass_s)} passes",
        "peak_rss_mb": f"median of {len(workers)} interpreters",
    }
    return metrics, samples, workers


def measure_traced(workload: str, seed: int, env: dict,
                   out_dir: str) -> tuple[dict, dict, list]:
    """Traced run: one untraced and one traced pass, in fresh interpreters."""
    args = pass_args(workload, seed, out_dir)
    plain = run_worker(env, *args)
    traced = run_worker(env, *args, "--trace")
    plain_s, traced_s = plain["pass_s"], traced["pass_s"]
    metrics = dict(traced["layers"])
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    units = layers.metric_units()
    mismatch = set(units) ^ set(metrics)
    if mismatch:
        raise BenchError(f"per-layer metrics do not match their list: {sorted(mismatch)}")
    metrics = {name: metrics[name] for name in units}
    samples = {"trace.overhead_frac": f"untraced pass {plain_s:.3f} s"}
    return metrics, samples, [plain, traced]


def git_revision() -> str:
    """HEAD's commit, marked +dirty when tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    if not (ROOT / ".git").exists():  # not a checkout of its own
        return "unavailable"
    try:
        revision = git("rev-parse", "HEAD")
        if git("status", "--porcelain", "--untracked-files=no"):
            revision += "+dirty"
        return revision
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"


def src_lines() -> int:
    total = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def run_metadata(args, env: dict) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {var: env[var] for var in BLAS_VARS},
        "pythonhashseed": env["PYTHONHASHSEED"],
        "git_revision": git_revision(),
        "src_lines": src_lines(),
    }


def run_workload(workload: str, args, env: dict, out_dir: str) -> dict:
    if args.trace:
        metrics, samples, workers = measure_traced(workload, args.seed, env, out_dir)
        units = layers.metric_units()
    else:
        metrics, samples, workers = measure(workload, args.seed, args.seconds, env,
                                            out_dir)
        units = END_TO_END
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"fresh interpreters {len(workers)}")
    for name, unit in units.items():
        note = f"  ({samples[name]})" if name in samples else ""
        print(f"  {name:46s} {metrics[name]:>16.6g} {unit}{note}")
    print(f"  {'fail_frac':46s} {failed / attempted:>16.6g} frac"
          f"  ({failed} of {attempted} checks)")
    for w in workers:
        for message in w["failures"]:
            print(f"  FAILED {message}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=1)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.blas_threads < 1:
        parser.error("--seconds and --blas-threads must be at least 1")
    if not (ROOT / "src" / "dfra" / "cli.py").is_file():
        sys.stderr.write(f"error: no dfra sources under {ROOT / 'src'}\n")
        return 2
    # on SIGTERM, exit through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = worker_env(args.blas_threads)
    selected = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as out_dir:
            results = [run_workload(w, args, env, out_dir) for w in selected]
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run's directory is still there
    if len(results) == 1:
        result = results[0]
    else:
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}/{name}": m for w, r in zip(selected, results)
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps({"meta": run_metadata(args, env)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
