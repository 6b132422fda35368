"""One pass of a benchmark workload in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --workload suite-all --seed 1 --out-dir DIR [--trace]
    python3 perfbench/worker.py --import-only

It first times `import dfra.cli` from the checkout's src/, then (unless
--import-only) runs one pass of the workload, checks the outputs outside
the timed span, and prints one JSON line with the measurements.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# the import comes first, so every worker and probe times the same work
_t0 = time.perf_counter()
import dfra.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import layers  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

MAX_FAILURES_SHOWN = 5


def run_pass(workload: str, seed: int, trace: bool, out_dir: str) -> dict:
    modules = {name: importlib.import_module(f"dfra.{name}") for name in layers.MODULES}
    tracer = tr.Tracer() if trace else None
    uninstall = layers.install(tracer, modules) if trace else None
    try:
        argvs = wl.suite_argvs(workload, seed, out_dir)
        pass_s, results = wl.run_suite_pass(modules["cli"], argvs)
    finally:
        if uninstall:
            uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failures = wl.check_suite_pass(results)
    result = {
        "import_s": IMPORT_S,
        "pass_s": pass_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_FAILURES_SHOWN],
    }
    if trace:
        result["layers"] = layers.layer_metrics(tracer, pass_s)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--out-dir", help="directory for the pass's report files")
    args = parser.parse_args(argv)
    if not Path(dfra.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"dfra imported from {dfra.cli.__file__}, not from src/\n")
        return 2
    if args.import_only:
        result = {"import_s": IMPORT_S}
    elif args.workload is None or args.out_dir is None:
        parser.error("--workload and --out-dir are required")
    else:
        result = run_pass(args.workload, args.seed, args.trace, args.out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
