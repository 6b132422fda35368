"""The benchmark's workloads: their inputs, one pass of each, and output checks.

Every input comes from the seed, except where the program's default seed is
kept (see DEFAULT_SEED_SUITES).  A pass calls the dfra library through its
public entry points and returns what the checks need; the checks run after
the pass, outside its timed span.

- suite-all: `dfra run --suite all` at default parameters, the headline
  number and the only pass that touches every module; most of its time is
  in the exact symbolic kernel, derived operators and Dirac brackets.
- numeric-oracles: the clifford, oscillator and field suites at large
  sample, step and grid sizes; the time is Monte Carlo sampling, leapfrog
  steps and the FFT Green's solve, and symcore barely appears.
"""

from __future__ import annotations

import json
import math
import os
import time

WORKLOADS = ("suite-all", "numeric-oracles")

# numeric-oracles inputs; the cli defaults stay as they are
NUMERIC_SUITES = ("clifford", "oscillator", "field")

NUMERIC_PARAMS = {"samples": 32_000_000, "steps": 5000, "nt": 96, "nx": 256,
                  "ntheta": 128}

# The oscillator suite's moments-vs-monte-carlo checks pass when the estimate
# lies within 3 of its standard errors, so a correct program fails one on
# about 0.5% of seeds (seed 760671342 gives 3.4 standard errors at D = 3).
# Command lines that run it keep the program's default seed, so that no
# benchmark seed trips a check by chance; the seed sets the random inputs
# of the other suites.
DEFAULT_SEED_SUITES = ("all", "oscillator")


def suite_argvs(workload: str, seed: int, out_dir: str) -> list[list[str]]:
    """The `dfra run` command lines one pass of the workload makes."""
    if workload == "suite-all":
        suites, params = ("all",), {}
    elif workload == "numeric-oracles":
        suites, params = NUMERIC_SUITES, NUMERIC_PARAMS
    else:
        raise ValueError(f"unknown workload: {workload!r}")
    argvs = []
    for suite in suites:
        argv = ["run", "--suite", suite, "--format", "json",
                "--out", os.path.join(out_dir, f"report-{suite}.json")]
        if suite not in DEFAULT_SEED_SUITES:
            argv += ["--seed", str(seed)]
        for key, value in params.items():
            argv += ["--set", f"{key}={value}"]
        argvs.append(argv)
    return argvs


def run_suite_pass(cli, argvs: list[list[str]]) -> tuple[float, list]:
    """Run the command lines; return (wall s, [(rc, argv)])."""
    start = time.perf_counter()
    results = [(cli.main(argv), argv) for argv in argvs]
    return time.perf_counter() - start, results


def check_suite_report(report: dict, rc: int) -> tuple[int, list[str]]:
    """(records checked, failures) for one `dfra run` report and exit code.

    Every record must pass with a finite residual within its tolerance, and
    a tolerance-0 (exact) record must have residual exactly 0.  A nonzero
    exit code, an empty report or a summary that disagrees with the records
    is one more failure.
    """
    checks = report.get("checks", [])
    failures = []
    for c in checks:
        residual, tolerance = c.get("residual"), c.get("tolerance")
        if c.get("status") != "pass":
            failures.append(f"{c.get('name')}: status {c.get('status')!r}")
        elif not (isinstance(residual, (int, float)) and math.isfinite(residual)
                  and residual <= tolerance):
            failures.append(f"{c.get('name')}: residual {residual!r} > tol {tolerance!r}")
        elif tolerance == 0 and residual != 0:
            failures.append(f"{c.get('name')}: exact check has residual {residual!r}")
    summary = report.get("summary", {})
    if rc != 0:
        failures.append(f"exit code {rc}")
    if not checks or summary.get("total") != len(checks) or summary.get("failed") != 0:
        failures.append(f"report summary {summary!r} for {len(checks)} records")
    return len(checks), failures


def check_suite_pass(results: list) -> tuple[int, list[str]]:
    attempted, failures = 0, []
    for rc, argv in results:
        try:
            with open(argv[argv.index("--out") + 1]) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            report = {}
            failures.append(f"unreadable report: {exc}")
        n, bad = check_suite_report(report, rc)
        attempted += max(n, 1)
        failures += bad
    return attempted, failures
