"""Tests of the benchmark's own code: tracer arithmetic, inputs and checkers.

    python3 -m pytest perfbench/tests -q
"""

import copy
import importlib
import json
import time
from pathlib import Path

import pytest

import layers
import run
import workloads as wl
from tracer import Tracer, wrap


@pytest.fixture(scope="module")
def dfra():
    return {name: importlib.import_module(f"dfra.{name}") for name in layers.MODULES}


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_child_spans():
    clock = ManualClock()
    t = Tracer(clock)

    def at(when, action, *args):
        clock.now = when
        action(*args)

    at(0, t.enter, "outer")
    at(2, t.enter, "child")
    at(3, t.enter, "leaf")
    at(4, t.exit)
    at(5, t.exit)
    at(6, t.enter, "child")
    at(9, t.exit)
    at(10, t.exit)
    assert t.self_s == {"outer": 4, "child": 5, "leaf": 1}
    assert t.total_s == {"outer": 10, "child": 6, "leaf": 1}
    assert t.calls == {"outer": 1, "child": 2, "leaf": 1}


def test_generator_is_timed_over_its_iteration_not_its_call():
    clock = ManualClock()
    t = Tracer(clock)

    def produce():
        clock.now += 1
        yield 1
        clock.now += 1
        yield 2

    traced = wrap(t, produce, "produce")
    t.enter("consumer")
    for _ in traced():
        clock.now += 10
    t.exit()
    assert t.calls["produce"] == 1
    assert t.self_s["produce"] == 2
    assert t.self_s["consumer"] == 20


def test_install_traces_every_binding_and_uninstall_restores(dfra):
    symcore, algebra, cli = dfra["symcore"], dfra["algebra"], dfra["cli"]
    original_bracket, original_suite = symcore.bracket, cli.SUITES["reps"]
    t = Tracer()
    undo = layers.install(t, dfra)
    try:
        assert cli.bracket is symcore.bracket is algebra.bracket
        assert symcore.bracket is not original_bracket
        assert cli.SUITES["reps"] is cli.reps_suite is not original_suite
        alg = algebra.build(2)
        cli.bracket(alg.x(1), alg.x(2), alg.table)
        algebra.shifted_coordinate(alg, 1)
        algebra.shifted_coordinate(alg, 1)
    finally:
        undo()
    assert symcore.bracket is original_bracket and cli.bracket is original_bracket
    assert cli.SUITES["reps"] is original_suite
    assert t.calls["symcore.bracket"] == 1
    assert t.calls["algebra.shifted_coordinate"] == 2
    assert t.counters["derived.repeats"] == 1


def test_layer_self_times_and_cli_self_time_add_up_to_wall(dfra):
    cli, algebra = dfra["cli"], dfra["algebra"]
    t = Tracer()
    undo = layers.install(t, dfra)
    try:
        start = time.perf_counter()
        report = cli.run_suite("clifford", cli.parse_params([]))
        failures = [r for *_, r in algebra.jacobi_suite(algebra.build(2)) if not r.is_zero()]
        wall = time.perf_counter() - start
    finally:
        undo()
    assert report["summary"]["failed"] == 0 and not failures
    m = layers.layer_metrics(t, wall)
    assert m["cli.clifford.wall_s"] > 0 and m["clifford.spinor_boost.calls"] > 0
    accounted = (sum(m[f"{g}.self_s"] for g in layers.GROUPS) + m["trace.other_self_s"]
                 + m["trace.counter_s"] + m["cli.self_s"])
    assert accounted == pytest.approx(wall, rel=1e-9)
    assert 0 <= m["cli.self_s"] <= wall


REPORT = {
    "checks": [
        {"name": "exact", "status": "pass", "residual": 0.0, "tolerance": 0.0},
        {"name": "numeric", "status": "pass", "residual": 1e-13, "tolerance": 1e-12},
    ],
    "summary": {"total": 2, "passed": 2, "failed": 0},
}


def test_suite_checker_accepts_a_clean_report():
    assert wl.check_suite_report(REPORT, 0) == (2, [])


@pytest.mark.parametrize("tamper", [
    lambda r: r["checks"][1].update(status="fail"),
    lambda r: r["checks"][0].update(residual=1e-300),
    lambda r: r["checks"][1].update(residual=float("nan")),
    lambda r: r["checks"][1].update(residual=1e-3),
    lambda r: r.update(checks=[], summary={"total": 0, "passed": 0, "failed": 0}),
])
def test_suite_checker_rejects_a_tampered_report(tamper):
    report = copy.deepcopy(REPORT)
    tamper(report)
    assert wl.check_suite_report(report, 0)[1]


def test_suite_checker_rejects_a_nonzero_exit_code():
    assert wl.check_suite_report(REPORT, 1)[1]


def test_seed_reaches_every_suite_but_the_monte_carlo_one():
    for workload in wl.WORKLOADS:
        for argv in wl.suite_argvs(workload, 7, "out"):
            suite = argv[argv.index("--suite") + 1]
            assert ("--seed" in argv) == (suite not in wl.DEFAULT_SEED_SUITES)
    first, second = (wl.suite_argvs("numeric-oracles", seed, "out") for seed in (7, 8))
    assert [a for a in first if "oscillator" in a] == [a for a in second if "oscillator" in a]
    assert first != second


def test_dirac_inner_brackets_are_counted_and_repeats_found(dfra):
    constraints = dfra["constraints"]
    ps = constraints.build_phase_space(2)
    db = constraints.DiracBracket(ps, constraints.dfra_constraints(ps))
    t = Tracer()
    undo = layers.install(t, dfra)
    try:
        db(ps.x(1), ps.p(1))
        db(ps.x(1), ps.p(1))
    finally:
        undo()
    inner = t.counters["dirac.inner_calls"]
    assert t.calls[layers.DIRAC_CALL] == 2
    assert inner == 2 * 2 * len(db.cs.constraints)
    assert t.counters["dirac.inner_repeats"] >= inner // 2


def test_benchmark_json_lists_the_metrics_the_launcher_prints():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(layers.metric_units())
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    units = {**run.END_TO_END, **layers.metric_units()}
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert metric["unit"] == units[metric["name"]]

