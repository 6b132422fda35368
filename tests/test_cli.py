"""CLI contract: exit codes, report schema, determinism, eval round trips."""

import json
import math
import time

import pytest

from dfra.cli import (
    REFERENCES,
    REPORT_SCHEMA,
    CheckResult,
    UsageError,
    _report_json,
    main,
    parse_params,
    run_suite,
)


def test_exit_zero_on_passing_suite(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", "--suite", "algebra", "--set", "D=2",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == REPORT_SCHEMA
    assert report["summary"]["failed"] == 0


def test_text_format_lists_each_check(capsys):
    code = main(["run", "--suite", "algebra", "--set", "D=2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") >= 5
    assert "checks passed" in out


def test_exit_two_on_unknown_parameter(capsys):
    assert main(["run", "--suite", "algebra", "--set", "bogus=3"]) == 2
    assert "unknown parameter" in capsys.readouterr().err


def test_exit_two_on_bad_value(capsys):
    assert main(["run", "--suite", "algebra", "--set", "D=two"]) == 2


@pytest.mark.parametrize("pair", ["Lambda=nan", "m=inf", "lambda=-inf", "omega=0",
                                  "Omega=-1", "m=-2", "D=1", "seed=-1", "samples=1",
                                  "steps=0", "steps=1", "nt=4", "nx=4", "ntheta=4"])
def test_exit_two_on_nonfinite_or_nonpositive_value(pair, capsys):
    assert main(["run", "--set", pair]) == 2
    assert "must be" in capsys.readouterr().err
    with pytest.raises(UsageError):
        parse_params([pair])


def test_nan_never_passes_a_check():
    for residual, tolerance in ((math.nan, 1.0), (0.0, math.nan), (math.inf, math.inf)):
        assert CheckResult.build("x", "plumbing", residual, tolerance, 0.0).status == "fail"


def test_nan_lambda_fails_every_oscillator_check_that_reads_it():
    # the oscillator configuration rejects it before any check runs
    with pytest.raises(ValueError, match="Lambda"):
        run_suite("oscillator", {**parse_params([]), "Lambda": math.nan})


def test_x2_spread_uses_the_run_parameters(monkeypatch):
    from dfra import oscillator

    seen = []
    original = oscillator.x2_expectation

    def spy(cfg, X2, p2):
        seen.append((cfg, X2, p2))
        return original(cfg, X2, p2)

    monkeypatch.setattr(oscillator, "x2_expectation", spy)
    params = parse_params(["Lambda=2.5", "Omega=0.5", "m=2", "omega=0.75"])
    report = run_suite("oscillator", params)
    (cfg, X2, p2), = seen
    assert (cfg.D, cfg.m, cfg.omega, cfg.Lambda, cfg.Omega) == (3, 2.0, 0.75, 2.5, 0.5)
    assert (X2, p2) == (1.0, 2.25)  # D/(2 m omega), D m omega / 2
    record = next(c for c in report["checks"] if c["name"] == "x2-spread-ground-state-D3")
    assert record["status"] == "pass"


def test_runtime_runs_from_the_previous_record(monkeypatch):
    """A delay inside one check is charged to that check, and only once."""
    from dfra import clifford

    original = clifford.lorentz_closure_residual

    def slow(sg):
        time.sleep(0.05)
        return original(sg)

    monkeypatch.setattr(clifford, "lorentz_closure_residual", slow)
    started = time.perf_counter()
    report = run_suite("clifford", parse_params([]))
    wall = time.perf_counter() - started
    runtimes = {c["name"]: c["runtime"] for c in report["checks"]}
    assert runtimes["spinor-lorentz-closure"] >= 0.05
    assert sum(runtimes.values()) <= wall


def test_report_json_writes_nonfinite_residuals_as_null():
    report = run_suite("algebra", {**parse_params([]), "D": 2})
    report["checks"][0]["residual"] = math.nan
    checks = json.loads(_report_json(report))["checks"]
    assert checks[0]["residual"] is None
    assert checks[1]["residual"] == 0.0


def test_algebra_suite_reports_all_eight_checks():
    report = run_suite("algebra", {**parse_params([]), "D": 2})
    names = [c["name"] for c in report["checks"]]
    assert names == ["jacobi-exhaustive-D2", "jacobi-exhaustive-relativistic-4d",
                     "shifted-coordinate-D2", "j-closure-D2", "little-l-residual-D2",
                     "rotation-transforms-D2", "lorentz-generator-closure",
                     "quantum-conditions-selfdual"]


def test_exit_two_on_unknown_suite():
    assert main(["run", "--suite", "nonsense"]) == 2


def test_param_precedence_flags_over_config(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("D = 4\nseed = 7\n# comment\n")
    params = parse_params(["D=2"], str(cfg))
    assert params["D"] == 2  # flag wins
    assert params["seed"] == 7  # config beats default
    assert params["m"] == 1.0  # default


def test_report_records_resolve_references():
    params = parse_params([])
    report = run_suite("algebra", {**params, "D": 2})
    assert report["checks"]
    for check in report["checks"]:
        assert check["paper_ref"] in REFERENCES
        assert check["status"] in ("pass", "fail")
        assert {"name", "residual", "tolerance", "runtime"} <= set(check)


def test_report_determinism_modulo_time_fields():
    params = parse_params(["seed=99"])
    a = run_suite("algebra", {**params, "D": 2})
    b = run_suite("algebra", {**params, "D": 2})

    def strip(rep):
        rep = dict(rep)
        rep.pop("generated_at")
        rep["checks"] = [
            {k: v for k, v in c.items() if k != "runtime"} for c in rep["checks"]
        ]
        return rep

    assert json.dumps(strip(a), sort_keys=True) == json.dumps(strip(b), sort_keys=True)


def test_atomic_report_write(tmp_path):
    out = tmp_path / "nested.json"
    code = main(["run", "--suite", "algebra", "--set", "D=2",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["suite"] == "algebra"
    assert not list(tmp_path.glob(".report-*"))


@pytest.mark.parametrize(
    "expression,expected",
    [
        ("[x[1], x[2]]", "i*theta[1,2]"),
        ("[p[1], p[2]]", "0"),
        ("[x[1], pi[1,2]]", "-(1/2)i*p[2]"),
        ("p[1]*x[1]", "x[1]*p[1] - i"),
    ],
)
def test_eval_examples(capsys, expression, expected):
    assert main(["eval", expression]) == 0
    assert capsys.readouterr().out.strip() == expected


def test_eval_poisson_table(capsys):
    assert main(["eval", "[x[1], x[2]]", "--table", "poisson"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["eval", "[Z[1], K[1]]", "--table", "poisson"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_eval_round_trip_stability(capsys):
    main(["eval", "x[1]*p[1] - (1/2)i*theta[1,2]"])
    first = capsys.readouterr().out.strip()
    main(["eval", first])
    assert capsys.readouterr().out.strip() == first


@pytest.mark.parametrize("expression", ["x[1] +* 2", "x[²]", "²", "x[٣]", "x[1/2]"],
                         ids=["operator-pair", "superscript-index", "superscript",
                              "arabic-indic-index", "fraction-index"])
def test_eval_parse_error_exit_two(expression, capsys):
    assert main(["eval", expression]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_unknown_generator_exit_two(capsys):
    assert main(["eval", "x[9]"]) == 2
