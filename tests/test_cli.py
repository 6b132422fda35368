"""CLI contract: exit codes, report schema, determinism, eval round trips."""

import dataclasses
import json
import math
import os
import re
import stat
import subprocess
import sys
import time
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

import dfra
from dfra import cli, field, oscillator, symcore
from dfra.cli import (
    PARAMS,
    REFERENCES,
    REPORT_SCHEMA,
    UsageError,
    _bisect,
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
    assert capsys.readouterr().err == "error: parameter D needs an int\n"


@pytest.mark.parametrize("pair", ["Lambda=nan", "m=inf", "lambda=-inf", "omega=0",
                                  "Omega=-1", "m=-2", "D=1", "seed=-1", "samples=1",
                                  "steps=0", "steps=1", "nt=4", "nx=4", "ntheta=4"])
def test_exit_two_on_nonfinite_or_nonpositive_value(pair, capsys):
    assert main(["run", "--set", pair]) == 2
    assert "must be" in capsys.readouterr().err
    with pytest.raises(UsageError):
        parse_params([pair])


def test_nan_never_passes_a_check(monkeypatch):
    pairs = ((math.nan, 1.0), (0.0, math.nan), (math.inf, math.inf))
    monkeypatch.setitem(cli.SUITES, "stub", lambda p: (
        (f"x{i}", "plumbing", residual, tolerance) for i, (residual, tolerance) in enumerate(pairs)))
    records = cli._run("stub", {})
    assert [c["status"] for c in records] == ["fail"] * len(pairs)


def test_unregistered_reference_tag_is_an_error(monkeypatch):
    monkeypatch.setitem(cli.SUITES, "stub", lambda p: iter([("x", "no-such-tag", 0.0, 1.0)]))
    with pytest.raises(ValueError, match="unregistered reference tag 'no-such-tag'"):
        cli._run("stub", {})


# one text line per record; names can hold spaces ("moment-theta2-D2 = 0.5")
_TEXT_RECORD = re.compile(r"^\[(PASS|FAIL)\] (.+?) +ref=")


def test_text_report_has_one_line_per_json_record(capsys):
    main(["run", "--suite", "clifford", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    main(["run", "--suite", "clifford"])
    lines = capsys.readouterr().out.splitlines()
    records = [m.groups() for m in map(_TEXT_RECORD.match, lines) if m]
    assert records == [(c["status"].upper(), c["name"]) for c in report["checks"]]
    assert len(lines) == len(records) + 2  # the header and the summary
    s = report["summary"]
    assert lines[-1] == f"{s['passed']}/{s['total']} checks passed"


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


@pytest.mark.parametrize("relativistic", [False, True], ids=["D3", "relativistic"])
def test_constraint_matrix_record_fails_on_a_diagonal_block_entry(monkeypatch, relativistic):
    # {Psi^0, Psi^1} = 1 (the first two indices of each space) lies in the Psi-Psi
    # block, which must vanish, so a check of the off-diagonal blocks alone misses it
    from dfra import constraints

    name = "constraint-matrix-relativistic" if relativistic else "constraint-matrix-D3"
    original = constraints.constraint_matrix

    def patched(ps, cs):
        m = original(ps, cs)
        if ps.relativistic != relativistic:
            return m
        rows = [list(row) for row in m.entries]
        rows[0][1] = symcore.Expression.scalar(1)
        return constraints.ConstraintMatrix(tuple(map(tuple, rows)), m.labels)

    def record():
        report = run_suite("constraints", parse_params([]))
        return next(c for c in report["checks"] if c["name"] == name)

    assert record()["status"] == "pass" and record()["residual"] == 0
    monkeypatch.setattr(constraints, "constraint_matrix", patched)
    assert record()["status"] == "fail"


@pytest.mark.parametrize("wrong", [
    lambda cfg, X2, p2: X2 + (2.0 / cfg.D) * oscillator.moment(cfg, "theta2") * p2,
    lambda cfg, X2, p2: X2,
    lambda cfg, X2, p2: (1 + 1e-6) * (X2 + oscillator.moment(cfg, "theta2") * p2 / 6.0),
], ids=["x-equals-X-minus-theta-p", "no-shift", "relative-1e-6"])
def test_x2_spread_record_fails_on_a_wrong_spread(monkeypatch, wrong):
    # the old closed form, x = X - theta p, passed as "x2 >= X2" whatever it said
    params = parse_params(["samples=1000"])

    def record():
        report = run_suite("oscillator", params)
        return next(c for c in report["checks"] if c["name"] == "x2-spread-ground-state-D3")

    assert record()["status"] == "pass"
    monkeypatch.setattr(oscillator, "x2_expectation", wrong)
    assert record()["status"] == "fail"


@pytest.mark.parametrize("wrong", [
    lambda cfg: cfg.D ** 2 * cfg.Omega / 4.0,
    lambda cfg: 1.001 * cfg.D * (cfg.D - 1) * cfg.Omega / 4.0,
    lambda cfg: (1 + 1e-6) * cfg.D * (cfg.D - 1) * cfg.Omega / 4.0,
], ids=["D-squared", "relative-1e-3", "relative-1e-6"])
def test_vacuum_shift_record_fails_on_a_wrong_shift(monkeypatch, wrong):
    from dfra import oscillator

    params = parse_params(["samples=1000"])

    def records():
        report = run_suite("oscillator", params)
        return {c["name"]: c for c in report["checks"] if c["name"].startswith("vacuum-shift")}

    right = records()
    monkeypatch.setattr(oscillator, "vacuum_shift", wrong)
    for name, record in records().items():
        # the oracle is a numeric diagonalization, so its tolerance is its error estimate
        assert right[name]["status"] == "pass" and right[name]["tolerance"] > 0
        assert record["status"] == "fail", name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("omega", ["1e300", "1e-320"])
def test_oscillator_parameters_out_of_float_range_exit_two(omega, capsys):
    # finite and positive, but Omega^2 overflows (1e300) or the DVR
    # Hamiltonian holds inf * 0 (1e-320)
    assert main(["run", "--suite", "oscillator", "--set", f"Omega={omega}"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("error:") == 1 and err.endswith("\n")
    assert err.splitlines()[-1].startswith("error: the oscillator suite ")


# theta^2 overflows in numpy at the DVR grid's edge, 64/Omega, from Omega < 3.6e-307 on
@pytest.mark.parametrize("omega", ["1e-320", "1e-307"])
def test_numpy_overflow_writes_one_error_line_and_no_warning(omega):
    # run as a program: pytest would catch numpy's RuntimeWarnings before stderr
    src = os.path.dirname(os.path.dirname(os.path.abspath(dfra.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "dfra.cli", "run", "--suite", "oscillator",
         "--set", f"Omega={omega}", "--samples", "1000"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300)
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: the oscillator suite "), lines


@pytest.mark.parametrize("pair", ["Omega=1e-30", "Omega=1e-150", "Omega=1e-200", "omega=1e40"])
def test_oscillator_records_pass_far_from_unit_scale(pair):
    # the moments reach 1e30-1e200: an absolute tolerance fails them on rounding
    # alone; at 1e-200 the raw Monte Carlo squares (1e400) and Omega^2 are out of range
    report = run_suite("oscillator", parse_params([pair, "samples=1000"]))
    failed = [c["name"] for c in report["checks"] if c["status"] != "pass"]
    assert report["summary"]["total"] == 13 and not failed


@pytest.mark.parametrize("Lambda", ["1e-30", "1", "1e6"])
def test_weight_records_fail_a_doubled_weight(monkeypatch, Lambda):
    # theta ~ N(0, 1) meets W where it is flat (Lambda = 1e-30) or zero
    # (Lambda = 1e6); only draws at W's own scale see a wrong W there
    weight = oscillator.weight_function
    monkeypatch.setattr(oscillator, "weight_function", lambda cfg, th: 2 * weight(cfg, th))
    report = run_suite("oscillator", parse_params([f"Lambda={Lambda}", "samples=1000"]))
    status = {c["name"]: c["status"] for c in report["checks"]}
    for D in (2, 3):
        assert status[f"weight-is-wavefunction-squared-D{D}"] == "fail"


# the suites that read each float parameter; a new one fails collection below
FLOAT_READERS = {"lambda": ("field",), "m": ("oscillator", "field"), "omega": ("oscillator",),
                 "Lambda": ("oscillator",), "Omega": ("oscillator",)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key, suite, value", [
    (key, suite, value)
    for key, (typ, _, _) in PARAMS.items() if typ is float for suite in FLOAT_READERS[key]
    for value in ("1e-300", "1e-30", "1e30", "1e300") + (("-1e30",) if key == "lambda" else ())
])
def test_in_domain_extremes_give_a_report_or_one_error_line(key, suite, value, tmp_path, capsys):
    code = main(["run", "--suite", suite, "--set", f"{key}={value}", "--samples", "1000",
                 "--format", "json", "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    else:
        assert code in (0, 1) and not err, err


@pytest.mark.parametrize("lam", ["1e30", "1e100", "1e150", "-1e30"])
def test_large_lambda_poles_are_found(lam):
    # a bracket of w +- 0.5 is a single float from w ~ 1e16 on, and bisection raised
    report = run_suite("field", parse_params([f"lambda={lam}"]))
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status["propagator-poles-at-dispersion"] == "pass"


@pytest.mark.parametrize("lam", ["1", "1e30", "1e100", "1e150"])
def test_symbol_record_compares_in_the_symbol_scale(lam):
    # at lambda = 1e100 the symbol is 6.4e201 and an absolute comparison read
    # a rounding difference of 6.8e184 as a FAIL
    report = run_suite("field", parse_params([f"lambda={lam}"]))
    record = next(c for c in report["checks"] if c["name"] == "symbol-matches-propagator")
    assert record["status"] == "pass" and record["residual"] < 1e-15


def test_symbol_record_fails_a_symbol_linear_in_lambda_at_the_defaults(monkeypatch):
    # at lambda = 1, lambda * kq and lambda^2 * kq are the same number
    def linear(shape, dt, dx, dtheta, lam, m):
        nt, nx, nq = shape
        wt, kx, kq = field._symbol_axes(shape, dt, dx, dtheta)
        return (wt.reshape(nt, 1, 1) - kx.reshape(1, nx, 1)
                - lam * kq.reshape(1, 1, nq) - m**2)

    monkeypatch.setattr(field, "kg_symbol", linear)
    report = run_suite("field", parse_params([]))
    record = next(c for c in report["checks"] if c["name"] == "symbol-matches-propagator")
    assert record["status"] == "fail"


def test_one_symbol_assembly_reaches_the_solve_the_leapfrog_and_the_symbol_record(monkeypatch):
    # a symbol linear in lambda, planted in the one assembly, shows in all three
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
    args = (phi, np.zeros_like(phi), 5, 0.05, 0.3, 0.4, 2.0, 1.0)
    _, before, _ = field.evolve_leapfrog(*args)
    monkeypatch.setattr(field, "_symbol_slice",
                        lambda w2, kx, kq, lam, m: w2 - kx.reshape(-1, 1) - lam * kq - m**2)
    _, after, _ = field.evolve_leapfrog(*args)
    assert not np.allclose(after, before)

    def status(sets):
        return {c["name"]: c["status"] for c in run_suite("field", parse_params(sets))["checks"]}

    # the stencil oracle keeps lambda^2; at lambda = 1 the two agree
    assert status(["lambda=2"])["greens-residual"] == "fail"
    assert status([])["symbol-matches-propagator"] == "fail"


@pytest.mark.parametrize("sets", [[], ["steps=5000", "nx=256", "ntheta=128"]],
                         ids=["defaults", "5000-steps-256x128"])
def test_charge_drift_stays_at_rounding_level(sets):
    # the record's tolerance 1e-6 would let the rounding error grow 1e8-fold
    report = run_suite("field", parse_params(sets))
    record = next(c for c in report["checks"] if c["name"].startswith("charge-drift-"))
    assert record["residual"] < 1e-12


def test_monte_carlo_threshold_is_the_sidak_z(monkeypatch):
    tail = 1 - (1 - cli.MC_FALSE_ALARM_RATE) ** (1 / cli.MC_RECORDS)
    assert cli.MC_Z == pytest.approx(NormalDist().inv_cdf(1 - tail / 2), rel=1e-12)
    assert 3.48 < cli.MC_Z < 3.49
    errors = []
    real = oscillator.moment_oracle

    def recorded(cfg, f, method="quadrature", **kwargs):
        out = real(cfg, f, method, **kwargs)
        if method == "monte-carlo":
            errors.append(out.error)
        return out

    monkeypatch.setattr(oscillator, "moment_oracle", recorded)
    tolerances = [tol for name, _, _, tol in cli.oscillator_suite(parse_params(["samples=1000"]))
                  if name.startswith("moments-vs-monte-carlo-D")]
    assert len(tolerances) == cli.MC_RECORDS == len(errors)
    assert tolerances == [cli.MC_Z * e for e in errors]


def test_monte_carlo_records_fail_a_sampler_biased_by_one_percent(monkeypatch):
    real = oscillator.moment_oracle

    def biased(cfg, f, method="quadrature", **kwargs):
        if method == "monte-carlo":
            # the sampler's sigma^2 is 1/(2 Lambda Omega)
            cfg = dataclasses.replace(cfg, Omega=cfg.Omega / 1.01)
        return real(cfg, f, method, **kwargs)

    monkeypatch.setattr(oscillator, "moment_oracle", biased)
    params = parse_params([])
    assert params["samples"] == 1_000_000
    records = {name: (residual, tol) for name, _, residual, tol in cli.oscillator_suite(params)}
    for D in (2, 3):
        residual, tol = records[f"moments-vs-monte-carlo-D{D}"]
        assert residual > tol


def test_monte_carlo_records_draw_independent_streams(monkeypatch):
    from test_numeric_fast_paths import reference_monte_carlo

    real = oscillator.moment_oracle
    calls = []

    def recorded(cfg, f, method="quadrature", **kwargs):
        out = real(cfg, f, method, **kwargs)
        if method == "monte-carlo":
            calls.append((cfg, f.components, kwargs["seed"], out))
        return out

    monkeypatch.setattr(oscillator, "moment_oracle", recorded)
    params = parse_params([])
    residuals = [residual for name, _, residual, _ in cli.oscillator_suite(params)
                 if name.startswith("moments-vs-monte-carlo-D")]
    (cfg2, reads2, seed2, d2), (cfg3, reads3, seed3, _) = calls
    # D = 3 reads only theta_1, as D = 2 does: the same seed would repeat D = 2's draws
    assert (cfg2.D, reads2, cfg3.D, reads3) == (2, 1, 3, 1)
    assert (seed2, seed3) == (params["seed"], (params["seed"], 3))
    assert residuals[0] != residuals[1]
    f = oscillator.monomial((2,))
    assert d2[:2] == reference_monte_carlo(cfg2, f, params["samples"], params["seed"])


def test_monte_carlo_d3_record_z_scores_look_standard_normal():
    # MC_Z's false-alarm rate holds only if each record's z is N(0, 1); the
    # D = 3 record draws theta_1 with seed (seed, 3), as the test above pins
    params = parse_params([])
    cfg = oscillator.OscillatorConfig(D=3)
    f = oscillator.monomial((2, 0, 0))
    z = []
    for seed in range(1, 51):
        est = oscillator.moment_oracle(cfg, f, "monte-carlo", samples=params["samples"],
                                       seed=(seed, 3))
        z.append((est.value - oscillator.moment(cfg, "theta_ij_theta_kl")) / est.error)
    assert abs(np.mean(z)) <= 0.45
    assert 0.7 <= np.std(z) <= 1.3


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


@given(root=st.floats(-10, 10), left=st.floats(0.01, 5), right=st.floats(0.01, 5),
       gap=st.floats(0, 10), scale=st.floats(0.1, 10), rising=st.booleans())
def test_bisect_finds_the_root_brentq_finds(root, left, right, gap, scale, rising):
    lo, hi = root - left, root + right
    # the other root lies so far left that the vertex is at or left of lo,
    # so f is monotone on [lo, hi]
    other = lo - left - gap
    k = scale if rising else -scale

    def f(x):
        return k * (x - root) * (x - other)

    assert abs(_bisect(f, lo, hi) - brentq(f, lo, hi, xtol=1e-13)) <= 1e-12


@pytest.mark.parametrize("f", [
    lambda x: x * x + 1.0,
    lambda x: math.nan if x < 0 else x,
    lambda x: x if abs(x) > 0.1 else math.nan,
], ids=["no-sign-change", "nan-end", "nan-inside"])
def test_bisect_raises_without_a_bracketed_root(f):
    with pytest.raises(ValueError):
        _bisect(f, -1.0, 0.5)


@pytest.mark.parametrize("error", [1.0, math.nan], ids=["root-outside", "nan"])
def test_pole_check_without_a_bracketed_root_raises(monkeypatch, error):
    # the bracket is the dispersion value +- 0.5: a wrong value never passes
    dispersion = field.dispersion
    monkeypatch.setattr(field, "dispersion", lambda *args: dispersion(*args) + error)
    with pytest.raises(ValueError, match="no sign change"):
        run_suite("field", parse_params([]))


def test_runtime_needs_no_scipy_and_the_pass_imports_nothing(tmp_path):
    # scipy is a test dependency only; and a check's first-use import would
    # land in its record's runtime
    script = (
        "import sys\n"
        "from dfra.cli import main, parse_params, run_suite\n"
        "loaded = set(sys.modules)\n"
        "assert run_suite('all', parse_params([]))['summary']['failed'] == 0\n"
        "extra = sorted(set(sys.modules) - loaded)\n"
        "assert not extra, extra\n"
        "code = main(['run', '--suite', 'all', '--format', 'json', '--out', sys.argv[1]])\n"
        "assert code == 0, code\n"
        "scipy = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not scipy, scipy\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(dfra.__file__)))
    subprocess.run([sys.executable, "-c", script, str(tmp_path / "report.json")],
                   env={**os.environ, "PYTHONPATH": src}, check=True, timeout=300)


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
        assert set(check) == {"name", "paper_ref", "status", "residual", "tolerance",
                              "runtime"}


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


def test_atomic_report_write_goes_through_a_symlink(tmp_path):
    # as open(path, "w") would: the link stays a link and its target gets the report
    (tmp_path / "target").mkdir()
    target = tmp_path / "target" / "report.json"
    target.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main(["run", "--suite", "algebra", "--set", "D=2",
                 "--format", "json", "--out", str(link)]) == 0
    assert link.is_symlink() and link.readlink() == target
    assert json.loads(target.read_text())["suite"] == "algebra"
    assert not list(tmp_path.rglob(".report-*"))


@pytest.mark.parametrize("target", ["missing-dir/report.json", "a-directory"])
def test_unwritable_report_path_exits_two_with_one_error_line(target, tmp_path, capsys):
    # exit 1 means a check failed; a report that cannot be written is a usage error
    (tmp_path / "a-directory").mkdir()
    code = main(["run", "--suite", "algebra", "--set", "D=2",
                 "--format", "json", "--out", str(tmp_path / target)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write the report to ") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-directory"]


def test_report_file_gets_the_mode_a_plain_open_gives(tmp_path):
    # mkstemp creates 0o600; open(path, "w") gives 0o666 less the umask to a
    # new file and leaves an existing file's mode alone
    new, existing = tmp_path / "new.json", tmp_path / "existing.json"
    existing.write_text("")
    existing.chmod(0o640)
    umask = os.umask(0o022)
    try:
        for out in (new, existing):
            assert main(["run", "--suite", "algebra", "--set", "D=2",
                         "--format", "json", "--out", str(out)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o644
    assert stat.S_IMODE(existing.stat().st_mode) == 0o640


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


@pytest.mark.parametrize("expression", [
    "(" * 3000 + "1" + ")" * 3000,
    "-" * 3000 + "x[1]",
    "[" * 3000 + "x[1], x[2]]" + ", p[1]]" * 2999,
], ids=["parentheses", "unary-minus-chain", "brackets"])
def test_eval_over_deep_nesting_exit_two(expression, capsys):
    assert main(["eval", "--", expression]) == 2
    assert "nested deeper than" in capsys.readouterr().err


def test_eval_nesting_up_to_the_limit_parses(capsys):
    depth = symcore._MAX_NESTING
    assert main(["eval", "--", "(" * depth + "x[1]" + ")" * depth]) == 0
    assert capsys.readouterr().out.strip() == "x[1]"
    assert main(["eval", "--", "[" * depth + "x[1], x[2]]" + ", p[1]]" * (depth - 1)]) == 0
    assert main(["eval", "--", "(" * (depth + 1) + "x[1]" + ")" * (depth + 1)]) == 2


def test_eval_unknown_generator_exit_two(capsys):
    assert main(["eval", "x[9]"]) == 2
