"""The reports of the gabor, wavelet and multiplier subcommands: every check
of their own, and every suite row the multiplier report once repeated in a
table of its own, can fail, the budget rows hold at their boundary, an input
that overflows is recorded rather than raised, and the tolerance a report
names is the one its measure applied."""

import dataclasses
import json
import math
import types

import numpy as np
import pytest

from contframes import controlled as ctrl
from contframes import frame as fr
from contframes import hilbert as hb
from contframes import suites
from contframes import tf_frames as tf
from contframes.cli import main
from contframes.errors import NumericFailureError
from contframes.frame import SampledFrame
from contframes.measure import Symbol, counting_space
from contframes.reporting import Check
from contframes.suites import SuiteConfig


def strict_json(path):
    return json.loads(path.read_text(), parse_constant=lambda token: pytest.fail(token))


def above(x):
    return float(np.nextafter(x, math.inf))


# ---------------------------------------------------------------------------
# a failing case for every subcommand check
# ---------------------------------------------------------------------------

def frames(seed=0, d=4, n=12, scale=1.0):
    rng = np.random.default_rng(seed)
    space = counting_space(n)
    return [SampledFrame(space, scale * (rng.standard_normal((d, n))
                                         + 1j * rng.standard_normal((d, n))))
            for _ in range(2)]


def multiplier_config(unit=False, scale=1.0):
    F, G = frames(scale=scale)
    values = np.ones(12) if unit else np.random.default_rng(1).standard_normal(12)
    return {"analysis_frame": F.to_dict(),
            "synthesis_frame": (F if unit else G).to_dict(),
            "symbol": Symbol(values.astype(complex), F.space).to_dict()}


def gabor():
    return suites.run_gabor(64, "gaussian")


def wavelet():
    # a grid on which all three checks pass
    return suites.run_wavelet(d=64, n_a=64, band=(2.0, 8.0))


def multiplier(unit=False):
    return lambda: suites.run_multiplier(multiplier_config(unit))[0]


def shift_eigenvalue(monkeypatch, index, size):
    """Move eigenvalue ``index`` of each Gabor frame operator of a stack of
    windows g by ``size`` ||g||^2, along the eigenvector that eigenvalue has."""
    build = tf.gabor_operator

    def shifted(g):
        S = build(g)
        gsq = np.sum(np.abs(g) ** 2, axis=-1)[..., None, None]
        _, vectors = np.linalg.eigh(S)
        v = vectors[..., index]
        return S + size * gsq * (v[..., :, None] * v[..., None, :].conj())

    monkeypatch.setattr(tf, "gabor_operator", shifted)


def skew_gabor_operator(monkeypatch):
    build = tf.gabor_operator
    monkeypatch.setattr(tf, "gabor_operator", lambda g: build(g) + 1e-8j * np.sum(
        np.abs(g) ** 2, axis=-1)[..., None, None] * np.eye(g.shape[-1]))


def doubled_profile(monkeypatch):
    profile = tf.mexican_hat_fourier
    monkeypatch.setattr(tf, "mexican_hat_fourier", lambda g: 2.0 * profile(g))


def scaled_residuals(monkeypatch):
    residual = tf.calderon_residual
    monkeypatch.setattr(tf, "calderon_residual", lambda *a, **k: 100.0 * residual(*a, **k))


def unrefined_residuals(monkeypatch):
    # the refined grid gives the residual of the first: no refinement gain
    residual, first = tf.calderon_residual, []

    def repeated(*args, **kwargs):
        first.append(first[0] if first else residual(*args, **kwargs))
        return first[-1]

    monkeypatch.setattr(tf, "calderon_residual", repeated)


def lowered_budget(column):
    def fault(monkeypatch):
        compute = suites.SHARED["budgets"]

        def lowered(t):
            actuals, budgets = compute(t)
            budgets = budgets.copy()
            budgets[..., column] = 0.5 * actuals[..., column]
            return actuals, budgets

        monkeypatch.setitem(suites.SHARED, "budgets", lowered)
    return fault


def offset_within(row, name):
    """``row`` with a measure that reads quantity ``name`` of its context off
    by 1e-8 ||M||_F I."""
    def measure(t):
        held = getattr(t, name)
        setattr(t, name, held + 1e-8 * hb.frobenius_norm(t.M)[:, None, None] * np.eye(t.cfg.d))
        try:
            return row.measure(t)
        finally:
            setattr(t, name, held)
    return row._replace(measure=measure)


def perturbed_adjoint(monkeypatch):
    # M, as the adjoint identity reads it
    monkeypatch.setitem(suites.CHECKS, "multiplier_adjoint",
                        offset_within(suites.CHECKS["multiplier_adjoint"], "M"))


def perturbed_frame_operator(monkeypatch):
    monkeypatch.setattr(suites, "EQUALS_FRAME_OPERATOR",
                        offset_within(suites.EQUALS_FRAME_OPERATOR, "S_F"))


# check id -> (the run, the fault, the ids that may fail with it)
FAULTS = {
    "gabor_lower_bound": (gabor, lambda mp: shift_eigenvalue(mp, 0, -1e-8),
                          {"gabor_lower_bound", "gabor_tightness_residual"}),
    "gabor_upper_bound": (gabor, lambda mp: shift_eigenvalue(mp, -1, 1e-8),
                          {"gabor_upper_bound", "gabor_tightness_residual"}),
    "gabor_tightness_residual": (gabor, skew_gabor_operator, {"gabor_tightness_residual"}),
    "admissibility_constant": (wavelet, doubled_profile, {"admissibility_constant"}),
    "calderon_residual": (wavelet, scaled_residuals, {"calderon_residual"}),
    "calderon_refinement": (wavelet, unrefined_residuals, {"calderon_refinement"}),
    # the budget rows in the order of DEFAULT_PS, the columns of the budgets
    **{check_id: (multiplier(), lowered_budget(column), {check_id}) for column, check_id in
       enumerate(("trace_budget", "schatten_budget_p15", "schatten_budget_p2",
                  "schatten_budget_p3", "op_norm_budget"))},
    "multiplier_adjoint": (multiplier(), perturbed_adjoint, {"multiplier_adjoint"}),
    "equals_frame_operator": (multiplier(unit=True), perturbed_frame_operator,
                              {"equals_frame_operator"}),
}
# the checks of the gabor and wavelet tables, the one row a multiplier report
# has apart from CHECKS, and the suite rows the multiplier subcommand once
# repeated in a table of its own
SUBCOMMAND_IDS = sorted({*suites.GABOR_RUN, *suites.WAVELET_RUN, "equals_frame_operator",
                         *suites.BUDGET_IDS, "multiplier_adjoint"})


def verdicts(report):
    assert not [c.error for c in report.checks if c.error]
    return {c.check_id: c.passed for c in report.checks}


@pytest.mark.parametrize("check_id", SUBCOMMAND_IDS)
def test_every_subcommand_check_can_fail(monkeypatch, check_id):
    assert check_id in FAULTS, "a subcommand check without a failing case"
    run, fault, may_fail = FAULTS[check_id]
    before = verdicts(run())
    assert check_id in before and all(before.values())
    fault(monkeypatch)
    after = verdicts(run())
    failed = {c for c, passed in after.items() if not passed}
    assert check_id in failed and failed <= may_fail


# ---------------------------------------------------------------------------
# the verdicts of the subcommand rows
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("actual,budget,tol,measured,passed", [
    # (x - b) / b <= tol
    (3.0, 2.0, 0.5, 0.5, True),
    (above(3.0), 2.0, 0.5, (above(3.0) - 2.0) / 2.0, False),
    (0.0, 2.0, 0.0, -1.0, True),
    # a zero budget holds a zero norm only
    (0.0, 0.0, 0.0, 0.0, True),
    (5e-324, 0.0, 0.5, math.inf, False),
])
def test_the_budget_rows_gate_the_excess_relative_to_the_budget(actual, budget, tol, measured,
                                                                passed):
    t = types.SimpleNamespace(budgets=(np.full((1, 5), actual), np.full((1, 5), budget)))
    for check_id in suites.BUDGET_IDS:
        row = suites.CHECKS[check_id]
        assert row.relation == suites.AT_MOST
        check = suites.verdict(check_id, row, tol, [suites._evaluate(row, t)])
        assert (check.measured, check.passed) == (
            (measured, passed) if math.isfinite(measured) else (None, passed))


@pytest.mark.parametrize("measured", [math.inf, math.nan])
def test_non_finite_values_move_into_the_detail(measured):
    row = suites.Row("test-run", "a claim", 0.5, suites.EQUAL, lambda t: suites.Noted(
        (measured, 0.0, 1.0), "value"))
    assert suites.verdict("c", row, 0.5, [suites._evaluate(row, None)]) == Check(
        "c", "a claim", None, 0.5, 0.5, False, f"measured {measured!r}; value")


# ---------------------------------------------------------------------------
# an input that overflows is recorded in a strict-JSON report
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gabor_command_records_an_overflowing_window(tmp_path, capsys):
    window = tmp_path / "window.json"
    window.write_text(json.dumps([1e200, 0.0, 0.0, 0.0]))
    out = tmp_path / "gabor.json"
    assert main(["gabor", "--d", "4", "--window", str(window), "--out", str(out)]) == 1
    checks = {c["check_id"]: c for c in strict_json(out)["checks"]}
    assert sorted(checks) == sorted(suites.GABOR_RUN)
    # the bounds abort in the eigen-solve; the tightness residual, which
    # takes none, is NaN and fails
    for check_id in ("gabor_lower_bound", "gabor_upper_bound"):
        check = checks[check_id]
        assert not check["pass"] and check["measured"] is check["budget"] is None
        assert check["error"] == "NumericFailureError: operator has non-finite entries"
    tightness = checks["gabor_tightness_residual"]
    assert not tightness["pass"] and tightness["measured"] is None
    assert tightness["detail"] == "measured nan" and "error" not in tightness
    assert "gabor-run: 0/3 checks passed" in capsys.readouterr().out


# the ids of a multiplier report: the rows of the algebra suites that read an
# instance
STACKED_ALGEBRA_IDS = [c for c, row in suites.CHECKS.items()
                       if row.suite not in ("gabor", "wavelet") and c not in suites.NO_INSTANCE]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_multiplier_command_records_an_overflowing_frame(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(multiplier_config()
                                 | {"analysis_frame": frames(scale=1e200)[0].to_dict()}))
    out, sigma = tmp_path / "report.json", tmp_path / "sigma.csv"
    assert main(["multiplier", "--config", str(config), "--out", str(out),
                 "--sigma-csv", str(sigma)]) == 1
    checks = {c["check_id"]: c for c in strict_json(out)["checks"]}
    assert sorted(checks) == sorted(STACKED_ALGEBRA_IDS)
    # S_F overflows: the budgets abort, the multiplier and its adjoint do not
    for check_id in suites.BUDGET_IDS:
        assert checks[check_id]["measured"] is None and not checks[check_id]["pass"]
        assert checks[check_id]["error"].startswith("NumericFailureError")
    # the eigen-solves of S_F refuse it as the SVDs and eigvalsh do, before
    # LAPACK fails to converge
    controlled = [c for c, row in suites.CHECKS.items() if row.suite == "controlled"]
    for check_id in ["bessel_sharpness", *controlled]:
        assert checks[check_id]["error"] == "NumericFailureError: operator has non-finite entries"
    assert checks["multiplier_adjoint"]["pass"]
    assert len(sigma.read_text().splitlines()) == 5


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_budget_gate_is_relative_to_the_budget(tmp_path):
    # both frames scaled by 1e-160: the operator norm underflows to a
    # subnormal against an operator-norm budget of 0, which an absolute
    # tolerance of 1e-10 passed
    F, G = frames(scale=1e-160)
    config, out = tmp_path / "config.json", tmp_path / "report.json"
    config.write_text(json.dumps(multiplier_config() | {"analysis_frame": F.to_dict(),
                                                        "synthesis_frame": G.to_dict()}))
    assert main(["multiplier", "--config", str(config), "--out", str(out)]) == 1
    checks = {c["check_id"]: c for c in strict_json(out)["checks"]}
    assert [c for c in suites.BUDGET_IDS if not checks[c]["pass"]] == ["op_norm_budget"]
    assert checks["op_norm_budget"]["detail"] == "measured inf"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_a_multiplier_at_the_ends_of_the_float_range_is_reported_without_warnings(scale):
    # both frames scaled by 1e100: the squared inverse of the smallest
    # singular value of M underflows to 0, and the certificate floors divide
    # by it.  The report records what comes of it, and no check aborts on a
    # warning
    report, _ = suites.run_multiplier(multiplier_config(scale=scale))
    assert [c.check_id for c in report.checks] == STACKED_ALGEBRA_IDS
    assert not report.all_passed and not [c.error for c in report.checks if c.error]


def test_a_zero_symbol_passes_every_budget_row():
    zero = {"re": [0.0] * 12, "im": [0.0] * 12}
    report, _ = suites.run_multiplier(multiplier_config() | {"symbol": zero})
    assert all(c.passed for c in report.checks if c.check_id in suites.BUDGET_IDS)


def one_point_config(c):
    """F = G = [[c]] on one point with the symbol 0.5: the frame is tight and
    the multiplier rank one, so the Bessel inequality and the monotonicity of
    the Schatten norms hold with equality."""
    space = counting_space(1)
    F = SampledFrame(space, np.array([[c]], dtype=complex))
    return {"analysis_frame": F.to_dict(), "synthesis_frame": F.to_dict(),
            "symbol": Symbol(np.array([0.5 + 0j]), space).to_dict()}


def scaled_config(c):
    F, G = frames(scale=c)
    return multiplier_config() | {"analysis_frame": F.to_dict(), "synthesis_frame": G.to_dict()}


@pytest.mark.parametrize("config,d", [(one_point_config, 1), (scaled_config, 4)])
def test_the_bessel_and_monotonicity_rows_do_not_depend_on_the_scale(config, d):
    # c F and c G scale B_F and every Schatten norm of the multiplier by c^2:
    # the rows measure their gaps relative to B_F ||f||^2 and to the larger
    # norm, so they read rounding at every c.  Over ||f||^2 alone and as raw
    # differences, the one-point instance read 5.79e-10 and 3.49e-10 at
    # c = 1e3 and failed both against 1e-10
    for c in (1e-3, 1.0, 1e3):
        checks = {check.check_id: check for check in suites.run_multiplier(config(c))[0].checks}
        assert all(check.passed for check in checks.values()), c
        for check_id in ("bessel_inequality", "schatten_monotonicity"):
            assert checks[check_id].measured <= 16 * d * np.finfo(float).eps


def test_the_bounds_suite_passes_on_a_tight_frame_of_many_points(tmp_path):
    # at d = 1 every frame is tight: bessel_inequality read 5.1e-10 here
    assert main(["verify", "--suite", "bounds", "--d", "1", "--n", "262144", "--trials", "2",
                 "--out", str(tmp_path / "r.json")]) == 0


def test_the_rows_that_read_the_canonical_dual_abort_on_no_frame():
    # N = 3 < d = 4: no frame, as at N < d in the suites
    F, G = frames(n=3)
    config = {"analysis_frame": F.to_dict(), "synthesis_frame": G.to_dict(),
              "symbol": Symbol(np.ones(3, dtype=complex), F.space).to_dict()}
    errors = {c.check_id: c.error for c in suites.run_multiplier(config)[0].checks}
    for check_id in ("reconstruction", "reconstruction_swapped", "canonical_dual_pair",
                     "dual_bounds_inverse"):
        assert errors[check_id].startswith("NotAFrameError")


def test_multiplier_csv_has_no_rows_without_singular_values(monkeypatch):
    def failed(T):
        raise NumericFailureError("singular value decomposition failed")

    monkeypatch.setattr(suites.hb, "singular_values", failed)
    report, csv_text = suites.run_multiplier(multiplier_config())
    assert csv_text == "index,sigma\n"
    errors = {c.check_id: c.error for c in report.checks}
    assert all(errors[c].startswith("NumericFailureError") for c in suites.BUDGET_IDS)


# ---------------------------------------------------------------------------
# a tolerance override reaches the measures that apply a tolerance
# ---------------------------------------------------------------------------

def antisymmetric_part(T, size):
    """T plus a real antisymmetric part of about ``size`` ||T||: the
    Hermitian part, and so every eigenvalue, stays that of T."""
    d = T.shape[-1]
    skew = np.triu(np.ones((d, d)), 1) - np.tril(np.ones((d, d)), -1)
    return T + size * hb.operator_norm(T)[..., None, None] * skew


def skewed_mixed_operators(monkeypatch):
    mixed = ctrl.mixed_operator
    monkeypatch.setattr(ctrl, "mixed_operator",
                        lambda C, w, F: antisymmetric_part(mixed(C, w, F), 1e-8))


def skewed_multipliers(monkeypatch):
    gram = fr.weighted_gram

    def skewed(X, c, Y):  # the multipliers' coefficients are complex
        out = gram(X, c, Y)
        return antisymmetric_part(out, 1e-8) if np.iscomplexobj(c) else out

    monkeypatch.setattr(fr, "weighted_gram", skewed)


def lowered_certificate(monkeypatch):
    # certificate 2 measured 1e-8 under its floor
    values = suites.certificate_values

    def lowered(*args, **kwargs):
        measured, floors = values(*args, **kwargs)
        measured = measured.copy()
        measured[..., 1] = floors[..., 1] - 1e-8
        return measured, floors

    monkeypatch.setattr(suites, "certificate_values", lowered)


@pytest.mark.parametrize("check_id,fault", [
    ("controlled_positivity", skewed_mixed_operators),
    ("positive_symbol_coercivity", skewed_multipliers),
    ("certificates", lowered_certificate),
])
def test_tolerance_override_reaches_the_measure(monkeypatch, check_id, fault):
    # a fault between the default 1e-10 and the override 1e-6 fails the
    # check at the default tolerance only
    cfg = SuiteConfig(trials=6, d=4, n_points=12)
    assert suites.run_check(cfg, check_id).passed
    fault(monkeypatch)
    assert not suites.run_check(cfg, check_id).passed
    relaxed = suites.run_check(dataclasses.replace(cfg, tolerances={check_id: 1e-6}),
                               check_id)
    assert relaxed.passed and relaxed.tolerance == 1e-6


# ---------------------------------------------------------------------------
# verdicts do not depend on the scale of the instance
# ---------------------------------------------------------------------------

U = np.finfo(float).eps / 2
# 1e-6 as well: the difference rows subtract drawn vectors of scale 1, which
# outgrow M there
SCALES = (1e-20, 1e-6, 1e-3, 1.0, 1e3, 1e20)


def one_point(scale):
    """F = G = [[scale]] on one point of mass 1, symbol 0.5: every certificate
    and every budget holds with equality."""
    space = counting_space(1)
    F = SampledFrame(space, np.array([[scale]], dtype=complex))
    return {"analysis_frame": F.to_dict(), "synthesis_frame": F.to_dict(),
            "symbol": Symbol(np.array([0.5 + 0j]), space).to_dict()}


@pytest.mark.parametrize("config,d,n", [(lambda c: multiplier_config(scale=c), 4, 12),
                                        (one_point, 1, 1)], ids=["generic", "one-point"])
def test_verdicts_do_not_depend_on_the_scale_of_the_instance(config, d, n):
    # scaling F and G by c scales every side of a row by the same power of c,
    # so each row's defect is the same up to rounding.  Each side is a Gram
    # product of N terms of d entries, or an eigen-solve or SVD of a few such
    # products, and errs by a small multiple of (N + d) u relative to its
    # scale: the values may lie 64 (N + d) u apart
    reports = {c: suites.run_multiplier(config(c))[0] for c in SCALES}
    base = reports[1.0].checks
    assert all(check.passed for check in base)
    for c, report in reports.items():
        assert [(check.check_id, check.passed) for check in report.checks] == [
            (check.check_id, check.passed) for check in base], c
        for check, unit in zip(report.checks, base):
            assert abs(check.measured - unit.measured) <= 64 * (n + d) * U, (c, check.check_id)
