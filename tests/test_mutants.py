"""Every identity the norm policy of ``hilbert`` measures can fail.

Each mutant adds to one operator a perturbation E of Frobenius norm 10^3
times the row's tolerance times the row's scale, so the row must measure
about 10^3 times its tolerance and fail; no check outside the family of
rows that read the perturbed operator may flip.  The difference identities
are also held at (d, N) = (64, 16384), where their entries, and so their
rounding, are largest.
"""

import math

import numpy as np
import pytest

from contframes import controlled as ctrl
from contframes import frame as fr
from contframes import hilbert as hb
from contframes import suites
from contframes.frame import SampledFrame
from contframes.measure import Symbol, counting_space
from contframes.suites import SuiteConfig

DIFFERENCES = ("difference_symbol", "difference_analysis", "difference_synthesis")


@pytest.mark.parametrize("check_id", DIFFERENCES)
def test_the_difference_identities_hold_at_n_16384(check_id):
    # their largest entry of lhs - rhs reached 1.9e-12 here against 1e-12;
    # the Frobenius norm over ||M||_F / sqrt(d) reads about 9e-15
    check = suites.run_check(SuiteConfig(d=64, n_points=16384, trials=1, seed=0), check_id)
    assert check.passed and check.measured < 1e-13


def perturbation(size, d):
    """size I / sqrt(d), of Frobenius norm ``size``, one per entry of size."""
    return (np.asarray(size) / math.sqrt(d))[..., None, None] * np.eye(d)


def perturbed_product(check_id, module, call, scale):
    """Within the measure of ``check_id``, product ``call`` (0 the first) that
    module.weighted_gram forms gains perturbation(10^3 tol scale(t)), trial
    by trial.  scale(t) is read before: a shared quantity it forms stays
    unperturbed."""
    def fault(monkeypatch):
        row = suites.CHECKS[check_id]

        def measure(t):
            size, gram, formed = 1e3 * row.tolerance * scale(t), module.weighted_gram, []

            def perturbed(X, c, Y):
                out = gram(X, c, Y)
                formed.append(out)
                return out + perturbation(size, out.shape[-1]) if len(formed) == call + 1 else out

            module.weighted_gram = perturbed
            try:
                return row.measure(t)
            finally:
                module.weighted_gram = gram

        monkeypatch.setitem(suites.CHECKS, check_id, row._replace(measure=measure))
    return fault


def m_scale(t):
    return hb.frobenius_scale(t.M)


def perturbed_wavelet_operator(monkeypatch):
    # E = s e_0 e_0^*: no circulant E breaks the shift commutation, so the
    # frequency-basis rows that read S fail with it
    d, grid, wavelet, S, _, scale = suites._small_wavelet_setup()
    E = np.zeros((d, d))
    E[0, 0] = 1e3 * suites.CHECKS["wavelet_shift_commutation"].tolerance * scale
    dft = np.fft.fft(np.eye(d)) / math.sqrt(d)
    S_freq = dft @ (S + E) @ dft.conj().T
    setup = (d, grid, wavelet, S + E, S_freq, float(np.max(np.abs(np.diagonal(S_freq)))))
    monkeypatch.setattr(suites, "_small_wavelet_setup", lambda: setup)


def perturbed_run_multiplier(name, call):
    """Call ``call`` of ``name`` in suites' run of a multiplier gains
    perturbation(10^3 tol ||M||)."""
    def fault(monkeypatch):
        module = fr if name == "frame_operator" else suites
        build, formed = getattr(module, name), []

        def perturbed(*args):
            out = build(*args)
            formed.append(out)
            size = 1e3 * 1e-12 * hb.operator_norm(formed[0])
            return out + perturbation(size, len(out)) if len(formed) == call + 1 else out

        monkeypatch.setattr(module, name, perturbed)
    return fault


def suite_run(suite):
    return lambda: suites.run_suite(SuiteConfig(suite=suite, trials=6, d=4, n_points=12))


def multiplier_run(unit):
    rng = np.random.default_rng(0)
    space = counting_space(12)
    F, G = (SampledFrame(space, rng.standard_normal((4, 12)) + 1j * rng.standard_normal((4, 12)))
            for _ in range(2))
    values = np.ones(12) if unit else rng.standard_normal(12)
    config = {"analysis_frame": F.to_dict(), "synthesis_frame": (F if unit else G).to_dict(),
              "symbol": Symbol(values.astype(complex), space).to_dict()}
    return lambda: suites.run_multiplier(config)[0]


WAVELET_S = {"wavelet_shift_commutation", "wavelet_diagonality", "wavelet_diagonal_oracle"}

# check id -> (the run, the mutant, the family of ids that may fail with it)
MUTANTS = {
    **{check_id: (suite_run("identities"), perturbed_product(check_id, fr, 0, m_scale),
                  {check_id}) for check_id in DIFFERENCES},
    "multiplier_adjoint": (suite_run("identities"),
                           perturbed_product("multiplier_adjoint", fr, 0, m_scale),
                           {"multiplier_adjoint"}),
    "weighted_identity": (suite_run("identities"), perturbed_product(
        "weighted_identity", fr, 0, lambda t: np.maximum(
            hb.frobenius_scale(fr.weighted_gram(t.F, t.w * t.nonnegative, t.F)), 1.0)),
        {"weighted_identity"}),
    # the second product is the plain multiplier M
    "precondition_identity": (suite_run("controlled"),
                              perturbed_product("precondition_identity", ctrl, 1, m_scale),
                              {"precondition_identity"}),
    "weighted_scaling": (suite_run("weighted"), perturbed_product(
        "weighted_scaling", fr, 0, lambda t: 3.0 * t.bounds_F.upper), {"weighted_scaling"}),
    "wavelet_shift_commutation": (suite_run("wavelet"), perturbed_wavelet_operator, WAVELET_S),
    # the second multiplier is that of the conjugate symbol with frames swapped
    "adjoint_identity": (multiplier_run(unit=False), perturbed_run_multiplier("multiplier", 1),
                         {"adjoint_identity"}),
    "equals_frame_operator": (multiplier_run(unit=True),
                              perturbed_run_multiplier("frame_operator", 0),
                              {"equals_frame_operator"}),
}


def verdicts(report):
    assert not [c.error for c in report.checks if c.error]
    return {c.check_id: c.passed for c in report.checks}


@pytest.mark.parametrize("check_id", sorted(MUTANTS))
def test_every_remeasured_row_fails_under_its_mutant(monkeypatch, check_id):
    run, mutant, family = MUTANTS[check_id]
    before = verdicts(run())
    assert check_id in before and all(before.values())
    mutant(monkeypatch)
    failed = {c for c, passed in verdicts(run()).items() if not passed}
    assert check_id in failed and failed <= family
