"""Every identity the norm policy of ``hilbert`` measures, every
convergence row, and every row whose products a block of vectors or the
expanded perturbed and reweighted frame operators form, can fail.

Each mutant of an identity adds to one operator a perturbation E of
Frobenius norm 10^3 times the row's tolerance times the row's scale, so the
row must measure about 10^3 times its tolerance and fail.  Each mutant of a
convergence row puts a fault into the product of a bump or of a set of
dropped points, so a deviation passes its budget or stops shrinking.  The
reconstructions are synthesized 10^3 times too large, the frame operator of
G + eps F is formed 10^3 times too large or too small, and that of conj(m) F
negated.  No check outside the family of rows that read the faulty product
may flip.  The adjoint identity and the frame operator row are also mutated
on the one trial of a given instance, as the multiplier subcommand runs
them.  Every EQUAL row of every table fails, and no other row with it, when
its measure gives side A offset by 10^3 times its tolerance times its
scale: the mutant its relation gives.  The difference identities are also
held at (d, N) = (64, 16384), where their entries, and so their rounding,
are largest.
"""

import math

import numpy as np
import pytest

from contframes import controlled as ctrl
from contframes import frame as fr
from contframes import multiplier as mult
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


def faulty(module, name, call, fault, compute):
    """compute() while call ``call`` (0 the first) of module.name gives
    fault(result) in place of its result."""
    function, results = getattr(module, name), []

    def replaced(*args):
        results.append(function(*args))
        return fault(results[-1]) if len(results) == call + 1 else results[-1]

    setattr(module, name, replaced)
    try:
        return compute()
    finally:
        setattr(module, name, function)


def faulty_measure(check_id, module, name, call, fault):
    """Within the measure of ``check_id``, call ``call`` of module.name gives
    fault(t)(result) on trial context t.  fault(t) is read before: a shared
    quantity it forms stays unfaulted."""
    def mutant(monkeypatch):
        row = suites.CHECKS[check_id]

        def measure(t):
            return faulty(module, name, call, fault(t), lambda: row.measure(t))

        monkeypatch.setitem(suites.CHECKS, check_id, row._replace(measure=measure))
    return mutant


def perturbed_product(check_id, module, call, scale, name="weighted_gram", times=1e3):
    """Within the measure of ``check_id``, the product of call ``call`` of
    module.name gains perturbation(times tol scale(t)), trial by trial."""
    size = times * suites.CHECKS[check_id].tolerance

    def fault(t):
        offset = size * scale(t)
        return lambda out: out + perturbation(offset, out.shape[-1])
    return faulty_measure(check_id, module, name, call, fault)


def faulty_product(quantity, module, call, fault, name="weighted_gram"):
    """While a context computes shared ``quantity``, call ``call`` of
    module.name gives fault(result).  The frame bounds it reads are formed
    before, without the fault."""
    def mutant(monkeypatch):
        compute = suites.SHARED[quantity]

        def faulty_quantity(t):
            t.bounds_F, t.bounds_G
            return faulty(module, name, call, fault, lambda: compute(t))

        monkeypatch.setitem(suites.SHARED, quantity, faulty_quantity)
    return mutant


def row_scale(check_id):
    """The scale of each trial in the sides the unfaulted measure of row
    ``check_id`` gives."""
    row = suites.CHECKS[check_id]
    return lambda t: row.measure(t)[2]


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


def offset_frame_operator(monkeypatch):
    """S_F, as the frame operator row of a multiplier run reads it, gains
    perturbation(10^3 tol scale) at the scale of the row's sides."""
    row = suites.EQUALS_FRAME_OPERATOR

    def measure(t):
        held = t.S_F
        t.S_F = held + perturbation(1e3 * row.tolerance * row.measure(t)[2], t.cfg.d)
        try:
            return row.measure(t)
        finally:
            t.S_F = held

    monkeypatch.setattr(suites, "EQUALS_FRAME_OPERATOR", row._replace(measure=measure))


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

SYMBOL_ROWS = {"symbol_convergence_p1", "symbol_convergence_p2", "symbol_convergence_pinf"}
FRAME_ROWS = {"frame_uniform_l2", "frame_uniform_l1"}
TRUNCATION_ROWS = {"truncation_budget", "truncation_monotone"}


def magnified(product):
    return 1e3 * product


# check id -> (the run, the mutant, the family of ids that may fail with it)
MUTANTS = {
    **{check_id: (suite_run("identities"),
                  perturbed_product(check_id, fr, 0, row_scale(check_id)), {check_id})
       for check_id in DIFFERENCES + ("multiplier_adjoint", "weighted_identity")},
    # its one product is the multiplier of the controlled vectors; the plain
    # multiplier M is the context's
    "precondition_identity": (suite_run("controlled"), perturbed_product(
        "precondition_identity", ctrl, 0, row_scale("precondition_identity")),
        {"precondition_identity"}),
    "weighted_scaling": (suite_run("weighted"), perturbed_product(
        "weighted_scaling", fr, 0, lambda t: 3.0 * t.bounds_F.upper), {"weighted_scaling"}),
    # a bump's multiplier, or that of the largest set of dropped points,
    # formed 10^3 times too large passes every budget; that of the largest
    # set 10^3 times too small makes the first deviation smaller than the
    # second
    **{check_id: (suite_run("convergence"), faulty_product("convergence", mult, 0, magnified),
                  SYMBOL_ROWS) for check_id in SYMBOL_ROWS},
    **{check_id: (suite_run("convergence"), faulty_product("convergence", fr, 0, magnified),
                  FRAME_ROWS) for check_id in FRAME_ROWS},
    "truncation_budget": (suite_run("convergence"), faulty_product("truncation", fr, 0, magnified),
                          TRUNCATION_ROWS),
    "truncation_monotone": (suite_run("convergence"),
                            faulty_product("truncation", fr, 0, lambda product: 1e-3 * product),
                            TRUNCATION_ROWS),
    "wavelet_shift_commutation": (suite_run("wavelet"), perturbed_wavelet_operator, WAVELET_S),
    # the composition of synthesis with the analysis of the basis, a chunk of
    # points at a time, off by 10^3 tol B_F
    "frame_factorization": (suite_run("identities"), perturbed_product(
        "frame_factorization", fr, 0, lambda t: t.bounds_F.upper, name="synthesize"),
        {"frame_factorization"}),
    # the reconstruction through the dual, or through F, synthesized 10^3 times
    # too large
    "reconstruction": (suite_run("identities"),
                       faulty_product("dual", fr, 0, magnified, name="synthesize"),
                       {"reconstruction"}),
    "reconstruction_swapped": (suite_run("identities"),
                               faulty_product("dual", fr, 1, magnified, name="synthesize"),
                               {"reconstruction_swapped"}),
    # the frame operator of G + eps F formed 10^3 times too large or too small
    "perturb_upper": (suite_run("bounds"), faulty_measure(
        "perturb_upper", suites, "_perturbed_operator", 0, lambda t: magnified),
        {"perturb_upper"}),
    "perturb_lower": (suite_run("bounds"), faulty_measure(
        "perturb_lower", suites, "_perturbed_operator", 0, lambda t: lambda S: 1e-3 * S),
        {"perturb_lower"}),
    # the frame operator of conj(m) F negated: its lower bound is -B
    "certificates": (suite_run("weighted"), faulty_measure(
        "certificates", mult, "weighted_gram", 0, lambda t: np.negative), {"certificates"}),
}
# the same on the one trial of a given instance, in a multiplier run
MULTIPLIER_MUTANTS = {
    "multiplier_adjoint": (multiplier_run(unit=False), perturbed_product(
        "multiplier_adjoint", fr, 0, row_scale("multiplier_adjoint")), {"multiplier_adjoint"}),
    "equals_frame_operator": (multiplier_run(unit=True), offset_frame_operator,
                              {"equals_frame_operator"}),
}
RUNS = {**MUTANTS, **{f"multiplier-run:{c}": case for c, case in MULTIPLIER_MUTANTS.items()}}


def test_frame_factorization_fails_at_twice_its_tolerance_at_64_by_4096(monkeypatch):
    # the block composition leaves a defect near 3e-16 there, about 1/3000 of
    # the tolerance; a composition off by twice the tolerance still fails
    cfg = SuiteConfig(d=64, n_points=4096, trials=1, seed=7)
    assert suites.run_check(cfg, "frame_factorization").measured < 1e-15
    perturbed_product("frame_factorization", fr, 0, lambda t: t.bounds_F.upper,
                      name="synthesize", times=2.0)(monkeypatch)
    check = suites.run_check(cfg, "frame_factorization")
    assert not check.passed and 1.5e-12 < check.measured < 2.5e-12


def verdicts(report):
    assert not [c.error for c in report.checks if c.error]
    return {c.check_id: c.passed for c in report.checks}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_every_remeasured_row_fails_under_its_mutant(monkeypatch, name):
    run, mutant, family = RUNS[name]
    check_id = name.split(":")[-1]
    before = verdicts(run())
    assert check_id in before and all(before.values())
    mutant(monkeypatch)
    failed = {c for c, passed in verdicts(run()).items() if not passed}
    assert check_id in failed and failed <= family


# ---------------------------------------------------------------------------
# one mutant per identity, from its relation
# ---------------------------------------------------------------------------

def offset_side(sides, size):
    """(A + E, B, scale) of EQUAL sides, where E adds size times the scale to
    the first entry of each comparison, so that ||A + E - B|| / scale is at
    least size less the defect the row measured."""
    A, B, scale = sides
    shape = np.broadcast(A, B).shape
    E = np.zeros(shape)
    lead = np.ndim(scale)
    E.reshape(*shape[:lead], -1)[..., 0] = size * np.broadcast_to(scale, shape[:lead])
    return np.add(A, E), B, scale


def offset_identity(row):
    """``row`` whose measure gives side A offset by 10^3 tol scale."""
    def measure(t):
        result = row.measure(t)
        if isinstance(result, suites.Noted):
            return result._replace(value=offset_side(result.value, 1e3 * row.tolerance))
        return offset_side(result, 1e3 * row.tolerance)
    return row._replace(measure=measure)


def gabor_run():
    return suites.run_gabor(16, "gaussian")


def wavelet_run():
    return suites.run_wavelet(d=64, n_a=64, band=(2.0, 8.0))


def replaced_row(table, check_id):
    """The mutant that offsets side A of row ``check_id`` of ``table``, named
    by the module attribute that holds it."""
    def mutant(monkeypatch):
        if isinstance(table, str):
            monkeypatch.setattr(suites, table, offset_identity(getattr(suites, table)))
        else:
            monkeypatch.setitem(table, check_id, offset_identity(table[check_id]))
    return mutant


# every EQUAL row of every table: its run and the mutant of its side A
IDENTITIES = {
    **{check_id: (suite_run(row.suite), replaced_row(suites.CHECKS, check_id))
       for check_id, row in suites.CHECKS.items() if row.relation == suites.EQUAL},
    **{f"gabor-run:{check_id}": (gabor_run, replaced_row(suites.GABOR_RUN, check_id))
       for check_id, row in suites.GABOR_RUN.items() if row.relation == suites.EQUAL},
    **{f"wavelet-run:{check_id}": (wavelet_run, replaced_row(suites.WAVELET_RUN, check_id))
       for check_id, row in suites.WAVELET_RUN.items() if row.relation == suites.EQUAL},
    "multiplier-run:equals_frame_operator": (multiplier_run(unit=True),
                                             replaced_row("EQUALS_FRAME_OPERATOR", None)),
}


@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_every_identity_fails_with_its_side_offset_by_a_thousand_tolerances(monkeypatch, name):
    run, mutant = IDENTITIES[name]
    check_id = name.split(":")[-1]
    before = verdicts(run())
    assert check_id in before and all(before.values())
    mutant(monkeypatch)
    failed = {c for c, passed in verdicts(run()).items() if not passed}
    assert failed == {check_id}
