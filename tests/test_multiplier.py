import math
import types

import numpy as np
import pytest

from contframes import hilbert as hb
from contframes.errors import (
    InvalidParameterError,
    NotInvertibleError,
    ShapeMismatchError,
)
from contframes.frame import SampledFrame, frame_bounds, frame_operator, norm_bound
from contframes.measure import MeasureSpace, Symbol, counting_space, lp_norm
from contframes.multiplier import (
    FRAME_PARTS,
    bound_budget,
    convergence_experiment,
    diag_singular_values,
    dual_from_multiplier,
    lower_bound_certificates,
    multiplier,
    schatten_budget,
    truncate_symbol,
)


def test_the_package_attribute_multiplier_is_the_module():
    # the package does not export the function, which would shadow the
    # submodule of the same name
    import contframes

    assert isinstance(contframes.multiplier, types.ModuleType)
    assert contframes.multiplier.multiplier is multiplier


def random_instance(seed, d=5, n=20):
    rng = np.random.default_rng(seed)
    space = MeasureSpace(np.arange(float(n))[:, None], rng.uniform(0.2, 2.0, n))
    F = SampledFrame(space, rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)))
    G = SampledFrame(space, rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)))
    m = Symbol(rng.standard_normal(n) + 1j * rng.standard_normal(n), space)
    return m, F, G


def brute_force_multiplier(m, F, G):
    # independent assembly: explicit triple loop over point, row, column
    d, n = F.dim, F.space.n_points
    out = np.zeros((d, d), dtype=complex)
    for j in range(n):
        w = F.space.weights[j]
        for r in range(d):
            for c in range(d):
                out[r, c] += w * m.values[j] * G.vectors[r, j] * np.conj(F.vectors[c, j])
    return out


def test_multiplier_matches_brute_force():
    for seed in range(5):
        m, F, G = random_instance(seed, d=3, n=8)
        fast = multiplier(m, F, G)
        slow = brute_force_multiplier(m, F, G)
        assert np.max(np.abs(fast - slow)) <= 1e-12 * max(1.0, np.max(np.abs(slow)))


@pytest.mark.parametrize("d,n", [(1, 1), (8, 64), (64, 4096)])
def test_multiplier_equals_the_dense_product(d, n):
    m, F, G = random_instance(d + n, d=d, n=n)
    dense = (G.vectors * (F.space.weights * m.values)) @ F.vectors.conj().T
    assert np.array_equal(multiplier(m, F, G).view(float), dense.view(float))


def test_multiplier_weak_form():
    rng = np.random.default_rng(42)
    m, F, G = random_instance(7, d=4, n=12)
    M = multiplier(m, F, G)
    for _ in range(10):
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lhs = hb.inner(M @ f, g)
        rhs = sum(
            F.space.weights[j] * m.values[j]
            * hb.inner(f, F.vectors[:, j]) * hb.inner(G.vectors[:, j], g)
            for j in range(12)
        )
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_unit_symbol_gives_frame_operator():
    _, F, _ = random_instance(1)
    M = multiplier(np.ones(20), F, F)
    S = frame_operator(F)
    assert np.linalg.norm(M - S, 2) <= 1e-14 * np.linalg.norm(S, 2)


def test_indicator_symbol_gives_rank_one():
    _, F, G = random_instance(2, d=4, n=10)
    F = SampledFrame(counting_space(10), F.vectors)
    G = SampledFrame(counting_space(10), G.vectors)
    indicator = np.zeros(10)
    indicator[3] = 1.0
    M = multiplier(indicator, F, G)
    expected = np.outer(G.vectors[:, 3], F.vectors[:, 3].conj())
    np.testing.assert_allclose(M, expected, atol=1e-14)


def test_multiplier_shape_checks():
    m, F, G = random_instance(3)
    other = SampledFrame(counting_space(20), np.ones((5, 20), dtype=complex))
    with pytest.raises(ShapeMismatchError):
        multiplier(m, F, other)
    small = SampledFrame(F.space, F.vectors[:3])
    with pytest.raises(ShapeMismatchError):
        multiplier(m, F, small)


def test_adjoint_identity():
    for seed in range(20):
        m, F, G = random_instance(seed)
        M = multiplier(m, F, G)
        other = multiplier(m.values.conj(), G, F)
        defect = np.linalg.norm(M.conj().T - other, 2)
        assert defect <= 1e-12 * max(1.0, np.linalg.norm(M, 2))


def test_difference_identities():
    rng = np.random.default_rng(9)
    for seed in range(20):
        m, F, G = random_instance(seed)
        m2 = Symbol(rng.standard_normal(20) + 1j * rng.standard_normal(20), F.space)
        F2 = SampledFrame(F.space, rng.standard_normal((5, 20))
                          + 1j * rng.standard_normal((5, 20)))
        G2 = SampledFrame(F.space, rng.standard_normal((5, 20))
                          + 1j * rng.standard_normal((5, 20)))
        d1 = multiplier(m, F, G) - multiplier(m2, F, G) \
            - multiplier(m.values - m2.values, F, G)
        d2 = multiplier(m, F, G) - multiplier(m, F2, G) \
            - multiplier(m, SampledFrame(F.space, F.vectors - F2.vectors), G)
        d3 = multiplier(m, F, G) - multiplier(m, F, G2) \
            - multiplier(m, F, SampledFrame(F.space, G.vectors - G2.vectors))
        for diff in (d1, d2, d3):
            assert np.max(np.abs(diff)) <= 1e-12


def test_positive_symbol_positivity_and_coercivity():
    rng = np.random.default_rng(10)
    for seed in range(10):
        _, F, _ = random_instance(seed)
        delta = float(rng.uniform(0.2, 1.0))
        m = Symbol(rng.uniform(delta, delta + 3.0, 20).astype(complex), F.space)
        M = multiplier(m, F, F)
        assert hb.is_positive(M, 1e-10)
        lam_min = hb.hermitian_bounds(M)[0]
        assert lam_min >= delta * frame_bounds(F).lower - 1e-10
        hb.invert(M)  # invertible by the same coercivity


def test_diag_singular_values():
    assert diag_singular_values([1j, -2.0]).tolist() == [2.0, 1.0]
    m, F, _ = random_instance(4)
    assert diag_singular_values(m)[0] == pytest.approx(lp_norm(F.space, m, math.inf))
    flat = diag_singular_values(np.full(7, 3.0 - 4.0j))
    np.testing.assert_allclose(flat, 5.0)


def test_bound_budget_dominates():
    for seed in range(50):
        m, F, G = random_instance(seed)
        actuals, budgets = bound_budget(m, F, G)
        assert list(actuals) == list(budgets) == [1.0, 1.5, 2.0, 3.0, math.inf]
        for p, actual in actuals.items():
            assert actual <= budgets[p] + 1e-10


def test_bound_budget_limit_cases():
    m, F, G = random_instance(0)
    _, budgets = bound_budget(m, F, G)
    # the operator-norm and trace budgets are those at p = inf and p = 1
    bf, bg = frame_bounds(F).upper, frame_bounds(G).upper
    expected = lp_norm(F.space, m, math.inf) * math.sqrt(bf * bg)
    assert budgets[math.inf] == pytest.approx(expected)
    expected_trace = lp_norm(F.space, m, 1.0) * norm_bound(F) * norm_bound(G)
    assert budgets[1.0] == pytest.approx(expected_trace)
    # a subset of the exponents gives the same budgets
    assert bound_budget(m, F, G, ps=(1.0,))[1] == {1.0: budgets[1.0]}


def test_schatten_budget_rejects_bad_p():
    with pytest.raises(InvalidParameterError):
        schatten_budget(0.5, 1.0, 1.0, 1.0, 1.0, 1.0)


def test_truncate_symbol():
    m, F, _ = random_instance(5)
    full = truncate_symbol(m, range(20))
    np.testing.assert_array_equal(full.values, m.values)
    empty = truncate_symbol(m, [])
    np.testing.assert_array_equal(empty.values, 0.0)
    with pytest.raises(ShapeMismatchError):
        truncate_symbol(m, [25])


def test_truncation_budget_for_nested_keeps():
    for seed in range(10):
        m, F, G = random_instance(seed)
        M = multiplier(m, F, G)
        bf, bg = frame_bounds(F).upper, frame_bounds(G).upper
        order = np.argsort(np.abs(m.values))[::-1]
        for cut in (5, 10, 15, 20):
            mn = truncate_symbol(m, order[:cut])
            defect = np.linalg.norm(multiplier(mn, F, G) - M, 2)
            cap = lp_norm(F.space, m.values - mn.values, math.inf) * math.sqrt(bf * bg)
            assert defect <= cap + 1e-10


def test_dual_from_multiplier_identity_case():
    F = SampledFrame(counting_space(4), np.eye(4, dtype=complex))
    H = dual_from_multiplier(np.ones(4), F, F)
    np.testing.assert_allclose(H.vectors, F.vectors, atol=1e-14)

    # constant symbol: the inverse multiplier cancels the scalar exactly
    H2 = dual_from_multiplier(np.full(4, 2.0), F, F)
    np.testing.assert_allclose(H2.vectors, F.vectors, atol=1e-14)


def test_dual_from_multiplier_random():
    count = 0
    for seed in range(60):
        m, F, G = random_instance(seed)
        sigma = hb.singular_values(multiplier(m, F, G))
        if sigma[-1] <= 1e-6 * sigma[0]:
            continue
        H = dual_from_multiplier(m, F, G)
        op = (G.vectors * F.space.weights) @ H.vectors.conj().T
        assert np.linalg.norm(op - np.eye(5), 2) <= 1e-9
        count += 1
    assert count >= 50


def test_dual_from_multiplier_rejects_singular():
    _, F, G = random_instance(6)
    with pytest.raises(NotInvertibleError):
        dual_from_multiplier(np.zeros(20), F, G)


def certificates_hold(measured, floors, tol=1e-10):
    # a frame part holds above its floor, any other at least at it less tol
    return all(value > floor if frame_part else value >= floor - tol
               for value, floor, frame_part in zip(measured, floors, FRAME_PARTS))


def test_certificates_parseval_equality():
    F = SampledFrame(counting_space(3), np.eye(3, dtype=complex))
    measured, floors = lower_bound_certificates(np.ones(3), F, F)
    assert measured.shape == floors.shape == (5,)
    assert certificates_hold(measured, floors)
    assert floors[0] == pytest.approx(1.0)
    assert measured[0] == pytest.approx(1.0)


def test_certificates_scaling():
    F = SampledFrame(counting_space(3), np.eye(3, dtype=complex))
    c = 2.5
    measured, floors = lower_bound_certificates(np.full(3, c), F, F)
    assert certificates_hold(measured, floors)
    # weighted family has bound c^2; inverse norm is 1/c, so the floor is c^2
    assert measured[0] == pytest.approx(c**2)
    assert floors[0] == pytest.approx(c**2)


def test_certificates_random_instances():
    passed = 0
    for seed in range(40):
        m, F, G = random_instance(seed)
        sigma = hb.singular_values(multiplier(m, F, G))
        if sigma[-1] <= 1e-6 * sigma[0]:
            continue
        measured, floors = lower_bound_certificates(m, F, G)
        assert certificates_hold(measured, floors)
        assert measured[0] >= floors[0] - 1e-10
        passed += 1
    assert passed >= 30


def test_certificates_degenerate_symbol_flag():
    F = SampledFrame(counting_space(3), np.eye(3, dtype=complex))
    # invertible multiplier is impossible with a zero symbol, so sup|m| > 0
    # and the floor of part 4 is finite, even for a tiny symbol
    measured, floors = lower_bound_certificates(np.full(3, 1e-8), F, F)
    assert np.all(np.isfinite(floors))
    assert floors[3] == pytest.approx(measured[3])
    with pytest.raises(NotInvertibleError):
        lower_bound_certificates(np.zeros(3), F, F)


def test_certificates_frame_parts_fail_below_the_frame_cutoff():
    # M = F^* is invertible (condition 1e7), but the lower bound 1e-14 of F
    # lies under the frame cutoff 1e-12: the bound certificates hold, the
    # frame parts 3 and 5 measure a negative margin and fail
    space = counting_space(3)
    F = SampledFrame(space, np.diag([1.0, 1.0, 1e-7]).astype(complex))
    G = SampledFrame(space, np.eye(3, dtype=complex))
    measured, floors = lower_bound_certificates(np.ones(3), F, G)
    assert [value >= floor - 1e-10 for value, floor in zip(measured, floors)] == [True] * 5
    assert measured[2] < 0.0 and measured[4] < 0.0
    assert FRAME_PARTS == (False, False, True, False, True)
    assert not certificates_hold(measured, floors)


def test_convergence_symbol_p():
    m, F, G = random_instance(8)
    rng = np.random.default_rng(8)
    bump = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    schedule = [Symbol(m.values + bump / n, F.space) for n in (1, 2, 4, 8)]
    for p in (1.0, 2.0, math.inf):
        eps, measured, budget = convergence_experiment("symbol_p", m, F, G, schedule, p=p)
        assert eps.shape == measured.shape == budget.shape == (4,)
        assert np.all(measured <= budget + 1e-10)
        assert np.all(np.diff(measured) <= 1e-10)
        assert measured[-1] < measured[0]


def test_convergence_symbol_budget_formula():
    m, F, G = random_instance(11)
    unit = np.zeros(20)
    unit[4] = 1.0  # sup-norm one bump
    schedule = [Symbol(m.values + unit / n, F.space) for n in (1, 2, 4)]
    _, measured, budgets = convergence_experiment("symbol_p", m, F, G, schedule, p=math.inf)
    bf, bg = frame_bounds(F).upper, frame_bounds(G).upper
    for n, deviation, budget in zip((1, 2, 4), measured, budgets):
        assert budget == pytest.approx(math.sqrt(bf * bg) / n, rel=1e-12)
        assert deviation <= budget + 1e-10


def test_convergence_frame_kinds():
    m, F, G = random_instance(9)
    rng = np.random.default_rng(9)
    bump = rng.standard_normal((5, 20)) + 1j * rng.standard_normal((5, 20))
    schedule = [SampledFrame(F.space, F.vectors + bump / n) for n in (1, 2, 4, 8)]
    for kind in ("frame_uniform_L2", "frame_uniform_L1"):
        _, measured, budget = convergence_experiment(kind, m, F, G, schedule)
        assert np.all(measured <= budget + 1e-10)
        assert np.all(np.diff(measured) <= 1e-10)


def test_convergence_frame_budget_formulas():
    m, F, G = random_instance(12)
    rng = np.random.default_rng(12)
    bump = rng.standard_normal((5, 20)) + 1j * rng.standard_normal((5, 20))
    schedule = [SampledFrame(F.space, F.vectors + bump / 3.0)]
    eps = float(np.max(np.linalg.norm(bump / 3.0, axis=0)))
    distance, _, l2 = convergence_experiment("frame_uniform_L2", m, F, G, schedule)
    assert distance[0] == pytest.approx(eps)
    assert l2[0] == pytest.approx(
        eps * lp_norm(F.space, m, 2.0) * math.sqrt(frame_bounds(G).upper))
    _, _, l1 = convergence_experiment("frame_uniform_L1", m, F, G, schedule)
    assert l1[0] == pytest.approx(eps * lp_norm(F.space, m, 1.0) * norm_bound(G))


def test_convergence_rejects_bad_input():
    m, F, G = random_instance(10)
    with pytest.raises(InvalidParameterError):
        convergence_experiment("symbol_p", m, F, G, [], p=2.0)
    with pytest.raises(InvalidParameterError):
        convergence_experiment("nonsense", m, F, G, [m], p=2.0)
    with pytest.raises(InvalidParameterError):
        convergence_experiment("symbol_p", m, F, G, [m])
    # the frame kinds fix their norms: a p would reach nothing
    for kind in ("frame_uniform_L2", "frame_uniform_L1"):
        with pytest.raises(InvalidParameterError, match="take no p"):
            convergence_experiment(kind, m, F, G, [F], p=1.5)
