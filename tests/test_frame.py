import math

import numpy as np
import pytest

from contframes import frame as fr
from contframes import hilbert as hb
from contframes.errors import (
    InvalidParameterError,
    InvalidSymbolError,
    NotAFrameError,
    NumericFailureError,
    ShapeMismatchError,
)
from contframes.measure import (
    MeasureSpace,
    Symbol,
    counting_space,
    integrate,
    uniform_grid_1d,
)


def random_frame(rng, d, n, space=None):
    if space is None:
        space = MeasureSpace(np.arange(float(n))[:, None], rng.uniform(0.2, 2.0, n))
    return fr.SampledFrame(space, rng.standard_normal((d, n))
                           + 1j * rng.standard_normal((d, n)))


def orthonormal_frame(d):
    return fr.SampledFrame(counting_space(d), np.eye(d, dtype=complex))


# ---------------------------------------------------------------------------
# analysis / synthesis / frame operator
# ---------------------------------------------------------------------------

def test_analysis_on_basis_columns():
    F = orthonormal_frame(4)
    f = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    np.testing.assert_allclose(fr.analysis(F, f), f)
    np.testing.assert_allclose(fr.analysis(F, np.zeros(4)), 0.0)
    with pytest.raises(ShapeMismatchError):
        fr.analysis(F, np.zeros(3))


def test_analysis_energy_between_bounds():
    rng = np.random.default_rng(0)
    for _ in range(20):
        F = random_frame(rng, 5, 24)
        bounds = fr.frame_bounds(F)
        f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        energy = float(np.sum(F.space.weights * np.abs(fr.analysis(F, f)) ** 2))
        nsq = float(np.linalg.norm(f) ** 2)
        assert bounds.lower * nsq - 1e-10 <= energy <= bounds.upper * nsq + 1e-10


def test_synthesis_examples():
    F = orthonormal_frame(4)
    indicator = np.zeros(4)
    indicator[2] = 1.0
    np.testing.assert_allclose(fr.synthesis(F, indicator), F.vectors[:, 2])
    np.testing.assert_allclose(fr.synthesis(F, np.zeros(4)), 0.0)
    with pytest.raises(ShapeMismatchError):
        fr.synthesis(F, np.zeros(5))


def test_synthesis_weak_form():
    # oracle: <synthesis(F, c), h> computed as the integral of c_j <F_j, h>
    rng = np.random.default_rng(1)
    for _ in range(20):
        F = random_frame(rng, 4, 10)
        c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lhs = hb.inner(fr.synthesis(F, c), h)
        samples = [c[j] * hb.inner(F.vectors[:, j], h) for j in range(10)]
        rhs = integrate(F.space, samples)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_frame_operator_orthonormal_columns():
    np.testing.assert_allclose(fr.frame_operator(orthonormal_frame(3)), np.eye(3))


def test_frame_operator_tight_construction():
    # two blocks of mass 0.5 with constant columns e_k / sqrt(0.5)
    space = MeasureSpace([[0.0], [1.0], [2.0], [3.0]], [0.25, 0.25, 0.25, 0.25])
    vectors = np.zeros((2, 4), dtype=complex)
    vectors[0, :2] = 1.0 / math.sqrt(0.5)
    vectors[1, 2:] = 1.0 / math.sqrt(0.5)
    S = fr.frame_operator(fr.SampledFrame(space, vectors))
    np.testing.assert_allclose(S, np.eye(2), atol=1e-15)


def test_frame_operator_equals_composition():
    rng = np.random.default_rng(2)
    for _ in range(50):
        F = random_frame(rng, 6, 30)
        S = fr.frame_operator(F)
        composed = np.column_stack(
            [fr.synthesis(F, fr.analysis(F, e)) for e in np.eye(6)]
        )
        assert np.linalg.norm(S - composed, 2) <= 1e-12 * np.linalg.norm(S, 2)


# ---------------------------------------------------------------------------
# bounds, duals, Riesz property
# ---------------------------------------------------------------------------

def test_frame_bounds_tight():
    bounds = fr.frame_bounds(fr.tight_from_partition(counting_space(10), 4))
    assert bounds.lower == pytest.approx(1.0, abs=1e-12)
    assert bounds.upper == pytest.approx(1.0, abs=1e-12)
    assert bounds.is_frame


def test_zero_column_keeps_bounds():
    rng = np.random.default_rng(3)
    F = random_frame(rng, 3, 12, space=counting_space(12))
    bounds = fr.frame_bounds(F)
    extended_space = counting_space(13)
    extended = fr.SampledFrame(
        extended_space, np.column_stack([F.vectors, np.zeros(3)])
    )
    bounds2 = fr.frame_bounds(extended)
    assert bounds2.lower == pytest.approx(bounds.lower)
    assert bounds2.upper == pytest.approx(bounds.upper)


def test_random_gaussian_frames_have_positive_lower_bound():
    rng = np.random.default_rng(4)
    for _ in range(100):
        F = random_frame(rng, 4, 16, space=counting_space(16))
        assert fr.frame_bounds(F).lower > 0.0


def _oracle_cases():
    rng = np.random.default_rng(21)
    for d in (1, 2, 8, 64):
        for n in sorted({max(d // 2, 1), d, 8 * d}):
            yield random_frame(rng, d, n)
        # weights spanning 1e-8..1e8
        space = MeasureSpace(np.arange(float(4 * d))[:, None],
                             np.logspace(-8, 8, 4 * d))
        yield random_frame(rng, d, 4 * d, space=space)
        # rank deficient for d > 1: columns span a subspace of dimension d // 2
        basis = rng.standard_normal((d, max(d // 2, 1)))
        yield fr.SampledFrame(counting_space(3 * d),
                              basis @ rng.standard_normal((basis.shape[1], 3 * d)))


def test_frame_bounds_equal_the_validated_dense_oracle():
    # frame_bounds skips the Hermiticity check; hermitian_bounds keeps it
    for F in _oracle_cases():
        lower, upper = hb.hermitian_bounds(fr.frame_operator(F))
        bounds = fr.frame_bounds(F)
        assert bounds.upper == upper
        assert bounds.lower == max(lower, 0.0)
        assert bounds.is_frame == (bounds.lower > hb.INVERT_RTOL * upper)


def test_frame_bounds_take_no_svd(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("frame_bounds ran an SVD")

    F = random_frame(np.random.default_rng(22), 8, 64)
    expected = fr.frame_bounds(F)
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    assert fr.frame_bounds(F) == expected


def test_canonical_dual_builds_one_frame_operator_and_no_oracle(monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("hermitian_bounds was called")

    calls = []
    frame_operator = fr.frame_operator

    def counted(F):
        calls.append(F)
        return frame_operator(F)

    monkeypatch.setattr(hb, "hermitian_bounds", no_oracle)
    monkeypatch.setattr(fr, "frame_operator", counted)
    F = random_frame(np.random.default_rng(23), 4, 12)
    dual = fr.canonical_dual(F)
    assert len(calls) == 1
    assert fr.is_dual_pair(F, dual)


def test_overflowing_frame_is_a_numeric_failure():
    F = fr.SampledFrame(counting_space(4), np.full((2, 4), 1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericFailureError):
            fr.frame_bounds(F)
        with pytest.raises(NumericFailureError):
            fr.canonical_dual(F)


def test_norm_bound():
    assert fr.norm_bound(orthonormal_frame(5)) == pytest.approx(1.0)
    rng = np.random.default_rng(5)
    F = random_frame(rng, 4, 9)
    total = math.sqrt(float(np.sum(np.linalg.norm(F.vectors, axis=0) ** 2)))
    assert fr.norm_bound(F) <= total


def test_canonical_dual_of_tight_frame_is_scaled():
    F = fr.weighted(fr.tight_from_partition(counting_space(6), 3),
                    np.full(6, 2.0))  # tight with bound 2
    dual = fr.canonical_dual(F)
    np.testing.assert_allclose(dual.vectors, F.vectors / 2.0, atol=1e-14)


def test_canonical_dual_reconstructs():
    rng = np.random.default_rng(6)
    for _ in range(30):
        F = random_frame(rng, 5, 20)
        dual = fr.canonical_dual(F)
        assert fr.is_dual_pair(F, dual, 1e-10)
        for _ in range(5):
            f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            rec = fr.synthesis(dual, fr.analysis(F, f))
            assert np.linalg.norm(rec - f) <= 1e-10 * np.linalg.norm(f)
            swapped = fr.synthesis(F, fr.analysis(dual, f))
            assert np.linalg.norm(swapped - f) <= 1e-10 * np.linalg.norm(f)


def test_canonical_dual_bounds_are_reciprocal():
    rng = np.random.default_rng(7)
    for _ in range(20):
        F = random_frame(rng, 4, 12)
        bounds = fr.frame_bounds(F)
        dual_bounds = fr.frame_bounds(fr.canonical_dual(F))
        assert dual_bounds.lower == pytest.approx(1.0 / bounds.upper, rel=1e-10)
        assert dual_bounds.upper == pytest.approx(1.0 / bounds.lower, rel=1e-10)


def test_canonical_dual_requires_frame():
    space = counting_space(4)
    flat = fr.SampledFrame(space, np.ones((2, 4), dtype=complex))
    with pytest.raises(NotAFrameError):
        fr.canonical_dual(flat)


def test_is_dual_pair_examples():
    F = orthonormal_frame(4)
    assert fr.is_dual_pair(F, F, 1e-10)
    doubled = fr.SampledFrame(F.space, 2.0 * F.vectors)
    assert not fr.is_dual_pair(F, doubled, 1e-6)
    other = orthonormal_frame(5)
    with pytest.raises(ShapeMismatchError):
        fr.is_dual_pair(F, other)


def test_is_riesz_type():
    space = counting_space(2)
    good = fr.SampledFrame(space, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    assert fr.is_riesz_type(good)

    overcomplete = fr.SampledFrame(
        counting_space(3),
        np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], dtype=complex),
    )
    assert not fr.is_riesz_type(overcomplete)

    rng = np.random.default_rng(8)
    for _ in range(50):
        F = random_frame(rng, 4, 4, space=counting_space(4))
        if fr.frame_bounds(F).is_frame:
            assert fr.is_riesz_type(F)


def test_frame_completeness():
    rng = np.random.default_rng(9)
    for _ in range(20):
        F = random_frame(rng, 4, 10)
        if fr.frame_bounds(F).is_frame:
            assert np.linalg.matrix_rank(F.vectors) == 4


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def test_tight_from_partition_counting():
    F = fr.tight_from_partition(counting_space(4), 2)
    expected = np.zeros((2, 4))
    expected[0, :2] = 1.0 / math.sqrt(2.0)
    expected[1, 2:] = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(F.vectors, expected)
    np.testing.assert_allclose(fr.frame_operator(F), np.eye(2), atol=1e-15)


def test_tight_from_partition_singletons():
    rng = np.random.default_rng(10)
    space = MeasureSpace(np.arange(5.0)[:, None], rng.uniform(0.2, 3.0, 5))
    F = fr.tight_from_partition(space, 5)
    np.testing.assert_allclose(
        F.vectors, np.diag(1.0 / np.sqrt(space.weights)), atol=1e-15
    )
    np.testing.assert_allclose(fr.frame_operator(F), np.eye(5), atol=1e-12)


def test_tight_from_partition_random_spaces():
    rng = np.random.default_rng(11)
    for n, k in [(8, 3), (20, 7), (13, 13)]:
        space = MeasureSpace(np.arange(float(n))[:, None], rng.uniform(0.1, 2.0, n))
        bounds = fr.frame_bounds(fr.tight_from_partition(space, k))
        assert abs(bounds.lower - 1.0) <= 1e-12
        assert abs(bounds.upper - 1.0) <= 1e-12


def test_tight_from_partition_requires_matching_dim():
    with pytest.raises(InvalidParameterError):
        fr.tight_from_partition(counting_space(6), 3, d=4)


def test_scaled_singleton_bessel_cap_and_rank():
    rng = np.random.default_rng(12)
    h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    grid = uniform_grid_1d(0.0, 1.0, 200)
    F = fr.scaled_singleton(grid, h)
    quad = float(np.sum(grid.weights * fr.unbounded_amplitude(grid.points[:, 0]) ** 2))
    cap = float(np.linalg.norm(h) ** 2) * quad
    assert fr.frame_bounds(F).upper <= cap + 1e-10
    assert np.linalg.matrix_rank(fr.frame_operator(F)) == 1


def test_scaled_singleton_norms_grow_as_fourth_root():
    h = np.array([1.0, 0.0], dtype=complex)
    norms = [
        fr.norm_bound(fr.scaled_singleton(uniform_grid_1d(0.0, 1.0, n), h))
        for n in (100, 1000, 10000)
    ]
    assert norms[0] < norms[1] < norms[2]
    # amplitude at the smallest midpoint 1/(2n) scales like n**(1/4)
    for a, b in zip(norms, norms[1:]):
        assert b / a == pytest.approx(10.0 ** 0.25, rel=1e-2)


def test_scaled_singleton_rejects_zero_vector():
    with pytest.raises(InvalidParameterError):
        fr.scaled_singleton(uniform_grid_1d(0.0, 1.0, 4), np.zeros(3))


def test_unbounded_amplitude_branches():
    x = np.array([0.0, 0.25, 2.0])
    np.testing.assert_allclose(
        fr.unbounded_amplitude(x),
        [0.0, (1.0 / math.sqrt(0.25)) ** 0.5, (1.0 / 4.0) ** 0.5],
    )


def test_perturb_bounds():
    rng = np.random.default_rng(13)
    for _ in range(25):
        G = random_frame(rng, 4, 16)
        F = random_frame(rng, 4, 16, space=G.space)
        ag = fr.frame_bounds(G).lower
        bg = fr.frame_bounds(G).upper
        bf = fr.frame_bounds(F).upper
        eps = 0.5 * math.sqrt(ag / bf)
        bounds = fr.frame_bounds(fr.perturb(G, F, eps))
        assert bounds.lower >= (math.sqrt(ag) - eps * math.sqrt(bf)) ** 2 - 1e-10
        assert bounds.upper <= 2.0 * (bg + eps**2 * bf) + 1e-10


def test_perturb_zero_frame_is_identity():
    rng = np.random.default_rng(14)
    G = random_frame(rng, 3, 9)
    zero = fr.SampledFrame(G.space, np.zeros_like(G.vectors))
    np.testing.assert_array_equal(fr.perturb(G, zero, 0.3).vectors, G.vectors)
    with pytest.raises(InvalidParameterError):
        fr.perturb(G, zero, 0.0)


def test_weighted():
    rng = np.random.default_rng(15)
    F = random_frame(rng, 3, 10)
    np.testing.assert_array_equal(fr.weighted(F, np.ones(10)).vectors, F.vectors)

    bounds = fr.frame_bounds(F)
    scaled = fr.frame_bounds(fr.weighted(F, np.full(10, 4.0)))
    assert scaled.lower == pytest.approx(4.0 * bounds.lower, rel=1e-12)
    assert scaled.upper == pytest.approx(4.0 * bounds.upper, rel=1e-12)

    with pytest.raises(InvalidSymbolError):
        fr.weighted(F, np.full(10, -1.0))
    with pytest.raises(InvalidSymbolError):
        fr.weighted(F, np.full(10, 1.0 + 1e-3j))


def test_discrete_bessel_norm_bound():
    rng = np.random.default_rng(16)
    for _ in range(20):
        F = random_frame(rng, 4, 12, space=counting_space(12))
        cap = math.sqrt(fr.frame_bounds(F).upper)
        assert fr.norm_bound(F) <= cap + 1e-10


def test_frame_iff_invertible_cross_check():
    rng = np.random.default_rng(17)
    for i in range(40):
        if i % 2:
            basis = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
            coeff = rng.standard_normal((3, 10))
            F = fr.SampledFrame(counting_space(10), basis @ coeff)
        else:
            F = random_frame(rng, 4, 10)
        invertible = True
        try:
            hb.invert(fr.frame_operator(F))
        except Exception:
            invertible = False
        assert fr.frame_bounds(F).is_frame == invertible


def test_weighted_frame_equals_multiplier():
    from contframes.multiplier import multiplier

    rng = np.random.default_rng(18)
    for _ in range(20):
        F = random_frame(rng, 4, 14)
        m = Symbol(rng.uniform(0.0, 2.0, 14).astype(complex), F.space)
        lhs = fr.frame_operator(fr.weighted(F, m))
        rhs = multiplier(m, F, F)
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-12 * max(1.0, np.linalg.norm(lhs, 2))


# ---------------------------------------------------------------------------
# the weighted Gram kernel against the dense expressions it replaced
# ---------------------------------------------------------------------------

def bits(a):
    """Float view of a complex array: np.array_equal on it compares every real
    and imaginary part exactly (treating -0.0 and 0.0 as equal)."""
    return np.ascontiguousarray(a).view(float)


@pytest.mark.parametrize("d,n", [(1, 1), (8, 64), (64, 4096)])
@pytest.mark.parametrize("complex_c", [False, True])
@pytest.mark.parametrize("same", [True, False])
def test_weighted_gram_equals_the_dense_product(d, n, complex_c, same):
    rng = np.random.default_rng([19, d, n])
    X = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
    Y = X if same else rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
    c = rng.uniform(0.2, 2.0, n)
    if complex_c:
        c = c * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    oracle = (X * c) @ Y.conj().T
    assert np.array_equal(bits(fr.weighted_gram(X, c, Y)), bits(oracle))


@pytest.mark.parametrize("d,n", [(1, 1), (8, 64), (64, 4096)])
def test_frame_operator_and_duality_defect_match_the_dense_products(d, n):
    rng = np.random.default_rng([20, d, n])
    F = random_frame(rng, d, n)
    G = random_frame(rng, d, n, space=F.space)
    w = F.space.weights
    S = (F.vectors * w) @ F.vectors.conj().T
    assert np.array_equal(bits(fr.frame_operator(F)), bits(S))
    defect = float(np.linalg.norm((G.vectors * w) @ F.vectors.conj().T - np.eye(d), "fro"))
    assert fr.duality_defect(F, G) == defect


@pytest.mark.parametrize("d,n", [(1, 1), (8, 64), (64, 4096)])
def test_analysis_equals_the_dense_product(d, n):
    rng = np.random.default_rng([21, d, n])
    F = random_frame(rng, d, n)
    f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    assert np.array_equal(bits(fr.analysis(F, f)), bits(F.vectors.conj().T @ f))


def test_perturb_equals_the_dense_sum():
    rng = np.random.default_rng(22)
    G = random_frame(rng, 8, 64)
    F = random_frame(rng, 8, 64, space=G.space)
    assert np.array_equal(bits(fr.perturb(G, F, 0.3).vectors),
                          bits(G.vectors + 0.3 * F.vectors))


def test_frame_operator_is_computed_once_and_read_only(monkeypatch):
    calls = []
    weighted_gram = fr.weighted_gram

    def counted(X, c, Y):
        calls.append(X)
        return weighted_gram(X, c, Y)

    monkeypatch.setattr(fr, "weighted_gram", counted)
    F = random_frame(np.random.default_rng(24), 4, 12)
    S = fr.frame_operator(F)
    assert fr.frame_operator(F) is S
    assert len(calls) == 1
    with pytest.raises(ValueError):
        S[0, 0] = 0.0
    with pytest.raises(ValueError):
        S += 1.0


def test_cached_frame_operator_cannot_go_stale_through_a_callers_array():
    rng = np.random.default_rng(26)
    vectors = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    weights = rng.uniform(0.2, 2.0, 8)
    F = fr.SampledFrame(MeasureSpace(np.arange(8.0), weights), vectors[:, :])
    S = fr.frame_operator(F).copy()
    vectors[0, 0] = 100.0
    weights[1] = 100.0
    assert F.vectors[0, 0] != 100.0 and F.space.weights[1] != 100.0
    assert np.array_equal(bits(fr.frame_operator(F)), bits(S))
    assert np.array_equal(bits(S), bits((F.vectors * F.space.weights) @ F.vectors.conj().T))
