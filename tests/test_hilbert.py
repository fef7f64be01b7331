import math

import numpy as np
import pytest

from contframes import hilbert as hb
from contframes.errors import (
    ContractViolationError,
    InvalidParameterError,
    NotInvertibleError,
    NumericFailureError,
    ShapeMismatchError,
)


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_inner_examples():
    assert hb.inner([1, 0], [0, 1]) == 0
    assert hb.inner([1, 1j], [1, 1j]) == pytest.approx(2.0)
    with pytest.raises(ShapeMismatchError):
        hb.inner([1, 0], [1, 0, 0])
    # a stack of pairs gives, pair by pair, the value of np.vdot on that pair
    rng = np.random.default_rng(2)
    for d in (1, 4, 8, 16, 64):
        x = rng.standard_normal((7, d)) + 1j * rng.standard_normal((7, d))
        y = rng.standard_normal((7, d)) + 1j * rng.standard_normal((7, d))
        stacked = hb.inner(x, y)
        assert stacked.shape == (7,)
        assert stacked.tolist() == [complex(np.vdot(b, a)) for a, b in zip(x, y)]
        assert stacked.tolist() == [hb.inner(a, b) for a, b in zip(x, y)]


def test_inner_linear_first_argument():
    rng = np.random.default_rng(0)
    for _ in range(30):
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        a = complex(rng.standard_normal(), rng.standard_normal())
        direct = sum((a * xi) * np.conj(yi) for xi, yi in zip(x, y))
        assert abs(hb.inner(a * x, y) - direct) <= 1e-12 * max(1.0, abs(direct))
        assert abs(hb.inner(a * x, y) - a * hb.inner(x, y)) <= 1e-12


def test_adjoint():
    assert np.array_equal(hb.adjoint(np.eye(3)), np.eye(3))
    rng = np.random.default_rng(1)
    T = random_matrix(rng, 4)
    assert np.array_equal(hb.adjoint(hb.adjoint(T)), T)
    for _ in range(20):
        T = random_matrix(rng, 4)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lhs = hb.inner(T @ x, y)
        rhs = hb.inner(x, hb.adjoint(T) @ y)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_singular_values_examples():
    np.testing.assert_allclose(hb.singular_values(np.diag([3.0, 4.0j])), [4.0, 3.0])
    np.testing.assert_allclose(hb.singular_values(np.eye(5)), np.ones(5))

    rng = np.random.default_rng(2)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    s = hb.singular_values(np.outer(x, y.conj()))
    assert s[0] == pytest.approx(np.linalg.norm(x) * np.linalg.norm(y))
    np.testing.assert_allclose(s[1:], 0.0, atol=1e-12)


def test_schatten_norm_examples():
    T = np.diag([1.0, 2.0, 3.0])
    assert hb.schatten_norm(T, 1.0) == pytest.approx(6.0)
    assert hb.schatten_norm(T, math.inf) == pytest.approx(3.0)
    with pytest.raises(InvalidParameterError):
        hb.schatten_norm(T, 0.9)


def test_schatten_2_matches_frobenius_sum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        T = random_matrix(rng, 6)
        frob_sq = float(np.sum(np.abs(T) ** 2))
        assert hb.schatten_norm(T, 2.0) ** 2 == pytest.approx(frob_sq, rel=1e-10)


def test_schatten_nonincreasing_in_p():
    rng = np.random.default_rng(4)
    for _ in range(20):
        T = random_matrix(rng, 5)
        norms = [hb.schatten_norm(T, p) for p in (1.0, 1.5, 2.0, 3.0, math.inf)]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_hermitian_bounds_examples():
    assert hb.hermitian_bounds(np.eye(3)) == (pytest.approx(1.0), pytest.approx(1.0))
    lo, hi = hb.hermitian_bounds(np.diag([2.0, 5.0]))
    assert (lo, hi) == (pytest.approx(2.0), pytest.approx(5.0))
    with pytest.raises(ContractViolationError):
        hb.hermitian_bounds(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_bounds_pin_quadratic_form():
    rng = np.random.default_rng(5)
    A = random_matrix(rng, 6)
    T = A + A.conj().T
    lo, hi = hb.hermitian_bounds(T)
    for _ in range(100):
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        q = hb.inner(T @ x, x).real
        nsq = float(np.linalg.norm(x) ** 2)
        assert lo * nsq - 1e-10 <= q <= hi * nsq + 1e-10


def test_extreme_eigenvalues_use_the_hermitian_part_without_checking():
    # no Hermiticity check: a nilpotent input gives the bounds of (T + T^*)/2
    lo, hi = hb.extreme_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert (lo, hi) == (pytest.approx(-0.5), pytest.approx(0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_extreme_eigenvalues_reject_non_finite(bad):
    T = np.eye(3, dtype=complex)
    T[1, 2] = bad
    with pytest.raises(NumericFailureError):
        hb.extreme_eigenvalues(T)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_singular_values_reject_non_finite_as_the_eigen_solves_do(bad):
    # one test refuses the operator before LAPACK sees it, in a stack too
    T = np.stack([np.eye(3, dtype=complex)] * 2)
    T[1, 1, 2] = bad
    for spectrum in (hb.extreme_eigenvalues, hb.singular_values, hb._require_finite):
        with pytest.raises(NumericFailureError, match="^operator has non-finite entries$"):
            spectrum(T)
    finite = T[0]
    assert hb._require_finite(finite) is finite


# scales far below and far above 1: the tests are relative to the norm of
# the operator, so the verdicts are those at scale 1
SCALES = [1e-20, 1.0, 1e20]


@pytest.mark.parametrize("c", SCALES)
def test_is_positive(c):
    assert hb.is_positive(c * np.eye(4), 1e-12)
    assert not hb.is_positive(c * np.diag([1.0, -1.0]), 1e-12)
    assert not hb.is_positive(np.diag([-c, c]), 1e-12)
    assert hb.nonnegative_spectrum(-1e-13 * c, c, 1e-12)
    assert not hb.nonnegative_spectrum(-1e-11 * c, c, 1e-12)
    rng = np.random.default_rng(6)
    V = rng.standard_normal((4, 12)) + 1j * rng.standard_normal((4, 12))
    w = rng.uniform(0.1, 2.0, 12)
    assert hb.is_positive(c * (V * w) @ V.conj().T, 1e-10)
    # non-Hermitian input is simply not positive
    assert not hb.is_positive(c * np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-12)
    assert not hb.is_positive(np.array([[c, c], [0.0, c]]), 1e-12)


@pytest.mark.filterwarnings("error")
def test_norms_past_the_float_range_of_their_squares_stay_finite():
    # squares of entries above 1e154 overflow, and those below 1e-154 lose
    # digits or vanish; the vector scaled by a power of two gives the norm
    # exactly, each vector of a stack its own, and no warning is raised
    big = 2.0**600
    x = np.array([[3.0 * big, 4j * big], [3.0, 4.0], [np.inf, 1.0], [3.0 / big, 4j / big]])
    assert hb.norm(x).tolist() == [5.0 * big, 5.0, math.inf, 5.0 / big]
    assert hb.norm(x).tolist() == [hb.norm(v) for v in x]
    assert hb.frobenius_norm(np.full((2, 2), 1e300)) == 2e300
    assert hb.norm([1e-200, 0.0]) == 1e-200
    assert hb.norm([3e-160, 4e-160]) == pytest.approx(5e-160, rel=4 * np.finfo(float).eps)
    assert hb.frobenius_norm(np.full((2, 2), 1e-170)) == pytest.approx(
        2e-170, rel=4 * np.finfo(float).eps)
    assert hb.norm(np.zeros((2, 3))).tolist() == [0.0, 0.0]
    # below 2^-1024 too, where 2^-e of the largest entry overflows
    assert hb.norm([5e-324, 0.0]) == 5e-324
    assert hb.frobenius_norm(np.full((2, 2), 5e-324)) == 1e-323


def positivity_cases(rng, d):
    """A stack of positive, negative, indefinite and skewed operators."""
    V = rng.standard_normal((6, d, 3 * d)) + 1j * rng.standard_normal((6, d, 3 * d))
    T = V @ V.conj().swapaxes(-1, -2)
    skew = random_matrix(rng, d)
    skew = skew - skew.conj().T
    T[1] = -T[1]
    T[2] = T[2] - np.linalg.eigvalsh(T[2])[-1] / 2 * np.eye(d)
    T[3] = T[3] + 1e-6 * skew
    T[4] = T[4] + 1e-13 * skew
    return T


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("d", [1, 4, 8])
def test_is_hermitian_and_is_positive_take_given_extremes_and_no_svd(monkeypatch, d, c):
    T = c * positivity_cases(np.random.default_rng(12), d)
    assert not hb.is_hermitian(np.array([[c, c], [0.0, c]]), 1e-10)
    assert hb.is_hermitian(np.array([[c, 1e-12j * c], [-1e-12j * c, c]]), 1e-10)
    extremes = hb.extreme_eigenvalues(T)

    def no_svd(*args, **kwargs):
        raise AssertionError("svd was called")

    solves = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(a.shape) or eigvalsh(a))
    for test in (hb.is_hermitian, hb.is_positive):
        computed = test(T, 1e-10)
        # the extremes the caller holds give the same verdicts with no solve
        assert solves == [T.shape]
        assert test(T, 1e-10, extremes).tolist() == computed.tolist()
        assert solves == [T.shape]
        solves.clear()
        # each operator of a stack gets the verdict a call on it alone would
        assert computed.tolist() == [test(t, 1e-10) for t in T] == [
            test(t, 1e-10, (lower, upper)) for t, lower, upper in zip(T, *extremes)]
        solves.clear()
    assert hb.is_hermitian(T, 1e-10).tolist() == [True, True, True, False, True, True]
    # at d = 1 the shifted operator is half of a positive one
    assert hb.is_positive(T, 1e-10).tolist() == [True, False, d == 1, False, True, True]


def test_invert():
    np.testing.assert_allclose(hb.invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))
    np.testing.assert_allclose(hb.invert(np.eye(3)), np.eye(3))
    with pytest.raises(NotInvertibleError) as info:
        hb.invert(np.diag([1.0, 0.0]))
    assert info.value.smallest_singular_value == 0.0


def test_invert_residual_contract():
    rng = np.random.default_rng(7)
    for _ in range(20):
        T = random_matrix(rng, 6) + 3.0 * np.eye(6)
        resid = np.linalg.norm(T @ hb.invert(T) - np.eye(6), 2)
        assert resid <= 1e-10 * np.linalg.norm(T, 2)


def test_adjoint_antihomomorphism():
    rng = np.random.default_rng(9)
    for _ in range(20):
        A, B = random_matrix(rng, 5), random_matrix(rng, 5)
        lhs = hb.adjoint(A @ B)
        rhs = hb.adjoint(B) @ hb.adjoint(A)
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-12 * np.linalg.norm(lhs, 2)


def test_unitary_invariance_of_singular_values():
    rng = np.random.default_rng(10)
    for _ in range(10):
        T = random_matrix(rng, 6)
        U, _ = np.linalg.qr(random_matrix(rng, 6))
        V, _ = np.linalg.qr(random_matrix(rng, 6))
        np.testing.assert_allclose(
            hb.singular_values(U @ T @ V), hb.singular_values(T), atol=1e-10
        )


def test_hermitian_positive_bounds_match_singular_values():
    rng = np.random.default_rng(11)
    V = rng.standard_normal((5, 20)) + 1j * rng.standard_normal((5, 20))
    T = V @ V.conj().T
    lo, hi = hb.hermitian_bounds(T)
    s = hb.singular_values(T)
    assert hi == pytest.approx(s[0], abs=1e-10 * s[0])
    assert lo == pytest.approx(s[-1], abs=1e-10 * s[0])


def test_spectrum_csv():
    text = hb.spectrum_to_csv([1.0, 3.0, 2.0])
    lines = text.strip().split("\n")
    assert lines[0] == "index,sigma"
    assert [float(l.split(",")[1]) for l in lines[1:]] == [3.0, 2.0, 1.0]
