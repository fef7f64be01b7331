import math

import numpy as np
import pytest

from contframes.errors import (
    InfeasiblePartitionError,
    InvalidDomainError,
    InvalidParameterError,
    ShapeMismatchError,
)
from contframes.measure import (
    MeasureSpace,
    Symbol,
    counting_space,
    integrate,
    lp_norm,
    partition,
    uniform_grid_1d,
    wavelet_grid,
)


def test_uniform_grid_midpoints():
    g = uniform_grid_1d(0.0, 1.0, 4)
    np.testing.assert_allclose(g.points.ravel(), [0.125, 0.375, 0.625, 0.875])
    np.testing.assert_allclose(g.weights, 0.25)
    assert g.total_mass == pytest.approx(1.0)


def test_uniform_grid_single_cell():
    g = uniform_grid_1d(-2.0, 2.0, 1)
    assert g.points.ravel().tolist() == [0.0]
    assert g.weights.tolist() == [4.0]


def test_uniform_grid_exact_for_affine():
    g = uniform_grid_1d(0.0, 1.0, 10)
    assert integrate(g, g.points[:, 0]).real == pytest.approx(0.5, abs=0)


@pytest.mark.parametrize("a,b,n", [(1.0, 1.0, 4), (2.0, 1.0, 4), (0.0, 1.0, 0)])
def test_uniform_grid_rejects_bad_domain(a, b, n):
    with pytest.raises(InvalidDomainError):
        uniform_grid_1d(a, b, n)


def test_wavelet_grid_single_cell_weight():
    e = math.e
    g = wavelet_grid(1.0, e, 1, 0.0, 1.0, 1)
    # geometric midpoint sqrt(e), linear width e - 1, weight da*db/a^2
    assert g.points[0, 0] == pytest.approx(math.sqrt(e))
    assert g.weights[0] == pytest.approx((e - 1.0) / e)


def test_wavelet_grid_positive_weights():
    g = wavelet_grid(0.1, 7.0, 13, -2.0, 5.0, 9)
    assert np.all(g.weights > 0)


def test_wavelet_grid_mass_matches_antiderivative():
    # oracle: integral of 1/a^2 over [1, 2] is -1/a evaluated at the ends
    g = wavelet_grid(1.0, 2.0, 50, 0.0, 1.0, 1)
    assert g.total_mass == pytest.approx(-1.0 / 2.0 + 1.0 / 1.0, abs=1e-3)


def test_wavelet_grid_rejects_nonpositive_scale():
    with pytest.raises(InvalidDomainError):
        wavelet_grid(0.0, 1.0, 4, 0.0, 1.0, 4)


def test_counting_space():
    assert counting_space(3).weights.tolist() == [1.0, 1.0, 1.0]
    assert counting_space(7).total_mass == pytest.approx(7.0)
    assert integrate(counting_space(5), np.ones(5)) == pytest.approx(5.0)
    with pytest.raises(InvalidDomainError):
        counting_space(0)


def test_integrate_values():
    space = MeasureSpace([[0.0], [1.0]], [0.5, 0.5])
    assert integrate(space, [2.0, 4.0]) == pytest.approx(3.0)
    assert integrate(space, [0.0, 0.0]) == 0.0

    space2 = MeasureSpace([[0.0], [1.0]], [1.0, 2.0])
    assert integrate(space2, [1j, 1.0]) == pytest.approx(2.0 + 1.0j)

    with pytest.raises(ShapeMismatchError):
        integrate(space, [1.0, 2.0, 3.0])


def test_integrate_is_linear():
    rng = np.random.default_rng(7)
    space = MeasureSpace(np.arange(12.0)[:, None], rng.uniform(0.1, 2.0, 12))
    for _ in range(25):
        x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        a, b = rng.standard_normal(2)
        lhs = integrate(space, a * x + b * y)
        rhs = a * integrate(space, x) + b * integrate(space, y)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_lp_norm_values():
    space = MeasureSpace([[0.0], [1.0]], [1.0, 1.0])
    m = Symbol([3.0, 4.0], space)
    assert lp_norm(space, m, 2.0) == pytest.approx(5.0)
    assert lp_norm(space, m, math.inf) == pytest.approx(4.0)

    space2 = MeasureSpace([[0.0], [1.0]], [2.0, 1.0])
    assert lp_norm(space2, [1.0, 1.0], 1.0) == pytest.approx(3.0)

    with pytest.raises(InvalidParameterError):
        lp_norm(space, m, 0.5)


def test_lp_norm_monotone_and_dominated():
    rng = np.random.default_rng(3)
    space = MeasureSpace(np.arange(20.0)[:, None], rng.uniform(0.2, 2.0, 20))
    small = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    big = small + rng.uniform(0.0, 1.0, 20) * np.exp(1j * np.angle(small))
    for p in (1.0, 1.5, 2.0, 4.0):
        assert lp_norm(space, np.abs(small), p) <= lp_norm(space, np.abs(big), p)
        cap = space.total_mass ** (1.0 / p) * lp_norm(space, small, math.inf)
        assert lp_norm(space, small, p) <= cap * (1 + 1e-12)


def test_partition_blocks():
    space = counting_space(4)
    parts = partition(space, 2)
    assert [p.tolist() for p in parts] == [[0, 1], [2, 3]]

    singletons = partition(counting_space(5), 5)
    assert [p.tolist() for p in singletons] == [[0], [1], [2], [3], [4]]

    with pytest.raises(InfeasiblePartitionError):
        partition(space, 5)
    with pytest.raises(InfeasiblePartitionError):
        partition(space, 0)


def test_partition_covers_disjointly_with_positive_mass():
    rng = np.random.default_rng(11)
    for n, k in [(7, 3), (16, 5), (9, 9), (30, 4)]:
        space = MeasureSpace(np.arange(float(n))[:, None], rng.uniform(0.1, 3.0, n))
        parts = partition(space, k)
        flat = np.concatenate(parts)
        assert sorted(flat.tolist()) == list(range(n))
        assert len(flat) == n
        for p in parts:
            assert float(np.sum(space.weights[p])) > 0.0


def test_space_validation():
    with pytest.raises(InvalidDomainError):
        MeasureSpace(np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(InvalidDomainError):
        MeasureSpace([[0.0]], [0.0])
    with pytest.raises(InvalidDomainError):
        MeasureSpace([[0.0]], [-1.0])
    with pytest.raises(ShapeMismatchError):
        MeasureSpace([[0.0], [1.0]], [1.0])


def test_symbol_validation():
    space = counting_space(3)
    with pytest.raises(ShapeMismatchError):
        Symbol([1.0, 2.0], space)
    with pytest.raises(InvalidParameterError):
        Symbol([1.0, np.nan, 2.0], space)
