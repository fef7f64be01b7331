"""Finite weighted point sets standing in for a measure space.

A measure space here is a list of points (coordinate tuples of any arity)
together with strictly positive quadrature weights, one per point.  Every
integral in the library is the weighted sum over these points, so the usual
identities of integration hold exactly up to floating-point rounding.  The
constructors below cover the domains used elsewhere: uniform midpoint grids
on an interval or rectangle, a log-uniform scale/shift grid carrying the
``da db / a^2`` weight, and a finite counting space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasiblePartitionError,
    InvalidDomainError,
    InvalidParameterError,
    ShapeMismatchError,
)
from .hilbert import power, value_or_stack


def read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only; copied first when a caller could still write to its
    memory through another array, so a frozen object's data cannot change."""
    base = a.base
    if base is not None and (not isinstance(base, np.ndarray) or base.flags.writeable):
        a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Finite weighted point set; two are equal when ``same_space`` says so.

    Parameters
    ----------
    points : array_like, shape (N, arity)
        Point coordinates.  The arity is arbitrary (1 for intervals,
        2 for plane grids).
    weights : array_like, shape (N,)
        Strictly positive, finite quadrature mass per point.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        elif points.ndim != 2:
            raise ShapeMismatchError(f"points must be 1-d or 2-d, got {points.ndim}-d")
        weights = np.asarray(self.weights, dtype=float).ravel()
        if points.shape[0] != weights.shape[0]:
            raise ShapeMismatchError(
                f"{points.shape[0]} points but {weights.shape[0]} weights"
            )
        if weights.size == 0:
            raise InvalidDomainError("a measure space needs at least one point")
        if not np.all(np.isfinite(points)):
            raise InvalidDomainError("non-finite point coordinate")
        if not np.all(np.isfinite(weights)) or np.any(weights <= 0.0):
            raise InvalidDomainError("weights must be positive and finite")
        object.__setattr__(self, "points", read_only(points))
        object.__setattr__(self, "weights", read_only(weights))

    def __eq__(self, other):
        if not isinstance(other, MeasureSpace):
            return NotImplemented
        return same_space(self, other)

    @property
    def n_points(self) -> int:
        return self.weights.shape[0]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def to_dict(self) -> dict:
        return {
            "points": [list(p) for p in self.points],
            "weights": list(self.weights),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MeasureSpace":
        return cls(np.asarray(data["points"], dtype=float),
                   np.asarray(data["weights"], dtype=float))


@dataclass(frozen=True, eq=False)
class Symbol:
    """Complex-valued function sampled on the points of a measure space.

    Two symbols are equal when their spaces and values are.
    """

    values: np.ndarray
    space: MeasureSpace

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex).ravel()
        if values.shape[0] != self.space.n_points:
            raise ShapeMismatchError(
                f"symbol has {values.shape[0]} values for a space of "
                f"{self.space.n_points} points"
            )
        if not np.all(np.isfinite(values)):
            raise InvalidParameterError("symbol values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __eq__(self, other):
        if not isinstance(other, Symbol):
            return NotImplemented
        return same_space(self.space, other.space) and np.array_equal(
            self.values, other.values)

    def to_dict(self) -> dict:
        return {"re": list(self.values.real), "im": list(self.values.imag)}

    @classmethod
    def from_dict(cls, data: dict, space: MeasureSpace) -> "Symbol":
        values = np.asarray(data["re"], dtype=float) + 1j * np.asarray(
            data["im"], dtype=float
        )
        return cls(values, space)


def same_space(a: MeasureSpace, b: MeasureSpace) -> bool:
    """True when two spaces carry identical points and weights."""
    return a is b or (
        a.points.shape == b.points.shape
        and np.array_equal(a.points, b.points)
        and np.array_equal(a.weights, b.weights)
    )


def symbol_values(space: MeasureSpace, m) -> np.ndarray:
    """Coerce a Symbol or raw sample array to values aligned with `space`."""
    if isinstance(m, Symbol):
        if not same_space(m.space, space):
            raise ShapeMismatchError("symbol lives on a different measure space")
        return m.values
    values = np.asarray(m, dtype=complex).ravel()
    if values.shape[0] != space.n_points:
        raise ShapeMismatchError(
            f"{values.shape[0]} samples for a space of {space.n_points} points"
        )
    return values


def uniform_grid_1d(a: float, b: float, n: int) -> MeasureSpace:
    """Midpoint discretization of the interval [a, b] with n equal cells.

    The quadrature is exact for affine integrands and the total mass is
    exactly b - a.
    """
    if not (a < b) or n < 1:
        raise InvalidDomainError(f"need a < b and n >= 1, got a={a}, b={b}, n={n}")
    width = (b - a) / n
    mids = a + (np.arange(n) + 0.5) * width
    return MeasureSpace(mids[:, None], np.full(n, width))


def wavelet_grid(a_min: float, a_max: float, n_a: int,
                 b_min: float, b_max: float, n_b: int) -> MeasureSpace:
    """Scale/shift grid carrying the weight ``da db / a^2``.

    The scale axis is split into ``n_a`` log-uniform cells with geometric
    midpoints ``a_i`` and linear widths ``da_i``; the shift axis into ``n_b``
    uniform midpoint cells of width ``db``.  The weight at ``(a_i, b_k)`` is
    ``da_i * db / a_i**2``, which integrates ``1/a^2`` exactly on the scale
    axis.  Only positive scales are sampled.
    """
    if a_min <= 0.0:
        raise InvalidDomainError(f"scale axis requires a_min > 0, got {a_min}")
    if not (a_min < a_max) or not (b_min < b_max) or n_a < 1 or n_b < 1:
        raise InvalidDomainError("degenerate scale or shift range")
    edges = a_min * (a_max / a_min) ** (np.arange(n_a + 1) / n_a)
    a_mid = np.sqrt(edges[:-1] * edges[1:])
    a_width = np.diff(edges)
    db = (b_max - b_min) / n_b
    b_mid = b_min + (np.arange(n_b) + 0.5) * db

    aa = np.repeat(a_mid, n_b)
    bb = np.tile(b_mid, n_a)
    ww = np.repeat(a_width, n_b) * db / aa**2
    return MeasureSpace(np.column_stack([aa, bb]), ww)


def counting_space(n: int) -> MeasureSpace:
    """n points labelled 0..n-1, unit mass each."""
    if n < 1:
        raise InvalidDomainError(f"need n >= 1, got {n}")
    return MeasureSpace(np.arange(n, dtype=float)[:, None], np.ones(n))


def integrate(space: MeasureSpace, samples) -> complex:
    """Weighted sum of samples over the space's points."""
    values = symbol_values(space, samples)
    return complex(np.sum(space.weights * values))


def lp_norm(space: MeasureSpace, m, p: float) -> float:
    """L^p norm of a symbol, with p = inf the maximum modulus.

    On a finite space with positive weights the essential supremum is the
    plain maximum.
    """
    return weighted_lp_norm(space.weights, symbol_values(space, m), p)


def weighted_lp_norm(weights, values, p: float):
    """L^p norm of sampled values under point weights, over the last axis: a
    float for one symbol, an array for a stack of them."""
    values = np.abs(values)
    if p == math.inf:
        norms = np.max(values, axis=-1)
    elif p < 1:
        raise InvalidParameterError(f"need p >= 1 or p = inf, got {p}")
    else:
        norms = power(np.sum(weights * values**p, axis=-1), 1.0 / p)
    return value_or_stack(norms)


def partition(space: MeasureSpace, k: int) -> list[np.ndarray]:
    """Split point indices into k contiguous blocks of near-equal size.

    Every block is nonempty, hence of strictly positive mass; the union is
    the full index range and blocks are pairwise disjoint.
    """
    n = space.n_points
    if k < 1 or k > n:
        raise InfeasiblePartitionError(f"cannot split {n} points into {k} blocks")
    return list(np.array_split(np.arange(n), k))
