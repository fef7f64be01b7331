"""Sampled continuous frames over a finite weighted measure space.

A frame is stored as a d x N complex array whose column j is the frame
vector attached to point j of the space.  Analysis returns the raw
coefficient function ``c_j = <f, F_j>`` (weights are not folded in; they
enter through integration), synthesis is the weighted sum back into C^d,
and the frame operator is their composition.  Frame bounds are the optimal
constants, i.e. the extreme eigenvalues of the frame operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import hilbert
from .errors import (
    InvalidParameterError,
    InvalidSymbolError,
    NotAFrameError,
    ShapeMismatchError,
)
from .measure import MeasureSpace, partition, read_only, same_space, symbol_values

# a lower bound below this multiple of max(upper, 1) counts as zero
FRAME_RTOL = 1e-12
# relative rank cutoff for the surjectivity test
RANK_RTOL = 1e-10


def weighted_gram(X: np.ndarray, c, Y: np.ndarray) -> np.ndarray:
    """sum_j c_j X_j Y_j^* for d x N column arrays X, Y and N coefficients c.

    The frame operator, the duality defect, the multiplier and the controlled
    mixed operator are all this product.  It is formed as conj(conj(X c) Y^T)
    with one d x N temporary, conjugated in place; rounding is symmetric in
    sign, so the result equals (X * c) @ Y.conj().T, which needs a second
    d x N temporary for the conjugate of Y, value for value.  Only the sign
    of an exact zero can differ, such as a vanishing imaginary part on the
    diagonal of a frame operator.
    """
    A = X * c
    np.conj(A, out=A)
    out = A @ Y.T
    np.conj(out, out=out)
    return out


@dataclass(frozen=True)
class SampledFrame:
    """Map from the points of a measure space into C^d, stored columnwise."""

    space: MeasureSpace
    vectors: np.ndarray

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=complex)
        if vectors.ndim != 2:
            raise ShapeMismatchError(f"vectors must be 2-d, got shape {vectors.shape}")
        if vectors.shape[1] != self.space.n_points:
            raise ShapeMismatchError(
                f"{vectors.shape[1]} columns for a space of "
                f"{self.space.n_points} points"
            )
        if not np.all(np.isfinite(vectors)):
            raise InvalidParameterError("frame vectors must be finite")
        object.__setattr__(self, "vectors", read_only(vectors))

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @cached_property
    def _frame_operator(self) -> np.ndarray:
        # the frame is frozen and its vectors and weights are read-only, so
        # the cached operator cannot go stale; it is read-only in turn, so a
        # caller cannot corrupt it in place
        S = weighted_gram(self.vectors, self.space.weights, self.vectors)
        S.setflags(write=False)
        return S

    def to_dict(self) -> dict:
        return {
            "space": self.space.to_dict(),
            "d": self.dim,
            "re": [list(row) for row in self.vectors.real],
            "im": [list(row) for row in self.vectors.imag],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SampledFrame":
        space = MeasureSpace.from_dict(data["space"])
        vectors = np.asarray(data["re"], dtype=float) + 1j * np.asarray(
            data["im"], dtype=float
        )
        if vectors.shape[0] != data["d"]:
            raise ShapeMismatchError(
                f"frame payload has {vectors.shape[0]} rows but d={data['d']}"
            )
        return cls(space, vectors)


@dataclass(frozen=True)
class FrameBounds:
    """Optimal frame constants: extreme eigenvalues of the frame operator."""

    lower: float
    upper: float
    is_frame: bool


def _check_compatible(F: SampledFrame, G: SampledFrame):
    if not same_space(F.space, G.space):
        raise ShapeMismatchError("frames live on different measure spaces")
    if F.dim != G.dim:
        raise ShapeMismatchError(f"dimension mismatch {F.dim} vs {G.dim}")


def analysis(F: SampledFrame, f) -> np.ndarray:
    """Coefficient function c_j = <f, F_j>, one value per point."""
    f = np.asarray(f, dtype=complex).ravel()
    if f.shape[0] != F.dim:
        raise ShapeMismatchError(f"vector of dim {f.shape[0]} for frame of dim {F.dim}")
    return np.conj(f.conj() @ F.vectors)


def synthesis(F: SampledFrame, c) -> np.ndarray:
    """Weighted synthesis sum_j w_j c_j F_j."""
    c = np.asarray(c, dtype=complex).ravel()
    if c.shape[0] != F.space.n_points:
        raise ShapeMismatchError(
            f"{c.shape[0]} coefficients for {F.space.n_points} points"
        )
    return F.vectors @ (F.space.weights * c)


def frame_operator(F: SampledFrame) -> np.ndarray:
    """S = sum_j w_j F_j F_j^*, a Hermitian positive-semidefinite d x d matrix.

    Computed once per frame and returned read-only.
    """
    return F._frame_operator


def _bounds(S: np.ndarray) -> FrameBounds:
    lower, upper = hilbert.extreme_eigenvalues(S)
    lower = max(lower, 0.0)
    return FrameBounds(lower, upper, bool(lower > FRAME_RTOL * max(upper, 1.0)))


def frame_bounds(F: SampledFrame) -> FrameBounds:
    """Optimal frame bounds: the extreme eigenvalues of (S + S^*)/2.

    S = frame_operator(F) is Hermitian by construction, so it is not
    re-validated; the Hermiticity check of ``hilbert.hermitian_bounds`` is
    for operators from outside the program.
    """
    return _bounds(frame_operator(F))


def norm_bound(F: SampledFrame) -> float:
    """Largest column norm, sup_j ||F_j||."""
    return float(np.max(np.linalg.norm(F.vectors, axis=0)))


def canonical_dual(F: SampledFrame) -> SampledFrame:
    """Frame with columns S^-1 F_j; reconstructs against F."""
    S = frame_operator(F)
    bounds = _bounds(S)
    if not bounds.is_frame:
        raise NotAFrameError(f"lower frame bound is numerically zero ({bounds.lower:.3e})")
    return SampledFrame(F.space, hilbert.invert(S) @ F.vectors)


def is_dual_pair(F: SampledFrame, G: SampledFrame, tol: float = 1e-10) -> bool:
    """True when sum_j w_j G_j F_j^* is the identity to tol (operator norm)."""
    _check_compatible(F, G)
    return duality_defect(F, G) <= tol


def duality_defect(F: SampledFrame, G: SampledFrame) -> float:
    """|| sum_j w_j G_j F_j^* - I ||."""
    _check_compatible(F, G)
    op = weighted_gram(G.vectors, F.space.weights, F.vectors)
    return hilbert.operator_norm(op - np.eye(F.dim))


def is_riesz_type(F: SampledFrame, tol: float = RANK_RTOL) -> bool:
    """True when the analysis operator is surjective onto the coefficient space.

    On a finite space that means the d x N column matrix has numerical rank N
    (possible only when N <= d), which is the unique-dual condition.
    """
    bounds = frame_bounds(F)
    if not bounds.is_frame:
        raise NotAFrameError(f"lower frame bound is numerically zero ({bounds.lower:.3e})")
    sigma = np.linalg.svd(F.vectors, compute_uv=False)
    rank = int(np.sum(sigma >= tol * sigma[0]))
    return rank == F.space.n_points


def tight_from_partition(space: MeasureSpace, k: int, d: int | None = None) -> SampledFrame:
    """Tight frame with bound exactly 1 from a k-block partition of the space.

    Block i carries the constant column e_i / sqrt(mass of block i), so the
    frame operator is the identity by construction.
    """
    if d is None:
        d = k
    if d != k:
        raise InvalidParameterError(
            f"construction needs d = k (one basis vector per block), got d={d}, k={k}"
        )
    parts = partition(space, k)
    vectors = np.zeros((k, space.n_points), dtype=complex)
    for i, idx in enumerate(parts):
        mass = float(np.sum(space.weights[idx]))
        vectors[i, idx] = 1.0 / np.sqrt(mass)
    return SampledFrame(space, vectors)


def unbounded_amplitude(x) -> np.ndarray:
    """Square root of an integrable-but-unbounded density.

    The density is 1/sqrt(|x|) for 0 < |x| < 1, 1/x^2 for |x| >= 1 and 0 at
    x = 0; it is integrable while its square root has no essential bound.
    """
    x = np.abs(np.asarray(x, dtype=float))
    density = np.zeros_like(x)
    inner_part = (x > 0.0) & (x < 1.0)
    density[inner_part] = 1.0 / np.sqrt(x[inner_part])
    outer = x >= 1.0
    density[outer] = 1.0 / x[outer] ** 2
    return np.sqrt(density)


def scaled_singleton(space: MeasureSpace, h) -> SampledFrame:
    """Rank-one Bessel family x -> a(x) h with the unbounded L^2 amplitude a.

    On grids refined towards 0 the column norms grow without bound while the
    Bessel constant stays below ||h||^2 times the quadrature mass of a^2.
    """
    h = np.asarray(h, dtype=complex).ravel()
    if float(np.linalg.norm(h)) == 0.0:
        raise InvalidParameterError("h must be nonzero")
    amp = unbounded_amplitude(space.points[:, 0])
    return SampledFrame(space, h[:, None] * amp[None, :])


def perturb(G: SampledFrame, F: SampledFrame, eps: float) -> SampledFrame:
    """Frame with columns G_j + eps * F_j (eps > 0).

    For eps < sqrt(A_G / B_F) the result keeps a positive lower bound of at
    least (sqrt(A_G) - eps sqrt(B_F))^2 while inheriting unbounded column
    norms from F.
    """
    _check_compatible(G, F)
    if not eps > 0.0:
        raise InvalidParameterError(f"need eps > 0, got {eps}")
    vectors = eps * F.vectors
    vectors += G.vectors
    return SampledFrame(G.space, vectors)


def weighted(F: SampledFrame, m) -> SampledFrame:
    """Frame with columns sqrt(m_j) F_j for a nonnegative real weight symbol."""
    values = symbol_values(F.space, m)
    if np.any(values.imag != 0.0) or np.any(values.real < 0.0):
        raise InvalidSymbolError("weight symbol must be real and nonnegative")
    return SampledFrame(F.space, F.vectors * np.sqrt(values.real))
