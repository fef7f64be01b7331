"""Sampled continuous frames over a finite weighted measure space.

A frame is stored as a d x N complex array whose column j is the frame
vector attached to point j of the space.  Analysis returns the raw
coefficient function ``c_j = <f, F_j>`` (weights are not folded in; they
enter through integration), synthesis is the weighted sum back into C^d,
and the frame operator is their composition.  Frame bounds are the optimal
constants, i.e. the extreme eigenvalues of the frame operator.

The functions on ``SampledFrame`` objects validate one frame.  They are built
on array kernels (``weighted_gram``, ``scaled_columns``, ``coefficients``,
``synthesize``, ``operator_bounds``, ``dual_vectors``, ``max_column_norm``,
``perturbed``)
that also take stacks of frames along leading axes, so a batch of trials is
measured with one numpy call per step and the values of each frame equal
those of the single-frame functions.  Analysis and synthesis take a block of
k vectors a frame, equal to k single-vector calls to rounding.

The sums over the points, the Gram products of ``weighted_gram`` and the
syntheses of ``synthesize``, take one BLAS product per chunk of points,
whose frame operand holds at most BLOCK_ENTRIES complex entries across the
stack, and sum the partials in point order.  An operand built only to feed such a
product may be a function of a point slice, so it too exists a chunk at a
time, and no temporary of a product grows with the number of points.  A
product of one chunk, as every product over a suite's block of more than
one trial, is the one-shot formula bit for bit; over more chunks the sum
is re-associated, to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import hilbert
from .errors import (
    InvalidParameterError,
    InvalidSymbolError,
    NotAFrameError,
    ShapeMismatchError,
)
from .measure import MeasureSpace, partition, read_only, same_space, symbol_values

# relative rank cutoff for the surjectivity test
RANK_RTOL = 1e-10


# complex entries one chunk of points of a product's operands holds across
# the stack: the size of one block's role in the suites, 512 points at d = 64
BLOCK_ENTRIES = 2**15


def _chunks(n: int, per_point: int) -> list[slice]:
    """Slices of consecutive points, each of at most BLOCK_ENTRIES //
    per_point (at least one), covering range(n); one empty slice for n = 0."""
    step = max(1, BLOCK_ENTRIES // max(per_point, 1))
    return [slice(start, start + step) for start in range(0, max(n, 1), step)]


def _columns(operand, points: slice) -> np.ndarray:
    """The columns at ``points`` of an operand: an array (..., d, N), or a
    function of a point slice that gives them."""
    return operand(points) if callable(operand) else operand[..., points]


def weighted_gram(X, c, Y) -> np.ndarray:
    """sum_j c_j X_j Y_j^* for d x N column arrays X, Y and N coefficients c.

    The frame operator, the duality defect, the multiplier and the
    controlled mixed operator are all this product.  It is summed over
    chunks of consecutive points, X c of each holding at most BLOCK_ENTRIES
    complex entries across the stack, one BLAS product a chunk:
    conj(conj(X c) Y^T) of the chunk, X c written into one buffer that every
    chunk reuses and conjugated in place, the d x d partials added into one
    output.  So no temporary exceeds a chunk, and a product of one chunk is
    the one-shot formula bit for bit.  Rounding is symmetric in sign, so the
    formula equals (X * c) @ Y.conj().T, value for value; only the sign of
    an exact zero can differ, such as a vanishing imaginary part on the
    diagonal of a frame operator.  Over more chunks the partials
    re-associate the sum of N terms, which moves it by rounding of the order
    of gamma_N |X| diag|c| |Y|^* entrywise (Higham, "Accuracy and Stability
    of Numerical Algorithms", 2002, 3.1).

    X or Y may be a function of a point slice that gives the operand's
    columns there, so an operand built from others (a difference, a scaled
    or a mapped frame) exists one chunk at a time.  A function X is called
    once more, on an empty slice, for its shape.

    Stacks: X and Y of shape (..., d, N) with c of shape (..., N) give the
    (..., d, d) products.
    """
    c = np.asarray(c)
    if c.ndim > 1:
        c = c[..., None, :]  # as scaled_columns expands it
    head = X(slice(0, 0)) if callable(X) else X
    rows, n = np.broadcast_shapes(head.shape[:-1], c.shape[:-1]), c.shape[-1]
    size = math.prod(rows)
    chunks = _chunks(n, size)
    buffer = np.empty(size * min(n, chunks[0].stop), dtype=np.result_type(head, c))

    def product(points: slice, out=None) -> np.ndarray:
        # conj(X c) of the chunk, contiguous in the buffer's first entries,
        # times Y^T of the chunk; the columns a function gives are freed
        # when the chunk's product returns
        cs = c[..., points]
        A = buffer[:size * cs.shape[-1]].reshape(*rows, cs.shape[-1])
        np.multiply(_columns(X, points), cs, out=A)
        np.conj(A, out=A)
        return np.matmul(A, _columns(Y, points).swapaxes(-1, -2), out=out)

    out, partial = product(chunks[0]), None
    for points in chunks[1:]:
        partial = product(points, partial)
        out += partial
    np.conj(out, out=out)
    return out


def scaled_columns(X: np.ndarray, c) -> np.ndarray:
    """Columns c_j X_j of d x N arrays X, or of a stack (..., d, N) with one
    row of coefficients (..., N) each."""
    c = np.asarray(c)
    if c.ndim > 1:
        # one coefficient row per array; a 1-d c multiplies unexpanded,
        # because numpy rounds a one-element complex product differently
        # once the operand carries an extra axis
        c = c[..., None, :]
    return X * c


def coefficients(vectors: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Analysis coefficients <f_i, F_j> of a block of vectors f (..., k, d)
    against the columns of ``vectors`` (..., d, N): (..., k, N), leading axes
    broadcast.  One BLAS product per frame, conj(conj(f) F)."""
    c = f.conj() @ vectors
    np.conj(c, out=c)
    return c


def synthesize(vectors: np.ndarray, weights: np.ndarray, c) -> np.ndarray:
    """Weighted syntheses sum_j w_j c_ij F_j of a block of coefficient rows c
    (..., k, N) under weights (..., N): (..., k, d), leading axes broadcast;
    c may be a function of a point slice, as an operand of ``weighted_gram``.
    F (w c)^T transposed, one BLAS product per chunk of points of
    ``weighted_gram``, the partials summed in point order: F (w c) for
    k = 1."""
    parts = (vectors[..., points] @ scaled_columns(
        _columns(c, points), weights[..., points]).swapaxes(-1, -2)
        for points in _chunks(np.shape(weights)[-1], math.prod(vectors.shape[:-1])))
    return reduce(np.add, parts).swapaxes(-1, -2)


def max_column_norm(vectors, n: int | None = None):
    """Largest column norm sup_j ||F_j||: a float for one frame, an array for
    a stack, of arrays or of a function of a point slice over n points (an
    operand of ``weighted_gram``).  Reduced a chunk of points at a time: each
    column's norm is summed alone, so the value is the one-shot one."""
    head = vectors(slice(0, 0)) if callable(vectors) else vectors
    parts = (np.max(np.linalg.norm(_columns(vectors, points), axis=-2), axis=-1)
             for points in _chunks(head.shape[-1] if n is None else n,
                                   math.prod(head.shape[:-1])))
    return hilbert.value_or_stack(reduce(np.maximum, parts))


@dataclass(frozen=True, eq=False)
class SampledFrame:
    """Map from the points of a measure space into C^d, stored columnwise.

    Two frames are equal when their spaces and vectors are.
    """

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

    def __eq__(self, other):
        if not isinstance(other, SampledFrame):
            return NotImplemented
        return same_space(self.space, other.space) and np.array_equal(
            self.vectors, other.vectors)

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
    """Optimal frame constants: extreme eigenvalues of the frame operator.

    For a stack of frame operators (``operator_bounds``) each field is an
    array over the stack.
    """

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
    return coefficients(F.vectors, f[None])[0]


def synthesis(F: SampledFrame, c) -> np.ndarray:
    """Weighted synthesis sum_j w_j c_j F_j."""
    c = np.asarray(c, dtype=complex).ravel()
    if c.shape[0] != F.space.n_points:
        raise ShapeMismatchError(
            f"{c.shape[0]} coefficients for {F.space.n_points} points"
        )
    return synthesize(F.vectors, F.space.weights, c[None])[0]


def frame_operator(F: SampledFrame) -> np.ndarray:
    """S = sum_j w_j F_j F_j^*, a Hermitian positive-semidefinite d x d matrix.

    Computed once per frame and returned read-only.
    """
    return F._frame_operator


def operator_bounds(S: np.ndarray) -> FrameBounds:
    """Optimal frame bounds from a frame operator S, or from each of a stack:
    the extreme eigenvalues of (S + S^*)/2, the lower one clamped at 0.

    S is Hermitian by construction, so it is not re-validated; the
    Hermiticity check of ``hilbert.hermitian_bounds`` is for operators from
    outside the program.
    """
    return spectrum_bounds(*hilbert.extreme_eigenvalues(S))


def spectrum_bounds(lower, upper) -> FrameBounds:
    """Optimal frame bounds from the extreme eigenvalues of a frame operator,
    or arrays of them for a stack, the lower one clamped at 0; a frame where
    the lower exceeds ``hilbert.cutoff`` of the upper."""
    lower = np.where(0.0 > lower, 0.0, lower)  # max(lower, 0.0), NaN kept
    is_frame = lower > hilbert.cutoff(upper)
    if np.ndim(upper) == 0:
        return FrameBounds(float(lower), upper, bool(is_frame))
    return FrameBounds(lower, upper, is_frame)


def require_frame(bounds: FrameBounds) -> None:
    """Raise NotAFrameError, naming the lower bound of the first family that
    fails, where frame bounds (of one family or of each of a stack) have the
    lower bound at or below ``hilbert.cutoff`` of the upper one."""
    if not np.all(bounds.is_frame):
        lower = np.ravel(bounds.lower)[np.argmin(np.ravel(bounds.is_frame))]
        raise NotAFrameError(f"lower frame bound is numerically zero ({lower:.3e})")


def frame_bounds(F: SampledFrame) -> FrameBounds:
    """Optimal frame bounds: the extreme eigenvalues of (S + S^*)/2 for
    S = frame_operator(F)."""
    return operator_bounds(frame_operator(F))


def norm_bound(F: SampledFrame) -> float:
    """Largest column norm, sup_j ||F_j||."""
    return max_column_norm(F.vectors)


def dual_vectors(S: np.ndarray, vectors: np.ndarray, bounds=None) -> np.ndarray:
    """Columns S^-1 F_j of the canonical dual, from the frame operator S and
    the vectors of a frame, or of each frame of a stack; ``bounds`` are
    operator_bounds(S) where the caller has them."""
    require_frame(operator_bounds(S) if bounds is None else bounds)
    return hilbert.invert(S) @ vectors


def canonical_dual(F: SampledFrame) -> SampledFrame:
    """Frame with columns S^-1 F_j; reconstructs against F."""
    return SampledFrame(F.space, dual_vectors(frame_operator(F), F.vectors))


def is_dual_pair(F: SampledFrame, G: SampledFrame, tol: float = 1e-10) -> bool:
    """True when sum_j w_j G_j F_j^* is the identity to tol (``duality_defect``)."""
    return duality_defect(F, G) <= tol


def duality_defect(F: SampledFrame, G: SampledFrame) -> float:
    """|| sum_j w_j G_j F_j^* - I ||_F: zero for a dual pair in exact
    arithmetic, and an upper bound on the operator-norm defect that needs no
    SVD (``hilbert.frobenius_norm``)."""
    _check_compatible(F, G)
    op = weighted_gram(G.vectors, F.space.weights, F.vectors)
    return hilbert.frobenius_norm(op - np.eye(F.dim))


def is_riesz_type(F: SampledFrame, tol: float = RANK_RTOL) -> bool:
    """True when the analysis operator is surjective onto the coefficient space.

    On a finite space that means the d x N column matrix has numerical rank N
    (possible only when N <= d), which is the unique-dual condition.
    """
    require_frame(frame_bounds(F))
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
    return SampledFrame(G.space, perturbed(G.vectors, F.vectors, eps))


def perturbed(g: np.ndarray, f: np.ndarray, eps) -> np.ndarray:
    """Vectors g + eps f (eps > 0); for stacks eps has one value per frame,
    shaped to broadcast against the vectors."""
    positive = np.asarray(eps) > 0.0
    if not np.all(positive):
        first = eps if positive.ndim == 0 else np.ravel(eps)[np.argmin(np.ravel(positive))]
        raise InvalidParameterError(f"need eps > 0, got {first}")
    vectors = eps * f
    vectors += g
    return vectors


def weighted(F: SampledFrame, m) -> SampledFrame:
    """Frame with columns sqrt(m_j) F_j for a nonnegative real weight symbol."""
    values = symbol_values(F.space, m)
    if np.any(values.imag != 0.0) or np.any(values.real < 0.0):
        raise InvalidSymbolError("weight symbol must be real and nonnegative")
    return SampledFrame(F.space, F.vectors * np.sqrt(values.real))
