"""Dense linear algebra on C^d: inner products, adjoints, spectra, norms.

Vectors are 1-d complex arrays, operators are square 2-d complex arrays.
The inner product is linear in the first argument and conjugate-linear in
the second.  All spectral routines are thin wrappers over LAPACK with the
package's error contract on top.  The norms, spectra and the inverse also
take a stack of operators along leading axes: LAPACK then runs once per
operator, as for a single call, and the values come back as arrays.

Norm policy, the one rule for identities checked to rounding: the defect
of A = B at scale s is ``defect(A, B, s)``, ||A - B|| / s with no SVD, where
the axes of A beyond those of s are those of one comparison: the Frobenius
norm for an operator, the Euclidean norm for a vector, abs for a scalar.
The scale of an operator X is read from a spectrum the caller holds, or
else is ``frobenius_scale(X)``, ||X||_F / sqrt(d).  As ||A|| <= ||A||_F <=
sqrt(d) ||A|| (Higham, Accuracy and Stability of Numerical Algorithms,
2002, 6.2), the defect is at least its operator norm and the scale at most
||X||, so no check is looser than in the operator norm.  No SVD or
eigen-solve is taken only for a scale; an SVD is taken where singular
values are measured: the Schatten norms, the invertibility cutoff and
``invert``.  No scale has a floor; ``defect`` says what a scale of 0 gives.
"""

from __future__ import annotations

import io
import math

import numpy as np

from .errors import (
    ContractViolationError,
    InvalidParameterError,
    NotInvertibleError,
    NumericFailureError,
    ShapeMismatchError,
)

# relative cutoff at or below which the smallest singular value of a matrix,
# or the lower bound of a frame, counts as zero
INVERT_RTOL = 1e-12
# a root of a sum of squares below it has lost digits to underflow
TINY_ROOT = math.sqrt(np.finfo(float).tiny)


def inner(x, y):
    """<x, y> = sum_t x_t * conj(y_t) over the last axis: a complex for one
    pair of vectors, an array for a stack of pairs.

    One BLAS dot product per pair, as ``np.vdot`` takes it, so each pair of
    a stack gets the value a call on that pair alone would.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        raise ShapeMismatchError(f"dimension mismatch {x.shape} vs {y.shape}")
    products = (y.conj()[..., None, :] @ x[..., :, None])[..., 0, 0]
    return complex(products) if products.ndim == 0 else products


def _root_sum_squares(re, im):
    squares = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    return np.sqrt(squares[..., 0, 0])


def norm(x):
    """Euclidean norm over the last axis: a float for one vector, an array
    for a stack of them.

    Summed as ``np.linalg.norm`` sums one complex vector, by two BLAS dot
    products of the real and the imaginary parts, so each vector of a stack
    gets the value a call on that vector alone would.  A sum of squares past
    the float range, or with a root below sqrt(tiny), where the squares lose
    digits to underflow, is summed again over the vector scaled by the power
    of two of its largest entry, exactly.
    """
    x = np.asarray(x, dtype=complex)
    with np.errstate(over="ignore", under="ignore"):
        values = _root_sum_squares(x.real, x.imag)
        rescale = ~(np.isfinite(values) & (values >= TINY_ROOT))
        if np.any(rescale):
            # ldexp of the entries: 2^-e overflows below 2^-1024
            e = np.frexp(np.max(np.abs(x), axis=-1))[1]
            scaled = _root_sum_squares(np.ldexp(x.real, -e[..., None]),
                                       np.ldexp(x.imag, -e[..., None]))
            values = np.where(rescale, np.ldexp(scaled, e), values)
    return value_or_stack(values)


def frobenius_norm(T):
    """||T||_F, the Euclidean norm of the entries over the last two axes: a
    float for one matrix, an array for a stack.

    The entries are summed in row-major order as ``norm`` sums a vector, so
    each matrix of a stack gets the value a call on it alone would, and a
    C-contiguous matrix the value of np.linalg.norm(T, "fro").
    """
    T = np.asarray(T, dtype=complex)
    if T.ndim < 2:
        raise ShapeMismatchError(f"need a matrix or a stack of them, got shape {T.shape}")
    return norm(T.reshape(*T.shape[:-2], -1))


def frobenius_scale(T):
    """||T||_F / sqrt(d) of a d x d operator, at most ||T||, the scale of the
    norm policy where no spectrum is held: a float, an array for a stack."""
    return frobenius_norm(T) / math.sqrt(np.shape(T)[-1])


def defect(A, B, scale):
    """||A - B|| / scale, where the axes of A - B past the ndim(scale)
    leading ones are one comparison, whose ``norm`` is that of its entries,
    or abs where there are none; scale broadcasts.  0 where A = B, over a
    scale of 0 too, and inf for any other A over a scale of 0."""
    gap = np.subtract(A, B)
    leading = np.ndim(scale)
    size = (norm(gap.reshape(*np.shape(gap)[:leading], -1)) if np.ndim(gap) > leading
            else np.abs(gap))
    with np.errstate(divide="ignore", invalid="ignore"):
        return value_or_stack(np.where(np.equal(size, 0.0), 0.0, np.divide(size, scale)))


def power(x, y):
    """x ** y element by element with the C library's pow: a float for a
    scalar x, an array for an array.

    The norms and budgets of one operator end in a scalar power, of a float
    or a numpy scalar.  numpy's vectorized power (SVML on AVX-512 hosts) can
    round differently, so stacked values take their roots and squares here,
    with numpy's scalar power, and equal the single-operator values bit for
    bit.  Past the float range, at a pole or off the real line the value is
    C pow's: +-inf or NaN, with no warning.
    """
    values = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        powers = [float(v ** y) for v in values.ravel()]
    return powers[0] if values.ndim == 0 else np.array(powers).reshape(values.shape)


def value_or_stack(values):
    """A float for the value of one operator or vector, the array for a stack."""
    return float(values) if np.ndim(values) == 0 else values


def _as_operator(T) -> np.ndarray:
    T = np.asarray(T, dtype=complex)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ShapeMismatchError(f"operator must be square, got shape {T.shape}")
    return T


def _as_operators(T) -> np.ndarray:
    """A square operator, or a stack of them along the leading axes."""
    T = np.asarray(T, dtype=complex)
    if T.ndim < 2 or T.shape[-1] != T.shape[-2]:
        raise ShapeMismatchError(f"operator must be square, got shape {T.shape}")
    return T


def adjoint(T) -> np.ndarray:
    return _as_operators(T).conj().swapaxes(-1, -2)


def _require_finite(T) -> np.ndarray:
    """T, refused with NumericFailureError where an entry is not finite: the
    one test before an SVD or an eigen-solve, on which LAPACK would fail
    with an error of its own."""
    if not np.all(np.isfinite(T)):
        raise NumericFailureError("operator has non-finite entries")
    return T


def singular_values(T) -> np.ndarray:
    """Singular values in nonincreasing order, along the last axis for a
    stack.  Raises NumericFailureError on non-finite entries."""
    try:
        return np.linalg.svd(_require_finite(_as_operators(T)), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"singular value decomposition failed: {exc}")


def schatten_of(sigma, p: float):
    """(sum_n s_n^p)^(1/p) of singular values sigma (nonincreasing along the
    last axis); p = inf is the largest.  A float for one operator's values,
    an array for a stack."""
    if p == math.inf:
        return value_or_stack(sigma[..., 0])
    if p < 1:
        raise InvalidParameterError(f"need p >= 1 or p = inf, got {p}")
    return value_or_stack(power(np.sum(sigma**p, axis=-1), 1.0 / p))


def schatten_norm(T, p: float):
    """Schatten p-norm; p = inf is the operator norm.  Stacks give arrays."""
    return schatten_of(singular_values(T), p)


def operator_norm(T):
    return schatten_norm(T, math.inf)


def hermitian_part(T) -> np.ndarray:
    """(T + T^*)/2, for one operator or a stack."""
    T = _as_operators(T)
    return 0.5 * (T + adjoint(T))


def hermitian_spectrum(T) -> np.ndarray:
    """Eigenvalues of the Hermitian part (T + T^*)/2 in ascending order, along
    the last axis for a stack.

    No Hermiticity check: for operators that are Hermitian by construction,
    such as frame operators, this is the spectrum of the symmetrized
    operator.  Raises NumericFailureError on non-finite entries.
    """
    return np.linalg.eigvalsh(hermitian_part(_require_finite(_as_operators(T))))


def extreme_eigenvalues(T):
    """Extreme eigenvalues (smallest, largest) of ``hermitian_spectrum``:
    floats for one operator, arrays for a stack."""
    eigs = hermitian_spectrum(T)
    return value_or_stack(eigs[..., 0]), value_or_stack(eigs[..., -1])


def _flag_or_stack(flags):
    """A bool for the verdict on one operator, the array for a stack."""
    return bool(flags) if np.ndim(flags) == 0 else flags


def is_hermitian(T, tol: float = 1e-10, extremes=None):
    """True when ||T - T^*||_F <= tol ||(T + T^*)/2||, an array for a stack;
    ``extremes``, the ``extreme_eigenvalues(T)`` the caller holds, spare the
    eigen-solve that gives the scale."""
    T = _as_operators(T)
    lower, upper = extreme_eigenvalues(T) if extremes is None else extremes
    scale = np.maximum(np.abs(lower), np.abs(upper))
    return _flag_or_stack(frobenius_norm(T - adjoint(T)) <= tol * scale)


def hermitian_bounds(T) -> tuple[float, float]:
    """Extreme eigenvalues (smallest, largest) of a Hermitian operator.

    For operators from outside the program: ||T - T^*||_F must be at most
    1e-10 times the norm of (T + T^*)/2, the larger magnitude of the two
    extremes, and the bounds are then those of ``extreme_eigenvalues``, the
    extreme eigenvalues of (T + T^*)/2.  No SVD.
    """
    T = _as_operator(T)
    lower, upper = extreme_eigenvalues(T)
    scale = max(abs(lower), abs(upper))
    defect = frobenius_norm(T - T.conj().T)
    if defect > 1e-10 * scale:
        raise ContractViolationError(
            f"operator is not Hermitian: defect {defect:.3e} vs norm {scale:.3e}"
        )
    return lower, upper


def nonnegative_spectrum(lower, upper, tol: float = 1e-10):
    """True when extreme eigenvalues (lower, upper) put the spectrum at or
    above -tol |upper|; an array for arrays of them."""
    return _flag_or_stack(lower >= -tol * np.abs(upper))


def is_positive(T, tol: float = 1e-10, extremes=None):
    """True when T is Hermitian to tol and its spectrum is >= -tol (scaled),
    both read from one eigen-solve, or from ``extremes`` as ``is_hermitian``
    takes them; an array for a stack."""
    extremes = extreme_eigenvalues(T) if extremes is None else extremes
    return is_hermitian(T, tol, extremes) & nonnegative_spectrum(*extremes, tol)


def cutoff(largest):
    """The value a smallest singular value or a lower frame bound must exceed
    not to count as zero: INVERT_RTOL times the largest singular value or
    the upper bound, or an array of them.  Relative at every scale, so the
    frame test and the invertibility test of a frame operator agree."""
    return INVERT_RTOL * largest


def is_singular(sigma):
    """The invertibility cutoff: True where singular values sigma
    (nonincreasing along the last axis) have the smallest at or below
    ``cutoff`` of the largest, so a zero matrix too.  An array for a
    stack."""
    return sigma[..., -1] <= cutoff(sigma[..., 0])


def require_invertible(sigma) -> None:
    """Raise NotInvertibleError, carrying the smallest singular value of the
    first operator that fails, where singular values sigma (nonincreasing
    along the last axis) have relative condition below double-precision
    trust."""
    singular = is_singular(sigma)
    if np.any(singular):
        s = sigma.reshape(-1, sigma.shape[-1])[np.argmax(np.ravel(singular))]
        raise NotInvertibleError(
            f"smallest singular value {s[-1]:.3e} below cutoff "
            f"{INVERT_RTOL:.0e} * {s[0]:.3e}",
            smallest_singular_value=float(s[-1]),
        )


def invert(T, sigma=None) -> np.ndarray:
    """Inverse of a well-conditioned operator, or of each of a stack.

    Raises NotInvertibleError as ``require_invertible`` does.  ``sigma``, the
    singular values of T where the caller has them, spares the SVD of that
    test.
    """
    T = _as_operators(T)
    require_invertible(singular_values(T) if sigma is None else sigma)
    return np.linalg.inv(T)


def operator_to_dict(T) -> dict:
    T = _as_operator(T)
    return {
        "d": T.shape[0],
        "re": [list(row) for row in T.real],
        "im": [list(row) for row in T.imag],
    }


def operator_from_dict(data: dict) -> np.ndarray:
    T = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
    if T.shape != (data["d"], data["d"]):
        raise ShapeMismatchError(f"operator payload shape {T.shape} != d={data['d']}")
    return T


def spectrum_to_csv(sigma) -> str:
    """Render singular values as CSV with columns index,sigma (descending)."""
    sigma = np.sort(np.asarray(sigma, dtype=float).ravel())[::-1]
    out = io.StringIO()
    out.write("index,sigma\n")
    for i, s in enumerate(sigma):
        out.write(f"{i},{float(s)!r}\n")
    return out.getvalue()
