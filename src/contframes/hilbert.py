"""Dense linear algebra on C^d: inner products, adjoints, spectra, norms.

Vectors are 1-d complex arrays, operators are square 2-d complex arrays.
The inner product is linear in the first argument and conjugate-linear in
the second.  All spectral routines are thin wrappers over LAPACK with the
package's error contract on top.  The norms, spectra and the inverse also
take a stack of operators along leading axes: LAPACK then runs once per
operator, as for a single call, and the values come back as arrays.
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

# relative condition cutoff below which a matrix counts as singular
INVERT_RTOL = 1e-12


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


def norm(x):
    """Euclidean norm over the last axis: a float for one vector, an array
    for a stack of them.

    Summed as ``np.linalg.norm`` sums one complex vector, by two BLAS dot
    products of the real and the imaginary parts, so each vector of a stack
    gets the value a call on that vector alone would.
    """
    x = np.asarray(x, dtype=complex)
    re, im = x.real, x.imag
    squares = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    return value_or_stack(np.sqrt(squares[..., 0, 0]))


def power(x, y):
    """x ** y element by element with the C library's pow: a float for a
    scalar x, an array for an array.

    The norms and budgets of one operator end in a scalar power, of a float
    or a numpy scalar.  numpy's vectorized power (SVML on AVX-512 hosts) can
    round differently, so stacked values take their roots and squares here
    and equal the single-operator values bit for bit.
    """
    if np.ndim(x) == 0:
        return float(x) ** y
    x = np.asarray(x)
    return np.array([v ** y for v in x.ravel().tolist()]).reshape(x.shape)


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


def singular_values(T) -> np.ndarray:
    """Singular values in nonincreasing order, along the last axis for a stack."""
    try:
        return np.linalg.svd(_as_operators(T), compute_uv=False)
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
    T = _as_operators(T)
    if not np.all(np.isfinite(T)):
        raise NumericFailureError("operator has non-finite entries")
    return np.linalg.eigvalsh(hermitian_part(T))


def extreme_eigenvalues(T):
    """Extreme eigenvalues (smallest, largest) of ``hermitian_spectrum``:
    floats for one operator, arrays for a stack."""
    eigs = hermitian_spectrum(T)
    return value_or_stack(eigs[..., 0]), value_or_stack(eigs[..., -1])


def identity_defect_bound(T, c, extremes=None):
    """Upper bound on ||T - c I|| without an SVD: a float for one operator,
    an array for a stack, c a scalar or one per operator.

    With H = (T + T^*)/2 and K = (T - T^*)/2, ||T - c I|| <= ||H - c I|| +
    ||K||, where ||H - c I|| is max |lambda - c| over the extreme eigenvalues
    of H and ||K|| <= ||K||_F.  The bound exceeds ||T - c I|| by at most
    ||K||_F, so for an operator Hermitian by construction it is the defect to
    rounding, while a skew part is never ignored.  ||K||_F is summed as
    ``norm`` sums a vector, so each operator of a stack gets the value a call
    on it alone would.  ``extremes``, the (smallest, largest) of
    ``extreme_eigenvalues(T)`` where the caller has them, spares the
    eigen-solve.
    """
    T = _as_operators(T)
    lower, upper = extreme_eigenvalues(T) if extremes is None else extremes
    skew = 0.5 * (T - adjoint(T))
    spread = np.maximum(np.abs(lower - c), np.abs(upper - c))
    return value_or_stack(spread + norm(skew.reshape(*skew.shape[:-2], -1)))


def _flag_or_stack(flags):
    """A bool for the verdict on one operator, the array for a stack."""
    return bool(flags) if np.ndim(flags) == 0 else flags


def is_hermitian(T, tol: float = 1e-10):
    """True when ||T - T^*|| <= tol max(1, ||T||); an array for a stack."""
    T = _as_operators(T)
    return _flag_or_stack(operator_norm(T - adjoint(T))
                          <= tol * np.maximum(1.0, operator_norm(T)))


def hermitian_bounds(T) -> tuple[float, float]:
    """Extreme eigenvalues (smallest, largest) of a Hermitian operator.

    For operators from outside the program: the input must be Hermitian to
    1e-10 relative to its operator norm, and the bounds are then those of
    ``extreme_eigenvalues``, the extreme eigenvalues of (T + T^*)/2.
    """
    T = _as_operator(T)
    scale = operator_norm(T)
    defect = operator_norm(T - T.conj().T)
    if defect > 1e-10 * scale:
        raise ContractViolationError(
            f"operator is not Hermitian: defect {defect:.3e} vs norm {scale:.3e}"
        )
    return extreme_eigenvalues(T)


def nonnegative_spectrum(lower, upper, tol: float = 1e-10):
    """True when extreme eigenvalues (lower, upper) put the spectrum at or
    above -tol max(1, upper); an array for arrays of them."""
    return _flag_or_stack(lower >= -tol * np.maximum(1.0, upper))


def is_positive(T, tol: float = 1e-10):
    """True when T is Hermitian to tol and its spectrum is >= -tol (scaled);
    an array for a stack."""
    return is_hermitian(T, tol) & nonnegative_spectrum(*extreme_eigenvalues(T), tol)


def is_singular(sigma):
    """The invertibility cutoff: True where singular values sigma
    (nonincreasing along the last axis) have relative condition below
    double-precision trust.  An array for a stack."""
    return (sigma[..., 0] == 0.0) | (sigma[..., -1] <= INVERT_RTOL * sigma[..., 0])


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
