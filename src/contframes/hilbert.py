"""Dense linear algebra on C^d: inner products, adjoints, spectra, norms.

Vectors are 1-d complex arrays, operators are square 2-d complex arrays.
The inner product is linear in the first argument and conjugate-linear in
the second.  All spectral routines are thin wrappers over LAPACK with the
package's error contract on top.
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


def inner(x, y) -> complex:
    """<x, y> = sum_t x_t * conj(y_t)."""
    x = np.asarray(x, dtype=complex).ravel()
    y = np.asarray(y, dtype=complex).ravel()
    if x.shape != y.shape:
        raise ShapeMismatchError(f"dimension mismatch {x.shape} vs {y.shape}")
    return complex(np.vdot(y, x))


def norm(x) -> float:
    return float(np.linalg.norm(np.asarray(x, dtype=complex).ravel()))


def _as_operator(T) -> np.ndarray:
    T = np.asarray(T, dtype=complex)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ShapeMismatchError(f"operator must be square, got shape {T.shape}")
    return T


def adjoint(T) -> np.ndarray:
    return _as_operator(T).conj().T


def singular_values(T) -> np.ndarray:
    """Singular values in nonincreasing order."""
    try:
        return np.linalg.svd(_as_operator(T), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"singular value decomposition failed: {exc}")


def schatten_norm(T, p: float) -> float:
    """(sum_n s_n^p)^(1/p) of the singular values; p = inf is the operator norm."""
    s = singular_values(T)
    if p == math.inf:
        return float(s[0])
    if p < 1:
        raise InvalidParameterError(f"need p >= 1 or p = inf, got {p}")
    return float(np.sum(s**p) ** (1.0 / p))


def operator_norm(T) -> float:
    return schatten_norm(T, math.inf)


def extreme_eigenvalues(T) -> tuple[float, float]:
    """Extreme eigenvalues (smallest, largest) of the Hermitian part (T + T^*)/2.

    No Hermiticity check: for operators that are Hermitian by construction,
    such as frame operators, the bounds are the extreme eigenvalues of the
    symmetrized operator.  Raises NumericFailureError on non-finite entries.
    """
    T = _as_operator(T)
    if not np.all(np.isfinite(T)):
        raise NumericFailureError("operator has non-finite entries")
    eigs = np.linalg.eigvalsh(0.5 * (T + T.conj().T))
    return float(eigs[0]), float(eigs[-1])


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


def is_positive(T, tol: float = 1e-10) -> bool:
    """True when T is Hermitian to tol and its spectrum is >= -tol (scaled)."""
    T = _as_operator(T)
    scale = operator_norm(T)
    if operator_norm(T - T.conj().T) > tol * max(1.0, scale):
        return False
    eigs = np.linalg.eigvalsh(0.5 * (T + T.conj().T))
    return bool(eigs[0] >= -tol * max(1.0, eigs[-1]))


def invert(T) -> np.ndarray:
    """Inverse of a well-conditioned operator.

    Raises NotInvertibleError (carrying the smallest singular value) when the
    relative condition falls below double-precision trust.
    """
    T = _as_operator(T)
    s = singular_values(T)
    if s[0] == 0.0 or s[-1] <= INVERT_RTOL * s[0]:
        raise NotInvertibleError(
            f"smallest singular value {s[-1]:.3e} below cutoff "
            f"{INVERT_RTOL:.0e} * {s[0]:.3e}",
            smallest_singular_value=float(s[-1]),
        )
    return np.linalg.inv(T)


def trace_abs_over_basis(T, onb) -> float:
    """sum_n |<T e_n, e_n>| over an orthonormal basis (checked to 1e-10)."""
    T = _as_operator(T)
    E = np.column_stack([np.asarray(e, dtype=complex).ravel() for e in onb])
    if E.shape != T.shape:
        raise ShapeMismatchError(
            f"basis of {E.shape[1]} vectors of dim {E.shape[0]} for operator {T.shape}"
        )
    gram = E.conj().T @ E
    if operator_norm(gram - np.eye(E.shape[1])) > 1e-10:
        raise ContractViolationError("basis is not orthonormal to 1e-10")
    return float(np.sum(np.abs(np.diagonal(E.conj().T @ T @ E))))


def random_onb(d: int, seed) -> list[np.ndarray]:
    """Deterministic random orthonormal basis of C^d (list of d vectors)."""
    if d < 1:
        raise InvalidParameterError(f"need d >= 1, got {d}")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(A)
    # fix the column phases so the basis is unique, not just QR-dependent
    diag = np.diagonal(R)
    Q = Q * (diag / np.abs(diag))
    return [Q[:, j].copy() for j in range(d)]


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
