"""Controlled frames: a frame paired with an invertible mixing operator.

The control operator C is usually built spectrally from the frame operator
(identity, inverse, square root, power or affine maps of its eigenvalues),
which makes it positive and commuting by construction; explicit operators
are accepted and validated instead.  The mixed operator L_C assembles the
weighted outer products of C F_j against F_j and factors as C times the
frame operator, which is what makes the control a preconditioner for
multipliers.

The functions on ``SampledFrame`` objects validate one frame and call array
kernels (``spectral_controls``, ``mixed_operator``, ``mixed_spectrum``,
``precondition_residual``) that also take stacks of frame operators,
controls and frame vectors along leading axes, so a stack of instances gives,
instance by instance, the values of single calls.  Each instance keeps its
own ``ControlSpec``: its spectral map is applied to that instance's row of
eigenvalues on its own (``spectral_maps``), as for a single frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import (
    ContractViolationError,
    InvalidParameterError,
    NotInvertibleError,
    ShapeMismatchError,
)
from .frame import SampledFrame, frame_operator, require_frame, spectrum_bounds, weighted_gram
from .multiplier import _aligned

SPECTRAL_KINDS = ("identity", "inverse", "sqrt", "power", "affine")
CONTROL_KINDS = SPECTRAL_KINDS + ("explicit",)


@dataclass(frozen=True)
class ControlSpec:
    """Recipe for a control operator.

    Spectral kinds apply a scalar map to the eigenvalues of the frame
    operator; "explicit" wraps a given matrix, validated for invertibility.
    """

    kind: str = "identity"
    t: float | None = None
    alpha: float | None = None
    beta: float | None = None
    operator: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in CONTROL_KINDS:
            raise InvalidParameterError(f"unknown control kind {self.kind!r}")
        if self.kind == "power" and self.t is None:
            raise InvalidParameterError("power control needs an exponent t")
        if self.kind == "affine" and (self.alpha is None or self.beta is None):
            raise InvalidParameterError("affine control needs alpha and beta")
        if self.kind == "explicit" and self.operator is None:
            raise InvalidParameterError("explicit control needs an operator")

    def spectral_map(self, lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        if self.kind == "identity":
            return lam
        if self.kind == "inverse":
            return 1.0 / lam
        if self.kind == "sqrt":
            return np.sqrt(lam)
        if self.kind == "power":
            return lam**self.t
        if self.kind == "affine":
            return self.alpha * lam + self.beta
        raise InvalidParameterError("explicit controls have no spectral map")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "power":
            out["t"] = self.t
        elif self.kind == "affine":
            out["alpha"] = self.alpha
            out["beta"] = self.beta
        elif self.kind == "explicit":
            out["operator"] = hilbert.operator_to_dict(self.operator)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ControlSpec":
        kind = data["kind"]
        if kind == "explicit":
            return cls(kind=kind, operator=hilbert.operator_from_dict(data["operator"]))
        return cls(kind=kind, t=data.get("t"),
                   alpha=data.get("alpha"), beta=data.get("beta"))


def make_control(spec: ControlSpec, F: SampledFrame) -> np.ndarray:
    """Build the control operator for a frame.

    Spectral kinds require F to be a frame; the result then automatically
    commutes with the frame operator and inherits its eigenbasis.
    """
    if spec.kind == "explicit":
        C = _control(spec.operator, F)
        hilbert.require_invertible(hilbert.singular_values(C))
        return C
    return spectral_controls([spec], frame_operator(F))


def _control(C, F: SampledFrame) -> np.ndarray:
    """C as a complex operator, refused unless it is d x d for the frame F."""
    C = np.asarray(C, dtype=complex)
    if C.shape != (F.dim, F.dim):
        raise ShapeMismatchError(f"control of shape {C.shape} for frame of dimension {F.dim}")
    return C


def spectral_maps(specs, lam: np.ndarray) -> np.ndarray:
    """phi(lambda) for eigenvalue rows lam (..., d), one spectral ControlSpec
    per row in the order of the stack.

    Each spec maps its own row with one call, as for a single frame: numpy's
    vectorized power can round differently over a longer array.
    """
    rows = np.reshape(lam, (-1, np.shape(lam)[-1]))
    if len(specs) != len(rows):
        raise ShapeMismatchError(f"{len(specs)} control specs for {len(rows)} operators")
    return np.array([spec.spectral_map(row) for spec, row in zip(specs, rows)]
                    ).reshape(np.shape(lam))


def spectral_controls(specs, S: np.ndarray, eigen=None) -> np.ndarray:
    """Spectral controls U phi(Lambda) U^* of frame operators S = U Lambda U^*:
    one d x d operator, or a stack along leading axes, with one spectral
    ControlSpec per operator in the order of the stack.  One eigensolver
    gives the frame test and the controls: ``eigen`` is np.linalg.eigh(S)
    where the caller has it."""
    lam, U = np.linalg.eigh(S) if eigen is None else eigen
    require_frame(spectrum_bounds(lam[..., 0], lam[..., -1]))
    phi = spectral_maps(specs, lam)
    magnitude = np.abs(phi)
    finite = np.all(np.isfinite(phi), axis=-1)
    smallest = np.min(magnitude, axis=-1)
    singular = ~finite | (smallest <= hilbert.cutoff(np.max(magnitude, axis=-1)))
    if np.any(singular):
        first = int(np.argmax(np.ravel(singular)))
        raise NotInvertibleError(
            f"spectral map produces a singular control ({specs[first].kind})",
            smallest_singular_value=(float(np.ravel(smallest)[first])
                                     if np.ravel(finite)[first] else 0.0),
        )
    return (U * phi[..., None, :]) @ hilbert.adjoint(U)


def controlled_frame_operator(C, F: SampledFrame) -> np.ndarray:
    """Assemble sum_j w_j (C F_j) F_j^*; equals C times the frame operator."""
    return mixed_operator(_control(C, F), F.space.weights, F.vectors)


def mixed_operator(C: np.ndarray, w, vectors: np.ndarray) -> np.ndarray:
    """sum_j w_j (C F_j) F_j^* for a control C and frame vectors F under
    weights w, or for each instance of a stack."""
    return weighted_gram(C @ vectors, w, vectors)


def controlled_bounds(C, F: SampledFrame) -> tuple[float, float]:
    """Optimal two-sided bounds of the mixed operator.

    Requires C self-adjoint, positive and commuting with the frame operator
    (all checked); under those hypotheses the mixed operator is Hermitian and
    its extreme eigenvalues are the controlled bounds.  A positive lower
    bound certifies the controlled frame property, and implies the plain
    frame property of F.
    """
    C = _control(C, F)
    spectrum = mixed_spectrum(C, frame_operator(F), mixed_operator(C, F.space.weights, F.vectors))
    return float(spectrum[0]), float(spectrum[-1])


def mixed_spectrum(C: np.ndarray, S: np.ndarray, L: np.ndarray) -> np.ndarray:
    """The ascending spectrum of the mixed operator L (``mixed_operator``) of
    a control C and the frame operator S, whose extremes are the bounds of
    ``controlled_bounds``, or of each instance of a stack along the last
    axis; raises on the first hypothesis that some instance violates.

    The tests follow the norm policy of ``hilbert`` on one eigen-solve of C:
    its extremes give the self-adjointness and positivity tests and the
    scale of C in the commutator test, ``hilbert.frobenius_scale`` that of S."""
    extremes = hilbert.extreme_eigenvalues(C)
    if not np.all(hilbert.is_hermitian(C, 1e-10, extremes)):
        raise ContractViolationError("control operator is not self-adjoint")
    if not np.all(hilbert.nonnegative_spectrum(*extremes, 1e-10)):
        raise ContractViolationError("control operator is not positive")
    scale = np.maximum(np.abs(extremes[0]), np.abs(extremes[1]))
    commutator = hilbert.frobenius_norm(C @ S - S @ C)
    apart = commutator > 1e-10 * np.maximum(1.0, scale * hilbert.frobenius_scale(S))
    if np.any(apart):
        defect = np.ravel(commutator)[np.argmax(np.ravel(apart))]
        raise ContractViolationError(
            f"control does not commute with the frame operator (defect {defect:.3e})"
        )
    # Hermitian by the hypotheses just checked, so not re-validated
    return hilbert.hermitian_spectrum(L)


def precondition_identity_residual(control_spec: ControlSpec,
                                   dual_spec: ControlSpec,
                                   m, F: SampledFrame, G: SampledFrame) -> float:
    """Relative defect of undoing the controls around a mixed multiplier.

    Builds the multiplier of the controlled families (analysis against C F,
    synthesis with D G) and measures how far D^-1 (that operator) C^-1 is
    from the plain multiplier M of F and G, by the norm policy of ``hilbert``.
    """
    C = make_control(control_spec, F)
    D = make_control(dual_spec, G)
    values = _aligned(m, F, G)
    return precondition_residual(C, D, F.space.weights * values, F.vectors, G.vectors)


def precondition_residual(C: np.ndarray, D: np.ndarray, c, F: np.ndarray,
                          G: np.ndarray):
    """||D^-1 M_C C^-1 - M||_F / (||M||_F / sqrt(d)) (the unscaled norm when
    M = 0), where M is the multiplier sum_j c_j G_j F_j^* and M_C that of the
    controlled vectors C F_j, D G_j; for one instance or each of a stack."""
    mixed = weighted_gram(D @ G, c, C @ F)
    plain = weighted_gram(G, c, F)
    defect = hilbert.invert(D) @ mixed @ hilbert.invert(C) - plain
    scale = hilbert.frobenius_scale(plain)
    residual = hilbert.frobenius_norm(defect)
    return hilbert.value_or_stack(residual / np.where(scale > 0.0, scale, 1.0))
