"""Controlled frames: a frame paired with an invertible mixing operator.

The control operator C is usually built spectrally from the frame operator
(identity, inverse, square root, power or affine maps of its eigenvalues),
which makes it positive and commuting by construction; explicit operators
are accepted and validated instead.  The mixed operator L_C assembles the
weighted outer products of C F_j against F_j and factors as C times the
frame operator, which is what makes the control a preconditioner for
multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import (
    ContractViolationError,
    InvalidParameterError,
    NotAFrameError,
    NotInvertibleError,
    ShapeMismatchError,
)
from .frame import SampledFrame, frame_bounds, frame_operator, weighted_gram
from .multiplier import multiplier

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
        C = np.asarray(spec.operator, dtype=complex)
        if C.shape != (F.dim, F.dim):
            raise ShapeMismatchError(
                f"control of shape {C.shape} for frame of dimension {F.dim}"
            )
        sigma = hilbert.singular_values(C)
        if hilbert.is_singular(sigma):
            raise NotInvertibleError(
                "explicit control operator is numerically singular",
                smallest_singular_value=float(sigma[-1]),
            )
        return C
    if not frame_bounds(F).is_frame:
        raise NotAFrameError("spectral controls need a frame with positive lower bound")
    lam, U = np.linalg.eigh(frame_operator(F))
    phi = spec.spectral_map(lam)
    finite = np.all(np.isfinite(phi))
    if not finite or np.min(np.abs(phi)) <= hilbert.INVERT_RTOL * np.max(np.abs(phi)):
        raise NotInvertibleError(
            f"spectral map produces a singular control ({spec.kind})",
            smallest_singular_value=float(np.min(np.abs(phi))) if finite else 0.0,
        )
    return (U * phi) @ U.conj().T


def controlled_frame_operator(C, F: SampledFrame) -> np.ndarray:
    """Assemble sum_j w_j (C F_j) F_j^*; equals C times the frame operator."""
    C = np.asarray(C, dtype=complex)
    if C.shape != (F.dim, F.dim):
        raise ShapeMismatchError(
            f"control of shape {C.shape} for frame of dimension {F.dim}"
        )
    return weighted_gram(C @ F.vectors, F.space.weights, F.vectors)


def controlled_bounds(C, F: SampledFrame) -> tuple[float, float]:
    """Optimal two-sided bounds of the mixed operator.

    Requires C self-adjoint, positive and commuting with the frame operator
    (all checked); under those hypotheses the mixed operator is Hermitian and
    its extreme eigenvalues are the controlled bounds.  A positive lower
    bound certifies the controlled frame property, and implies the plain
    frame property of F.
    """
    C = np.asarray(C, dtype=complex)
    S = frame_operator(F)
    scale = hilbert.operator_norm(C)
    if hilbert.operator_norm(C - C.conj().T) > 1e-10 * max(1.0, scale):
        raise ContractViolationError("control operator is not self-adjoint")
    # hilbert.is_positive(C, 1e-10) without repeating its Hermiticity test
    if not hilbert.nonnegative_spectrum(*hilbert.extreme_eigenvalues(C), 1e-10):
        raise ContractViolationError("control operator is not positive")
    commutator = hilbert.operator_norm(C @ S - S @ C)
    if commutator > 1e-10 * max(1.0, scale * hilbert.operator_norm(S)):
        raise ContractViolationError(
            f"control does not commute with the frame operator (defect {commutator:.3e})"
        )
    # Hermitian by the hypotheses just checked, so not re-validated
    return hilbert.extreme_eigenvalues(controlled_frame_operator(C, F))


def precondition_identity_residual(control_spec: ControlSpec,
                                   dual_spec: ControlSpec,
                                   m, F: SampledFrame, G: SampledFrame) -> float:
    """Relative defect of undoing the controls around a mixed multiplier.

    Builds the multiplier of the controlled families (analysis against C F,
    synthesis with D G) and measures how far D^-1 (that operator) C^-1 is
    from the plain multiplier of F and G.
    """
    C = make_control(control_spec, F)
    D = make_control(dual_spec, G)
    mixed = multiplier(m, SampledFrame(F.space, C @ F.vectors),
                       SampledFrame(G.space, D @ G.vectors))
    plain = multiplier(m, F, G)
    defect = hilbert.invert(D) @ mixed @ hilbert.invert(C) - plain
    scale = hilbert.operator_norm(plain)
    residual = hilbert.operator_norm(defect)
    return residual / scale if scale > 0.0 else residual
