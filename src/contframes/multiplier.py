"""Frame multipliers: a symbol inserted between analysis and synthesis.

``multiplier(m, F, G)`` assembles sum_j w_j m_j G_j F_j^*, the operator that
analyses with F, multiplies the coefficient function pointwise by m and
resynthesises with G.  The module also provides the norm and Schatten-norm
budgets this factorization implies, symbol truncation, the certificates an
invertible multiplier yields for the lower frame bounds of the weighted
families, the dual frame it induces, and convergence experiments for
perturbed symbols or frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import InvalidParameterError, NotAFrameError, ShapeMismatchError
from .frame import SampledFrame, frame_bounds, norm_bound, weighted_gram
from .measure import Symbol, lp_norm, same_space, symbol_values

DEFAULT_PS = (1.0, 1.5, 2.0, 3.0, math.inf)


def _aligned(m, F: SampledFrame, G: SampledFrame) -> np.ndarray:
    if not same_space(F.space, G.space):
        raise ShapeMismatchError("frames live on different measure spaces")
    if F.dim != G.dim:
        raise ShapeMismatchError(f"dimension mismatch {F.dim} vs {G.dim}")
    return symbol_values(F.space, m)


def multiplier(m, F: SampledFrame, G: SampledFrame) -> np.ndarray:
    """Assemble sum_j w_j m_j G_j F_j^* as a dense d x d matrix."""
    values = _aligned(m, F, G)
    return weighted_gram(G.vectors, F.space.weights * values, F.vectors)


def diag_singular_values(m) -> np.ndarray:
    """Singular values of pointwise multiplication by m: the |m_j|, descending.

    They do not depend on the quadrature weights (the weighted and unweighted
    coordinates are unitarily equivalent), so a constant symbol gives a flat
    spectrum with no decay.
    """
    if isinstance(m, Symbol):
        m = m.values
    return np.sort(np.abs(np.asarray(m, dtype=complex).ravel()))[::-1]


def schatten_budget(p: float, m_norm_p, lf, lg, bf, bg):
    """Budget ||m||_p (L_F L_G)^(1/p) (B_F B_G)^((p-1)/(2p)).

    The exponents interpolate between the trace budget at p = 1 and the
    operator-norm budget at p = inf.  A float for floats; arrays of values,
    one per instance of a stack, give the array of budgets.
    """
    if p == math.inf:
        budget = m_norm_p * np.sqrt(np.multiply(bf, bg))
    elif p < 1:
        raise InvalidParameterError(f"need p >= 1 or p = inf, got {p}")
    else:
        budget = (m_norm_p * hilbert.power(np.multiply(lf, lg), 1.0 / p)
                  * hilbert.power(np.multiply(bf, bg), (p - 1.0) / (2.0 * p)))
    return hilbert.value_or_stack(budget)


@dataclass(frozen=True)
class BudgetReport:
    """Measured Schatten norms of a multiplier against their budgets."""

    op_budget: float
    trace_budget: float
    schatten_budgets: dict[float, float]
    actuals: dict[float, float]
    passed: dict[float, bool]
    tolerance: float

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())

    def to_dict(self) -> dict:
        key = lambda p: "inf" if p == math.inf else repr(float(p))
        return {
            "op_budget": self.op_budget,
            "trace_budget": self.trace_budget,
            "schatten_budgets": {key(p): v for p, v in self.schatten_budgets.items()},
            "actuals": {key(p): v for p, v in self.actuals.items()},
            "passed": {key(p): v for p, v in self.passed.items()},
            "tolerance": self.tolerance,
        }


def bound_budget(m, F: SampledFrame, G: SampledFrame,
                 ps=DEFAULT_PS, tolerance: float = 1e-10) -> BudgetReport:
    """Compare every Schatten norm of the multiplier to its budget.

    Budgets use the optimal upper frame bounds and the exact largest column
    norms, so they are the sharpest constants the factorization provides.
    """
    values = _aligned(m, F, G)
    bf, bg = frame_bounds(F).upper, frame_bounds(G).upper
    lf, lg = norm_bound(F), norm_bound(G)
    sigma = hilbert.singular_values(multiplier(values, F, G))

    budgets, actuals, passed = {}, {}, {}
    for p in ps:
        budgets[p] = schatten_budget(p, lp_norm(F.space, values, p), lf, lg, bf, bg)
        actuals[p] = hilbert.schatten_of(sigma, p)
        passed[p] = bool(actuals[p] <= budgets[p] + tolerance)
    op_budget = lp_norm(F.space, values, math.inf) * math.sqrt(bf * bg)
    trace_budget = lp_norm(F.space, values, 1.0) * lf * lg
    return BudgetReport(op_budget, trace_budget, budgets, actuals, passed, tolerance)


def truncate_symbol(m: Symbol, keep) -> Symbol:
    """Symbol equal to m on the kept index set and zero elsewhere."""
    keep = np.asarray(list(keep), dtype=int)
    n = m.space.n_points
    if keep.size and (keep.min() < 0 or keep.max() >= n):
        raise ShapeMismatchError(f"kept index out of range for {n} points")
    values = np.zeros(n, dtype=complex)
    values[keep] = m.values[keep]
    return Symbol(values, m.space)


def dual_from_multiplier(m, F: SampledFrame, G: SampledFrame) -> SampledFrame:
    """Dual of G built from an invertible multiplier.

    Returns the frame with columns (M^-1)^* conj(m_j) F_j; synthesising it
    against analysis by G (or vice versa) reproduces the identity.
    """
    values = _aligned(m, F, G)
    if not frame_bounds(G).is_frame:
        raise NotAFrameError("G must be a frame to admit a dual")
    m_inv = hilbert.invert(multiplier(values, F, G))
    return SampledFrame(F.space, m_inv.conj().T @ (F.vectors * values.conj()))


@dataclass(frozen=True)
class Certificate:
    """One lower-bound certificate produced by an invertible multiplier."""

    part: int
    description: str
    measured: float
    floor: float | None
    passed: bool
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "part": self.part,
            "description": self.description,
            "measured": self.measured,
            "floor": self.floor,
            "passed": self.passed,
            "degenerate": self.degenerate,
        }


@dataclass(frozen=True)
class CertificateReport:
    parts: tuple[Certificate, ...]
    tolerance: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.parts)

    def to_dict(self) -> dict:
        return {"tolerance": self.tolerance,
                "parts": [c.to_dict() for c in self.parts]}


def lower_bound_certificates(m, F: SampledFrame, G: SampledFrame,
                             tolerance: float = 1e-10) -> CertificateReport:
    """Five certificates an invertible multiplier gives on frame lower bounds.

    (1) the family conj(m) F has lower bound at least 1/(B_G ||M^-1||^2);
    (2) symmetrically, m G against B_F; (3) both weighted families are
    frames; (4) F itself has lower bound at least that of conj(m) F divided
    by sup|m|^2; (5) F and G are frames.
    """
    values = _aligned(m, F, G)
    m_inv = hilbert.invert(multiplier(values, F, G))
    inv_norm = float(hilbert.singular_values(m_inv)[0])

    mf = SampledFrame(F.space, F.vectors * values.conj())
    mg = SampledFrame(G.space, G.vectors * values)
    bounds_f, bounds_g = frame_bounds(F), frame_bounds(G)
    bounds_mf, bounds_mg = frame_bounds(mf), frame_bounds(mg)

    floor1 = 1.0 / (bounds_g.upper * inv_norm**2)
    part1 = Certificate(
        1, "lower bound of conj(m) F against 1/(B_G ||inv||^2)",
        bounds_mf.lower, floor1, bool(bounds_mf.lower >= floor1 - tolerance),
    )
    floor2 = 1.0 / (bounds_f.upper * inv_norm**2)
    part2 = Certificate(
        2, "lower bound of m G against 1/(B_F ||inv||^2)",
        bounds_mg.lower, floor2, bool(bounds_mg.lower >= floor2 - tolerance),
    )
    part3 = Certificate(
        3, "both weighted families are frames",
        min(bounds_mf.lower, bounds_mg.lower), None,
        bool(bounds_mf.is_frame and bounds_mg.is_frame),
    )
    m_sup = lp_norm(F.space, values, math.inf)
    if m_sup == 0.0:
        part4 = Certificate(4, "lower bound of F against A(conj(m) F)/sup|m|^2",
                            bounds_f.lower, None, True, degenerate=True)
    else:
        floor4 = bounds_mf.lower / m_sup**2
        part4 = Certificate(
            4, "lower bound of F against A(conj(m) F)/sup|m|^2",
            bounds_f.lower, floor4, bool(bounds_f.lower >= floor4 - tolerance),
        )
    part5 = Certificate(
        5, "F and G are frames",
        min(bounds_f.lower, bounds_g.lower), None,
        bool(bounds_f.is_frame and bounds_g.is_frame),
    )
    return CertificateReport((part1, part2, part3, part4, part5), tolerance)


@dataclass(frozen=True)
class ConvergenceStep:
    epsilon: float
    measured: float
    budget: float
    passed: bool

    def to_dict(self) -> dict:
        return {"epsilon": self.epsilon, "measured": self.measured,
                "budget": self.budget, "passed": self.passed}


@dataclass(frozen=True)
class ConvergenceReport:
    kind: str
    p: float | None
    steps: tuple[ConvergenceStep, ...]
    monotone: bool
    all_dominated: bool

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "p": None if self.p is None else ("inf" if self.p == math.inf else self.p),
            "steps": [s.to_dict() for s in self.steps],
            "monotone": self.monotone,
            "all_dominated": self.all_dominated,
        }


CONVERGENCE_KINDS = ("symbol_p", "frame_uniform_L2", "frame_uniform_L1")


def convergence_experiment(kind: str, m, F: SampledFrame, G: SampledFrame,
                           schedule, p: float | None = None,
                           tolerance: float = 1e-10) -> ConvergenceReport:
    """Measure multiplier deviations along a schedule of perturbed inputs.

    kind "symbol_p": the schedule lists symbols m_n; the deviation is the
    Schatten-p distance and the budget is the p-budget of m_n - m.
    kind "frame_uniform_L2": the schedule lists analysis frames F_n; the
    deviation is in operator norm with budget eps_n ||m||_2 sqrt(B_G), where
    eps_n is the largest column distance to F.
    kind "frame_uniform_L1": as above with budget eps_n ||m||_1 L_G.
    """
    if kind not in CONVERGENCE_KINDS:
        raise InvalidParameterError(f"unknown convergence kind {kind!r}")
    schedule = list(schedule)
    if not schedule:
        raise InvalidParameterError("empty perturbation schedule")
    if kind == "symbol_p" and p is None:
        raise InvalidParameterError("symbol_p experiments need an explicit p")

    values = _aligned(m, F, G)
    base = multiplier(values, F, G)
    bf, bg = frame_bounds(F).upper, frame_bounds(G).upper
    lf, lg = norm_bound(F), norm_bound(G)

    steps = []
    for item in schedule:
        if kind == "symbol_p":
            delta = symbol_values(F.space, item) - values
            eps = lp_norm(F.space, delta, p)
            measured = hilbert.schatten_norm(multiplier(item, F, G) - base, p)
            budget = schatten_budget(p, eps, lf, lg, bf, bg)
        else:
            if not isinstance(item, SampledFrame):
                raise InvalidParameterError("frame schedules must list frames")
            eps = float(np.max(np.linalg.norm(item.vectors - F.vectors, axis=0)))
            measured = hilbert.operator_norm(multiplier(values, item, G) - base)
            if kind == "frame_uniform_L2":
                budget = eps * lp_norm(F.space, values, 2.0) * math.sqrt(bg)
            else:
                budget = eps * lp_norm(F.space, values, 1.0) * lg
        steps.append(ConvergenceStep(float(eps), float(measured), float(budget),
                                     bool(measured <= budget + tolerance)))

    measured_seq = [s.measured for s in steps]
    monotone = all(b <= a + tolerance for a, b in zip(measured_seq, measured_seq[1:]))
    return ConvergenceReport(kind, p, tuple(steps), monotone,
                             all(s.passed for s in steps))
