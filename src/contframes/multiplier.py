"""Frame multipliers: a symbol inserted between analysis and synthesis.

``multiplier(m, F, G)`` assembles sum_j w_j m_j G_j F_j^*, the operator that
analyses with F, multiplies the coefficient function pointwise by m and
resynthesises with G.  The module also provides the norm and Schatten-norm
budgets this factorization implies, symbol truncation, the certificates an
invertible multiplier yields for the lower frame bounds of the weighted
families, the dual frame it induces, and convergence experiments for
perturbed symbols or frames.

The budgets, truncation, the certificates, the induced dual and the
convergence steps are computed by array kernels (``budget_values``,
``truncated``, ``certificate_values``, ``multiplier_dual_vectors``,
``convergence_steps``) that also take stacks of weights, symbols and frames
along leading axes; the functions on ``Symbol`` and ``SampledFrame`` objects
validate one instance and call them, so a stack of instances gives, instance
by instance, the values of single calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import InvalidParameterError, NotAFrameError, ShapeMismatchError
from .frame import (
    SampledFrame,
    max_column_norm,
    operator_bounds,
    scaled_columns,
    weighted_gram,
)
from .measure import Symbol, same_space, symbol_values, weighted_lp_norm

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
    norms, so they are the sharpest constants the factorization provides;
    the operator-norm and trace budgets are those at p = inf and p = 1.
    """
    values = _aligned(m, F, G)
    actuals, budgets = budget_values(F.space.weights, values, F.vectors, G.vectors,
                                     (*ps, math.inf, 1.0))
    *budgets, op_budget, trace_budget = budgets.tolist()
    actuals = dict(zip(ps, actuals.tolist()))
    budgets = dict(zip(ps, budgets))
    passed = {p: bool(actuals[p] <= budgets[p] + tolerance) for p in ps}
    return BudgetReport(op_budget, trace_budget, budgets, actuals, passed, tolerance)


def budget_values(w, values, F: np.ndarray, G: np.ndarray, ps=DEFAULT_PS,
                  sigma=None, upper=None):
    """Schatten p-norm of the multiplier of symbol values m, analysis vectors
    F and synthesis vectors G under weights w, and its budget, for each p of
    ps from one SVD; for one instance or each of a stack.  ``sigma`` are the
    multiplier's singular values and ``upper`` the upper frame bounds
    (B_F, B_G) where the caller has them.

    Two arrays with ps along a new last axis.
    """
    bf, bg = _upper_bounds(w, F, G) if upper is None else upper
    lf, lg = max_column_norm(F), max_column_norm(G)
    if sigma is None:
        sigma = hilbert.singular_values(weighted_gram(G, w * values, F))
    actuals = [hilbert.schatten_of(sigma, p) for p in ps]
    budgets = [schatten_budget(p, weighted_lp_norm(w, values, p), lf, lg, bf, bg)
               for p in ps]
    return np.stack(actuals, axis=-1), np.stack(budgets, axis=-1)


def _upper_bounds(w, F: np.ndarray, G: np.ndarray) -> tuple:
    """(B_F, B_G), the frame operator formed once when G is F."""
    bf = operator_bounds(weighted_gram(F, w, F)).upper
    return bf, bf if G is F else operator_bounds(weighted_gram(G, w, G)).upper


def truncate_symbol(m: Symbol, keep) -> Symbol:
    """Symbol equal to m on the kept index set and zero elsewhere."""
    keep = np.asarray(list(keep), dtype=int)
    n = m.space.n_points
    if keep.size and (keep.min() < 0 or keep.max() >= n):
        raise ShapeMismatchError(f"kept index out of range for {n} points")
    return Symbol(truncated(m.values, keep), m.space)


def truncated(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Complex values equal to ``values`` at the indices ``keep`` and zero
    elsewhere, along the last axis; a stack of value rows takes one row of
    kept indices each."""
    out = np.zeros(np.shape(values), dtype=complex)
    np.put_along_axis(out, keep, np.take_along_axis(values, keep, axis=-1), axis=-1)
    return out


def dual_from_multiplier(m, F: SampledFrame, G: SampledFrame) -> SampledFrame:
    """Dual of G built from an invertible multiplier.

    Returns the frame with columns (M^-1)^* conj(m_j) F_j; synthesising it
    against analysis by G (or vice versa) reproduces the identity.
    """
    values = _aligned(m, F, G)
    return SampledFrame(F.space, multiplier_dual_vectors(
        F.space.weights, values, F.vectors, G.vectors))


def multiplier_dual_vectors(w, values, F: np.ndarray, G: np.ndarray, m_inv=None,
                            bounds=None) -> np.ndarray:
    """Columns (M^-1)^* conj(m_j) F_j of the dual of G that the multiplier M
    of symbol values m, analysis vectors F and synthesis vectors G induces,
    under weights w; for one instance or each of a stack.  ``m_inv`` is M^-1
    and ``bounds`` the operator_bounds of G's frame operator where the
    caller has them."""
    bounds = operator_bounds(weighted_gram(G, w, G)) if bounds is None else bounds
    if not np.all(bounds.is_frame):
        raise NotAFrameError("G must be a frame to admit a dual")
    if m_inv is None:
        m_inv = hilbert.invert(weighted_gram(G, w * values, F))
    return hilbert.adjoint(m_inv) @ scaled_columns(F, values.conj())


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
    sigma = hilbert.singular_values(multiplier(values, F, G))
    measured, floors, passed = certificate_values(F.space.weights, values, F.vectors,
                                                  G.vectors, sigma, tolerance)
    parts = tuple(
        Certificate(part, description, value, None if math.isnan(floor) else floor,
                    ok, degenerate=part == 4 and math.isnan(floor))
        for part, description, value, floor, ok in zip(
            range(1, 6), CERTIFICATES, measured.tolist(), floors.tolist(),
            passed.tolist()))
    return CertificateReport(parts, tolerance)


CERTIFICATES = (
    "lower bound of conj(m) F against 1/(B_G ||inv||^2)",
    "lower bound of m G against 1/(B_F ||inv||^2)",
    "both weighted families are frames",
    "lower bound of F against A(conj(m) F)/sup|m|^2",
    "F and G are frames",
)


def certificate_values(w, values, F: np.ndarray, G: np.ndarray, sigma,
                       tolerance: float = 1e-10, bounds=None):
    """Measured value, floor and verdict of each certificate of
    ``lower_bound_certificates``, for symbol values m, analysis vectors F and
    synthesis vectors G under weights w, or for each instance of a stack.
    ``sigma`` is the singular values of the multiplier M, and ||M^-1|| is
    1 / sigma_min(M); ``bounds`` is the operator_bounds of the frame
    operators of F and G where the caller has them.

    Three arrays with the five parts along a new last axis; a floor is NaN
    where the part has none (parts 3 and 5, and part 4 when sup|m| = 0).
    """
    hilbert.require_invertible(sigma)
    inv_sq = hilbert.power(1.0 / sigma[..., -1], 2)
    bounds_f, bounds_g = (
        (operator_bounds(weighted_gram(F, w, F)), operator_bounds(weighted_gram(G, w, G)))
        if bounds is None else bounds)
    mf = scaled_columns(F, values.conj())
    mg = scaled_columns(G, values)
    bounds_mf = operator_bounds(weighted_gram(mf, w, mf))
    bounds_mg = operator_bounds(weighted_gram(mg, w, mg))

    floor1 = 1.0 / (bounds_g.upper * inv_sq)
    floor2 = 1.0 / (bounds_f.upper * inv_sq)
    # NaN for sup|m| = 0, where part 4 holds trivially
    m_sup = weighted_lp_norm(w, values, math.inf)
    floor4 = bounds_mf.lower / hilbert.power(np.where(m_sup == 0.0, np.nan, m_sup), 2)
    none = np.full(np.shape(floor1), np.nan)
    measured = np.stack([bounds_mf.lower, bounds_mg.lower,
                         np.minimum(bounds_mf.lower, bounds_mg.lower), bounds_f.lower,
                         np.minimum(bounds_f.lower, bounds_g.lower)], axis=-1)
    floors = np.stack([floor1, floor2, none, floor4, none], axis=-1)
    passed = np.stack([bounds_mf.lower >= floor1 - tolerance,
                       bounds_mg.lower >= floor2 - tolerance,
                       bounds_mf.is_frame & bounds_mg.is_frame,
                       np.isnan(floor4) | (bounds_f.lower >= floor4 - tolerance),
                       bounds_f.is_frame & bounds_g.is_frame], axis=-1)
    return measured, floors, passed


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
# the norm of the symbol in the budget of each frame kind
FRAME_NORMS = {"frame_uniform_L2": 2.0, "frame_uniform_L1": 1.0}


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
    if kind == "symbol_p":
        items, ps = [symbol_values(F.space, item) for item in schedule], (p,)
    else:
        if not all(isinstance(item, SampledFrame) for item in schedule):
            raise InvalidParameterError("frame schedules must list frames")
        for item in schedule:
            _aligned(values, item, G)
        items, ps = [item.vectors for item in schedule], (FRAME_NORMS[kind],)
    # the same frame twice (as in a truncation experiment) is passed as one
    # array, so its frame operator is formed once
    synthesis = F.vectors if G is F else G.vectors
    (steps,) = convergence_steps(F.space.weights, values, F.vectors, synthesis,
                                 [(kind, items, ps)])
    eps, measured, budget = (column[0] for column in steps)
    steps = tuple(ConvergenceStep(e, d, b, d <= b + tolerance) for e, d, b in zip(
        eps.tolist(), measured.tolist(), budget.tolist()))
    measured_seq = [s.measured for s in steps]
    monotone = all(b <= a + tolerance for a, b in zip(measured_seq, measured_seq[1:]))
    return ConvergenceReport(kind, p, steps, monotone, all(s.passed for s in steps))


def convergence_steps(w, values, F: np.ndarray, G: np.ndarray, experiments,
                      upper=None) -> list:
    """Distance, deviation and budget of each step of convergence experiments
    (see ``convergence_experiment``) against one base multiplier, for symbol
    values m, analysis vectors F and synthesis vectors G under weights w, or
    for each instance of a stack; one triple per (kind, schedule, ps) of
    ``experiments``.

    kind "symbol_p": the schedule lists symbol values shaped as m, and ps are
    Schatten exponents.  Any other kind: the schedule lists analysis vectors
    shaped as F, and ps are values of FRAME_NORMS, 2 for the budget of
    "frame_uniform_L2" and 1 for that of "frame_uniform_L1".  A step takes
    one Gram product and one SVD for all of ps.  The schedule is read one
    step at a time, so a generator holds one step in memory.  Three arrays
    shaped (..., len(ps), steps) per experiment.  ``upper`` are the upper
    frame bounds (B_F, B_G) where the caller has them.
    """
    wm = w * values
    base = weighted_gram(G, wm, F)
    bf, bg = _upper_bounds(w, F, G) if upper is None else upper
    lf = max_column_norm(F)
    lg = lf if G is F else max_column_norm(G)

    triples = []
    for kind, schedule, ps in experiments:
        if kind != "symbol_p":
            norms = [(weighted_lp_norm(w, values, p), np.sqrt(bg) if p == 2.0 else lg)
                     for p in ps]
        steps = []
        for item in schedule:
            if kind == "symbol_p":
                sigma = hilbert.singular_values(weighted_gram(G, w * item, F) - base)
                delta = item - values
                eps = [weighted_lp_norm(w, delta, p) for p in ps]
                measured = [hilbert.schatten_of(sigma, p) for p in ps]
                budget = [schatten_budget(p, e, lf, lg, bf, bg) for p, e in zip(ps, eps)]
            else:
                distance = max_column_norm(item - F)
                deviation = hilbert.operator_norm(weighted_gram(G, wm, item) - base)
                eps, measured = [distance] * len(ps), [deviation] * len(ps)
                budget = [distance * m_norm * factor for m_norm, factor in norms]
            steps.append([np.stack(column, axis=-1) for column in (eps, measured, budget)])
        triples.append(tuple(np.stack(column, axis=-1) for column in zip(*steps)))
    return triples
