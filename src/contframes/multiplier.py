"""Frame multipliers: a symbol inserted between analysis and synthesis.

``multiplier(m, F, G)`` assembles sum_j w_j m_j G_j F_j^*, the operator that
analyses with F, multiplies the coefficient function pointwise by m and
resynthesises with G.  The module also provides the norm and Schatten-norm
budgets this factorization implies, symbol truncation, the certificates an
invertible multiplier yields for the lower frame bounds of the weighted
families, the dual frame it induces, and convergence experiments for
perturbed symbols or frames.  Each function returns values and the bounds
they are held against, never a verdict: ``suites.verdict`` compares them.

The budgets, the certificates, the induced dual and the convergence steps
are computed by array kernels (``budget_values``, ``certificate_values``,
``multiplier_dual_vectors``, ``convergence_steps``) that also take stacks of
weights, symbols and frames along leading axes; the functions on ``Symbol``
and ``SampledFrame`` objects validate one instance and call them, so a stack
of instances gives, instance by instance, the values of single calls.
``convergence_steps`` forms every step's multiplier: the dense oracle of the
suites' convergence rows.
"""

from __future__ import annotations

import math

import numpy as np

from . import hilbert
from .errors import InvalidParameterError, ShapeMismatchError
from .frame import (
    SampledFrame,
    _check_compatible,
    max_column_norm,
    operator_bounds,
    require_frame,
    scaled_columns,
    weighted_gram,
)
from .measure import Symbol, symbol_values, weighted_lp_norm

DEFAULT_PS = (1.0, 1.5, 2.0, 3.0, math.inf)


def _aligned(m, F: SampledFrame, G: SampledFrame) -> np.ndarray:
    _check_compatible(F, G)
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


def bound_budget(m, F: SampledFrame, G: SampledFrame,
                 ps=DEFAULT_PS) -> tuple[dict, dict]:
    """Every Schatten norm of the multiplier and its budget: two dicts of
    floats keyed by the p of ps.

    Budgets use the optimal upper frame bounds and the exact largest column
    norms, so they are the sharpest constants the factorization provides;
    the operator-norm and trace budgets are those at p = inf and p = 1.
    """
    values = _aligned(m, F, G)
    actuals, budgets = budget_values(F.space.weights, values, F.vectors, G.vectors, ps)
    return dict(zip(ps, actuals.tolist())), dict(zip(ps, budgets.tolist()))


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
    values = np.zeros(n, dtype=complex)
    values[keep] = m.values[keep]
    return Symbol(values, m.space)


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
    require_frame(operator_bounds(weighted_gram(G, w, G)) if bounds is None else bounds)
    if m_inv is None:
        m_inv = hilbert.invert(weighted_gram(G, w * values, F))
    return hilbert.adjoint(m_inv) @ scaled_columns(F, values.conj())


def lower_bound_certificates(m, F: SampledFrame, G: SampledFrame):
    """Five certificates an invertible multiplier gives on frame lower bounds:
    the measured value and the floor of each, two arrays of five, as
    ``certificate_values`` gives them.

    (1) the family conj(m) F has lower bound at least 1/(B_G ||M^-1||^2);
    (2) symmetrically, m G against B_F; (3) both weighted families are
    frames; (4) F itself has lower bound at least that of conj(m) F divided
    by sup|m|^2; (5) F and G are frames.
    """
    values = _aligned(m, F, G)
    sigma = hilbert.singular_values(multiplier(values, F, G))
    return certificate_values(F.space.weights, values, F.vectors, G.vectors, sigma)


# the certificates that hold where the measured value exceeds the floor (3
# and 5, the frame parts); the others hold where it is at least the floor
FRAME_PARTS = (False, False, True, False, True)


def _frame_margin(a, b):
    """The smaller margin of two families' lower bounds over their frame
    cutoffs (``hilbert.cutoff``): positive exactly where both are frames."""
    return np.minimum(a.lower - hilbert.cutoff(a.upper), b.lower - hilbert.cutoff(b.upper))


def certificate_values(w, values, F: np.ndarray, G: np.ndarray, sigma, bounds=None):
    """Measured value and floor of each certificate of
    ``lower_bound_certificates``, for symbol values m, analysis vectors F and
    synthesis vectors G under weights w, or for each instance of a stack.
    ``sigma`` is the singular values of the multiplier M, and ||M^-1|| is
    1 / sigma_min(M); ``bounds`` is the operator_bounds of the frame
    operators of F and G where the caller has them.

    Two arrays with the five parts along a new last axis.  Parts 1, 2 and 4
    measure a lower bound against its floor; parts 3 and 5 the smaller
    margin of two families' lower bounds over ``hilbert.cutoff`` of their
    upper bounds against 0.  An invertible M has sup|m| > 0, so every floor
    is finite.
    """
    hilbert.require_invertible(sigma)
    inv_sq = hilbert.power(1.0 / sigma[..., -1], 2)
    bounds_f, bounds_g = (
        (operator_bounds(weighted_gram(F, w, F)), operator_bounds(weighted_gram(G, w, G)))
        if bounds is None else bounds)
    # the frame operators of conj(m) F and m G, reweighted by |m|^2
    sq = w * np.abs(values) ** 2
    bounds_mf = operator_bounds(weighted_gram(F, sq, F))
    bounds_mg = operator_bounds(weighted_gram(G, sq, G))

    floor1 = 1.0 / (bounds_g.upper * inv_sq)
    floor2 = 1.0 / (bounds_f.upper * inv_sq)
    floor4 = bounds_mf.lower / hilbert.power(weighted_lp_norm(w, values, math.inf), 2)
    zero = np.zeros(np.shape(floor1))
    measured = np.stack([bounds_mf.lower, bounds_mg.lower,
                         _frame_margin(bounds_mf, bounds_mg), bounds_f.lower,
                         _frame_margin(bounds_f, bounds_g)], axis=-1)
    return measured, np.stack([floor1, floor2, zero, floor4, zero], axis=-1)


CONVERGENCE_KINDS = ("symbol_p", "frame_uniform_L2", "frame_uniform_L1")
# the norm of the symbol in the budget of each frame kind
FRAME_NORMS = {"frame_uniform_L2": 2.0, "frame_uniform_L1": 1.0}


def convergence_experiment(kind: str, m, F: SampledFrame, G: SampledFrame,
                           schedule, p: float | None = None):
    """Multiplier deviations along a schedule of perturbed inputs: the
    distance eps_n, the deviation and its budget of each step, three arrays
    of one entry per step.

    kind "symbol_p": the schedule lists symbols m_n; the deviation is the
    Schatten-p distance and the budget is the p-budget of m_n - m.
    kind "frame_uniform_L2": the schedule lists analysis frames F_n; the
    deviation is in operator norm with budget eps_n ||m||_2 sqrt(B_G), where
    eps_n is the largest column distance to F.
    kind "frame_uniform_L1": as above with budget eps_n ||m||_1 L_G.
    The frame kinds fix their norms and refuse a p.
    """
    if kind not in CONVERGENCE_KINDS:
        raise InvalidParameterError(f"unknown convergence kind {kind!r}")
    schedule = list(schedule)
    if not schedule:
        raise InvalidParameterError("empty perturbation schedule")
    if kind == "symbol_p" and p is None:
        raise InvalidParameterError("symbol_p experiments need an explicit p")
    if kind != "symbol_p" and p is not None:
        raise InvalidParameterError(f"{kind} experiments take no p, got {p}")

    values = _aligned(m, F, G)
    if kind == "symbol_p":
        items = [symbol_values(F.space, item) for item in schedule]
    else:
        if not all(isinstance(item, SampledFrame) for item in schedule):
            raise InvalidParameterError("frame schedules must list frames")
        for item in schedule:
            _check_compatible(item, G)
        items = [item.vectors for item in schedule]
    # the same frame twice (as in a truncation experiment) is passed as one
    # array, so its frame operator is formed once
    synthesis = F.vectors if G is F else G.vectors
    return convergence_steps(F.space.weights, values, F.vectors, synthesis, kind, items, p)


def convergence_steps(w, values, F: np.ndarray, G: np.ndarray, kind: str, schedule,
                      p: float | None = None) -> tuple:
    """Distance, deviation and budget of each step of a convergence experiment
    of kind ``kind`` (see ``convergence_experiment``; p is the Schatten
    exponent of "symbol_p") against the base multiplier, for symbol values
    m, analysis vectors F and synthesis vectors G under weights w, or for
    each instance of a stack.  The schedule lists symbol values shaped as m,
    or analysis vectors shaped as F, and is read one step at a time, so a
    generator holds one step in memory.  A step forms its multiplier and
    subtracts the base one: one Gram product and one SVD.  Three arrays
    shaped (..., steps).
    """
    wm = w * values
    base = weighted_gram(G, wm, F)
    bf, bg = _upper_bounds(w, F, G)
    lf = max_column_norm(F)
    lg = lf if G is F else max_column_norm(G)
    if kind != "symbol_p":
        p = FRAME_NORMS[kind]
        m_norm, factor = weighted_lp_norm(w, values, p), np.sqrt(bg) if p == 2.0 else lg
    steps = []
    for item in schedule:
        if kind == "symbol_p":
            eps = weighted_lp_norm(w, item - values, p)
            measured = hilbert.schatten_norm(weighted_gram(G, w * item, F) - base, p)
            budget = schatten_budget(p, eps, lf, lg, bf, bg)
        else:
            eps = max_column_norm(item - F)
            measured = hilbert.operator_norm(weighted_gram(G, wm, item) - base)
            budget = eps * m_norm * factor
        steps.append((eps, measured, budget))
    return tuple(np.stack(column, axis=-1) for column in zip(*steps))
