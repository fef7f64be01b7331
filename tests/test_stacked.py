"""The stacked trials of the identities, bounds, convergence, controlled,
weighted and gabor suites against the single-frame and single-window API.

Every stacked check reads a trial context: the draws of a block of trials,
with one generator call per role, and the quantities the checks share, each
computed once per block, or the head of a block that a trial cap ends
inside, which cuts what the block holds to its trials.  The oracle here is
the per-trial loop, written with the 2-d API (``frame_bounds``,
``canonical_dual``, ``multiplier``, ``bound_budget``, ``make_control``,
``controlled_bounds``, ``gabor_frame_operator``, ``stft``, ...) on each
trial's instance and test vectors (the context ``Trials(cfg, range(i, i +
1))``); the stacked values of every check must equal it exactly, but for
the rows of ROUNDING.  Those analyse and synthesize a block of vectors with
one matrix product, or take the frame operator of G + eps F from S_G, S_F
and sum_j w_j G_j F_j^*, while the loop forms one matrix-vector product per
vector or the perturbed frame itself: they agree within a bound written from
float64's unit roundoff.  The convergence rows, which take every step from
the multiplier of a bump or of dropped points, are also held against
``convergence_experiment`` on the perturbed inputs themselves, to rounding.
The block kernels, the expanded perturbed operator and the certificates are
held against their dense forms on the edge shapes of EDGE_SHAPES.
"""

import gc
import json
import math
import weakref

import numpy as np
import pytest

from contframes import frame as fr
from contframes import hilbert as hb
from contframes import suites
from contframes import controlled as controlled_module
from contframes import multiplier as multiplier_module
from contframes import tf_frames as tf
from contframes.controlled import (
    ControlSpec,
    controlled_bounds,
    controlled_frame_operator,
    make_control,
    precondition_identity_residual,
)
from contframes.errors import (
    InvalidParameterError,
    NotAFrameError,
    NotInvertibleError,
)
from contframes.measure import (
    MeasureSpace,
    Symbol,
    counting_space,
    lp_norm,
    weighted_lp_norm,
)
from contframes.multiplier import (
    FRAME_PARTS,
    bound_budget,
    certificate_values,
    convergence_experiment,
    dual_from_multiplier,
    lower_bound_certificates,
    multiplier,
    schatten_budget,
    truncate_symbol,
)
from contframes.cli import main
from contframes.reporting import Check
from contframes.suites import (
    PLAIN,
    TRIAL_STREAMS,
    SuiteConfig,
    Trials,
    run_suite,
)


def bits(a):
    a = np.ascontiguousarray(a)
    return a.view(float) if np.iscomplexobj(a) else a


class draws:
    """Trial i of a stacked check: each array of its context alone, as the
    single-frame API takes it."""

    def __init__(self, cfg, i):
        self.context = Trials(cfg, range(i, i + 1))

    def __getattr__(self, name):
        return getattr(self.context, name)[0]


def frames(w, *vectors):
    """Frames with the given vectors on the space of the weights w."""
    space = MeasureSpace(np.arange(len(w), dtype=float)[:, None], w)
    return [fr.SampledFrame(space, V) for V in vectors]


def frame(cfg, i):
    t = draws(cfg, i)
    return frames(t.w, t.F)[0]


def instance(cfg, i):
    """(m, F, G) of trial i, then the trial's draws."""
    t = draws(cfg, i)
    F, G = frames(t.w, t.F, t.G)
    return Symbol(t.m, F.space), F, G, t


def spec_of(kind, params):
    return suites._spec(int(kind), *params.tolist())


# ---------------------------------------------------------------------------
# the per-trial loops, on the 2-d API: one list of values per trial
# ---------------------------------------------------------------------------

def frame_factorization(cfg, i):
    F = frame(cfg, i)
    S = fr.frame_operator(F)
    composed = np.column_stack([fr.synthesis(F, fr.analysis(F, e))
                                for e in np.eye(cfg.d)])
    return [hb.frobenius_norm(S - composed) / fr.frame_bounds(F).upper]


def reconstruction(swapped):
    def oracle(cfg, i):
        t = draws(cfg, i)
        F, = frames(t.w, t.F)
        dual = fr.canonical_dual(F)
        analysis, synthesis = (dual, F) if swapped else (F, dual)
        out = []
        for f in t.tests:
            rec = fr.synthesis(synthesis, fr.analysis(analysis, f))
            out.append(float(np.linalg.norm(rec - f) / np.linalg.norm(f)))
        return out
    return oracle


def multiplier_adjoint(cfg, i):
    m, F, G, _ = instance(cfg, i)
    M = multiplier(m, F, G)
    other = multiplier(m.values.conj(), G, F)
    return [hb.frobenius_norm(M.conj().T - other) / max(hb.frobenius_scale(M), 1e-300)]


def difference_sides(which, cfg, i):
    """The two sides of a difference identity of trial i, and its M."""
    m, F, G, t = instance(cfg, i)
    M = multiplier(m, F, G)
    if which == "symbol":
        lhs = M - multiplier(t.symbol, F, G)
        rhs = multiplier(m.values - t.symbol, F, G)
    elif which == "analysis":
        F2 = fr.SampledFrame(F.space, t.vectors)
        lhs = M - multiplier(m, F2, G)
        rhs = multiplier(m, fr.SampledFrame(F.space, F.vectors - F2.vectors), G)
    else:
        G2 = fr.SampledFrame(F.space, t.vectors)
        lhs = M - multiplier(m, F, G2)
        rhs = multiplier(m, F, fr.SampledFrame(F.space, G.vectors - G2.vectors))
    return lhs, rhs, M


def difference(which):
    def oracle(cfg, i):
        lhs, rhs, M = difference_sides(which, cfg, i)
        return [hb.frobenius_norm(lhs - rhs) / max(hb.frobenius_scale(M), 1e-300)]
    return oracle


def weighted_identity(cfg, i):
    t = draws(cfg, i)
    F, = frames(t.w, t.F)
    m = Symbol(t.nonnegative, F.space)
    M = multiplier(m, F, F)
    S = fr.frame_operator(fr.weighted(F, m))
    return [hb.frobenius_norm(M - S) / max(hb.frobenius_scale(S), 1.0)]


def canonical_dual_pair(cfg, i):
    F = frame(cfg, i)
    return [fr.duality_defect(F, fr.canonical_dual(F))]


def dual_bounds_inverse(cfg, i):
    F = frame(cfg, i)
    bounds = fr.frame_bounds(F)
    dual = fr.frame_bounds(fr.canonical_dual(F))
    return [abs(dual.lower - 1.0 / bounds.upper) * bounds.upper,
            abs(dual.upper - 1.0 / bounds.lower) * bounds.lower]


def deficient_frame(cfg, i):
    """F of trial i, with its last coordinate zeroed on odd trials: columns in
    a hyperplane, so no frame."""
    F = frame(cfg, i)
    if i % 2:
        vectors = F.vectors.copy()
        vectors[-1] = 0.0
        F = fr.SampledFrame(F.space, vectors)
    return F


def frame_iff_invertible(cfg, i):  # True for a failing trial
    F = deficient_frame(cfg, i)
    try:
        hb.invert(fr.frame_operator(F))
        invertible = True
    except NotInvertibleError:
        invertible = False
    return [fr.frame_bounds(F).is_frame != invertible]


def bessel_inequality(cfg, i):
    t = draws(cfg, i)
    F, = frames(t.w, t.F)
    bounds = fr.frame_bounds(F)
    out = []
    for f in t.tests:
        energy = float(np.sum(F.space.weights * np.abs(fr.analysis(F, f)) ** 2))
        nsq = float(np.linalg.norm(f) ** 2)
        scale = bounds.upper * nsq
        out += [(bounds.lower * nsq - energy) / scale, (energy - bounds.upper * nsq) / scale]
    return out


def bessel_sharpness(cfg, i):
    F = frame(cfg, i)
    S = fr.frame_operator(F)
    upper = fr.frame_bounds(F).upper
    top = np.linalg.eigh(0.5 * (S + S.conj().T))[1][:, -1]
    energy = float(np.sum(F.space.weights * np.abs(fr.analysis(F, top)) ** 2))
    return [abs(energy - upper) / upper]


def budget(p):
    def oracle(cfg, i):
        m, F, G, _ = instance(cfg, i)
        actuals, budgets = bound_budget(m, F, G, ps=(p,))
        return [(actuals[p] - budgets[p]) / budgets[p]]
    return oracle


def schatten_monotonicity(cfg, i):
    m, F, G, _ = instance(cfg, i)
    actuals, _ = bound_budget(m, F, G)
    norms = [actuals[p] for p in (1.0, 1.5, 2.0, 3.0, math.inf)]
    return [(b - a) / max(a, b) if max(a, b) else 0.0 for a, b in zip(norms, norms[1:])]


def perturb_upper(cfg, i):
    _, F, G, t = instance(cfg, i)
    eps = float(t.eps)
    upper = fr.frame_bounds(fr.perturb(G, F, eps)).upper
    return [upper - 2.0 * (fr.frame_bounds(G).upper + eps**2 * fr.frame_bounds(F).upper)]


def perturb_lower(cfg, i):
    _, F, G, _ = instance(cfg, i)
    ag, bf = fr.frame_bounds(G).lower, fr.frame_bounds(F).upper
    eps = 0.5 * math.sqrt(ag / bf)
    lower = fr.frame_bounds(fr.perturb(G, F, eps)).lower
    return [(math.sqrt(ag) - eps * math.sqrt(bf)) ** 2 - lower]


def discrete_bessel_norm_bound(cfg, i):
    F = fr.SampledFrame(counting_space(cfg.n_points),
                        draws(cfg, i).F)
    return [fr.norm_bound(F) - math.sqrt(fr.frame_bounds(F).upper)]


def truncation(cfg, i):
    """Deviations and budgets of the steps of trial i's truncation experiment:
    a step's deviation is the norm of the multiplier of m on the points it
    drops, one multiplier per segment between two cuts, summed from the last
    segment on; the last step drops nothing, and both are 0 there."""
    t = draws(cfg, i)
    F, = frames(t.w, t.F)
    m = Symbol(t.nonnegative, F.space)
    order = np.argsort(np.abs(m.values))[::-1]
    cuts = suites._truncation_cuts(cfg.n_points)
    tail, tails = np.zeros((cfg.d, cfg.d), dtype=complex), []
    for start, stop in reversed(list(zip(cuts, cuts[1:]))):
        points = order[start:stop]
        if points.size:
            segment, = frames(t.w[points], t.F[:, points])
            tail = tail + multiplier(m.values[points], segment, segment)
        tails.insert(0, tail)
    measured = [hb.operator_norm(T) for T in tails] + [0.0]
    bf = fr.frame_bounds(F).upper
    budgets = [schatten_budget(math.inf, lp_norm(F.space, truncate_symbol(m, order[:c]).values
                                                 - m.values, math.inf), None, None, bf, bf)
               for c in cuts]
    return measured, budgets


def truncation_budget(cfg, i):  # every step but the last
    measured, budgets = truncation(cfg, i)
    return [a - b for a, b in zip(measured[:-1], budgets)]


def truncation_monotone(cfg, i):  # the rise of every step, the last a fall to 0
    measured, _ = truncation(cfg, i)
    return [b - a for a, b in zip(measured, measured[1:])]


def symbol_convergence(p):
    # step n is the first, the multiplier of the bump s, over n
    def oracle(cfg, i):
        _, F, G, t = instance(cfg, i)
        s = Symbol(t.symbol, F.space)
        budget = schatten_budget(p, lp_norm(F.space, s, p), fr.norm_bound(F), fr.norm_bound(G),
                                 fr.frame_bounds(F).upper, fr.frame_bounds(G).upper)
        first = hb.schatten_norm(multiplier(s, F, G), p) - budget
        return [first / n for n in suites.CONVERGENCE_STEPS]
    return oracle


def frame_convergence(kind):
    # step n is the first, the multiplier with analysis vectors the bump V, over n
    def oracle(cfg, i):
        m, F, G, t = instance(cfg, i)
        V = fr.SampledFrame(F.space, t.vectors)
        p, factor = ((2.0, math.sqrt(fr.frame_bounds(G).upper)) if kind == "frame_uniform_L2"
                     else (1.0, fr.norm_bound(G)))
        budget = fr.norm_bound(V) * lp_norm(F.space, m, p) * factor
        first = hb.operator_norm(multiplier(m, V, G)) - budget
        return [first / n for n in suites.CONVERGENCE_STEPS]
    return oracle


def controlled(cfg, i):
    """A frame, its control spec and the control, as trial i draws them."""
    t = draws(cfg, i)
    F, = frames(t.w, t.F)
    spec = spec_of(t.kinds, t.params)
    return F, spec, make_control(spec, F)


def mapped_spectrum(F, spec):
    # the eigenvalues of the eigendecomposition the control is built from
    lam = np.linalg.eigh(fr.frame_operator(F))[0]
    return spec.spectral_map(lam) * lam


def hermitian_scale(L):
    """max(||(L + L^*)/2||, 1), from the extreme eigenvalues of (L + L^*)/2."""
    return max(*map(abs, hb.extreme_eigenvalues(L)), 1.0)


def controlled_factorization(cfg, i):
    F, _, C = controlled(cfg, i)
    S = fr.frame_operator(F)
    L = controlled_frame_operator(C, F)
    scale = hermitian_scale(L)
    return [hb.frobenius_norm(L - C @ S) / scale,
            hb.frobenius_norm(L - S @ C.conj().T) / scale]


def controlled_bounds_map(cfg, i):
    F, spec, C = controlled(cfg, i)
    low, high = controlled_bounds(C, F)
    mapped = mapped_spectrum(F, spec)
    scale = max(float(np.max(np.abs(mapped))), 1.0)
    return [abs(low - float(np.min(mapped))) / scale,
            abs(high - float(np.max(mapped))) / scale]


def controlled_spectral_mapping(cfg, i):
    F, spec, C = controlled(cfg, i)
    L = controlled_frame_operator(C, F)
    mapped = np.sort(mapped_spectrum(F, spec))
    spectrum = np.sort(np.linalg.eigvalsh(0.5 * (L + L.conj().T)))
    return [float(np.max(np.abs(spectrum - mapped))) / hermitian_scale(L)]


def controlled_positivity(cfg, i):  # True for a failing trial
    F, _, C = controlled(cfg, i)
    return [not hb.is_positive(controlled_frame_operator(C, F), 1e-10)]


def controlled_implies_frame(cfg, i):
    F, _, C = controlled(cfg, i)
    low, _ = controlled_bounds(C, F)
    return [low > 0.0 and not fr.frame_bounds(F).is_frame]


def precondition_identity(cfg, i):
    m, F, G, t = instance(cfg, i)
    return [precondition_identity_residual(spec_of(t.kinds, t.params),
                                           spec_of(t.dual_kinds, t.dual_params), m, F, G)]


def weighted_scaling(cfg, i):
    F = frame(cfg, i)
    bounds = fr.frame_bounds(F)
    scaled = fr.frame_bounds(fr.weighted(F, np.full(cfg.n_points, 3.0)))
    return [abs(scaled.lower - 3.0 * bounds.lower) / (3.0 * bounds.upper),
            abs(scaled.upper - 3.0 * bounds.upper) / (3.0 * bounds.upper)]


def complex_uniform(rng, shape):
    """Complex entries whose real and imaginary part, drawn one after the
    other, are uniform on [-sqrt(3), sqrt(3))."""
    parts = (rng.random((*shape, 2)) - 0.5) * (2.0 * math.sqrt(3.0))
    return parts[..., 0] + 1j * parts[..., 1]


def certificates(cfg, i):  # floor - measured of part 1, then True for a failing trial
    # the check takes ||M^-1|| as 1 / sigma_min(M) from the SVD of M it keeps
    m, F, G, _ = instance(cfg, i)
    measured, floors = certificate_values(
        F.space.weights, m.values, F.vectors, G.vectors,
        sigma=hb.singular_values(multiplier(m, F, G)))
    return [floors[0] - measured[0], not certificates_hold(measured, floors)]


def certificates_hold(measured, floors, tol=1e-10):
    # a frame part holds above its floor, any other at least at it less tol
    return all(value > floor if frame_part else value >= floor - tol
               for value, floor, frame_part in zip(measured, floors, FRAME_PARTS))


def multiplier_dual(cfg, i):
    m, F, G, _ = instance(cfg, i)
    return [fr.duality_defect(dual_from_multiplier(m, F, G), G)]


def positive_symbol_coercivity(cfg, i):  # floor - lam_min, then True for a failing trial
    t = draws(cfg, i)
    F, = frames(t.w, t.F)
    delta = float(t.delta)
    m = Symbol((delta + t.offsets).astype(complex), F.space)
    M = multiplier(m, F, F)
    return [delta * fr.frame_bounds(F).lower - hb.extreme_eigenvalues(M)[0],
            not hb.is_positive(M, 1e-10)]


def unit(v):
    return v / np.linalg.norm(v)


def gabor_tightness(cfg, i):
    # the window is the trial's first test vector
    g = draws(cfg, i).tests[0]
    gsq = float(np.linalg.norm(g) ** 2)
    S = tf.gabor_frame_operator(g, cfg.d)
    return [hb.frobenius_norm(S - gsq * np.eye(cfg.d)) / gsq]


def stft_matches_analysis(cfg, i):
    # unit window and signal; the analysis against the modulations of one
    # shift a at a time, never the d x d^2 family
    d = cfg.d
    g, f = (unit(v) for v in draws(cfg, i).tests[:2])
    coeffs = tf.stft(f, g).values
    worst = 0.0
    for a in range(d):
        shifted = np.column_stack([tf.modulate(tf.translate(g, a), b) for b in range(d)])
        direct = fr.analysis(fr.SampledFrame(counting_space(d), shifted), f)
        worst = max(worst, float(np.max(np.abs(coeffs[a * d:(a + 1) * d] - direct))))
    return [worst]


def stft_energy(cfg, i):
    g, f = draws(cfg, i).tests[:2]
    c = tf.stft(f, g)
    energy = float(np.sum(c.space.weights * np.abs(c.values) ** 2))
    expected = float(np.linalg.norm(g) ** 2) * float(np.linalg.norm(f) ** 2)
    return [abs(energy - expected) / expected]


def stft_orthogonality(cfg, i):
    return [tf.stft_orthogonality_residual(*(unit(v) for v in draws(cfg, i).tests[:4]))]


def tf_shift_unitarity(cfg, i):
    t = draws(cfg, i)
    x = t.tests[0]
    a, b = t.shifts.tolist()
    return [abs(np.linalg.norm(tf.modulate(tf.translate(x, a), b)) - np.linalg.norm(x))]


ORACLES = {
    "frame_factorization": frame_factorization,
    "reconstruction": reconstruction(swapped=False),
    "reconstruction_swapped": reconstruction(swapped=True),
    "multiplier_adjoint": multiplier_adjoint,
    "difference_symbol": difference("symbol"),
    "difference_analysis": difference("analysis"),
    "difference_synthesis": difference("synthesis"),
    "weighted_identity": weighted_identity,
    "canonical_dual_pair": canonical_dual_pair,
    "dual_bounds_inverse": dual_bounds_inverse,
    "frame_iff_invertible": frame_iff_invertible,
    "bessel_inequality": bessel_inequality,
    "bessel_sharpness": bessel_sharpness,
    "op_norm_budget": budget(math.inf),
    "trace_budget": budget(1.0),
    "schatten_budget_p15": budget(1.5),
    "schatten_budget_p2": budget(2.0),
    "schatten_budget_p3": budget(3.0),
    "schatten_monotonicity": schatten_monotonicity,
    "perturb_upper": perturb_upper,
    "perturb_lower": perturb_lower,
    "discrete_bessel_norm_bound": discrete_bessel_norm_bound,
    "truncation_budget": truncation_budget,
    "truncation_monotone": truncation_monotone,
    "symbol_convergence_p1": symbol_convergence(1.0),
    "symbol_convergence_p2": symbol_convergence(2.0),
    "symbol_convergence_pinf": symbol_convergence(math.inf),
    "frame_uniform_l2": frame_convergence("frame_uniform_L2"),
    "frame_uniform_l1": frame_convergence("frame_uniform_L1"),
    "controlled_factorization": controlled_factorization,
    "controlled_bounds_map": controlled_bounds_map,
    "controlled_spectral_mapping": controlled_spectral_mapping,
    "controlled_positivity": controlled_positivity,
    "controlled_implies_frame": controlled_implies_frame,
    "precondition_identity": precondition_identity,
    "weighted_scaling": weighted_scaling,
    "certificates": certificates,
    "multiplier_dual": multiplier_dual,
    "positive_symbol_coercivity": positive_symbol_coercivity,
    "gabor_tightness": gabor_tightness,
    "stft_matches_analysis": stft_matches_analysis,
    "stft_energy": stft_energy,
    "stft_orthogonality": stft_orthogonality,
    "tf_shift_unitarity": tf_shift_unitarity,
}


# the unit roundoff of float64
U = np.finfo(float).eps / 2


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u): a computed sum of n products of
    complex floats errs by at most gamma_{n+2} times the sum of the moduli of
    the products (Higham, "Accuracy and Stability of Numerical Algorithms",
    2002, sections 3.1 and 3.6)."""
    return n * U / (1.0 - n * U)


def gram_trace(w, *vectors):
    """sum_j w_j (||X_j|| + ||Y_j|| + ...)^2 of the d x N arrays given: the
    trace of the Gram matrix of the sum of their moduli, at least its
    Frobenius norm and so at least the operator norm of each Gram product of
    the terms."""
    return float(np.sum(w * sum(np.linalg.norm(X, axis=0) for X in vectors) ** 2))


def bounds_apart(d, n, trace):
    """How far the frame bounds of two d x d Gram products of N columns may lie
    apart, each formed in its own order: both products err by at most
    gamma_{N+8} times ``trace``, and a Hermitian eigen-solve by at most
    gamma_{4d} times the norm of its operator (Weyl's inequality)."""
    return 2.0 * gamma(n + 4 * d + 8) * trace


def factorization_apart(cfg, i):
    # both defects ||S - composed||_F / B are at most gamma_{N+3} tr(S) / B <=
    # gamma_{N+3} d for each of the two products, so they lie that far apart
    return [2.0 * gamma(cfg.n_points + 3) * cfg.d]


def reconstruction_apart(swapped):
    """A reconstruction of f errs by at most gamma_{N+d+6} ||f|| sum_j w_j
    ||A_j|| ||D_j|| for analysis vectors A and synthesis vectors D, whether
    the coefficients come from a block product or one by one."""
    def bound(cfg, i):
        t = draws(cfg, i)
        F, = frames(t.w, t.F)
        D = fr.canonical_dual(F).vectors
        total = float(np.sum(t.w * np.linalg.norm(t.F, axis=0) * np.linalg.norm(D, axis=0)))
        return [2.0 * gamma(cfg.n_points + cfg.d + 8) * total] * len(t.tests)
    return bound


def bessel_apart(cfg, i):
    # each coefficient errs by at most gamma_{d+2} ||f|| ||F_j||, so the energy
    # by 3 gamma_{d+2} ||f||^2 tr(S) <= 3 gamma_{d+2} d B ||f||^2, and its sum
    # by gamma_{N+4} B ||f||^2; the two gaps of each test vector are over B ||f||^2
    bound = 2.0 * (3.0 * gamma(cfg.d + 2) * cfg.d + gamma(cfg.n_points + 4))
    return [bound] * (2 * len(draws(cfg, i).tests))


def perturbed_apart(lower):
    """The bounds of G + eps F, from its frame operator or from S_G, S_F and
    sum_j w_j G_j F_j^*, at the row's eps."""
    def bound(cfg, i):
        _, F, G, t = instance(cfg, i)
        eps = (0.5 * math.sqrt(fr.frame_bounds(G).lower / fr.frame_bounds(F).upper)
               if lower else float(t.eps))
        return [bounds_apart(cfg.d, cfg.n_points, gram_trace(t.w, G.vectors, eps * F.vectors))]
    return bound


# the rows whose values lie within a rounding bound of the per-trial loop's,
# each bound written from U: check id -> the bound on each value of trial i
ROUNDING = {
    "frame_factorization": factorization_apart,
    "reconstruction": reconstruction_apart(swapped=False),
    "reconstruction_swapped": reconstruction_apart(swapped=True),
    "bessel_inequality": bessel_apart,
    "perturb_upper": perturbed_apart(lower=False),
    "perturb_lower": perturbed_apart(lower=True),
}


def stacked(cfg, check_id):
    """The values of a stacked check, trial by trial; a check that measures a
    value and a verdict per trial gives both, in that order."""
    rows = []
    values = suites._stacked_values(cfg, (check_id,))[check_id]
    if isinstance(values, Exception):
        raise values
    for context in values:
        rows += per_trial(context)
    return [v for row in rows for v in row]


def per_trial(values):
    """The values of each trial of what a stacked measure gives on one
    context: an array, or a tuple of arrays, one row per trial."""
    parts = values if isinstance(values, tuple) else (values,)
    return np.column_stack([np.reshape(p, (len(p), -1)) for p in parts]).tolist()


def blocks(cfg, trials):
    """The trials of each block of the first ``trials`` trials."""
    size = suites._block_trials(cfg)
    return [range(i, min(i + size, trials)) for i in range(0, trials, size)]


# the suites whose checks read trial contexts
SEEDED = ("identities", "bounds", "convergence", "controlled", "weighted", "gabor")


def check_ids(suite):
    return [c for c, row in suites.CHECKS.items() if row.suite == suite]


# every algebra and gabor check reads the trials of its contexts but the two
# unbounded-family checks, which loop over three grids, not over trials
LOOPS = {check_id for name in SEEDED for check_id in check_ids(name)}
STACKED = LOOPS - set(suites.NO_INSTANCE)


def test_every_trial_loop_of_the_algebra_and_gabor_suites_is_stacked():
    assert set(suites.NO_INSTANCE) < LOOPS
    assert set(ORACLES) == STACKED
    # every other row reads no trial, and a run measures it once
    assert {row.cap for c, row in suites.CHECKS.items() if c not in STACKED} == {1}


# at N < d the random draws are no frames, which these checks need
NEEDS_FRAMES = {"reconstruction", "reconstruction_swapped", "canonical_dual_pair",
                "dual_bounds_inverse", "perturb_lower", "controlled_factorization",
                "controlled_bounds_map", "controlled_spectral_mapping",
                "controlled_positivity", "controlled_implies_frame",
                "precondition_identity", "certificates", "multiplier_dual"}


@pytest.mark.parametrize("check_id,d,n", [
    (check_id, d, n) for check_id in sorted(ORACLES)
    for d, n in [(4, 12), (8, 64), (8, 4)] if n >= d or check_id not in NEEDS_FRAMES])
def test_stacked_rows_equal_the_single_frame_api(check_id, d, n):
    cfg = SuiteConfig(seed=13, d=d, n_points=n, trials=3)
    oracle = [v for i in range(3) for v in ORACLES[check_id](cfg, i)]
    if check_id not in ROUNDING:
        assert stacked(cfg, check_id) == oracle
        return
    bounds = [b for i in range(3) for b in ROUNDING[check_id](cfg, i)]
    assert len(bounds) == len(oracle)
    assert np.all(np.abs(np.subtract(stacked(cfg, check_id), oracle)) <= bounds)


def perturbed_inputs(check_id, cfg, i):
    """The arguments of convergence_experiment for the experiment of trial i
    that row ``check_id`` measures: its kind, the base (m, F, G), the
    perturbed inputs of its steps, m + s / n, F + V / n or the truncated
    symbols, and p."""
    m, F, G, t = instance(cfg, i)
    if check_id.startswith("truncation"):
        m = Symbol(t.nonnegative, F.space)
        order = np.argsort(np.abs(m.values))[::-1]
        return ("symbol_p", m, F, F, [truncate_symbol(m, order[:c])
                                      for c in suites._truncation_cuts(cfg.n_points)], math.inf)
    steps = suites.CONVERGENCE_STEPS
    if check_id.startswith("symbol"):
        p = {"p1": 1.0, "p2": 2.0, "pinf": math.inf}[check_id.rsplit("_", 1)[1]]
        return "symbol_p", m, F, G, [Symbol(m.values + t.symbol / n, F.space) for n in steps], p
    return ("frame_uniform_" + check_id[-2:].upper(), m, F, G,
            [fr.SampledFrame(F.space, F.vectors + t.vectors / n) for n in steps], None)


@pytest.mark.parametrize("check_id", check_ids("convergence"))
@pytest.mark.parametrize("d,n", [(4, 12), (8, 64), (8, 4)])
def test_convergence_rows_match_the_dense_experiment_step_by_step(check_id, d, n):
    # the rows take every step from the multiplier of the bump or of the
    # dropped points; the dense experiment forms each perturbed multiplier
    # and subtracts the base one, so it rounds like a step as large as the
    # base: the two agree within 16 d ulps of the deviation and budget of
    # the step that doubles the base input
    cfg = SuiteConfig(seed=13, d=d, n_points=n, trials=3)
    rows = np.reshape(stacked(cfg, check_id), (3, -1))
    for i, row in enumerate(rows):
        kind, m, F, G, schedule, p = perturbed_inputs(check_id, cfg, i)
        _, measured, budgets = convergence_experiment(kind, m, F, G, schedule, p=p)
        dense = (np.diff(measured) if check_id == "truncation_monotone"
                 else (measured - budgets)[:-1] if check_id == "truncation_budget"
                 else measured - budgets)
        double = (Symbol(2.0 * m.values, F.space) if kind == "symbol_p"
                  else fr.SampledFrame(F.space, 2.0 * F.vectors))
        _, size, budget = convergence_experiment(kind, m, F, G, [double], p=p)
        assert np.max(np.abs(row - dense)) <= ULPS * d * (size[0] + budget[0])
        if check_id.startswith("truncation"):  # the last step drops nothing
            assert measured[-1] == budgets[-1] == 0.0


@pytest.mark.parametrize("d,n", [(4, 12), (8, 64), (8, 4)])
def test_stacked_frame_iff_invertible_equals_the_single_frame_api(monkeypatch, d, n):
    cfg = SuiteConfig(seed=13, d=d, n_points=n, trials=4)
    oracle = [v for i in range(4) for v in frame_iff_invertible(cfg, i)]
    singular = []
    is_singular = hb.is_singular
    monkeypatch.setattr(hb, "is_singular",
                        lambda sigma: singular.extend(is_singular(sigma).tolist())
                        or is_singular(sigma))
    assert stacked(cfg, "frame_iff_invertible") == oracle
    # odd trials confine the columns to a proper subspace, in the check too
    is_frame = [fr.frame_bounds(deficient_frame(cfg, i)).is_frame for i in range(4)]
    assert is_frame == [n >= d and i % 2 == 0 for i in range(4)]
    assert singular == [not frame for frame in is_frame]


def test_a_frame_of_tiny_vectors_is_a_frame_with_an_invertible_frame_operator():
    # F = 1e-7 I on C^3 with counting weights: S = 1e-14 I is perfectly
    # conditioned, and the frame test is relative like the invertibility test
    F = fr.SampledFrame(counting_space(3), 1e-7 * np.eye(3, dtype=complex))
    S = fr.frame_operator(F)
    assert fr.frame_bounds(F).is_frame
    assert np.allclose(hb.invert(S), np.eye(3) / S[0, 0].real, rtol=1e-14, atol=0.0)
    assert np.allclose(fr.canonical_dual(F).vectors, 1e7 * np.eye(3), rtol=1e-14, atol=0.0)
    # frame_iff_invertible's measure on that frame operator, as trial 0 and,
    # confined to a hyperplane, as trial 1: no disagreement
    t = suites.Trials(SuiteConfig(suite="identities", d=3, n_points=3), range(2))
    t.S_F = np.stack([S, S])
    assert suites.CHECKS["frame_iff_invertible"].measure(t).tolist() == [False, False]


@pytest.mark.parametrize("d,n", [(4, 12), (8, 64), (64, 4096)])
def test_weighted_scaling_measures_the_rounding_of_the_reweighted_product(d, n):
    # the columns of fr.weighted(F, 3) are those of F times sqrt(3), which
    # rounds: the product is not 3 S_F bit for bit, so the check measures a
    # defect, where a reweighting by a power of two would measure 0.0
    cfg = SuiteConfig(seed=13, d=d, n_points=n, trials=4)
    contexts = [Trials(cfg, block) for block in blocks(cfg, 4)]
    reweighted = np.concatenate([fr.weighted_gram(math.sqrt(3.0) * t.F, t.w, math.sqrt(3.0) * t.F)
                                 for t in contexts])
    assert not np.array_equal(bits(reweighted),
                              bits(np.concatenate([3.0 * t.S_F for t in contexts])))
    assert 0.0 < max(stacked(cfg, "weighted_scaling")) < 1e-14


def test_stacked_dual_refuses_non_frames_like_canonical_dual():
    cfg = SuiteConfig(seed=13, d=8, n_points=4, trials=3)
    with pytest.raises(NotAFrameError) as from_stack:
        stacked(cfg, "canonical_dual_pair")
    with pytest.raises(NotAFrameError) as single:
        canonical_dual_pair(cfg, 0)
    assert str(from_stack.value) == str(single.value)


@pytest.mark.parametrize("check_id", sorted(
    c for c in STACKED
    if c.startswith("controlled") or c == "precondition_identity"))
def test_stacked_controls_refuse_non_frames_like_make_control(check_id):
    cfg = SuiteConfig(seed=13, d=8, n_points=4, trials=3)
    with pytest.raises(NotAFrameError) as from_stack:
        stacked(cfg, check_id)
    with pytest.raises(NotAFrameError) as single:
        ORACLES[check_id](cfg, 0)
    assert str(from_stack.value) == str(single.value)


# ---------------------------------------------------------------------------
# the gates of the check table
# ---------------------------------------------------------------------------

def above(x):
    return float(np.nextafter(x, math.inf))


def below(x):
    return float(np.nextafter(x, -math.inf))


@pytest.mark.parametrize("check_id,values,measured,passed,detail", [
    # max from 0 <= tol: the tolerance passes, the next float up fails
    ("frame_factorization", [np.array([0.0, 1e-12])], 1e-12, True, ""),
    ("frame_factorization", [np.array([1e-13]), np.array([above(1e-12)])],
     above(1e-12), False, ""),
    # all-negative values fold to 0
    ("bessel_inequality", [np.array([[[-1.0, -2.0]]]), np.array([[[-3.0, -0.5]]])],
     0.0, True, ""),
    ("schatten_monotonicity", [np.array([[-4.0, -1.0, -0.5, -2.0]])], 0.0, True, ""),
    # max from -inf <= tol: negative values stay
    ("op_norm_budget", [np.array([-3.0, -2.0])], -2.0, True, ""),
    ("op_norm_budget", [np.array([-3.0]), np.array([1e-10])], 1e-10, True, ""),
    ("op_norm_budget", [np.array([above(1e-10)])], above(1e-10), False, ""),
    # count == 0: the number of failing trials
    ("frame_iff_invertible", [np.array([False, False]), np.array([False])], 0.0, True, ""),
    ("frame_iff_invertible", [np.array([False, False]), np.array([True])], 1.0, False, ""),
    # both, on (value, failing) pairs; the certificates report the count
    ("certificates", [(np.array([-1.0, 1e-10]), np.array([False, False]))], 1e-10, True,
     "0 failing instance(s)"),
    ("certificates", [(np.array([-1.0]), np.array([False])),
                      (np.array([-2.0]), np.array([True]))], -1.0, False,
     "1 failing instance(s)"),
    ("certificates", [(np.array([above(1e-10)]), np.array([False]))], above(1e-10), False,
     "0 failing instance(s)"),
    ("positive_symbol_coercivity", [(np.array([-1.0]), np.array([True]))], -1.0, False,
     "1 failing instance(s)"),
    # the rows measured once a run: the value, or the value and a detail, of
    # one context
    ("wavelet_diagonality", [1e-10], 1e-10, True, ""),
    ("wavelet_diagonality", [above(1e-10)], above(1e-10), False, ""),
    ("admissibility_oracle", [(above(1e-4), "value 0.25")], above(1e-4), False,
     "value 0.25"),
    ("unbounded_bessel_cap", [-5.0], -5.0, True, ""),
    # >= floor
    ("unbounded_norm_growth", [(1.5, "norms")], 1.5, True, "norms"),
    ("unbounded_norm_growth", [(below(1.5), "norms")], below(1.5), False, "norms"),
    # in [1.5, tol]
    ("calderon_refinement", [1.5], 1.5, True, ""),
    ("calderon_refinement", [3.0], 3.0, True, ""),
    ("calderon_refinement", [below(1.5)], below(1.5), False, ""),
    ("calderon_refinement", [above(3.0)], above(3.0), False, ""),
    # a NaN value fails every gate, and a non-finite measured value is
    # recorded as null with the value in the detail
    ("op_norm_budget", [np.array([np.nan])], None, False, "measured nan"),
    ("op_norm_budget", [np.array([-1.0, np.nan]), np.array([-2.0])], None, False,
     "measured nan"),
    ("frame_factorization", [np.array([0.0]), np.array([np.nan, 1.0])], None, False,
     "measured nan"),
    ("op_norm_budget", [np.array([math.inf])], None, False, "measured inf"),
    ("op_norm_budget", [np.array([-math.inf])], None, True, "measured -inf"),
    ("certificates", [(np.array([np.nan]), np.array([False]))], None, False,
     "measured nan; 0 failing instance(s)"),
    ("wavelet_diagonality", [math.nan], None, False, "measured nan"),
    ("unbounded_norm_growth", [(math.nan, "norms")], None, False, "measured nan; norms"),
    ("calderon_refinement", [math.nan], None, False, "measured nan"),
])
def test_verdict_gates_at_their_boundaries(check_id, values, measured, passed, detail):
    row = suites.CHECKS[check_id]
    assert suites.verdict(check_id, row, row.tolerance, values) == Check(
        check_id, row.claim, measured, row.tolerance, row.tolerance, passed, detail)


# ---------------------------------------------------------------------------
# the truncation schedule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 10))
def test_truncation_cuts_are_nested(n):
    cuts = suites._truncation_cuts(n)
    assert cuts[0] >= 1 and cuts[-1] == n
    assert cuts == sorted(cuts) and len(set(cuts[:-1])) == len(cuts) - 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_truncation_monotone_holds_on_few_points(monkeypatch, n):
    # the cuts n // 4 and n // 2 used to be 0 here, an empty symbol between
    # nonempty ones, so the deviation rose and the check failed; the cuts
    # repeat here, and the schedule keeps each once, so the rows read the
    # fall to 0 of the deviation at cut 1, not the rise 0 between two equal
    # cuts.  At n = 1 the one segment is empty, forms no product and drops
    # nothing
    gram, columns = fr.weighted_gram, []
    monkeypatch.setattr(fr, "weighted_gram",
                        lambda X, c, Y: columns.append(X.shape[-1]) or gram(X, c, Y))
    check = suites.run_check(SuiteConfig(d=2, n_points=n, trials=5), "truncation_monotone")
    assert check.passed and (check.measured == 0.0 if n == 1 else check.measured < 0.0)
    assert columns and 0 not in columns


# ---------------------------------------------------------------------------
# trial contexts
# ---------------------------------------------------------------------------

def recorded_evaluations(monkeypatch) -> list:
    """(first trial, name) of every role draw and shared quantity the
    contexts evaluate from now on, in order."""
    calls = []
    evaluate = suites.Trials._evaluate

    def recorded(self, name):
        calls.append((self.trials.start, name))
        return evaluate(self, name)

    monkeypatch.setattr(suites.Trials, "_evaluate", recorded)
    return calls


def test_each_family_draws_and_measures_once_per_configuration(monkeypatch):
    # the family of a role or quantity: the checks that read it
    # blocks of 7 trials: 20 trials, or 20 under the cap of 20, take three;
    # every check of every suite reads the contexts of the same three blocks
    monkeypatch.setattr(fr, "BLOCK_ENTRIES", 7 * 4 * 12)
    cfg = SuiteConfig(suite="all", d=4, n_points=12, trials=20)
    # run_check measures each check afresh, as run_suite records it
    expected = [suites.run_check(cfg, check_id) for check_id in suites.CHECKS]
    calls = recorded_evaluations(monkeypatch)
    assert run_suite(cfg).checks == expected
    # each role drawn and each quantity computed once a block, on the one
    # context of the block
    assert len(set(calls)) == len(calls)
    assert {start for start, _ in calls} == {0, 7, 14}
    names = {name for _, name in calls}
    assert sorted(calls, key=lambda call: call[0]) == calls
    assert len(calls) == 3 * len(names)
    # every role and quantity but the eigen-solve that only the gabor
    # subcommand's bound rows read and those of a Calderon study, which the
    # suite reads from the default study a process keeps
    assert names == set(PLAIN) | set(suites.SHARED) - {
        "gabor_extremes", "c_full", "c_plus", "constants", "residuals"}


def test_a_family_whose_measure_raises_aborts_every_member(monkeypatch, tmp_path):
    # the budgets family: the six checks that read the shared budgets
    def broken(t):
        raise FloatingPointError("overflow in the budgets")

    monkeypatch.setitem(suites.SHARED, "budgets", broken)
    readers = ("op_norm_budget", "trace_budget", "schatten_budget_p15",
               "schatten_budget_p2", "schatten_budget_p3", "schatten_monotonicity")
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "bounds", "--d", "4", "--n", "12", "--trials", "3",
                 "--out", str(out)]) == 1
    checks = {c["check_id"]: c for c in json.loads(
        out.read_text(), parse_constant=lambda token: pytest.fail(token))["checks"]}
    for reader in readers:
        assert checks[reader]["measured"] is None and not checks[reader]["pass"]
        assert checks[reader]["error"] == "FloatingPointError: overflow in the budgets"
    assert len(checks) == 13
    assert all(check["pass"] for check_id, check in checks.items()
               if check_id not in readers)


def test_a_family_measures_once_although_its_members_are_apart(monkeypatch):
    # the checks of the canonical dual are the 2nd, 3rd, 9th and 10th
    # identities, the 1st reads S_F too; 5 trials are one block
    cfg = SuiteConfig(suite="identities", d=4, n_points=12, trials=5)
    ids = check_ids("identities")
    assert [ids.index(c) for c in ("reconstruction", "reconstruction_swapped",
                                   "canonical_dual_pair", "dual_bounds_inverse")] == [1, 2, 8, 9]
    expected = run_suite(cfg).checks
    calls = recorded_evaluations(monkeypatch)
    assert run_suite(cfg).checks == expected
    assert [name for _, name in calls].count("dual") == 1
    # the frame test reads the S_F of the other checks
    assert [name for _, name in calls].count("S_F") == 1


def test_a_member_that_needs_a_frame_fails_alone():
    # at N < d no draw is a frame and no multiplier invertible: the checks
    # built on the canonical dual, on a step from A_G or on the inverse
    # multiplier abort with the error of the quantity they read, the checks
    # that read only S_F, its bounds or other steps keep their values
    checks = {c.check_id: c for suite in ("identities", "bounds", "weighted")
              for c in run_suite(SuiteConfig(suite=suite, d=8, n_points=4, trials=5)).checks}
    dual = ("reconstruction", "reconstruction_swapped", "canonical_dual_pair",
            "dual_bounds_inverse")
    for check_id in dual + ("perturb_lower",):
        assert checks[check_id].measured is None and not checks[check_id].passed
    assert {checks[c].error for c in dual + ("perturb_lower",)} == {
        "NotAFrameError: lower frame bound is numerically zero (0.000e+00)"}
    for check_id in ("certificates", "multiplier_dual"):
        assert checks[check_id].measured is None and not checks[check_id].passed
        assert checks[check_id].error.startswith(
            "NotInvertibleError: smallest singular value ")
    for check_id in ("frame_factorization", "perturb_upper", "weighted_scaling",
                     "positive_symbol_coercivity"):
        assert checks[check_id].passed and not checks[check_id].error


def test_back_to_back_runs_measure_their_own_configurations():
    # seed 1 is taken last: at seed 2 the first trial gives every value
    configs = [SuiteConfig(suite="convergence", d=4, n_points=12, trials=5, seed=seed)
               for seed in (2, 1)] + [SuiteConfig(suite="convergence", d=4, n_points=12,
                                                  trials=3, seed=1)]
    runs = [run_suite(cfg).checks for cfg in configs]
    for cfg, checks in zip(configs, runs):
        assert checks == [suites.run_check(cfg, c) for c in check_ids("convergence")]
    for first, second in zip(runs, runs[1:]):
        assert [c.measured for c in first] != [c.measured for c in second]


@pytest.mark.parametrize("d,n", [(4, 12), (8, 64)])
def test_truncation_checks_fold_the_steps_like_the_per_trial_loops(d, n):
    cfg = SuiteConfig(seed=13, d=d, n_points=n, trials=7)
    budget = monotone = -math.inf
    for i in range(7):
        measured, budgets = truncation(cfg, i)
        budget = max(budget, max(a - b for a, b in zip(measured[:-1], budgets)))
        monotone = max(monotone, max(b - a for a, b in zip(measured, measured[1:])))
    # the last step, which drops nothing, is not folded in: a margin shows
    assert suites.run_check(cfg, "truncation_budget").measured == budget < 0.0
    assert suites.run_check(cfg, "truncation_monotone").measured == monotone < 0.0


@pytest.mark.parametrize("suite,per_trial", [
    ("identities", 3), ("bounds", 2), ("convergence", 3), ("controlled", 2),
    ("weighted", 2)])
def test_each_algebra_suite_draws_its_frames_once_a_trial(monkeypatch, suite, per_trial):
    # d x N draws: F, G and the second vectors; the frame test reads F and
    # the certificates F and G
    d, n, trials = 8, 64, 5
    read = suites.Trials._read
    rows = []

    def counted(self, name):
        values = read(self, name)
        if values.shape[-2:] == (d, n):
            rows.append(len(values))
        return values

    monkeypatch.setattr(suites.Trials, "_read", counted)
    assert run_suite(SuiteConfig(suite=suite, d=d, n_points=n, trials=trials)).all_passed
    assert sum(rows) == per_trial * trials


def test_each_shared_quantity_is_formed_once_a_trial(monkeypatch):
    # 70 trials: the blocks [0, 64) and [64, 70), and the heads of block 0
    # under the caps of 20 and 50 trials cut the quantities it holds
    formed = {}

    def counted(name, compute):
        def wrapper(t):
            formed.setdefault(name, []).extend(t.trials)
            return compute(t)
        return wrapper

    names = ("S_F", "S_G", "bounds_F", "bounds_G", "M", "M_scale", "sigma_M")
    for name in names:
        monkeypatch.setitem(suites.SHARED, name, counted(name, suites.SHARED[name]))
    assert run_suite(SuiteConfig(suite="all", d=8, n_points=64, trials=70)).all_passed
    assert set(formed) == set(names)
    for name, trials in formed.items():
        assert len(trials) == len(set(trials)), name


def test_the_contexts_of_one_block_are_gone_before_the_next_block_draws(monkeypatch):
    # blocks of 3 trials; the cap of 1 ends inside the block [0, 3) and the
    # cap of 20 inside [18, 21).  The Calderon study a process keeps is
    # built before the run
    monkeypatch.setattr(fr, "BLOCK_ENTRIES", 3 * 4 * 12)
    suites._default_calderon_study()
    alive = []
    init, read = suites.Trials.__init__, suites.Trials._read
    contexts = set()

    def tracked(self, cfg, trials, **given):
        init(self, cfg, trials, **given)
        contexts.add((type(self), trials))
        alive.append(weakref.ref(self))

    def checked(self, name):
        # every context alive is of this one's block
        blocks = {ref().trials.start // 3 for ref in alive if ref() is not None}
        assert blocks == {self.trials.start // 3}
        return read(self, name)

    monkeypatch.setattr(suites.Trials, "__init__", tracked)
    monkeypatch.setattr(suites.Trials, "_read", checked)
    gc.disable()  # freed by reference counting alone, without waiting for a collection
    try:
        assert run_suite(SuiteConfig(suite="all", d=4, n_points=12, trials=22)).all_passed
    finally:
        gc.enable()
    assert contexts == {(suites.Trials, range(i, min(i + 3, 22))) for i in range(0, 22, 3)} | {
        (suites.Head, range(0, 1)), (suites.Head, range(18, 20))}
    assert all(ref() is None for ref in alive)


def test_suite_all_reports_the_checks_of_every_suite():
    cfg = dict(d=4, n_points=12, trials=8, seed=5)
    union = [check for suite in suites.SUITES[:-1]
             for check in run_suite(SuiteConfig(suite=suite, **cfg)).checks]
    assert run_suite(SuiteConfig(suite="all", **cfg)).checks == union


def test_calderon_checks_read_one_study_per_process(monkeypatch):
    cfg = SuiteConfig(suite="wavelet")
    expected = run_suite(cfg).checks
    context = suites._calderon_context
    calls = []
    monkeypatch.setattr(suites, "_calderon_context",
                        lambda *args, **kwargs: calls.append(args) or context(*args, **kwargs))
    suites._default_calderon_study.cache_clear()
    try:
        # two runs and both Calderon checks of each read one cached context
        assert run_suite(cfg).checks == run_suite(cfg).checks == expected
    finally:
        suites._default_calderon_study.cache_clear()
    assert len(calls) == 1


def test_a_wavelet_run_on_its_own_grid_leaves_the_default_study_alone(monkeypatch):
    default = suites._default_calderon_study()
    default.residuals
    held = dict(vars(default))
    context, calls = suites._calderon_context, []
    monkeypatch.setattr(suites, "_calderon_context",
                        lambda *args, **kwargs: calls.append(args) or context(*args, **kwargs))
    report = suites.run_wavelet(d=64, n_a=16)
    # the run builds its own study, on its grid
    assert [args[1:] for args in calls] == [(64, 2.0**-6, 4.0, 16, 64, (2.0, 8.0), 1.0)]
    residual = next(c for c in report.checks if c.check_id == "calderon_residual")
    assert residual.detail.startswith("d=64 a=[0.015625,4] n_a=16 n_b=64 ")
    # the default is the same context, holding the same values
    assert suites._default_calderon_study() is default
    assert vars(default).keys() == held.keys()
    assert all(vars(default)[name] is value for name, value in held.items())


# ---------------------------------------------------------------------------
# the single-instance API on the kernels keeps the values of its dense forms
# ---------------------------------------------------------------------------

def dense_control(spec, F):
    lam, U = np.linalg.eigh(fr.frame_operator(F))
    return (U * spec.spectral_map(lam)) @ U.conj().T


def dense_convergence(kind, m, F, G, schedule, p=None):
    base = multiplier(m, F, G)
    bf, bg = fr.frame_bounds(F).upper, fr.frame_bounds(G).upper
    lf, lg = fr.norm_bound(F), fr.norm_bound(G)
    steps = []
    for item in schedule:
        if kind == "symbol_p":
            eps = lp_norm(F.space, item.values - m.values, p)
            measured = hb.schatten_norm(multiplier(item, F, G) - base, p)
            budget = schatten_budget(p, eps, lf, lg, bf, bg)
        else:
            eps = float(np.max(np.linalg.norm(item.vectors - F.vectors, axis=0)))
            measured = hb.operator_norm(multiplier(m, item, G) - base)
            if kind == "frame_uniform_L2":
                budget = eps * lp_norm(F.space, m, 2.0) * math.sqrt(bg)
            else:
                budget = eps * lp_norm(F.space, m, 1.0) * lg
        steps.append((eps, measured, budget))
    return steps


def dense_certificates(m, F, G):
    # ||M^-1|| as the norm of the inverse; the API takes 1 / sigma_min(M), so
    # floors 1 and 2 agree to rounding only
    inv_norm = float(hb.singular_values(hb.invert(multiplier(m, F, G)))[0])
    bf, bg = fr.frame_bounds(F), fr.frame_bounds(G)
    bmf = fr.frame_bounds(fr.SampledFrame(F.space, F.vectors * m.values.conj()))
    bmg = fr.frame_bounds(fr.SampledFrame(G.space, G.vectors * m.values))
    floor1 = 1.0 / (bg.upper * inv_norm**2)
    floor2 = 1.0 / (bf.upper * inv_norm**2)
    floor4 = bmf.lower / lp_norm(F.space, m, math.inf) ** 2

    def margin(a, b):  # the smaller lower bound less its frame cutoff
        return min(x.lower - hb.INVERT_RTOL * x.upper for x in (a, b))

    return [(bmf.lower, floor1), (bmg.lower, floor2), (margin(bmf, bmg), 0.0),
            (bf.lower, floor4), (margin(bf, bg), 0.0)]


def assert_certificates_near_the_dense_form(certificates, m, F, G):
    """The measured values and floors of the certificates of (m, F, G) against
    dense_certificates: the lower bounds of conj(m) F and m G come from
    reweighted frame operators there and from the weighted families here, so
    they lie bounds_apart; floors 1 and 2 take ||M^-1|| two ways."""
    measured, floors = certificates
    dense = dense_certificates(m, F, G)
    d, n = F.vectors.shape
    apart = [bounds_apart(d, n, gram_trace(F.space.weights, X * np.abs(m.values)))
             for X in (F.vectors, G.vectors)]
    sup_sq = lp_norm(F.space, m, math.inf) ** 2
    near = [apart[0], apart[1], (1.0 + hb.INVERT_RTOL) * max(apart), 0.0, 0.0]
    assert np.all(np.abs(measured - [value for value, _ in dense]) <= near)
    assert floors[:2].tolist() == pytest.approx(
        [floor for _, floor in dense[:2]], rel=1e-12, abs=0.0)
    assert abs(floors[3] - dense[3][1]) <= apart[0] / sup_sq + 4.0 * U * abs(floors[3])
    assert floors[[2, 4]].tolist() == [dense[2][1], dense[4][1]] == [0.0, 0.0]


@pytest.mark.parametrize("d,n", [(4, 12), (8, 64)])
def test_single_instance_api_equals_its_dense_form(d, n):
    cfg = SuiteConfig(seed=17, d=d, n_points=n, trials=3)
    for i in range(3):
        t = Trials(cfg, range(i, i + 1))
        F, G = frames(t.w[0], t.F[0], t.G[0])
        m = Symbol(t.m[0], F.space)
        rng = np.random.default_rng([17, 301, i])
        bump = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
        bumped = [fr.SampledFrame(F.space, F.vectors + bump / k) for k in (1, 2, 4)]
        symbols = [Symbol(m.values + bump[0] / k, F.space) for k in (1, 2, 4)]
        for kind, schedule, p in [("frame_uniform_L2", bumped, None),
                                  ("frame_uniform_L1", bumped, None),
                                  ("symbol_p", symbols, 1.5), ("symbol_p", symbols, math.inf)]:
            steps = convergence_experiment(kind, m, F, G, schedule, p=p)
            assert list(zip(*(column.tolist() for column in steps))) == (
                dense_convergence(kind, m, F, G, schedule, p))
        assert_certificates_near_the_dense_form(lower_bound_certificates(m, F, G), m, F, G)
        values = m.values
        m_inv = hb.invert(multiplier(m, F, G))
        assert np.array_equal(bits(dual_from_multiplier(m, F, G).vectors),
                              bits(m_inv.conj().T @ (F.vectors * values.conj())))
        for spec in (ControlSpec("power", t=0.7), ControlSpec("affine", alpha=1.5, beta=0.3)):
            C = make_control(spec, F)
            assert np.array_equal(bits(C), bits(dense_control(spec, F)))
            D = make_control(ControlSpec("sqrt"), G)
            mixed = multiplier(m, fr.SampledFrame(F.space, C @ F.vectors),
                               fr.SampledFrame(G.space, D @ G.vectors))
            plain = multiplier(m, F, G)
            residual = hb.frobenius_norm(hb.invert(D) @ mixed @ hb.invert(C) - plain)
            assert precondition_identity_residual(spec, ControlSpec("sqrt"), m, F, G) == (
                residual / hb.frobenius_scale(plain))


# ---------------------------------------------------------------------------
# Frobenius defects against the operator-norm defects they bound
# ---------------------------------------------------------------------------

def opnorm(T):
    """The operator norm, from an SVD taken here."""
    return float(np.linalg.svd(T, compute_uv=False)[0])


def spectral_dual_defect(F, G):
    return opnorm(fr.weighted_gram(G.vectors, F.space.weights, F.vectors) - np.eye(F.dim))


def spectral_canonical_dual_pair(cfg, i):
    F = frame(cfg, i)
    return [spectral_dual_defect(F, fr.canonical_dual(F))]


def spectral_multiplier_dual(cfg, i):
    m, F, G, _ = instance(cfg, i)
    return [spectral_dual_defect(dual_from_multiplier(m, F, G), G)]


def spectral_frame_factorization(cfg, i):
    # the composition of the row: one block of d basis vectors
    F = frame(cfg, i)
    S = fr.frame_operator(F)
    coeffs = fr.coefficients(F.vectors, np.eye(cfg.d, dtype=complex))
    composed = fr.synthesize(F.vectors, F.space.weights, coeffs).T
    return [opnorm(S - composed) / opnorm(S)]


def spectral_multiplier_adjoint(cfg, i):
    m, F, G, _ = instance(cfg, i)
    M = multiplier(m, F, G)
    return [opnorm(M.conj().T - multiplier(m.values.conj(), G, F)) / opnorm(M)]


def spectral_difference(which):
    def oracle(cfg, i):
        lhs, rhs, M = difference_sides(which, cfg, i)
        return [opnorm(lhs - rhs) / opnorm(M)]
    return oracle


def spectral_weighted_identity(cfg, i):
    t = draws(cfg, i)
    F, = frames(t.w, t.F)
    m = Symbol(t.nonnegative, F.space)
    S = fr.frame_operator(fr.weighted(F, m))
    return [opnorm(multiplier(m, F, F) - S) / max(opnorm(S), 1.0)]


def spectral_controlled(check_id):
    def oracle(cfg, i):
        F, spec, C = controlled(cfg, i)
        S = fr.frame_operator(F)
        L = controlled_frame_operator(C, F)
        scale = max(opnorm(L), 1.0)
        if check_id == "controlled_factorization":
            return [opnorm(L - C @ S) / scale, opnorm(L - S @ C.conj().T) / scale]
        spectrum = np.sort(np.linalg.eigvalsh(0.5 * (L + L.conj().T)))
        return [float(np.max(np.abs(spectrum - np.sort(mapped_spectrum(F, spec))))) / scale]
    return oracle


def spectral_precondition_identity(cfg, i):
    m, F, G, t = instance(cfg, i)
    C = make_control(spec_of(t.kinds, t.params), F)
    D = make_control(spec_of(t.dual_kinds, t.dual_params), G)
    mixed = multiplier(m, fr.SampledFrame(F.space, C @ F.vectors),
                       fr.SampledFrame(G.space, D @ G.vectors))
    plain = multiplier(m, F, G)
    return [opnorm(np.linalg.inv(D) @ mixed @ np.linalg.inv(C) - plain) / opnorm(plain)]


# the checks whose defects are Frobenius norms and whose scales come from a
# spectrum, each with every defect and scale in the operator norm
SPECTRAL = {
    "frame_factorization": spectral_frame_factorization,
    "canonical_dual_pair": spectral_canonical_dual_pair,
    "multiplier_dual": spectral_multiplier_dual,
    "controlled_factorization": spectral_controlled("controlled_factorization"),
    "controlled_spectral_mapping": spectral_controlled("controlled_spectral_mapping"),
}
# the checks whose scales are ||X||_F / sqrt(d) as well, at most ||X|| and at
# least ||X|| / sqrt(d), likewise
FROBENIUS_SCALED = {
    "multiplier_adjoint": spectral_multiplier_adjoint,
    "difference_symbol": spectral_difference("symbol"),
    "difference_analysis": spectral_difference("analysis"),
    "difference_synthesis": spectral_difference("synthesis"),
    "weighted_identity": spectral_weighted_identity,
    "precondition_identity": spectral_precondition_identity,
}
ULPS = 16 * np.finfo(float).eps


def between_spectral_and_sqrt_d_times_it(value, spectral, d):
    """||A|| <= ||A||_F <= sqrt(d) ||A|| for a d x d defect A, up to 16 ulp."""
    return spectral * (1.0 - ULPS) <= value <= math.sqrt(d) * spectral * (1.0 + ULPS)


def spectral_and_values(table, check_id, d, n):
    cfg = SuiteConfig(seed=13, d=d, n_points=n, trials=3)
    spectral = [v for i in range(3) for v in table[check_id](cfg, i)]
    values = stacked(cfg, check_id)
    assert len(values) == len(spectral)
    return zip(values, spectral)


@pytest.mark.parametrize("check_id,d,n", [
    (check_id, d, n) for check_id in sorted(SPECTRAL)
    for d, n in [(4, 12), (8, 64), (8, 4)] if n >= d or check_id not in NEEDS_FRAMES])
def test_frobenius_defects_lie_between_the_spectral_defect_and_sqrt_d_times_it(
        check_id, d, n):
    assert all(between_spectral_and_sqrt_d_times_it(value, bound, d)
               for value, bound in spectral_and_values(SPECTRAL, check_id, d, n))


@pytest.mark.parametrize("check_id,d,n", [
    (check_id, d, n) for check_id in sorted(FROBENIUS_SCALED)
    for d, n in [(4, 12), (8, 64), (8, 4)] if n >= d or check_id not in NEEDS_FRAMES])
def test_frobenius_scaled_defects_lie_between_the_spectral_defect_and_d_times_it(
        check_id, d, n):
    # a Frobenius defect over a Frobenius scale: at least the operator-norm
    # value, never looser, and at most sqrt(d) sqrt(d) = d times it
    assert all(between_spectral_and_sqrt_d_times_it(value, bound, d * d)
               for value, bound in spectral_and_values(FROBENIUS_SCALED, check_id, d, n))


@pytest.mark.parametrize("d", [4, 8, 16, 64])
def test_gabor_tightness_lies_between_the_spectral_defect_and_sqrt_d_times_it(d):
    # the first 20 trials, block by block: 8 trials a block at d = 64
    cfg = SuiteConfig(d=d)
    contexts = [Trials(cfg, block) for block in blocks(cfg, 20)]
    g = np.concatenate([t.tests[:, 0] for t in contexts])
    # ||g||^2 as the check takes it: a rounding of it moves the defect
    gsq = [float(np.linalg.norm(v) ** 2) for v in g]
    spectral = [opnorm(S - c * np.eye(d)) / c for S, c in zip(tf.gabor_operator(g), gsq)]
    values = np.concatenate([suites.CHECKS["gabor_tightness"].measure(t) for t in contexts])
    assert len(values) == len(spectral)
    assert all(between_spectral_and_sqrt_d_times_it(value, bound, d)
               for value, bound in zip(values, spectral))


# ---------------------------------------------------------------------------
# blocks and heads
# ---------------------------------------------------------------------------

def built_contexts(monkeypatch) -> list:
    """(kind, trials) of every context built from now on, in order."""
    built = []
    init = suites.Trials.__init__

    def recorded(self, cfg, trials, **given):
        built.append((type(self).__name__, trials))
        init(self, cfg, trials, **given)

    monkeypatch.setattr(suites.Trials, "__init__", recorded)
    return built


@pytest.mark.parametrize("d,n,trials,size,contexts", [
    # 64 trials a block; the caps of 1, 50 and 20 end inside block 0, the
    # cap of 100 inside block 1, one head a cap, built in the order the rows
    # run: the rows of cap 1 first, then the others in table order
    (8, 64, 200, 64, [("Trials", range(0, 64)), ("Head", range(0, 1)),
                      ("Head", range(0, 50)), ("Head", range(0, 20)),
                      ("Trials", range(64, 128)),
                      ("Head", range(64, 100)), ("Trials", range(128, 192)),
                      ("Trials", range(192, 200))]),
    # a block of one trial from d max(d, N) = 2^15 on: no head
    (64, 4096, 4, 1, [("Trials", range(i, i + 1)) for i in range(4)]),
    # the gabor rows and S_F, M hold d^2 entries a trial: at d = 256 one
    # trial fills a block whatever N is
    (256, 1, 3, 1, [("Trials", range(i, i + 1)) for i in range(3)]),
    (256, 64, 3, 1, [("Trials", range(i, i + 1)) for i in range(3)]),
    (8, 4, 600, 512, [("Trials", range(0, 512)), ("Head", range(0, 1)),
                      ("Head", range(0, 50)), ("Head", range(0, 20)),
                      ("Head", range(0, 100)), ("Trials", range(512, 600))]),
    # caps above the trial count end at it, with the last block
    (1, 1, 3, 2**15, [("Trials", range(0, 3)), ("Head", range(0, 1))]),
    (8, 64, 10, 64, [("Trials", range(0, 10)), ("Head", range(0, 1))]),
])
def test_block_rule(monkeypatch, d, n, trials, size, contexts):
    cfg = SuiteConfig(d=d, n_points=n, trials=trials)
    assert suites._block_trials(cfg) == size
    # the contexts of a run follow from the caps and the block size alone:
    # measures that read nothing build the same ones
    for check_id, row in suites.CHECKS.items():
        monkeypatch.setitem(suites.CHECKS, check_id, row._replace(measure=lambda t: t.trials))
    built = built_contexts(monkeypatch)
    suites._stacked_values(cfg, suites.CHECKS)
    assert built == contexts


def test_a_range_across_a_block_end_is_refused():
    cfg = SuiteConfig(d=8, n_points=64)
    with pytest.raises(InvalidParameterError,
                       match=r"^trials range\(60, 70\) cross the end of a 64-trial block$"):
        Trials(cfg, range(60, 70))
    # a whole block, a range inside one and a single trial are contexts
    for trials in (range(0, 64), range(64, 128), range(70, 90), range(127, 128)):
        assert Trials(cfg, trials).trials == trials


@pytest.mark.parametrize("trials", [23, 55])
def test_every_trial_of_every_stacked_check_equals_its_replay(monkeypatch, trials):
    # blocks of 7 trials: the cap of 20 ends inside the block [14, 21) and
    # the cap of 50 inside [49, 56), so those checks read heads that cut
    # what the run's other checks left in the block
    monkeypatch.setattr(fr, "BLOCK_ENTRIES", 7 * 4 * 12)
    cfg = SuiteConfig(seed=3, d=4, n_points=12, trials=trials)
    built = built_contexts(monkeypatch)
    values = suites._stacked_values(cfg, suites.CHECKS)
    assert [head for kind, head in built if kind == "Head"] == (
        [range(0, 1), range(14, 20)] + [range(49, 50)] * (trials > 50))
    replays = [Trials(cfg, range(i, i + 1)) for i in range(trials)]
    for check_id, found in values.items():
        measure = suites.CHECKS[check_id].measure
        if check_id not in STACKED:  # measured once, on trial 0, as on any context
            assert found == [measure(replays[0])], check_id
            continue
        limit = min(trials, suites.CHECKS[check_id].cap or trials)
        assert [row for context in found for row in per_trial(context)] == [
            row for t in replays[:limit] for row in per_trial(measure(t))], check_id


def test_a_head_does_not_take_the_error_of_its_block(monkeypatch):
    # 60 trials at d = 4, N = 12 are one block; bounds_G of every context
    # that holds trial 55 raises
    cfg = SuiteConfig(suite="all", d=4, n_points=12, trials=60)
    plain = {c.check_id: c for c in run_suite(cfg).checks}
    bounds_G = suites.SHARED["bounds_G"]

    def broken(t):
        if 55 in t.trials:
            raise FloatingPointError("bounds_G of trial 55")
        return bounds_G(t)

    monkeypatch.setitem(suites.SHARED, "bounds_G", broken)
    checks = {c.check_id: c for c in run_suite(cfg).checks}
    # the block's readers abort, uncapped or capped past trial 55
    for check_id in ("perturb_lower", "certificates"):
        assert checks[check_id].measured is None and not checks[check_id].passed
        assert checks[check_id].error == "FloatingPointError: bounds_G of trial 55"
    # the heads under the caps of 20 and 50 form bounds_G on their own trials
    for check_id in ("symbol_convergence_p1", "symbol_convergence_p2",
                     "symbol_convergence_pinf", "frame_uniform_l2", "frame_uniform_l1",
                     "multiplier_dual"):
        assert checks[check_id] == plain[check_id]


# ---------------------------------------------------------------------------
# draws
# ---------------------------------------------------------------------------

# every distinct role draw, under a check that reads it
ROLES = {
    "frame_factorization:0": PLAIN["w"],
    "frame_factorization:1": PLAIN["F"],
    "frame_factorization:2": PLAIN["tests"],
    "difference_symbol:3": PLAIN["m"],
    "weighted_identity:2": PLAIN["nonnegative"],
    "perturb_upper:3": PLAIN["eps"],
    "controlled_factorization:2": PLAIN["kinds"],
    "controlled_factorization:3": PLAIN["params"],
    "weighted_scaling:2": PLAIN["delta"],
    "weighted_scaling:3": PLAIN["offsets"],
    "tf_shift_unitarity:1": PLAIN["shifts"],
}


def test_the_role_table_holds_every_role_draw():
    distinct = {id(draw) for draw in PLAIN.values()}
    assert {id(draw) for draw in ROLES.values()} == distinct
    assert len(ROLES) == len(distinct)


@pytest.mark.parametrize("d,n,trials", [(8, 64, 7), (64, 4096, 2)])
@pytest.mark.parametrize("role", sorted(ROLES))
def test_a_role_draws_a_block_as_its_trials_one_at_a_time(role, d, n, trials):
    # at (64, 4096) the suites draw blocks of one trial
    cfg = SuiteConfig(d=d, n_points=n)
    draw = ROLES[role]
    block = draw(np.random.default_rng(6), cfg, trials)
    rng = np.random.default_rng(6)
    each = np.concatenate([draw(rng, cfg, 1) for _ in range(trials)])
    assert len(block) == trials
    assert block.dtype == each.dtype and np.array_equal(bits(block), bits(each))


def test_vectors_in_one_draw_equal_one_draw_per_vector():
    cfg = SuiteConfig(d=5)
    vectors = suites._complex("d")
    one = vectors(np.random.default_rng(4), cfg, 20)
    rng = np.random.default_rng(4)
    each = [vectors(rng, cfg, 1)[0] for _ in range(20)]
    assert np.array_equal(bits(one), bits(np.array(each)))
    assert np.array_equal(bits(one), bits(complex_uniform(np.random.default_rng(4), (20, 5))))


def test_a_role_draw_has_parts_of_mean_0_and_variance_1():
    # one 64 x 4096 role of a suites_large trial: 2^19 parts, each uniform on
    # [-sqrt(3), sqrt(3)), whose square has variance 9/5 - 1 = 4/5
    parts = suites.PLAIN["F"](np.random.default_rng(8), SuiteConfig(d=64, n_points=4096), 1
                              ).view(float).ravel()
    root3, n = math.sqrt(3.0), parts.size
    assert n == 2 * 64 * 4096 and np.all((-root3 <= parts) & (parts < root3))
    assert abs(np.mean(parts)) <= 5.0 * math.sqrt(1.0 / n)
    assert abs(np.var(parts) - 1.0) <= 5.0 * math.sqrt(0.8 / n)


def test_control_specs_take_their_kind_and_parameter_row():
    kinds = np.arange(5)
    params = np.array([[0.25, 1.5, 0.5]] * 5)
    assert suites._specs(kinds, params) == [
        ControlSpec("identity"), ControlSpec("inverse"), ControlSpec("sqrt"),
        ControlSpec("power", t=0.25), ControlSpec("affine", alpha=1.5, beta=0.5)]


def recorded_streams(monkeypatch) -> list:
    """The keys of every stream the suites open from now on, in order."""
    keys = []
    rng = suites._rng

    def recorded(*key):
        keys.append(key)
        return rng(*key)

    monkeypatch.setattr(suites, "_rng", recorded)
    return keys


def test_a_singular_trial_aborts_certificates_and_multiplier_dual_alone(monkeypatch):
    # the first symbol of trials 1 and 4 is zero, and so is their multiplier;
    # the six trials are one block
    cfg = SuiteConfig(suite="weighted", seed=13, d=4, n_points=12, trials=6)
    assert blocks(cfg, 6) == [range(6)]
    plain = {c.check_id: c for c in run_suite(cfg).checks}
    read = suites.Trials._read

    def zeroed(self, name):
        values = read(self, name)
        if name == "m":
            values[np.isin(self.trials, (1, 4))] = 0.0
        return values

    monkeypatch.setattr(suites.Trials, "_read", zeroed)
    checks = {c.check_id: c for c in run_suite(cfg).checks}
    # both read sigma_M through the invertibility cutoff, and abort with it
    for check_id in ("certificates", "multiplier_dual"):
        assert plain[check_id].passed
        assert checks[check_id].measured is None and not checks[check_id].passed
        assert checks[check_id].error == (
            "NotInvertibleError: smallest singular value 0.000e+00 below cutoff "
            "1e-12 * 0.000e+00")
    # the checks that do not read the symbol keep their records
    for check_id in ("weighted_scaling", "positive_symbol_coercivity"):
        assert checks[check_id] == plain[check_id]


def test_the_weighted_suite_forms_s_f_once_a_trial(monkeypatch):
    # certificates and multiplier_dual read the plain context, and with it
    # the S_F and bounds of the other two checks
    formed = []
    S_F = suites.SHARED["S_F"]
    monkeypatch.setitem(suites.SHARED, "S_F",
                        lambda t: formed.extend(t.trials) or S_F(t))
    assert run_suite(SuiteConfig(suite="weighted", d=4, n_points=12, trials=100)).all_passed
    assert formed == list(range(100))


def test_stacked_instances_equal_replay(monkeypatch):
    # blocks of 3 trials: the blocks of 8 trials are [0, 3), [3, 6), [6, 8)
    monkeypatch.setattr(fr, "BLOCK_ENTRIES", 3 * 3 * 5)
    cfg = SuiteConfig(seed=2, d=3, n_points=5)
    assert blocks(cfg, 8) == [range(0, 3), range(3, 6), range(6, 8)]
    for block in blocks(cfg, 8):
        t = Trials(cfg, block)
        for k, i in enumerate(block):
            single = Trials(cfg, range(i, i + 1))
            for name in PLAIN:
                assert np.array_equal(bits(getattr(t, name)[k]), bits(getattr(single, name)[0]))


def recorded_draws(monkeypatch) -> list:
    """(role, count) of every role draw from now on, in order."""
    draws = []
    for name, draw in PLAIN.items():
        monkeypatch.setitem(PLAIN, name, lambda rng, cfg, count, name=name, draw=draw:
                            draws.append((name, count)) or draw(rng, cfg, count))
    return draws


@pytest.mark.parametrize("d,n,trial,block,first", [(64, 512, 20, 20, 20), (8, 64, 70, 1, 64)])
def test_a_single_trial_context_reads_its_block_alone(monkeypatch, d, n, trial, block, first):
    # a block of one trial at (64, 512) and of 64 trials at (8, 64): the
    # context opens the streams of its block and reads them from its first
    # trial on, the block's trials before it drawn and dropped
    cfg = SuiteConfig(seed=9, d=d, n_points=n)
    keys, counts = recorded_streams(monkeypatch), recorded_draws(monkeypatch)
    single = Trials(cfg, range(trial, trial + 1))
    for name in PLAIN:
        getattr(single, name)
    assert keys == [(9, TRIAL_STREAMS, r, block) for r in range(len(PLAIN))]
    assert counts == [(name, count) for name in PLAIN for count in (trial - first, 1)]
    # the values of the trial in the block of a run that holds it
    held = next(trials for trials in blocks(cfg, trial + 1) if trial in trials)
    assert held.start == first
    run = Trials(cfg, held)
    for name in PLAIN:
        assert np.array_equal(bits(getattr(run, name)[-1]), bits(getattr(single, name)[0]))


def test_no_two_roles_checks_or_attempts_share_a_stream(monkeypatch, tmp_path):
    # the stacked checks read the streams [seed, TRIAL_STREAMS, role, block],
    # so a run of one block opens each of them once, and no two roles share
    # one; no trial or check opens a stream of its own
    keys = recorded_streams(monkeypatch)
    assert main(["verify", "--suite", "all", "--d", "4", "--n", "12", "--trials", "9",
                 "--out", str(tmp_path / "report.json")]) == 0

    # SeedSequence pads its entropy with zeros, so [s, k, r] and [s, k, r, 0]
    # seed the same stream
    def stripped(key):
        key = list(key)
        while key and key[-1] == 0:
            key.pop()
        return tuple(key)

    # the trial streams of block 0, the only block, and the two unbounded
    # families
    assert sorted(keys) == sorted([(0, TRIAL_STREAMS, r, 0) for r in range(len(PLAIN))]
                                  + [(0, 123), (0, 124)])
    assert len({stripped(key) for key in keys}) == len(keys)


def drawn_doubles(monkeypatch) -> list:
    """The number of uniform doubles of every draw of a complex role, two an
    entry, from the streams the suites open from now on, in order."""
    counts = []
    rng = suites._rng

    class Counted(np.random.Generator):
        def random(self, *args, **kwargs):
            drawn = super().random(*args, **kwargs)
            counts.append(np.size(drawn))
            return drawn

    monkeypatch.setattr(suites, "_rng", lambda *key: Counted(rng(*key).bit_generator))
    return counts


# generators built and doubles the complex roles draw by verify --suite all
# at its defaults (d = 8, N = 64, 200 trials) and by each verify of the
# suites_small benchmark workload, which runs at those sizes: two doubles a
# complex entry.  One generator a role a block, and one for each unbounded
# family; a head draws only the roles its block does not hold.  A count that
# rises fails here until CHANGES.md re-pins it.
DRAWS = {"all": (52, 729_632), "identities": (32, 729_600), "bounds": (26, 499_232),
         "convergence": (7, 97_280), "gabor": (4, 32_000), "controlled": (16, 217_600),
         "weighted": (12, 217_600)}


@pytest.mark.parametrize("suite", sorted(DRAWS))
def test_the_suites_draw_the_pinned_generators_and_normals(monkeypatch, suite):
    keys, doubles = recorded_streams(monkeypatch), drawn_doubles(monkeypatch)
    draws = recorded_draws(monkeypatch)
    assert run_suite(SuiteConfig(suite=suite)).all_passed
    assert (len(keys), sum(doubles)) == DRAWS[suite]
    # a role's stream is read past the trials before the context's first,
    # then for its trials: every context of a run starts a block
    assert [count for _, count in draws[::2]] == [0] * (len(draws) // 2)


# one pass of the suites_large benchmark workload: the five algebra suites at
# d = 64, N = 4096 with 4 trials, seed 7, a block a trial.  Generators,
# doubles and weighted_gram calls; a count that rises fails here until
# CHANGES.md re-pins it
LARGE_PASS = (142, 25_415_936, 155)


def test_the_large_benchmark_pass_takes_the_pinned_draws_and_products(monkeypatch):
    keys, doubles, products = recorded_streams(monkeypatch), drawn_doubles(monkeypatch), []
    gram = fr.weighted_gram
    for module in (fr, multiplier_module, controlled_module):  # the two import it by name
        monkeypatch.setattr(module, "weighted_gram",
                            lambda X, c, Y: products.append(np.shape(X)) or gram(X, c, Y))
    for suite in ("identities", "bounds", "convergence", "controlled", "weighted"):
        assert run_suite(SuiteConfig(suite=suite, seed=7, d=64, n_points=4096, trials=4)).all_passed
    assert (len(keys), sum(doubles), len(products)) == LARGE_PASS


@pytest.mark.parametrize("check_id,blocks_of", [
    ("frame_factorization", [(8, 8)]), ("reconstruction", [(None, 20, 8)] * 2),
    ("bessel_inequality", [(None, 20, 8)])])
def test_the_block_callers_analyse_a_whole_block_at_once(monkeypatch, check_id, blocks_of):
    # 70 trials at d = 8, N = 64: the blocks [0, 64) and [64, 70).  Every
    # context analyses the basis or its test vectors with one call a
    # reconstruction, the d x d basis shared by every trial
    calls, coefficients = [], fr.coefficients

    def recorded(vectors, f):
        out = coefficients(vectors, f)
        calls.append((vectors.shape, f.shape, out.shape))
        return out

    monkeypatch.setattr(fr, "coefficients", recorded)
    suites._stacked_values(SuiteConfig(d=8, n_points=64, trials=70), (check_id,))
    assert calls == [((T, 8, 64), tuple(T if k is None else k for k in block), (T, block[-2], 64))
                     for T in (64, 6) for block in blocks_of]


# ---------------------------------------------------------------------------
# kernels: a stack gives, slice by slice, the values of single calls
# ---------------------------------------------------------------------------

def stack_of(rng, shape, count=(5,)):
    shape = (*count, *shape)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_hilbert_kernels_take_stacks():
    rng = np.random.default_rng(31)
    T = stack_of(rng, (6, 6))
    lower, upper = hb.extreme_eigenvalues(T)
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        norms = hb.schatten_norm(T, p)
        assert [hb.schatten_norm(t, p) for t in T] == norms.tolist()
    assert [hb.operator_norm(t) for t in T] == hb.operator_norm(T).tolist()
    assert [hb.extreme_eigenvalues(t) for t in T] == list(zip(lower.tolist(),
                                                             upper.tolist()))
    assert all(np.array_equal(bits(np.linalg.inv(t)), bits(inv))
               for t, inv in zip(T, hb.invert(T)))
    assert [hb.frobenius_norm(t) for t in T] == hb.frobenius_norm(T).tolist() == [
        float(np.linalg.norm(t, "fro")) for t in T]
    R = stack_of(rng, (3, 5), count=(2, 4))
    assert hb.frobenius_norm(R).tolist() == [[float(np.linalg.norm(r, "fro")) for r in row]
                                             for row in R]
    x = stack_of(rng, (7,), count=(3, 4))
    assert hb.norm(x).tolist() == [[float(np.linalg.norm(v)) for v in row] for row in x]
    assert hb.norm(x[0, 0]) == float(np.linalg.norm(x[0, 0]))


def test_invert_names_the_first_singular_operator_of_a_stack():
    T = np.stack([np.eye(2), np.diag([1.0, 0.0]), np.diag([2.0, 0.0])])
    with pytest.raises(NotInvertibleError) as err:
        hb.invert(T)
    assert err.value.smallest_singular_value == 0.0
    assert "* 1.000e+00" in str(err.value)


def test_power_is_the_scalar_pow():
    x = np.random.default_rng(3).uniform(0.01, 100.0, 2000)
    for y in (1.0 / 1.5, 0.5, 2, 1.0 / 3.0):
        assert hb.power(x, y).tolist() == [np.float64(v) ** y for v in x]
    assert hb.power(np.float64(2.0), 0.5) == 2.0 ** 0.5
    assert isinstance(hb.power(np.float64(2.0), 0.5), float)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_power_overflows_to_infinity_as_the_c_pow_does():
    # Python's float power raises OverflowError where C pow gives +-inf
    assert hb.power(1e200, 2) == hb.power(np.float64(1e-200), -2) == math.inf
    assert hb.power(-1e200, 3) == -math.inf
    x = np.array([[1e200, 2.0], [-1e200, 0.5]])
    assert hb.power(x, 2).tolist() == [[math.inf, 4.0], [math.inf, 0.25]]
    assert hb.power(x, 3).tolist() == [[math.inf, 8.0], [-math.inf, 0.125]]
    # the finite values of a stack that overflows keep the bits of the scalar pow
    assert hb.power(np.array([1e200, 1.1, 0.3]), 2.5).tolist() == [
        math.inf, 1.1 ** 2.5, 0.3 ** 2.5]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_power_is_nan_off_the_real_line_and_inf_at_a_pole():
    # Python's float power gives a complex root or raises ZeroDivisionError here
    assert math.isnan(hb.power(-8.0, 1.0 / 3.0))
    assert isinstance(hb.power(-8.0, 1.0 / 3.0), float)
    roots = hb.power(np.array([-8.0, 8.0]), 1.0 / 3.0)
    assert roots.dtype == np.float64 and math.isnan(roots[0]) and roots[1] == 8.0 ** (1 / 3)
    assert hb.power(0.0, -2) == hb.power(np.array([0.0]), -2.0)[0] == math.inf


def test_frame_kernels_take_stacks():
    rng = np.random.default_rng(32)
    d, n = 4, 9
    V, W = stack_of(rng, (d, n)), stack_of(rng, (d, n))
    w = rng.uniform(0.2, 2.0, (5, n))
    m = stack_of(rng, (n,))
    f = stack_of(rng, (d,))
    frames = [fr.SampledFrame(MeasureSpace(np.arange(float(n)), w[k]), V[k])
              for k in range(5)]
    others = [fr.SampledFrame(F.space, W[k]) for k, F in enumerate(frames)]
    S = fr.weighted_gram(V, w, V)
    bounds = fr.operator_bounds(S)
    blocks = stack_of(rng, (3, d))
    coeffs = fr.coefficients(V, blocks)
    dual = fr.dual_vectors(S, V)
    sums = fr.perturbed(W, V, np.full((5, 1, 1), 0.3))
    for k, F in enumerate(frames):
        assert np.array_equal(bits(S[k]), bits(fr.frame_operator(F)))
        assert np.array_equal(bits(fr.weighted_gram(W, w * m, V)[k]),
                              bits(multiplier(m[k], F, others[k])))
        single = fr.frame_bounds(F)
        assert (bounds.lower[k], bounds.upper[k], bounds.is_frame[k]) == (
            single.lower, single.upper, single.is_frame)
        # a block of the stack equals the block on its frame alone, and a
        # block of one the single-vector functions
        assert np.array_equal(bits(coeffs[k]), bits(fr.coefficients(V[k], blocks[k])))
        assert np.array_equal(bits(fr.synthesize(V, w, coeffs)[k]),
                              bits(fr.synthesize(V[k], w[k], coeffs[k])))
        assert np.array_equal(bits(fr.coefficients(V, f[:, None])[k, 0]),
                              bits(fr.analysis(F, f[k])))
        assert np.array_equal(bits(fr.synthesize(V, w, coeffs[:, :1])[k, 0]),
                              bits(fr.synthesis(F, coeffs[k, 0])))
        assert fr.max_column_norm(V)[k] == fr.norm_bound(F)
        assert np.array_equal(bits(dual[k]), bits(fr.canonical_dual(F).vectors))
        assert np.array_equal(bits(sums[k]), bits(fr.perturb(others[k], F, 0.3).vectors))
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            assert weighted_lp_norm(w, m, p)[k] == lp_norm(F.space, m[k], p)


# ---------------------------------------------------------------------------
# fast paths against their dense forms, to a bound written from U
# ---------------------------------------------------------------------------

# (d, N) of the dense-oracle tests, N < d among them
EDGE_SHAPES = [(d, n) for d in (1, 4, 8) for n in (1, 3, 12, 64)]


@pytest.mark.parametrize("d,n", EDGE_SHAPES)
@pytest.mark.parametrize("k", [1, 5, 20])
@pytest.mark.parametrize("count", [1, 3])
def test_block_kernels_equal_a_loop_over_the_vectors_to_rounding(d, n, k, count):
    # analysis and synthesis of k vectors per frame, one matrix product each,
    # against the single-vector functions on every vector; a sum of m complex
    # products errs by at most gamma_{m+2} times the sum of their moduli, and
    # w c adds one rounding
    rng = np.random.default_rng([32, d, n, k, count])
    V, f, c = stack_of(rng, (d, n), (count,)), stack_of(rng, (k, d), (count,)), stack_of(
        rng, (k, n), (count,))
    w = rng.uniform(0.2, 2.0, (count, n))
    coeffs, syntheses = fr.coefficients(V, f), fr.synthesize(V, w, c)
    assert coeffs.shape == (count, k, n) and syntheses.shape == (count, k, d)
    F = [frames(w[s], V[s])[0] for s in range(count)]
    analysed = np.array([[fr.analysis(F[s], x) for x in f[s]] for s in range(count)])
    synthesized = np.array([[fr.synthesis(F[s], x) for x in c[s]] for s in range(count)])
    assert np.all(np.abs(coeffs - analysed) <= 2.0 * gamma(d + 2) * (np.abs(f) @ np.abs(V)))
    assert np.all(np.abs(syntheses - synthesized) <= 2.0 * gamma(n + 3) * (
        (w[:, None] * np.abs(c)) @ np.abs(V).swapaxes(-1, -2)))
    if k == 1:  # a block of one is the matrix-vector product of the loop
        assert np.array_equal(bits(coeffs), bits(analysed))
        assert np.array_equal(bits(syntheses), bits(synthesized))


@pytest.mark.parametrize("d,n", EDGE_SHAPES)
@pytest.mark.parametrize("count", [1, 3])
def test_the_expanded_perturbed_operator_equals_the_dense_one_to_rounding(d, n, count):
    # S_G + eps (S_GF + S_GF^* + eps S_F) against the frame operator of the
    # vectors G + eps F: each errs by at most gamma_{N+8} times the Gram
    # matrix of |G| + eps |F|, entry by entry
    t = Trials(SuiteConfig(seed=23, d=d, n_points=n, trials=count), range(count))
    eps = t.eps[:, None, None]
    vectors = fr.perturbed(t.G, t.F, eps)
    dense = fr.weighted_gram(vectors, t.w, vectors)
    moduli = np.abs(t.G) + eps * np.abs(t.F)
    apart = 2.0 * gamma(n + 8) * fr.weighted_gram(moduli, t.w, moduli).real
    assert np.all(np.abs(suites._perturbed_operator(t, t.eps) - dense) <= apart)


@pytest.mark.parametrize("d,n", EDGE_SHAPES)
@pytest.mark.parametrize("count", [1, 3])
def test_certificate_values_equal_the_dense_certificates_to_rounding(d, n, count):
    t = Trials(SuiteConfig(seed=29, d=d, n_points=n, trials=count), range(count))
    instances = [(Symbol(t.m[i], F.space), F, G)
                 for i in range(count) for F, G in [frames(t.w[i], t.F[i], t.G[i])]]
    singular = hb.is_singular(t.sigma_M)
    if singular.any():  # at N < d every multiplier: both refuse it
        with pytest.raises(NotInvertibleError):
            certificate_values(t.w, t.m, t.F, t.G, t.sigma_M)
        for i in np.flatnonzero(singular):
            with pytest.raises(NotInvertibleError):
                dense_certificates(*instances[i])
        assert n < d
        return
    measured, floors = certificate_values(t.w, t.m, t.F, t.G, t.sigma_M)
    for i, instance in enumerate(instances):
        assert_certificates_near_the_dense_form((measured[i], floors[i]), *instance)


def chunk_points(d, count):
    """The points of a chunk of fr.weighted_gram on stacks of ``count`` d x N
    arrays."""
    return fr.BLOCK_ENTRIES // (count * d)


# (d, N, stack) of the chunked products: N of one point, of a chunk less
# one, of one chunk, of one more point and of a last chunk of 5 points
CHUNKED = [(d, n, count) for d in (1, 8, 64) for count in (1, 3)
           for k in [chunk_points(d, count)] for n in (1, k - 1, k, k + 1, 3 * k + 5)]


@pytest.mark.parametrize("d,n,count", CHUNKED)
@pytest.mark.parametrize("functions", [False, True])
def test_the_chunked_product_equals_the_one_shot_formula(d, n, count, functions):
    # conj(conj(X c) Y^T) in one product, with X = A - B, as an array or built
    # a chunk at a time by a function of the point slice.  Within one chunk
    # the chunked product is that formula bit for bit; over more it sums the
    # same N products in another order, and each of the two sums errs by at
    # most gamma_N |X| diag|c| |Y|^* entrywise (Higham, 2002, 3.1)
    rng = np.random.default_rng([34, d, n, count])
    A, B, Y = (stack_of(rng, (d, n), (count,)) for _ in range(3))
    c = stack_of(rng, (n,), (count,))
    X = A - B
    one_shot = np.conj(np.conj(X * c[:, None, :]) @ Y.swapaxes(-1, -2))
    operands = ((lambda s: A[..., s] - B[..., s]), (lambda s: Y[..., s].copy())) if functions \
        else (X, Y)
    chunked = fr.weighted_gram(operands[0], c, operands[1])
    assert chunked.shape == (count, d, d)
    if n <= chunk_points(d, count):
        assert np.array_equal(bits(chunked), bits(one_shot))
    else:
        bound = 2.0 * gamma(n) * ((np.abs(X) * np.abs(c)[:, None, :]) @ np.abs(Y).swapaxes(-1, -2))
        assert np.all(np.abs(chunked - one_shot) <= bound)
    # the largest column norm, reduced a chunk at a time, is the one-shot one
    assert np.array_equal(fr.max_column_norm(X), np.max(np.linalg.norm(X, axis=-2), axis=-1))


def test_perturbed_names_the_first_bad_eps_of_a_stack():
    V = np.ones((3, 2, 2), dtype=complex)
    with pytest.raises(InvalidParameterError, match=r"got 0\.0$"):
        fr.perturbed(V, V, np.array([0.5, 0.0, -1.0])[:, None, None])


def test_schatten_budget_takes_arrays():
    rng = np.random.default_rng(33)
    values = rng.uniform(0.5, 5.0, (5, 5))
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        budgets = schatten_budget(p, *values)
        assert budgets.tolist() == [schatten_budget(p, *map(float, col))
                                    for col in values.T]
        assert isinstance(schatten_budget(p, *map(float, values[:, 0])), float)


# ---------------------------------------------------------------------------
# equality of the frozen records
# ---------------------------------------------------------------------------

def test_frames_spaces_and_symbols_compare_by_value():
    space = MeasureSpace(np.arange(3.0), [1.0, 2.0, 3.0])
    F = fr.SampledFrame(space, np.eye(2, 3))
    G = fr.SampledFrame(MeasureSpace(np.arange(3.0), [1.0, 2.0, 3.0]), np.eye(2, 3))
    assert F == G and F.space == G.space
    assert F != fr.SampledFrame(space, 2 * np.eye(2, 3))
    assert F != fr.SampledFrame(counting_space(3), np.eye(2, 3))
    assert F != fr.SampledFrame(space, np.eye(3))
    assert F != "frame" and space != 3
    assert Symbol([1, 2, 3], space) == Symbol([1, 2, 3], G.space)
    assert Symbol([1, 2, 3], space) != Symbol([1, 2, 4], space)
    with pytest.raises(TypeError):
        hash(F)
