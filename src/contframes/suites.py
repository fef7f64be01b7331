"""Seeded verification suites over randomized frame/multiplier instances.

Each check draws deterministic random instances from the configured seed,
measures the worst deviation of an identity or the worst violation of a
bound, and records the verdict against its tolerance.  All randomness flows
through per-check, per-instance seed derivation, so a report for a given
configuration is reproducible bit-for-bit (timestamps aside).

The checks of the identities, bounds, convergence, controlled and weighted
suites evaluate their trials in stacks; only the gabor suite, whose trials
draw their own sizes, and the checks that loop over grids rather than trials
run one instance at a time, each on a stream of its own.  STACKED holds the
row of each stacked check: its roles and its measure.  A role is one array a
trial draws: the weights, the analysis or synthesis vectors, a symbol, test
vectors, a step eps, a control's kind or its parameters, ...  Role r of the
row on branch b reads the stream _rng(seed, b, r), and reads it in trial
order: numpy fills an array from one stream entry by entry, so one call of
shape (T, ...) draws the values of T consecutive trials.  A chunk of
max(1, STACK_ENTRIES // (d N)) consecutive trials of a row's trial count
(capped at 100, 50 or 20 for some rows) thus takes one generator call per
role into (T, d, N) and (T, N) arrays, and the reports do not depend on the
chunk size.  Every step is then one numpy call over the stack, through the
array kernels the single-frame API is built on, and the chunk's values are
folded into the check's max or count in trial order.  numpy runs the same
BLAS or LAPACK routine per trial as a single call would, so the values equal
those of a per-trial loop on the same draws.  Each control spec maps its own
row of eigenvalues.  Invertible instances take attempt 0 from the role
streams and redraw only the trials whose multiplier fails, attempt k >= 1 of
trial t from _rng(seed, b, t, k).

Families: checks that read one operator of one instance share a family row,
whose measure gives the values of every member from one draw and one Gram
product per operator: the frame checks (branch 101: the factorization, both
reconstructions of one set of test vectors, the dual pair and the dual
bounds from one S, one set of its bounds and one canonical dual), the
difference identities and the adjoint (105: a second symbol and second
vectors against one base multiplier), the Bessel checks (112: one S), the
budgets (114: five Schatten budgets and monotonicity from one SVD), the
perturbation bounds (120: one set of bounds of G and one B_F), truncation
(125), convergence (126: the symbol bumps at p = 1, 2 and inf from one SVD a
step, then the frame-uniform L2 and L1 budgets of one deviation a step), the
controlled checks (136: one S, C and L a trial) and the weighted checks (142:
the scaled bounds and the coercivity of a positive symbol from one S).
Branches 102-104, 106, 107, 109, 110, 113, 115-119, 121, 127-130, 137-140
and 145 are retired.  Rows of their own: certificates and multiplier_dual
(their trial caps differ), weighted_identity (another operator),
frame_iff_invertible (half-deficient draws), discrete_bessel_norm_bound
(counting weights) and precondition_identity (controls of its own).
run_suite keeps the values of every row it measures for the run, so each
family is drawn and measured once although its members need not follow
each other.  A family whose measure raises aborts every member with the
same error; a member that needs what the others do not (a frame, a positive
step) fails alone, with the error a row of its own would raise.

Replay: trial K of a check reads row K of its row's role draws, so replaying
it draws trials 0..K (Stacked.replay); a member of a family replays the
family's row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, NamedTuple

import numpy as np

from . import controlled as ctrl
from . import frame as fr
from . import hilbert as hb
from . import tf_frames as tf
from .multiplier import (
    DEFAULT_PS,
    budget_values,
    certificate_values,
    convergence_steps,
    multiplier,
    multiplier_dual_vectors,
    truncated,
)
from .errors import InvalidParameterError
from .measure import (
    MeasureSpace,
    Symbol,
    uniform_grid_1d,
    wavelet_grid,
)
from .reporting import Check, Report

SUITES = ("identities", "bounds", "convergence", "gabor", "wavelet",
          "controlled", "weighted", "all")

DEFAULT_TOLERANCES = {
    "frame_factorization": 1e-12,
    "reconstruction": 1e-10,
    "reconstruction_swapped": 1e-10,
    "multiplier_adjoint": 1e-12,
    "difference_symbol": 1e-12,
    "difference_analysis": 1e-12,
    "difference_synthesis": 1e-12,
    "weighted_identity": 1e-12,
    "canonical_dual_pair": 1e-10,
    "dual_bounds_inverse": 1e-10,
    "frame_iff_invertible": 0.0,
    "bessel_inequality": 1e-10,
    "bessel_sharpness": 1e-10,
    "op_norm_budget": 1e-10,
    "trace_budget": 1e-10,
    "schatten_budget_p15": 1e-10,
    "schatten_budget_p2": 1e-10,
    "schatten_budget_p3": 1e-10,
    "schatten_monotonicity": 1e-10,
    "perturb_upper": 1e-10,
    "perturb_lower": 1e-10,
    "discrete_bessel_norm_bound": 1e-10,
    "unbounded_norm_growth": 1.5,
    "unbounded_bessel_cap": 1e-10,
    "truncation_budget": 1e-10,
    "truncation_monotone": 1e-10,
    "symbol_convergence_p1": 1e-10,
    "symbol_convergence_p2": 1e-10,
    "symbol_convergence_pinf": 1e-10,
    "frame_uniform_l2": 1e-10,
    "frame_uniform_l1": 1e-10,
    "gabor_tightness": 1e-10,
    "stft_matches_analysis": 1e-12,
    "stft_energy": 1e-10,
    "stft_orthogonality": 1e-10,
    "tf_shift_unitarity": 1e-12,
    "admissibility_oracle": 1e-4,
    "admissibility_scaling": 1e-12,
    "admissibility_phase_invariance": 1e-12,
    "wavelet_diagonality": 1e-10,
    "wavelet_diagonal_oracle": 1e-10,
    "wavelet_band_constant": 0.02,
    "wavelet_shift_commutation": 1e-10,
    "wavelet_column_norms": 1e-10,
    "calderon_default": 0.02,
    "calderon_refinement": 3.0,
    "controlled_factorization": 1e-12,
    "controlled_bounds_map": 1e-10,
    "controlled_spectral_mapping": 1e-12,
    "controlled_positivity": 1e-10,
    "controlled_implies_frame": 0.0,
    "precondition_identity": 1e-10,
    "weighted_scaling": 1e-12,
    "certificates": 1e-10,
    "multiplier_dual": 1e-9,
    "positive_symbol_coercivity": 1e-10,
}

# keys of a JSON suite configuration and the SuiteConfig fields they set
CONFIG_KEYS = {"suite": "suite", "seed": "seed", "trials": "trials", "d": "d",
               "n": "n_points", "tolerances": "tolerances", "output": "output",
               "format": "format"}

# default grid for the heavyweight reconstruction study
CALDERON_DEFAULTS = {
    "d": 512,
    "a_min": 2.0**-6,
    "a_max": 4.0,
    "n_a": 64,
    "n_b": 512,
    "band": (2.0, 8.0),
    "taper": 1.0,
}


def _is_tolerance(value) -> bool:
    try:
        return 0.0 <= float(value) < math.inf
    except (TypeError, ValueError):
        return False


@dataclass
class SuiteConfig:
    suite: str = "all"
    seed: int = 0
    trials: int = 200
    d: int = 8
    n_points: int = 64
    tolerances: dict = field(default_factory=dict)
    output: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.suite not in SUITES:
            raise InvalidParameterError(f"unknown suite {self.suite!r}")
        if self.trials < 1 or self.d < 1 or self.n_points < 1:
            raise InvalidParameterError("trials, d and n must all be >= 1")
        if self.format not in ("json", "csv"):
            raise InvalidParameterError(f"unknown format {self.format!r}")
        unknown = sorted(set(self.tolerances) - DEFAULT_TOLERANCES.keys())
        if unknown:
            raise InvalidParameterError(f"unknown tolerance keys {unknown}")
        bad = {key: value for key, value in self.tolerances.items()
               if not _is_tolerance(value)}
        if bad:
            raise InvalidParameterError(f"tolerances must be finite and >= 0, got {bad}")

    def tol(self, check_id: str) -> float:
        return float(self.tolerances.get(check_id, DEFAULT_TOLERANCES[check_id]))

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        """Configuration from its JSON form: the keys of CONFIG_KEYS, each
        optional, with the defaults of the fields; unknown keys are refused."""
        if not isinstance(data, dict):
            raise InvalidParameterError("a suite configuration must be a JSON object")
        unknown = sorted(set(data) - CONFIG_KEYS.keys())
        if unknown:
            raise InvalidParameterError(
                f"unknown configuration keys {unknown}; known: {sorted(CONFIG_KEYS)}")
        fields = {CONFIG_KEYS[key]: value for key, value in data.items()}
        if not isinstance(fields.get("tolerances", {}), dict):
            raise InvalidParameterError("tolerances must be a JSON object")
        for name in ("seed", "trials", "d", "n_points"):
            if name in fields:
                try:
                    fields[name] = int(fields[name])
                except (TypeError, ValueError):
                    raise InvalidParameterError(
                        f"{name} must be an integer, got {fields[name]!r}")
        return cls(**fields)



# ---------------------------------------------------------------------------
# deterministic random instances
# ---------------------------------------------------------------------------

def _rng(seed: int, *branch: int) -> np.random.Generator:
    return np.random.default_rng([int(seed)] + [int(b) for b in branch])


def _normal(rng, shape) -> np.ndarray:
    """Complex array of standard normal real parts, then imaginary parts."""
    out = np.empty(shape, dtype=complex)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    return out


def random_vector(rng, d: int) -> np.ndarray:
    return _normal(rng, d)


def random_instance(seed: int, branch: int, idx: int, d: int, n: int):
    """(symbol, analysis frame, synthesis frame) on one random space: trial
    idx of the instance roles on the branch, which every check that draws an
    instance reads first."""
    return _instance_of(Stacked(branch, _INSTANCE, None), seed, idx, d, n)


def random_invertible_instance(seed: int, branch: int, idx: int, d: int, n: int):
    """Random instance whose multiplier is comfortably invertible: trial idx
    of the invertible draws on the branch (_invertible_draws), whose
    multiplier has sigma_min > 1e-6 sigma_max."""
    return _instance_of(Stacked(branch, _INSTANCE, None, draw=_invertible_draws),
                        seed, idx, d, n)


def _instance_of(spec, seed: int, idx: int, d: int, n: int):
    w, F, G, m = spec.replay(SuiteConfig(seed=seed, d=d, n_points=n), idx)
    space = MeasureSpace(np.arange(n, dtype=float)[:, None], w)
    return Symbol(m, space), fr.SampledFrame(space, F), fr.SampledFrame(space, G)


# ---------------------------------------------------------------------------
# stacked trials
# ---------------------------------------------------------------------------

# complex entries one stack of trial frames holds: a chunk of a check's
# trials has max(1, STACK_ENTRIES // (d N)) of them, 64 at d = 8, N = 64, and
# one, as in a per-trial loop, from d N = 2^15 on
STACK_ENTRIES = 2**15


def _chunks(cfg: SuiteConfig, cap: int | None = None) -> list[range]:
    """Consecutive chunks of the first min(cfg.trials, cap) trials."""
    trials = cfg.trials if cap is None else min(cfg.trials, cap)
    size = max(1, STACK_ENTRIES // (cfg.d * cfg.n_points))
    return [range(i, min(i + size, trials)) for i in range(0, trials, size)]


# roles: role(rng, cfg, count) draws the array of each of ``count``
# consecutive trials, (count, ...), with one generator call on its stream;
# "d", "d-1" and "n" in a shape are sizes from the configuration

def _shape(cfg: SuiteConfig, dims) -> tuple:
    sizes = {"d": cfg.d, "d-1": cfg.d - 1, "n": cfg.n_points}
    return tuple(sizes.get(dim, dim) for dim in dims)


def _complex(*dims):
    """Complex standard normals, the real and then the imaginary part of each
    entry, filled in place."""
    def draw(rng, cfg, count):
        out = np.empty((count, *_shape(cfg, dims)), dtype=complex)
        rng.standard_normal(out=out.view(float))
        return out
    return draw


def _real(*dims):
    return lambda rng, cfg, count: rng.standard_normal((count, *_shape(cfg, dims)))


def _uniform(low, high, *dims, dtype=float):
    """Uniform in [low, high); arrays of bounds give one per trailing entry."""
    return lambda rng, cfg, count: rng.uniform(
        low, high, size=(count, *_shape(cfg, dims))).astype(dtype, copy=False)


def _kinds(rng, cfg, count):
    """Indices into controlled.SPECTRAL_KINDS."""
    return rng.integers(0, len(ctrl.SPECTRAL_KINDS), size=count)


_WEIGHTS = _uniform(0.2, 2.0, "n")
_VECTORS = _complex("d", "n")
_SYMBOL = _complex("n")
_NONNEGATIVE = _uniform(0.0, 3.0, "n", dtype=complex)
_FRAME = (_WEIGHTS, _VECTORS)
# weights, analysis vectors, synthesis vectors, symbol
_INSTANCE = (*_FRAME, _VECTORS, _SYMBOL)
# a control's kind, and the (t, alpha, beta) of a power or an affine map
_CONTROL = (_kinds, _uniform((-1.0, 0.5, 0.1), (1.5, 2.0, 1.0), 3))


def _spec(kind: int, t: float, alpha: float, beta: float) -> ctrl.ControlSpec:
    kind = ctrl.SPECTRAL_KINDS[kind]
    if kind == "power":
        return ctrl.ControlSpec(kind, t=t)
    if kind == "affine":
        return ctrl.ControlSpec(kind, alpha=alpha, beta=beta)
    return ctrl.ControlSpec(kind)


def _specs(kinds, params) -> list[ctrl.ControlSpec]:
    """The control spec of each trial, from its kind and its parameter row."""
    return [_spec(kind, *row) for kind, row in zip(kinds.tolist(), params.tolist())]


def _draws(cfg: SuiteConfig, spec, streams, trials: range) -> list:
    """A chunk of trials: every role drawn for all of them from its stream."""
    return [role(rng, cfg, len(trials)) for role, rng in zip(spec.roles, streams)]


def _invertible_draws(cfg: SuiteConfig, spec, streams, trials: range) -> list:
    """The instances of a chunk of trials whose multiplier passes the
    sigma_min > 1e-6 sigma_max test.

    Attempt 0 comes from the role streams; only the trials that fail are
    redrawn, attempt k = 1, 2, ... of trial t reading every role in turn from
    _rng(seed, branch, t, k), up to 64 attempts.
    """
    stacks = drawn = _draws(cfg, spec, streams, trials)
    pending = np.arange(len(trials))
    for attempt in range(64):
        if attempt:
            retries = [[role(rng, cfg, 1) for role in spec.roles] for rng in (
                _rng(cfg.seed, spec.branch, trials[k], attempt) for k in pending)]
            drawn = [np.concatenate(arrays) for arrays in zip(*retries)]
            for stack, redrawn in zip(stacks, drawn):
                stack[pending] = redrawn
        w, F, G, m = drawn
        sigma = hb.singular_values(fr.weighted_gram(G, w * m, F))
        pending = pending[~(sigma[..., -1] > 1e-6 * sigma[..., 0])]
        if not pending.size:
            return stacks
    raise InvalidParameterError("could not draw an invertible instance")  # pragma: no cover


def _half_deficient(cfg: SuiteConfig, spec, streams, trials: range) -> list:
    """Weights and vectors of a chunk of trials: a random frame on even
    trials; on odd ones, columns confined to a random (d - 1)-dimensional
    subspace, so no frame.  The vectors role is read by the even trials, the
    subspace basis and coefficient roles by the odd ones."""
    weights, vectors, basis, coefficients = (
        functools.partial(role, rng, cfg) for role, rng in zip(spec.roles, streams))
    odd = np.arange(trials.start, trials.stop) % 2 == 1
    F = np.empty((len(trials), cfg.d, cfg.n_points), dtype=complex)
    F[~odd] = vectors(np.count_nonzero(~odd))
    F[odd] = basis(np.count_nonzero(odd)) @ coefficients(np.count_nonzero(odd))
    return [weights(len(trials)), F]


# measures: the values of a stack of trials that a check folds with max, one
# per trial or a row of them in the order the trial produces them; a family's
# measure gives a tuple of its members' values

def _or_errors(count: int, measure, *args) -> tuple:
    """measure(*args), the values of ``count`` members of a family, or the
    exception it raises in place of each: the members that need a frame or a
    positive step fail alone, as rows of their own would, and the rest of
    the family keeps its values."""
    try:
        return measure(*args)
    except Exception as exc:  # each member it stands for re-raises it
        return (exc,) * count


def _frame(cfg, w, F, f):
    """The factorization defect of S, then the reconstruction defects of the
    test vectors through the canonical dual and through F, the dual pair
    defect and the dual bounds defects, from one S, one set of its bounds
    and one dual a trial."""
    S = fr.weighted_gram(F, w, F)
    return (_factorization(cfg, w, F, S), *_or_errors(4, _dual, cfg, w, F, f, S))


def _factorization(cfg, w, F, S):
    # column k of the composition synthesizes the analysis of basis vector k
    coeffs = fr.coefficients(F[:, None], np.eye(cfg.d, dtype=complex))
    composed = fr.synthesize(F[:, None], w[:, None], coeffs).swapaxes(-1, -2)
    return hb.operator_norm(S - composed) / hb.operator_norm(S)


def _reconstruction(w, analysis, synthesis, f):
    rec = fr.synthesize(synthesis[:, None], w[:, None],
                        fr.coefficients(analysis[:, None], f))
    return hb.norm(rec - f) / hb.norm(f)


def _dual(cfg, w, F, f, S):
    bounds = fr.operator_bounds(S)
    dual = fr.dual_vectors(S, F, bounds)
    # the reconstructions first: their temporaries are the family's largest,
    # and a product freed before them leaves heap pages they do not reuse
    # (about 0.5 MB more peak RSS at d = 8, N = 64)
    forward, backward = _reconstruction(w, F, dual, f), _reconstruction(w, dual, F, f)
    dual_bounds = fr.operator_bounds(fr.weighted_gram(dual, w, dual))
    return (forward, backward,
            hb.operator_norm(fr.weighted_gram(dual, w, F) - np.eye(cfg.d)),
            np.stack([np.abs(dual_bounds.lower - 1.0 / bounds.upper) * bounds.upper,
                      np.abs(dual_bounds.upper - 1.0 / bounds.lower) * bounds.lower],
                     axis=-1))


def _difference(cfg, w, F, G, m, symbol, vectors):
    """Entrywise defects of a difference of multipliers against the multiplier
    of the difference, from one base multiplier: over a second symbol, then
    over the vectors as a second analysis frame, then as a second synthesis
    frame; then the defect of the base multiplier's adjoint against the
    conjugate-symbol multiplier with the frames swapped."""
    wm = w * m
    base = fr.weighted_gram(G, wm, F)
    # (the second multiplier, the multiplier of the difference)
    pairs = ((fr.weighted_gram(G, w * symbol, F), fr.weighted_gram(G, w * (m - symbol), F)),
             (fr.weighted_gram(G, wm, vectors), fr.weighted_gram(G, wm, F - vectors)),
             (fr.weighted_gram(vectors, wm, F), fr.weighted_gram(G - vectors, wm, F)))
    swapped = fr.weighted_gram(F, w * m.conj(), G)
    return (*(np.max(np.abs(base - other - rhs), axis=(-2, -1)) for other, rhs in pairs),
            hb.operator_norm(hb.adjoint(base) - swapped)
            / np.maximum(hb.operator_norm(base), 1e-300))


def _weighted_identity(cfg, w, F, m):
    M = fr.weighted_gram(F, w * m, F)
    reweighted = F * np.sqrt(m.real)[:, None, :]
    S = fr.weighted_gram(reweighted, w, reweighted)
    return hb.operator_norm(M - S) / np.maximum(hb.operator_norm(S), 1.0)


def _bessel(cfg, w, F, f):
    """The Bessel inequality defects of the test vectors, then how far the
    top eigenvector's energy is from the upper bound, from one S and one set
    of its bounds a trial."""
    S = fr.weighted_gram(F, w, F)
    bounds = fr.operator_bounds(S)
    energy = np.sum(w[:, None] * np.abs(fr.coefficients(F[:, None], f)) ** 2, axis=-1)
    nsq = hb.power(hb.norm(f), 2)
    lower, upper = bounds.lower[:, None], bounds.upper[:, None]
    _, vecs = np.linalg.eigh(hb.hermitian_part(S))
    top = np.sum(w * np.abs(fr.coefficients(F, vecs[..., -1])) ** 2, axis=-1)
    return (np.stack([(lower * nsq - energy) / nsq, (energy - upper * nsq) / nsq],
                     axis=-1),
            np.abs(top - bounds.upper) / bounds.upper)


def _upper_bound(w, vectors):
    return fr.operator_bounds(fr.weighted_gram(vectors, w, vectors)).upper


def _budgets(cfg, w, F, G, m):
    """Schatten norm minus budget at p = inf, 1, 1.5, 2 and 3, then the rise
    of the Schatten norms from each p to the next, from one SVD."""
    actual, budget = budget_values(w, m, F, G, DEFAULT_PS)  # p = 1, 1.5, 2, 3, inf
    return (*(actual - budget)[:, [4, 0, 1, 2, 3]].T, np.diff(actual, axis=-1))


def _perturbation(cfg, w, G, F, eps):
    """The upper bound of G + eps F minus 2 (B_G + eps^2 B_F), then the lower
    bound defect of G + eps' F at eps' = sqrt(A_G / B_F) / 2, from one set of
    bounds of G and one B_F a trial."""
    bounds = fr.operator_bounds(fr.weighted_gram(G, w, G))
    bf = _upper_bound(w, F)
    upper = _upper_bound(w, fr.perturbed(G, F, eps[:, None, None]))
    return (upper - 2.0 * (bounds.upper + hb.power(eps, 2) * bf),
            *_or_errors(1, _perturb_lower, w, G, F, bounds.lower, bf))


def _perturb_lower(w, G, F, ag, bf):
    eps = 0.5 * np.sqrt(ag / bf)
    P = fr.perturbed(G, F, eps[:, None, None])
    lower = fr.operator_bounds(fr.weighted_gram(P, w, P)).lower
    return (hb.power(np.sqrt(ag) - eps * np.sqrt(bf), 2) - lower,)


def _discrete_bessel_norm_bound(cfg, F):
    cap = np.sqrt(_upper_bound(np.ones(cfg.n_points), F))
    return fr.max_column_norm(F) - cap


def _truncation_cuts(n: int) -> list[int]:
    """Sizes of the kept sets of the truncation schedule: nested (each at
    least one point) and ending at all n points."""
    return [max(1, n // 8), max(1, n // 4), max(1, n // 2), n]


def _truncation(cfg, w, F, m):
    """Deviation minus budget of each nested truncation of a nonnegative
    symbol against one frame, then the rise of the deviation from each step
    to the next and its last value: the largest values are kept first, so
    the cut remainder is a sum of positive rank-one terms and its norm
    shrinks monotonically as the kept set grows."""
    order = np.argsort(np.abs(m), axis=-1)[..., ::-1]
    schedule = (truncated(m, order[..., :c]) for c in _truncation_cuts(cfg.n_points))
    (steps,) = convergence_steps(w, m, F, F, [("symbol_p", schedule, (math.inf,))])
    _, measured, budget = (a[:, 0] for a in steps)
    rises = np.concatenate([np.diff(measured), measured[:, -1:]], axis=-1)
    return measured - budget, rises


# the schedules of the convergence checks: the base plus bump / n
CONVERGENCE_STEPS = (1, 2, 4, 8, 16)


def _convergence(cfg, w, F, G, m, symbol_bump, vectors_bump):
    """Deviation minus budget of each step: the symbol plus a bump at p = 1, 2
    and inf, then the analysis vectors plus a bump against the L2 and L1
    budgets, one row per p."""
    def bumped(base, bump):
        return (base + bump / n for n in CONVERGENCE_STEPS)

    experiments = [("symbol_p", bumped(m, symbol_bump), (1.0, 2.0, math.inf)),
                   ("frame_uniform", bumped(F, vectors_bump), (2.0, 1.0))]
    return tuple(row for _, measured, budget in convergence_steps(w, m, F, G, experiments)
                 for row in np.moveaxis(measured - budget, -2, 0))


def _controlled(cfg, w, F, kinds, params):
    """The factorization defects, the bounds-map defects, the spectral-mapping
    defect, and where the mixed operator is not positive or a positive
    controlled lower bound meets no frame, from one frame operator S, set of
    its bounds, control C and mixed operator L per trial, and one spectrum
    and one norm of L."""
    S = fr.weighted_gram(F, w, F)
    specs = _specs(kinds, params)
    bounds = fr.operator_bounds(S)
    C = ctrl.spectral_controls(specs, S, bounds)
    L = ctrl.mixed_operator(C, w, F)
    scale = np.maximum(hb.operator_norm(L), 1.0)
    spectrum = ctrl.mixed_spectrum(C, S, L)
    low, high = spectrum[..., 0], spectrum[..., -1]
    lam = np.linalg.eigvalsh(S)
    mapped = ctrl.spectral_maps(specs, lam) * lam  # phi(lambda) lambda
    mapped_scale = np.maximum(np.max(np.abs(mapped), axis=-1), 1.0)
    # hb.is_positive(L, 1e-10) on the norm and the spectrum taken above
    positive = ((hb.operator_norm(L - hb.adjoint(L)) <= 1e-10 * scale)
                & hb.nonnegative_spectrum(low, high, 1e-10))
    return (np.stack([hb.operator_norm(L - C @ S) / scale,
                      hb.operator_norm(L - S @ hb.adjoint(C)) / scale], axis=-1),
            np.stack([np.abs(low - np.min(mapped, axis=-1)) / mapped_scale,
                      np.abs(high - np.max(mapped, axis=-1)) / mapped_scale], axis=-1),
            np.max(np.abs(np.sort(spectrum, axis=-1) - np.sort(mapped, axis=-1)),
                   axis=-1) / scale,
            ~positive,
            (low > 0.0) & ~bounds.is_frame)


def _precondition_identity(cfg, w, F, G, m, kinds, params, dual_kinds, dual_params):
    C = ctrl.spectral_controls(_specs(kinds, params), fr.weighted_gram(F, w, F))
    D = ctrl.spectral_controls(_specs(dual_kinds, dual_params), fr.weighted_gram(G, w, G))
    return ctrl.precondition_residual(C, D, w * m, F, G)


def _weighted(cfg, w, F, delta, offsets):
    """The bounds defects of the frame under the constant weight 4, then
    delta A_F - lambda_min(M) and True where M is not positive, for the
    multiplier M of the symbol delta + offsets in [delta, delta + 2), from
    one S and one set of its bounds a trial."""
    bounds = fr.operator_bounds(fr.weighted_gram(F, w, F))
    # the vectors of fr.weighted(F, 4): each column times sqrt(4), exactly
    scaled_vectors = 2.0 * F
    scaled = fr.operator_bounds(fr.weighted_gram(scaled_vectors, w, scaled_vectors))
    m = (delta[:, None] + offsets).astype(complex)
    M = fr.weighted_gram(F, w * m, F)
    # hb.is_positive(M, 1e-10) on the one eigvalsh that also gives lam_min
    lam_min, lam_max = hb.extreme_eigenvalues(M)
    not_positive = ~(hb.is_hermitian(M, 1e-10)
                     & hb.nonnegative_spectrum(lam_min, lam_max, 1e-10))
    return (np.stack([np.abs(scaled.lower - 4.0 * bounds.lower) / (4.0 * bounds.upper),
                      np.abs(scaled.upper - 4.0 * bounds.upper) / (4.0 * bounds.upper)],
                     axis=-1),
            (delta * bounds.lower - lam_min, not_positive))


def _certificates(cfg, w, F, G, m):
    """floor - measured of certificate 1, and True where a certificate fails."""
    measured, floors, passed = certificate_values(w, m, F, G)
    return floors[..., 0] - measured[..., 0], ~np.all(passed, axis=-1)


def _multiplier_dual(cfg, w, F, G, m):
    H = multiplier_dual_vectors(w, m, F, G)
    return hb.operator_norm(fr.weighted_gram(G, w, H) - np.eye(cfg.d))


def _frame_iff_invertible(cfg, w, F):
    """True where the frame property and invertibility of the frame operator
    disagree; invertibility is hilbert.invert's cutoff."""
    S = fr.weighted_gram(F, w, F)
    return fr.operator_bounds(S).is_frame == hb.is_singular(hb.singular_values(S))


class Stacked(NamedTuple):
    """Trials measured in stacks.  Role r of ``roles`` draws one array per
    trial from the stream _rng(seed, branch, r), read in trial order;
    draw(cfg, spec, streams, trials) draws a chunk of trials from the
    streams (_draws, _invertible_draws or _half_deficient), and
    measure(cfg, *stacks) gives the values a check folds.  A family row
    serves every check of ``members``: its measure gives a tuple of their
    values, in that order.  The row takes min(cfg.trials, cap) trials."""

    branch: int
    roles: tuple
    measure: Callable
    cap: int | None = None
    draw: Callable = _draws
    members: tuple = ()

    def streams(self, cfg: SuiteConfig) -> list:
        """The stream of each role, before trial 0."""
        return [_rng(cfg.seed, self.branch, r) for r in range(len(self.roles))]

    def replay(self, cfg: SuiteConfig, trial: int) -> list:
        """The arrays trial ``trial`` measures: the last rows of trials
        0..trial, drawn as one chunk."""
        return [stack[-1] for stack in
                self.draw(cfg, self, self.streams(cfg), range(trial + 1))]


def _family(row: Stacked) -> dict:
    return dict.fromkeys(row.members, row)


# the row of every stacked check; the members of a family share one row
STACKED = {
    # the frame, then test vectors
    **_family(Stacked(101, (*_FRAME, _complex(20, "d")), _frame, members=(
        "frame_factorization", "reconstruction", "reconstruction_swapped",
        "canonical_dual_pair", "dual_bounds_inverse"))),
    # the instance, a second symbol, then second vectors
    **_family(Stacked(105, (*_INSTANCE, _SYMBOL, _VECTORS), _difference, members=(
        "difference_symbol", "difference_analysis", "difference_synthesis",
        "multiplier_adjoint"))),
    "weighted_identity": Stacked(108, (*_FRAME, _NONNEGATIVE), _weighted_identity),
    "frame_iff_invertible": Stacked(
        111, (*_FRAME, _complex("d", "d-1"), _real("d-1", "n")), _frame_iff_invertible,
        draw=_half_deficient),
    **_family(Stacked(112, (*_FRAME, _complex(10, "d")), _bessel, members=(
        "bessel_inequality", "bessel_sharpness"))),
    **_family(Stacked(114, _INSTANCE, _budgets, members=(
        "op_norm_budget", "trace_budget", "schatten_budget_p15", "schatten_budget_p2",
        "schatten_budget_p3", "schatten_monotonicity"))),
    # weights, G, F, eps
    **_family(Stacked(120, (*_FRAME, _VECTORS, _uniform(0.05, 1.0)), _perturbation,
                      members=("perturb_upper", "perturb_lower"))),
    # vectors on counting_space(n), which draws nothing
    "discrete_bessel_norm_bound": Stacked(122, (_VECTORS,), _discrete_bessel_norm_bound),
    **_family(Stacked(125, (*_FRAME, _NONNEGATIVE), _truncation, cap=50, members=(
        "truncation_budget", "truncation_monotone"))),
    # the instance, then the bumps of the symbol and of the analysis vectors
    **_family(Stacked(126, (*_INSTANCE, _SYMBOL, _VECTORS), _convergence, cap=20,
                      members=("symbol_convergence_p1", "symbol_convergence_p2",
                               "symbol_convergence_pinf", "frame_uniform_l2",
                               "frame_uniform_l1"))),
    **_family(Stacked(136, (*_FRAME, *_CONTROL), _controlled, cap=100, members=(
        "controlled_factorization", "controlled_bounds_map",
        "controlled_spectral_mapping", "controlled_positivity",
        "controlled_implies_frame"))),
    # the instance, the analysis control, then the synthesis control
    "precondition_identity": Stacked(141, (*_INSTANCE, *_CONTROL, *_CONTROL),
                                     _precondition_identity, cap=100),
    # the frame, delta in [0.1, 1), then the symbol's offsets from delta
    **_family(Stacked(142, (*_FRAME, _uniform(0.1, 1.0), _uniform(0.0, 2.0, "n")),
                      _weighted, cap=100, members=(
                          "weighted_scaling", "positive_symbol_coercivity"))),
    "certificates": Stacked(143, _INSTANCE, _certificates, cap=100,
                            draw=_invertible_draws),
    "multiplier_dual": Stacked(144, _INSTANCE, _multiplier_dual, cap=50,
                               draw=_invertible_draws),
}


def _row_values(row: Stacked, seed: int, d: int, n: int, chunks: tuple) -> tuple:
    """The values of each chunk of trials of a row, in trial order."""
    cfg = SuiteConfig(seed=seed, d=d, n_points=n, trials=chunks[-1].stop)
    streams = row.streams(cfg)
    values, stacks = [], None
    for trials in chunks:
        # the last chunk's stacks stay referenced while the next one is drawn,
        # as a per-trial loop holds its last instance: released first, malloc
        # trims their pages and the draw faults them in again (about 10^3
        # page faults a trial at d = 64, N = 4096)
        stacks = row.draw(cfg, row, streams, trials)
        values.append(row.measure(cfg, *stacks))
    return tuple(values)


# one dict per running run_suite, holding the values of every row it measured
# by (row, seed, d, N, chunks): the members of a family need not follow each
# other, and a run draws and measures each family once; outside run_suite
# every call measures afresh
_RUNS: list[dict] = []


def stacked_values(cfg: SuiteConfig, check_id: str) -> list:
    """The values of a stacked check, chunk by chunk in trial order; a member
    of a family reads its own part of the family's values, and raises the
    error that stands in a chunk's place."""
    row = STACKED[check_id]
    key = (row, cfg.seed, cfg.d, cfg.n_points, tuple(_chunks(cfg, row.cap)))
    run = _RUNS[-1] if _RUNS else {}
    chunks = run.get(key)
    if chunks is None:
        chunks = run[key] = _row_values(*key)
    if not row.members:
        return list(chunks)
    member = row.members.index(check_id)
    values = [chunk[member] for chunk in chunks]
    for error in values:
        if isinstance(error, Exception):
            raise error
    return values


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _check(cfg: SuiteConfig, check_id: str, claim: str, measured: float,
           budget: float, passed: bool, detail: str = "") -> Check:
    return Check(check_id, claim, float(measured), float(budget),
                 cfg.tol(check_id), bool(passed), detail)


def _max_check(cfg: SuiteConfig, check_id: str, claim: str, chunks,
               worst: float = 0.0) -> Check:
    """worst <= tol, where worst is max(worst, every value) over the chunks'
    values in trial order, as the per-trial loops folded it."""
    for values in chunks:
        worst = max(worst, *np.ravel(values).tolist())
    tol = cfg.tol(check_id)
    return _check(cfg, check_id, claim, worst, tol, worst <= tol)


def _named(check_id: str, check: Callable) -> Callable:
    check.__name__ = check.__qualname__ = f"check_{check_id}"
    return check


def _stacked(check_id: str, claim: str, worst: float = 0.0) -> Callable:
    """The check function of a stacked check whose values fold with max from
    ``worst`` (_max_check)."""
    return _named(check_id, lambda cfg: _max_check(
        cfg, check_id, claim, stacked_values(cfg, check_id), worst))


def _counted(check_id: str, claim: str) -> Callable:
    """The check function of a stacked check that no trial may fail: the
    number of failing trials against the tolerance."""
    def check(cfg: SuiteConfig) -> Check:
        bad = sum(int(np.count_nonzero(failing))
                  for failing in stacked_values(cfg, check_id))
        return _check(cfg, check_id, claim, bad, cfg.tol(check_id), bad == 0)
    return _named(check_id, check)


def _max_and_count(cfg: SuiteConfig, check_id: str) -> tuple[float, int]:
    """The max of the values from -inf in trial order, and the number of
    failing trials, of a check that measures both."""
    worst, bad = -math.inf, 0
    for values, failing in stacked_values(cfg, check_id):
        worst = max(worst, *values.tolist())
        bad += int(np.count_nonzero(failing))
    return worst, bad


check_frame_factorization = _stacked(
    "frame_factorization", "frame operator equals synthesis composed with analysis")

check_reconstruction = _stacked(
    "reconstruction", "canonical dual reconstructs every vector from analysis by F")

check_reconstruction_swapped = _stacked(
    "reconstruction_swapped",
    "F reconstructs every vector from analysis by the canonical dual")

check_multiplier_adjoint = _stacked(
    "multiplier_adjoint",
    "adjoint of the multiplier is the conjugate-symbol multiplier with frames swapped")

check_difference_symbol = _stacked(
    "difference_symbol",
    "difference of multipliers equals the multiplier of the symbol difference")

check_difference_analysis = _stacked(
    "difference_analysis",
    "difference over analysis frames equals the multiplier of the frame difference")

check_difference_synthesis = _stacked(
    "difference_synthesis",
    "difference over synthesis frames equals the multiplier of the frame difference")

check_weighted_identity = _stacked(
    "weighted_identity",
    "multiplier with a nonnegative symbol is the frame operator of the reweighted frame")

check_canonical_dual_pair = _stacked(
    "canonical_dual_pair", "frame and its canonical dual synthesize the identity")

check_dual_bounds_inverse = _stacked(
    "dual_bounds_inverse", "canonical dual bounds are the reciprocals (1/B, 1/A)")

check_frame_iff_invertible = _counted(
    "frame_iff_invertible",
    "frame property coincides with invertibility of the frame operator")

check_bessel_inequality = _stacked(
    "bessel_inequality",
    "weighted coefficient energy lies between the optimal bounds times ||f||^2")

check_bessel_sharpness = _stacked(
    "bessel_sharpness", "the top eigenvector attains the upper bound with equality")

check_op_norm_budget = _stacked(
    "op_norm_budget", "operator norm is at most sup|m| sqrt(B_F B_G)", -math.inf)

check_trace_budget = _stacked(
    "trace_budget", "trace norm is at most ||m||_1 L_F L_G", -math.inf)

check_schatten_budget_p15 = _stacked(
    "schatten_budget_p15",
    "Schatten 1.5-norm stays under its interpolation budget", -math.inf)

check_schatten_budget_p2 = _stacked(
    "schatten_budget_p2",
    "Hilbert-Schmidt norm stays under its interpolation budget", -math.inf)

check_schatten_budget_p3 = _stacked(
    "schatten_budget_p3",
    "Schatten 3-norm stays under its interpolation budget", -math.inf)

check_schatten_monotonicity = _stacked(
    "schatten_monotonicity", "Schatten norms are nonincreasing in p")

check_perturb_upper = _stacked(
    "perturb_upper",
    "upper bound of G + eps F is at most 2 (B_G + eps^2 B_F)", -math.inf)

check_perturb_lower = _stacked(
    "perturb_lower",
    "lower bound of G + eps F is at least (sqrt(A_G) - eps sqrt(B_F))^2 for "
    "small eps", -math.inf)

check_discrete_bessel_norm_bound = _stacked(
    "discrete_bessel_norm_bound",
    "with unit weights every frame vector norm is at most sqrt(B)", -math.inf)


def check_unbounded_norm_growth(cfg: SuiteConfig) -> Check:
    rng = _rng(cfg.seed, 123)
    h = random_vector(rng, cfg.d)
    norms = [fr.norm_bound(fr.scaled_singleton(uniform_grid_1d(0.0, 1.0, n), h))
             for n in (100, 1000, 10000)]
    ratios = [b / a for a, b in zip(norms, norms[1:])]
    floor = cfg.tol("unbounded_norm_growth")
    measured = min(ratios)
    return _check(cfg, "unbounded_norm_growth",
                  "largest vector norm grows by at least 1.5x per grid decade",
                  measured, floor, measured >= floor,
                  detail=f"norms {['%.4g' % v for v in norms]}")


def check_unbounded_bessel_cap(cfg: SuiteConfig) -> Check:
    rng = _rng(cfg.seed, 124)
    h = random_vector(rng, cfg.d)
    hsq = float(np.linalg.norm(h) ** 2)
    worst = -math.inf
    for n in (100, 1000, 10000):
        grid = uniform_grid_1d(0.0, 1.0, n)
        S = fr.scaled_singleton(grid, h)
        quad = float(np.sum(grid.weights
                            * fr.unbounded_amplitude(grid.points[:, 0]) ** 2))
        worst = max(worst, fr.frame_bounds(S).upper - hsq * quad)
    tol = cfg.tol("unbounded_bessel_cap")
    return _check(cfg, "unbounded_bessel_cap",
                  "Bessel bound stays below ||h||^2 times the amplitude "
                  "quadrature on every refinement", worst, tol, worst <= tol)


check_truncation_budget = _stacked(
    "truncation_budget",
    "truncated-symbol deviation stays under sup|m - m_n| sqrt(B_F B_G)", -math.inf)

check_truncation_monotone = _stacked(
    "truncation_monotone",
    "nested truncations decrease the deviation monotonically to zero", -math.inf)

check_symbol_convergence_p1 = _stacked(
    "symbol_convergence_p1",
    "trace-norm deviation tracks the L1 distance of the symbols", -math.inf)

check_symbol_convergence_p2 = _stacked(
    "symbol_convergence_p2",
    "Hilbert-Schmidt deviation tracks the L2 distance of the symbols", -math.inf)

check_symbol_convergence_pinf = _stacked(
    "symbol_convergence_pinf",
    "operator-norm deviation tracks the sup distance of the symbols", -math.inf)

check_frame_uniform_l2 = _stacked(
    "frame_uniform_l2",
    "uniform frame perturbation is dominated by eps ||m||_2 sqrt(B_G)", -math.inf)

check_frame_uniform_l1 = _stacked(
    "frame_uniform_l1",
    "uniform frame perturbation is dominated by eps ||m||_1 L_G", -math.inf)


def check_gabor_tightness(cfg: SuiteConfig) -> Check:
    worst = 0.0
    for d in (4, 8, 16, 64):
        for i in range(20):
            rng = _rng(cfg.seed, 131, d, i)
            g = random_vector(rng, d)
            S = tf.gabor_frame_operator(g, d)
            gsq = float(np.linalg.norm(g) ** 2)
            worst = max(worst,
                        hb.operator_norm(S - gsq * np.eye(d)) / gsq)
    tol = cfg.tol("gabor_tightness")
    return _check(cfg, "gabor_tightness",
                  "cyclic Gabor frame operator is exactly ||g||^2 times the "
                  "identity", worst, tol, worst <= tol)


def check_stft_matches_analysis(cfg: SuiteConfig) -> Check:
    worst = 0.0
    for i in range(20):
        rng = _rng(cfg.seed, 132, i)
        d = int(rng.choice([4, 8, 16]))
        g = random_vector(rng, d)
        f = random_vector(rng, d)
        coeffs = tf.stft(f, g)
        direct = fr.analysis(tf.gabor_frame(g, d), f)
        worst = max(worst, float(np.max(np.abs(coeffs.values - direct))))
    tol = cfg.tol("stft_matches_analysis")
    return _check(cfg, "stft_matches_analysis",
                  "transform coefficients equal frame analysis entrywise",
                  worst, tol, worst <= tol)


def check_stft_energy(cfg: SuiteConfig) -> Check:
    worst = 0.0
    for i in range(50):
        rng = _rng(cfg.seed, 133, i)
        d = int(rng.choice([4, 8, 16]))
        g = random_vector(rng, d)
        f = random_vector(rng, d)
        coeffs = tf.stft(f, g)
        energy = float(np.sum(coeffs.space.weights * np.abs(coeffs.values) ** 2))
        expected = float(np.linalg.norm(g) ** 2 * np.linalg.norm(f) ** 2)
        worst = max(worst, abs(energy - expected) / expected)
    tol = cfg.tol("stft_energy")
    return _check(cfg, "stft_energy",
                  "weighted coefficient energy equals ||g||^2 ||f||^2",
                  worst, tol, worst <= tol)


def check_stft_orthogonality(cfg: SuiteConfig) -> Check:
    worst = 0.0
    for i in range(100):
        rng = _rng(cfg.seed, 134, i)
        d = int(rng.choice([4, 8, 16]))
        vecs = [random_vector(rng, d) for _ in range(4)]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        worst = max(worst, tf.stft_orthogonality_residual(*vecs))
    tol = cfg.tol("stft_orthogonality")
    return _check(cfg, "stft_orthogonality",
                  "coefficient pairing of two windows factors into the two "
                  "inner products", worst, tol, worst <= tol)


def check_tf_shift_unitarity(cfg: SuiteConfig) -> Check:
    worst = 0.0
    for i in range(100):
        rng = _rng(cfg.seed, 135, i)
        d = int(rng.choice([4, 8, 16, 32]))
        x = random_vector(rng, d)
        a, b = int(rng.integers(0, d)), int(rng.integers(0, d))
        shifted = tf.modulate(tf.translate(x, a), b)
        worst = max(worst, abs(float(np.linalg.norm(shifted) - np.linalg.norm(x))))
    tol = cfg.tol("tf_shift_unitarity")
    return _check(cfg, "tf_shift_unitarity",
                  "time and frequency shifts preserve norms", worst, tol,
                  worst <= tol)


def check_admissibility_oracle(cfg: SuiteConfig) -> Check:
    grid = tf.log_freq_grid(1e-3, 10.0, 2000, two_sided=True)
    value = tf.admissibility_constant(tf.WaveletSpec(), grid)
    measured = abs(value - 0.25)
    tol = cfg.tol("admissibility_oracle")
    return _check(cfg, "admissibility_oracle",
                  "quadrature admissibility constant matches the closed form 1/4",
                  measured, tol, measured <= tol,
                  detail=f"value {value!r}")


def check_admissibility_scaling(cfg: SuiteConfig) -> Check:
    grid = tf.log_freq_grid(1e-3, 10.0, 2000, two_sided=True)
    base = tf.admissibility_constant(tf.WaveletSpec(), grid)
    worst = 0.0
    for c in (0.5, 2.0, 3.0 + 4.0j):
        scaled = tf.WaveletSpec("given-fourier",
                                lambda g, c=c: c * tf.mexican_hat_fourier(g))
        value = tf.admissibility_constant(scaled, grid)
        worst = max(worst, abs(value - abs(c) ** 2 * base) / (abs(c) ** 2 * base))
    tol = cfg.tol("admissibility_scaling")
    return _check(cfg, "admissibility_scaling",
                  "scaling the profile by c scales the constant by |c|^2",
                  worst, tol, worst <= tol)


def check_admissibility_phase_invariance(cfg: SuiteConfig) -> Check:
    grid = tf.log_freq_grid(1e-3, 10.0, 2000, two_sided=True)
    base = tf.admissibility_constant(tf.WaveletSpec(), grid)
    phased = tf.WaveletSpec(
        "given-fourier",
        lambda g: tf.mexican_hat_fourier(g) * np.exp(1j * np.sign(g) * 0.7),
    )
    value = tf.admissibility_constant(phased, grid)
    measured = abs(value - base) / base
    tol = cfg.tol("admissibility_phase_invariance")
    return _check(cfg, "admissibility_phase_invariance",
                  "the constant depends on the profile modulus only",
                  measured, tol, measured <= tol)


@functools.lru_cache(maxsize=1)
def _small_wavelet_setup():
    d = 64
    grid = wavelet_grid(2.0**-6, 4.0, 48, 0.0, 1.0, d)
    wavelet = tf.WaveletSpec()
    S = fr.frame_operator(tf.wavelet_frame(wavelet, grid, d))
    dft = np.fft.fft(np.eye(d)) / math.sqrt(d)
    S_freq = dft @ S @ dft.conj().T
    return d, grid, wavelet, S, S_freq


def check_wavelet_diagonality(cfg: SuiteConfig) -> Check:
    _, _, _, _, S_freq = _small_wavelet_setup()
    diag_scale = float(np.max(np.abs(np.diagonal(S_freq))))
    off = S_freq - np.diag(np.diagonal(S_freq))
    measured = float(np.max(np.abs(off))) / diag_scale
    tol = cfg.tol("wavelet_diagonality")
    return _check(cfg, "wavelet_diagonality",
                  "frame operator is diagonal in the frequency basis under a "
                  "full uniform shift grid", measured, tol, measured <= tol)


def check_wavelet_diagonal_oracle(cfg: SuiteConfig) -> Check:
    d, grid, wavelet, _, S_freq = _small_wavelet_setup()
    oracle = tf.scale_profile(wavelet, grid, d)
    diag = np.real(np.diagonal(S_freq))
    measured = float(np.max(np.abs(diag - oracle)) / np.max(oracle))
    tol = cfg.tol("wavelet_diagonal_oracle")
    return _check(cfg, "wavelet_diagonal_oracle",
                  "frequency-basis diagonal matches the per-frequency scale "
                  "quadrature", measured, tol, measured <= tol)


def check_wavelet_band_constant(cfg: SuiteConfig) -> Check:
    d, grid, wavelet, _, S_freq = _small_wavelet_setup()
    c_plus = tf.positive_axis_constant(wavelet)
    freqs = tf.dft_frequencies(d)
    band = (np.abs(freqs) >= 1.0) & (np.abs(freqs) <= 9.0)
    diag = np.real(np.diagonal(S_freq))
    measured = float(np.max(np.abs(diag[band] / c_plus - 1.0)))
    tol = cfg.tol("wavelet_band_constant")
    return _check(cfg, "wavelet_band_constant",
                  "well-covered diagonal entries match the positive-axis "
                  "admissibility constant", measured, tol, measured <= tol)


def check_wavelet_shift_commutation(cfg: SuiteConfig) -> Check:
    d, _, _, S, _ = _small_wavelet_setup()
    shift = np.roll(np.eye(d), 1, axis=0)
    measured = hb.operator_norm(S @ shift - shift @ S) / hb.operator_norm(S)
    tol = cfg.tol("wavelet_shift_commutation")
    return _check(cfg, "wavelet_shift_commutation",
                  "frame operator commutes with the one-step cyclic shift",
                  measured, tol, measured <= tol)


def check_wavelet_column_norms(cfg: SuiteConfig) -> Check:
    d = 32
    n_a, n_b = 8, 16
    grid = wavelet_grid(0.25, 2.0, n_a, 0.0, 1.0, n_b)
    W = tf.wavelet_frame(tf.WaveletSpec(), grid, d)
    norms = np.linalg.norm(W.vectors, axis=0).reshape(n_a, n_b)
    measured = float(np.max(np.ptp(norms, axis=1) / np.max(norms, axis=1)))
    tol = cfg.tol("wavelet_column_norms")
    return _check(cfg, "wavelet_column_norms",
                  "column norms do not depend on the shift coordinate",
                  measured, tol, measured <= tol)


def _calderon_study(wavelet: tf.WaveletSpec, d: int, a_min: float, a_max: float,
                    n_a: int, n_b: int, band: tuple[float, float],
                    taper: float) -> tuple[float, float, float]:
    """Positive-axis constant c_plus, then the reconstruction residuals of a
    band-limited bump on the n_a-cell scale grid and on its 2 n_a-cell
    refinement, both with n_b shifts over one period."""
    c_plus = tf.positive_axis_constant(wavelet)
    f = tf.bandlimited_bump(d, band, taper)
    coarse, fine = (
        tf.calderon_residual(wavelet, wavelet_grid(a_min, a_max, cells, 0.0, 1.0, n_b),
                             f, c_plus=c_plus)
        for cells in (n_a, 2 * n_a))
    return c_plus, coarse, fine


def check_calderon_default(cfg: SuiteConfig) -> Check:
    _, residual, _ = _calderon_study(tf.WaveletSpec(), **CALDERON_DEFAULTS)
    tol = cfg.tol("calderon_default")
    return _check(cfg, "calderon_default",
                  "reconstruction residual at the default grid stays under 2%",
                  residual, tol, residual <= tol)


def check_calderon_refinement(cfg: SuiteConfig) -> Check:
    _, coarse, fine = _calderon_study(tf.WaveletSpec(), **CALDERON_DEFAULTS)
    ratio = coarse / fine
    upper = cfg.tol("calderon_refinement")
    return _check(cfg, "calderon_refinement",
                  "doubling the scale count shrinks the residual by a factor "
                  "in [1.5, 3]", ratio, upper, 1.5 <= ratio <= upper,
                  detail=f"residuals {coarse!r} -> {fine!r}")


check_controlled_factorization = _stacked(
    "controlled_factorization",
    "mixed operator equals C S and S C* for self-adjoint commuting controls")

check_controlled_bounds_map = _stacked(
    "controlled_bounds_map",
    "controlled bounds are the extremes of phi(lambda) lambda over the frame spectrum")

check_controlled_spectral_mapping = _stacked(
    "controlled_spectral_mapping",
    "spectrum of the mixed operator is the mapped frame spectrum, relative to "
    "max(||L||, 1)")

check_controlled_positivity = _counted(
    "controlled_positivity",
    "mixed operator of a positive commuting control is positive")

check_controlled_implies_frame = _counted(
    "controlled_implies_frame",
    "a positive controlled lower bound certifies the frame property")

check_precondition_identity = _stacked(
    "precondition_identity", "undoing the controls recovers the plain multiplier")

check_weighted_scaling = _stacked(
    "weighted_scaling", "a constant weight scales both frame bounds by that constant")


def check_certificates(cfg: SuiteConfig) -> Check:
    worst, failed = _max_and_count(cfg, "certificates")
    tol = cfg.tol("certificates")
    return _check(cfg, "certificates",
                  "all five lower-bound certificates hold on invertible "
                  "instances", worst, tol, failed == 0 and worst <= tol,
                  detail=f"{failed} failing instance(s)")


check_multiplier_dual = _stacked(
    "multiplier_dual", "the frame built from the inverse multiplier is a dual of G")


def check_positive_symbol_coercivity(cfg: SuiteConfig) -> Check:
    worst, bad = _max_and_count(cfg, "positive_symbol_coercivity")
    tol = cfg.tol("positive_symbol_coercivity")
    return _check(cfg, "positive_symbol_coercivity",
                  "a symbol bounded below by delta makes the multiplier "
                  "positive with lower bound delta A_F", worst, tol,
                  bad == 0 and worst <= tol)


SUITE_CHECKS = {
    "identities": [
        check_frame_factorization,
        check_reconstruction,
        check_reconstruction_swapped,
        check_multiplier_adjoint,
        check_difference_symbol,
        check_difference_analysis,
        check_difference_synthesis,
        check_weighted_identity,
        check_canonical_dual_pair,
        check_dual_bounds_inverse,
        check_frame_iff_invertible,
    ],
    "bounds": [
        check_bessel_inequality,
        check_bessel_sharpness,
        check_op_norm_budget,
        check_trace_budget,
        check_schatten_budget_p15,
        check_schatten_budget_p2,
        check_schatten_budget_p3,
        check_schatten_monotonicity,
        check_perturb_upper,
        check_perturb_lower,
        check_discrete_bessel_norm_bound,
        check_unbounded_norm_growth,
        check_unbounded_bessel_cap,
    ],
    "convergence": [
        check_truncation_budget,
        check_truncation_monotone,
        check_symbol_convergence_p1,
        check_symbol_convergence_p2,
        check_symbol_convergence_pinf,
        check_frame_uniform_l2,
        check_frame_uniform_l1,
    ],
    "gabor": [
        check_gabor_tightness,
        check_stft_matches_analysis,
        check_stft_energy,
        check_stft_orthogonality,
        check_tf_shift_unitarity,
    ],
    "wavelet": [
        check_admissibility_oracle,
        check_admissibility_scaling,
        check_admissibility_phase_invariance,
        check_wavelet_diagonality,
        check_wavelet_diagonal_oracle,
        check_wavelet_band_constant,
        check_wavelet_shift_commutation,
        check_wavelet_column_norms,
        check_calderon_default,
        check_calderon_refinement,
    ],
    "controlled": [
        check_controlled_factorization,
        check_controlled_bounds_map,
        check_controlled_spectral_mapping,
        check_controlled_positivity,
        check_controlled_implies_frame,
        check_precondition_identity,
    ],
    "weighted": [
        check_weighted_scaling,
        check_certificates,
        check_multiplier_dual,
        check_positive_symbol_coercivity,
    ],
}


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def run_suite(config: SuiteConfig) -> Report:
    """Run every check of the configured suite and collect a report.

    A check that raises is recorded as failed, with no measured value or
    budget and the exception in its error field; the run continues.  The
    members of a family whose measure raises each record its error.
    """
    if config.suite == "all":
        fns = [fn for suite in SUITES[:-1] for fn in SUITE_CHECKS[suite]]
    else:
        fns = SUITE_CHECKS[config.suite]
    report = Report(suite=config.suite, seed=config.seed, started=_timestamp())
    _RUNS.append({})
    try:
        for fn in fns:
            try:
                report.checks.append(fn(config))
            except Exception as exc:  # keep going; the report carries the failure
                check_id = fn.__name__.removeprefix("check_")
                tol = config.tolerances.get(check_id, DEFAULT_TOLERANCES.get(check_id))
                report.checks.append(Check(
                    check_id, "check aborted with an exception", None, None,
                    None if tol is None else float(tol), False,
                    error=f"{type(exc).__name__}: {exc}",
                ))
    finally:
        _RUNS.pop()
    report.finished = _timestamp()
    return report


def run_gabor(d: int, window="gaussian", seed: int = 0) -> Report:
    """Tightness report for one cyclic Gabor system."""
    if isinstance(window, str):
        window = tf.WindowSpec(kind=window)
    g = window.build(d) if isinstance(window, tf.WindowSpec) else np.asarray(window)
    report = Report(suite="gabor-run", seed=seed, started=_timestamp())
    S = tf.gabor_frame_operator(g, d)
    lower, upper = hb.extreme_eigenvalues(S)
    lower = max(lower, 0.0)
    gsq = float(np.linalg.norm(g) ** 2)
    residual = hb.operator_norm(S - gsq * np.eye(d)) / gsq
    tol = 1e-10
    report.checks.extend([
        Check("gabor_lower_bound", "optimal lower bound equals ||g||^2",
              lower, gsq, tol, abs(lower - gsq) <= tol * gsq),
        Check("gabor_upper_bound", "optimal upper bound equals ||g||^2",
              upper, gsq, tol, abs(upper - gsq) <= tol * gsq),
        Check("gabor_tightness_residual",
              "frame operator equals ||g||^2 times the identity",
              residual, tol, tol, residual <= tol),
    ])
    report.finished = _timestamp()
    return report


def run_wavelet(d: int = CALDERON_DEFAULTS["d"],
                wavelet: tf.WaveletSpec | None = None,
                a_min: float = CALDERON_DEFAULTS["a_min"],
                a_max: float = CALDERON_DEFAULTS["a_max"],
                n_a: int = CALDERON_DEFAULTS["n_a"],
                n_b: int | None = None,
                band: tuple[float, float] = CALDERON_DEFAULTS["band"],
                taper: float = CALDERON_DEFAULTS["taper"],
                seed: int = 0) -> Report:
    """Admissibility, reconstruction and refinement report for one wavelet."""
    wavelet = wavelet or tf.WaveletSpec()
    n_b = d if n_b is None else n_b
    report = Report(suite="wavelet-run", seed=seed, started=_timestamp())

    oracle_grid = tf.log_freq_grid(1e-3, 10.0, 2000, two_sided=True)
    c_full = tf.admissibility_constant(wavelet, oracle_grid)
    c_plus, coarse, fine = _calderon_study(wavelet, d, a_min, a_max, n_a, n_b,
                                           band, taper)
    ratio = coarse / fine

    claim = "two-sided admissibility quadrature (default profile: 1/4)"
    if wavelet.kind == "mexican-hat-fourier":
        admissibility = Check("admissibility_constant", claim, c_full, 0.25, 1e-4,
                              abs(c_full - 0.25) <= 1e-4,
                              detail=f"positive-axis constant {c_plus!r}")
    else:
        admissibility = Check("admissibility_constant", claim, c_full, c_full, 0.0,
                              True, detail="ungated measurement: the 1/4 closed "
                              "form holds for the default profile only; "
                              f"positive-axis constant {c_plus!r}")
    grid_desc = (f"d={d} a=[{a_min:g},{a_max:g}] n_a={n_a} n_b={n_b} "
                 f"band={tuple(band)} taper={taper:g}")
    report.checks.extend([
        admissibility,
        Check("calderon_residual",
              "reconstruction residual within tolerance on the configured grid",
              coarse, 0.02, 0.02, coarse <= 0.02,
              detail=f"{grid_desc}, C_plus={c_plus!r}"),
        Check("calderon_refinement",
              "residual drops by a factor in [1.5, 3] when scales double",
              ratio, 3.0, 3.0, 1.5 <= ratio <= 3.0,
              detail=f"residuals {coarse!r} -> {fine!r}"),
    ])
    report.finished = _timestamp()
    return report


def run_multiplier(config: dict, seed: int = 0) -> tuple[Report, str]:
    """Budget report plus singular-value CSV for one configured multiplier.

    The configuration carries an analysis frame, a synthesis frame and a
    symbol in their JSON forms.
    """
    F = fr.SampledFrame.from_dict(config["analysis_frame"])
    G = fr.SampledFrame.from_dict(config["synthesis_frame"])
    m = Symbol.from_dict(config["symbol"], F.space)
    tolerance = float(config.get("tolerance", 1e-10))

    report = Report(suite="multiplier-run", seed=seed, started=_timestamp())
    # one M and one SVD for the budgets, the scale and the CSV
    M = multiplier(m, F, G)
    sigma = hb.singular_values(M)
    actuals, budgets = budget_values(F.space.weights, m.values, F.vectors, G.vectors,
                                     DEFAULT_PS, sigma)
    for p, actual, budget in zip(DEFAULT_PS, actuals.tolist(), budgets.tolist()):
        tag = "inf" if p == math.inf else f"{p:g}"
        report.checks.append(Check(
            f"budget_p{tag}", f"Schatten {tag}-norm within its budget",
            actual, budget, tolerance, actual <= budget + tolerance))

    adjoint_defect = hb.operator_norm(
        M.conj().T - multiplier(m.values.conj(), G, F))
    scale = max(hb.schatten_of(sigma, math.inf), 1e-300)
    report.checks.append(Check(
        "adjoint_identity",
        "adjoint equals the conjugate-symbol multiplier with frames swapped",
        adjoint_defect / scale, 1e-12, 1e-12, adjoint_defect / scale <= 1e-12))

    if np.allclose(m.values, 1.0) and np.array_equal(F.vectors, G.vectors):
        s_defect = hb.operator_norm(M - fr.frame_operator(F)) / scale
        report.checks.append(Check(
            "equals_frame_operator",
            "unit symbol with equal frames reproduces the frame operator",
            s_defect, 1e-12, 1e-12, s_defect <= 1e-12))

    csv_text = hb.spectrum_to_csv(sigma)
    report.finished = _timestamp()
    return report, csv_text
