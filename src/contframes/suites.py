"""Seeded verification suites over randomized frame/multiplier instances,
and the reports of the gabor, wavelet and multiplier subcommands.

CHECKS is the one table of the suite checks, in report order; a new check is
one row.  A row holds the suite, the claim, the default tolerance, the gate
and the measure of its check, and for a stacked check its trial cap.
GABOR_RUN and WAVELET_RUN, the tables of the gabor and wavelet subcommands,
stay apart from CHECKS, out of reach of the suites and their tolerance
overrides.  The gabor and multiplier subcommands run stacked rows on one
trial whose roles they give, a window as the first test vector or an
instance (w, F, G, m); the wavelet rows read a Calderon study.  The gate
says how verdict() folds the values and holds them against the tolerance,
the budget of every verdict() record: max from 0 or from -inf <= tol (of
the distance of a value from its bound, relative to the bound), count == 0
(of failing trials), both of those, >= floor, or in [1.5, tol].  _report
makes every Check of every report, a verdict() or the abort record of a
check whose measure raised; the subcommand runs build their inputs once, under
np.errstate(over="ignore", invalid="ignore"); run_check(cfg, id) runs one
suite check afresh.  All randomness flows through per-role seed derivation,
so a report for a given configuration is reproducible bit-for-bit
(timestamps aside).

The identities, bounds, convergence, gabor, controlled and weighted suites
measure their trials in stacks, a block at a time: every step is one numpy
call over the stack, through the array kernels of the single-frame and
single-window API, so the values equal those of a per-trial loop on the same
draws; the convergence rows take every step from the multiplier of its bump
or of its dropped points, the perturbation rows the frame operator of G + eps F
from S_G, S_F and S_GF, and a trial's test vectors are analysed as one block.
The wavelet and unbounded-family rows are not stacked: their measure is a
function of the configuration that gives the value, or the value and a
detail.  The Calderon study reads no input and is computed once a process.

Norm policy: the one rule of the hilbert docstring.  The scales a context
holds are bounds_F.upper for S_F, L_scale for L and M_scale, ||M||_F /
sqrt(d), for M.

Trial contexts: the paper states each result for one frame pair (F, G) and
one symbol, so the checks of a suite read one instance per trial.  A stacked
row's measure is a function of a Trials context, whose roles of PLAIN are
each drawn on first use; the gabor rows read the first four test vectors as
windows and signals in C^d, d = cfg.d, and the shifts.  Role r of the trials
of block k, the k-th run of _block_trials(cfg) trials, reads the stream
_rng(seed, TRIAL_STREAMS, r, k) in trial order, so a context depends on cfg
and its trials alone.  A trial whose multiplier is singular under hb.cutoff
aborts the certificates and the induced dual, which read the instance
itself, with NotInvertibleError, as at N < d.

A context computes each quantity of SHARED once; one that raises (the dual
of a draw that is no frame) raises in every check that reads it and in no
other.  run_suite runs every stacked measure, in table order, on one context
a block, and a check whose cap ends inside the block on the Head of the
block's trials before the cap, which never takes the block's errors.
Trials(cfg, range(K, K + 1)) is the context of trial K alone: it opens the
streams of K's block and draws at most that block's trials; a range across a
block end is refused.
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
    FRAME_PARTS,
    budget_values,
    certificate_values,
    multiplier_dual_vectors,
)
from .errors import InvalidParameterError
from .measure import (
    Symbol,
    uniform_grid_1d,
    wavelet_grid,
    weighted_lp_norm,
)
from .reporting import Check, Report

SUITES = ("identities", "bounds", "convergence", "gabor", "wavelet",
          "controlled", "weighted", "all")

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


INTEGER_KEYS = ("seed", "trials", "d", "n")


def _integer(name: str, value) -> int:
    """A size or a seed: an int, a numpy integer, an integral float or a string
    that int() reads; a boolean, a fraction or a non-finite number is refused."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, np.integer, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise InvalidParameterError(f"{name} must be an integer, got {value!r}")


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
        # named by their configuration keys, "n" for n_points
        for key in INTEGER_KEYS:
            setattr(self, CONFIG_KEYS[key], _integer(key, getattr(self, CONFIG_KEYS[key])))
        if self.trials < 1 or self.d < 1 or self.n_points < 1:
            raise InvalidParameterError("trials, d and n must all be >= 1")
        if self.format not in ("json", "csv"):
            raise InvalidParameterError(f"unknown format {self.format!r}")
        unknown = sorted(set(self.tolerances) - CHECKS.keys())
        if unknown:
            raise InvalidParameterError(f"unknown tolerance keys {unknown}")
        bad = {key: value for key, value in self.tolerances.items()
               if not _is_tolerance(value)}
        if bad:
            raise InvalidParameterError(f"tolerances must be finite and >= 0, got {bad}")

    def tol(self, check_id: str) -> float:
        return float(self.tolerances.get(check_id, CHECKS[check_id].tolerance))

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
        return cls(**fields)


# ---------------------------------------------------------------------------
# deterministic random instances
# ---------------------------------------------------------------------------

def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed)] + [int(k) for k in key])


# complex entries a block of d x N frames or d x d operators holds, whose
# trials draw each role from one stream: 64 trials at d = 8, N = 64, and
# one, as in a per-trial loop, from d max(d, N) = 2^15 on
BLOCK_ENTRIES = 2**15


def _block_trials(cfg: SuiteConfig) -> int:
    return max(1, BLOCK_ENTRIES // (cfg.d * max(cfg.d, cfg.n_points)))


# roles: role(rng, cfg, count) draws the array of each of ``count``
# consecutive trials, (count, ...), with one generator call on its stream;
# "d" and "n" in a shape are sizes from the configuration

def _shape(cfg: SuiteConfig, dims) -> tuple:
    sizes = {"d": cfg.d, "n": cfg.n_points}
    return tuple(sizes.get(dim, dim) for dim in dims)


def _complex(*dims):
    """Complex entries whose real and then imaginary part are i.i.d. uniform
    on [-sqrt(3), sqrt(3)), mean 0 and variance 1, filled in place, one
    64-bit output a part.  Uniform parts are sub-Gaussian, so the extreme
    singular values of a drawn frame concentrate as for Gaussian entries
    (Vershynin, arXiv:1011.3027), and they cost less to draw than normals."""
    def draw(rng, cfg, count):
        out = np.empty((count, *_shape(cfg, dims)), dtype=complex)
        parts = out.view(float)
        rng.random(out=parts)
        parts -= 0.5
        parts *= 2.0 * math.sqrt(3.0)
        return out
    return draw


def _uniform(low, high, *dims, dtype=float):
    """Uniform in [low, high); arrays of bounds give one per trailing entry."""
    return lambda rng, cfg, count: rng.uniform(
        low, high, size=(count, *_shape(cfg, dims))).astype(dtype, copy=False)


def _kinds(rng, cfg, count):
    """Indices into controlled.SPECTRAL_KINDS."""
    return rng.integers(0, len(ctrl.SPECTRAL_KINDS), size=count)


_VECTORS = _complex("d", "n")
_SYMBOL = _complex("n")
# the (t, alpha, beta) of a power or an affine control
_PARAMS = _uniform((-1.0, 0.5, 0.1), (1.5, 2.0, 1.0), 3)
# the roles of a trial, role r of the trials of block k reading the stream
# _rng(seed, TRIAL_STREAMS, r, k): the instance (w, F, G, m), weights,
# analysis and synthesis vectors and symbol, then the roles the checks read
# beside it, last a time and a frequency shift in [0, d)
PLAIN = {"w": _uniform(0.2, 2.0, "n"), "F": _VECTORS, "G": _VECTORS, "m": _SYMBOL,
         "symbol": _SYMBOL, "vectors": _VECTORS,
         "tests": _complex(20, "d"), "eps": _uniform(0.05, 1.0),
         "nonnegative": _uniform(0.0, 3.0, "n", dtype=complex),
         "kinds": _kinds, "params": _PARAMS,
         "dual_kinds": _kinds, "dual_params": _PARAMS,
         "delta": _uniform(0.1, 1.0), "offsets": _uniform(0.0, 2.0, "n"),
         "shifts": lambda rng, cfg, count: rng.integers(0, cfg.d, size=(count, 2))}
TRIAL_STREAMS = 105


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


class Inputs:
    """The inputs of a run: the values given, and each of ``quantities``, a
    function of the context, evaluated on first use (as an attribute) and
    kept while the context lives; what raises is raised again to every
    later reader of it."""

    def __init__(self, quantities: dict, **given):
        self._quantities, self._errors = quantities, {}
        vars(self).update(given)

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        if name in self._errors:
            raise self._errors[name]
        try:
            value = self._evaluate(name)
        except Exception as exc:
            self._errors[name] = exc
            raise
        setattr(self, name, value)
        return value

    def _evaluate(self, name: str):
        if name not in self._quantities:
            raise AttributeError(name)
        return self._quantities[name](self)


class Trials(Inputs):
    """The inputs of trials of one block: the roles of PLAIN and the quantities of SHARED."""

    def __init__(self, cfg: SuiteConfig, trials: range):
        block = _block_trials(cfg)
        if trials and trials.start // block != trials[-1] // block:
            raise InvalidParameterError(f"trials {trials} cross the end of a {block}-trial block")
        super().__init__(SHARED)
        self.cfg, self.trials = cfg, trials

    def _evaluate(self, name: str):
        return self._read(name) if name in PLAIN else super()._evaluate(name)

    def _read(self, name: str) -> np.ndarray:
        """The draws of role ``name`` for the context's trials: its stream of
        their block, read past the block's trials before them."""
        block, draw, start = _block_trials(self.cfg), PLAIN[name], self.trials.start
        rng = _rng(self.cfg.seed, TRIAL_STREAMS, list(PLAIN).index(name), start // block)
        draw(rng, self.cfg, start % block)
        return draw(rng, self.cfg, len(self.trials))


# ---------------------------------------------------------------------------
# shared quantities and measures
# ---------------------------------------------------------------------------

def _reconstruction(w, analysis, synthesis, f):
    rec = fr.synthesize(synthesis, w, fr.coefficients(analysis, f))
    return hb.norm(rec - f) / hb.norm(f)


def _dual(t: Trials) -> tuple:
    """The reconstruction defects of the test vectors through the canonical
    dual and through F, the dual pair defect and the dual bounds defects,
    from one dual."""
    w, F, bounds = t.w, t.F, t.bounds_F
    dual = fr.dual_vectors(t.S_F, F, bounds)
    # the reconstructions first: their temporaries are the largest here, and
    # a product freed before them leaves heap pages they do not reuse
    forward, backward = (_reconstruction(w, F, dual, t.tests),
                         _reconstruction(w, dual, F, t.tests))
    dual_bounds = fr.operator_bounds(fr.weighted_gram(dual, w, dual))
    return (forward, backward,
            hb.frobenius_norm(fr.weighted_gram(dual, w, F) - np.eye(t.cfg.d)),
            np.stack([np.abs(dual_bounds.lower - 1.0 / bounds.upper) * bounds.upper,
                      np.abs(dual_bounds.upper - 1.0 / bounds.lower) * bounds.lower],
                     axis=-1))


def _truncation_cuts(n: int) -> list[int]:
    """Sizes of the kept sets of the truncation schedule: distinct and nested
    (each at least one point), then all n points.  Below 8 points n // 8,
    n // 4 and n // 2 repeat; a repeated cut would add a step of rise 0."""
    return sorted({max(1, n // 8), max(1, n // 4), max(1, n // 2)}) + [n]


def _truncation(t: Trials) -> tuple:
    """Deviation minus budget of each nested truncation of the nonnegative
    symbol against F but the last, which keeps every point, then the rise
    of the deviation from each of these steps to the next and its fall to 0
    at the last.  The largest values are kept first, so a step's deviation
    is the norm of the multiplier of m on the points it drops, a sum of
    positive rank-one terms that shrinks as the kept set grows: one product
    for each segment between two cuts, summed from the last segment on."""
    m, cuts = t.nonnegative, _truncation_cuts(t.cfg.n_points)
    zero = np.zeros((len(m), 1))
    order = np.argsort(np.abs(m), axis=-1)[..., ::-1]
    wm, tail, tails = t.w * m, np.zeros((len(m), t.cfg.d, t.cfg.d), dtype=complex), []
    for start, stop in reversed(list(zip(cuts, cuts[1:]))):
        if stop > start:  # at n = 1 the one segment is empty
            X = np.take_along_axis(t.F, order[:, None, start:stop], axis=-1)
            tail = tail + fr.weighted_gram(X, np.take_along_axis(wm, order[:, start:stop], -1), X)
        tails.insert(0, tail)
    measured = hb.operator_norm(np.stack(tails, axis=1))
    # the p = inf budget sup|m - m_n| B_F: the largest value dropped (none at n = 1)
    dropped = np.concatenate([np.take_along_axis(np.abs(m), order, -1), zero], -1)[:, cuts[:-1]]
    return measured - dropped * t.bounds_F.upper[:, None], np.diff(measured, append=0.0)


# the schedules of the convergence checks: the base plus bump / n, each n a
# power of two, so that step n is step 1 divided by n exactly
CONVERGENCE_STEPS = (1, 2, 4, 8, 16)


def _convergence(t: Trials) -> tuple:
    """Deviation minus budget of each step: the symbol plus the second symbol
    as a bump at p = 1, 2 and inf, then F plus the second vectors as a bump
    against the L2 and L1 budgets, one row per p.  The multiplier is linear
    in its symbol and in its analysis frame, so a step's deviation is the
    norm of the multiplier of its bump, M_{s,F,G} / n or M_{m,V,G} / n, and
    distance, deviation and budget are positively homogeneous: every step is
    the first over n, from one product and one SVD per experiment."""
    bf, bg = t.bounds_F.upper, t.bounds_G.upper
    actuals, budgets = budget_values(t.w, t.symbol, t.F, t.G, (1.0, 2.0, math.inf),
                                     upper=(bf, bg))
    distance = fr.max_column_norm(t.vectors)
    deviation = hb.operator_norm(fr.weighted_gram(t.G, t.w * t.m, t.vectors))
    frame_budgets = [distance * weighted_lp_norm(t.w, t.m, 2.0) * np.sqrt(bg),
                     distance * weighted_lp_norm(t.w, t.m, 1.0) * fr.max_column_norm(t.G)]
    firsts = [*np.moveaxis(actuals - budgets, -1, 0), *(deviation - b for b in frame_budgets)]
    return tuple(first[:, None] / np.array(CONVERGENCE_STEPS) for first in firsts)


# the quantities a context computes once, on first use
SHARED = {
    "S_F": lambda t: fr.weighted_gram(t.F, t.w, t.F),
    "S_G": lambda t: fr.weighted_gram(t.G, t.w, t.G),
    "bounds_F": lambda t: fr.operator_bounds(t.S_F),
    "bounds_G": lambda t: fr.operator_bounds(t.S_G),
    "M": lambda t: fr.weighted_gram(t.G, t.w * t.m, t.F),
    "S_GF": lambda t: fr.weighted_gram(t.G, t.w, t.F),  # for the frames G + eps F
    # ||M||_F / sqrt(d), the scale of the identities of M
    "M_scale": lambda t: np.maximum(hb.frobenius_scale(t.M), 1e-300),
    "sigma_M": lambda t: hb.singular_values(t.M),
    "M_inv": lambda t: hb.invert(t.M, t.sigma_M),
    "dual": _dual,
    # Schatten norms and budgets at p = 1, 1.5, 2, 3, inf
    "budgets": lambda t: budget_values(t.w, t.m, t.F, t.G, DEFAULT_PS, t.sigma_M,
                                       (t.bounds_F.upper, t.bounds_G.upper)),
    "truncation": _truncation,
    "convergence": _convergence,
    # one eigendecomposition of S_F for the controls, their frame test and
    # the mapped spectrum
    "eigen_F": lambda t: np.linalg.eigh(hb._require_finite(t.S_F)),
    "specs": lambda t: _specs(t.kinds, t.params),
    "C": lambda t: ctrl.spectral_controls(t.specs, t.S_F, t.eigen_F),
    "L": lambda t: ctrl.mixed_operator(t.C, t.w, t.F),
    "L_spectrum": lambda t: ctrl.mixed_spectrum(t.C, t.S_F, t.L),
    # max(||(L + L^*)/2||, 1), from the spectrum of the Hermitian part
    "L_scale": lambda t: np.maximum(np.max(np.abs(t.L_spectrum), axis=-1), 1.0),
    # phi(lambda) lambda
    "mapped": lambda t: ctrl.spectral_maps(t.specs, t.eigen_F.eigenvalues) * t.eigen_F.eigenvalues,
    # the Gabor frame operator of the first test vector as a window, ||g||^2
    # and one eigen-solve for the optimal bounds
    "gabor_S": lambda t: tf.gabor_operator(t.tests[:, 0]),
    "gabor_gsq": lambda t: _sq_norms(t.tests[:, 0]),
    "gabor_extremes": lambda t: hb.extreme_eigenvalues(t.gabor_S),
}


# ---------------------------------------------------------------------------
# evaluation block by block
# ---------------------------------------------------------------------------

class Head(Trials):
    """The first trials of a block's context, up to ``stop``: what the block
    holds, cut to them, and the rest drawn or computed on them alone."""

    def __init__(self, block: Trials, stop: int):
        super().__init__(block.cfg, range(block.trials.start, stop))
        self._block = block

    def _evaluate(self, name: str):
        held = vars(self._block)
        return _first(held[name], len(self.trials)) if name in held else super()._evaluate(name)


def _first(value, count: int):
    """The first ``count`` trials of an array, a list or a tuple or frame bounds of them."""
    if isinstance(value, fr.FrameBounds):
        return fr.FrameBounds(*_first((value.lower, value.upper, value.is_frame), count))
    if isinstance(value, tuple):
        return getattr(value, "_make", tuple)(_first(part, count) for part in value)
    return value[:count]


def _stacked_values(cfg: SuiteConfig, check_ids) -> dict:
    """Each stacked check of ``check_ids``: its values block by block, or what it raised."""
    limits = {c: min(cfg.trials, CHECKS[c].cap or cfg.trials)
              for c in check_ids if CHECKS[c].kind is not None}
    values = {c: [] for c in limits}
    size, stop = _block_trials(cfg), max(limits.values(), default=0)
    for start in range(0, stop, size):
        # rebinding both drops the last block's contexts before this one draws
        block, heads = Trials(cfg, range(start, min(start + size, stop))), {}
        for check_id, limit in limits.items():
            if limit <= start or isinstance(values[check_id], Exception):
                continue
            if limit < block.trials.stop and limit not in heads:
                heads[limit] = Head(block, limit)
            try:
                values[check_id].append(CHECKS[check_id].measure(heads.get(limit, block)))
            except Exception as exc:  # the check aborts with it, the others go on
                values[check_id] = exc.with_traceback(None)
    return values


# ---------------------------------------------------------------------------
# the gates and the verdict
# ---------------------------------------------------------------------------

# how verdict() folds a stacked row's values over every trial and holds the
# result against the tolerance; any other row's measure gives it folded
MAX0 = "max from 0 <= tol"
MAX = "max from -inf <= tol"
COUNT = "count == 0"
MAX_COUNT_SHOWN = "max from -inf <= tol, count == 0, count in detail"
FLOOR = ">= floor"
RANGE = "in [1.5, tol]"


def _max(start: float, contexts) -> float:
    """max of ``start`` and every value of every context, in order; NaN from
    the first NaN value on (max keeps a NaN it starts from)."""
    for values in contexts:
        values = np.ravel(values)
        start = math.nan if np.isnan(values).any() else max([start, *values.tolist()])
    return start


def _count(contexts) -> int:
    """The number of failing (true or nonzero) values of every context."""
    return sum(int(np.count_nonzero(failing)) for failing in contexts)


def verdict(check_id: str, row: "Row", tol: float, values) -> Check:
    """The record of check ``check_id`` of table row ``row`` from what its
    measure gave, under tolerance ``tol``.  A stacked row gives the values
    of each context in trial order, (value, failing) pairs under the gates
    that count.  Any other row gives the value, or the value and a detail.
    The budget of the record is the tolerance.  NaN fails every gate; a
    non-finite measured value moves into the detail."""
    detail, failing = "", 0
    if row.kind is None:
        measured, detail = values if isinstance(values, tuple) else (values, "")
    elif row.gate == COUNT:
        measured = failing = _count(values)
    elif row.gate == MAX_COUNT_SHOWN:
        measured = _max(-math.inf, (value for value, _ in values))
        failing = _count(flags for _, flags in values)
        detail = f"{failing} failing instance(s)"
    else:
        measured = _max(0.0 if row.gate == MAX0 else -math.inf, values)
    measured = float(measured)
    passed = failing == 0 and {FLOOR: measured >= tol, RANGE: 1.5 <= measured <= tol}.get(
        row.gate, measured <= tol)
    if not math.isfinite(measured):
        detail, measured = "; ".join(filter(None, (f"measured {measured!r}", detail))), None
    return Check(check_id, row.claim, measured, tol, tol, bool(passed), detail)


# ---------------------------------------------------------------------------
# the measures of the stacked rows: functions of a trial context
# ---------------------------------------------------------------------------

def _item(name: str, index: int) -> Callable:
    """The measure that reads part ``index`` of a shared quantity."""
    return lambda t: getattr(t, name)[index]


def _frame_factorization(t: Trials):
    # column k of the composition synthesizes the analysis of basis vector k
    coeffs = fr.coefficients(t.F, np.eye(t.cfg.d, dtype=complex))
    composed = fr.synthesize(t.F, t.w, coeffs).swapaxes(-1, -2)
    return hb.frobenius_norm(t.S_F - composed) / t.bounds_F.upper


def _multiplier_adjoint(t: Trials):
    swapped = fr.weighted_gram(t.F, t.w * t.m.conj(), t.G)
    return hb.frobenius_norm(hb.adjoint(t.M) - swapped) / t.M_scale


def _difference(pair: Callable) -> Callable:
    """The defect of M minus the multiplier that pair(t) gives first,
    against the multiplier of the difference it gives second."""
    def measure(t: Trials):
        other, rhs = pair(t)
        return hb.frobenius_norm(t.M - other - rhs) / t.M_scale
    return measure


def _weighted_identity(t: Trials):
    M = fr.weighted_gram(t.F, t.w * t.nonnegative, t.F)
    reweighted = t.F * np.sqrt(t.nonnegative.real)[:, None, :]
    S = fr.weighted_gram(reweighted, t.w, reweighted)
    return hb.frobenius_norm(M - S) / np.maximum(hb.frobenius_scale(S), 1.0)


def _frame_iff_invertible(t: Trials):
    # the frame operator of F on even trials and, on odd ones, of F with its
    # last coordinate zeroed, columns in a hyperplane and so no frame: S_F
    # with its last row and column zeroed
    S = t.S_F.copy()
    odd = np.arange(t.trials.start, t.trials.stop) % 2 == 1
    S[odd, -1], S[odd, :, -1] = 0.0, 0.0
    # True where they disagree; invertibility is hilbert.invert's cutoff
    return fr.operator_bounds(S).is_frame == hb.is_singular(hb.singular_values(S))


def _bessel_inequality(t: Trials):
    f = t.tests
    energy = np.sum(t.w[:, None] * np.abs(fr.coefficients(t.F, f)) ** 2, axis=-1)
    nsq = hb.power(hb.norm(f), 2)
    lower, scale = t.bounds_F.lower[:, None] * nsq, t.bounds_F.upper[:, None] * nsq
    return _relative(np.stack([lower - energy, energy - scale], axis=-1), scale[..., None])


def _bessel_sharpness(t: Trials):
    _, vecs = np.linalg.eigh(hb.hermitian_part(hb._require_finite(t.S_F)))
    top = np.sum(t.w * np.abs(fr.coefficients(t.F, vecs[..., None, :, -1])[:, 0]) ** 2, axis=-1)
    return np.abs(top - t.bounds_F.upper) / t.bounds_F.upper


def _relative(gap, scale):
    """gap / scale; over a zero scale, 0 for a gap of 0 and inf for a positive one."""
    return np.divide(gap, scale, out=np.where(gap > 0.0, math.inf, gap), where=scale != 0.0)


def _budget(p: float) -> Callable:
    """(x - b) / b of the Schatten p-norm x and its budget b."""
    column = DEFAULT_PS.index(p)

    def measure(t: Trials):
        x, b = t.budgets[0][:, column], t.budgets[1][:, column]
        return _relative(x - b, b)
    return measure


def _bounds(w, vectors) -> fr.FrameBounds:
    return fr.operator_bounds(fr.weighted_gram(vectors, w, vectors))


def _perturbed_operator(t: Trials, eps) -> np.ndarray:
    """S_G + eps (S_GF + S_GF^* + eps S_F), the frame operators of G + eps F."""
    eps = eps[:, None, None]
    return fr.perturbed(t.S_G, t.S_GF + hb.adjoint(t.S_GF) + eps * t.S_F, eps)


def _perturb_upper(t: Trials):
    upper = fr.operator_bounds(_perturbed_operator(t, t.eps)).upper
    return upper - 2.0 * (t.bounds_G.upper + hb.power(t.eps, 2) * t.bounds_F.upper)


def _perturb_lower(t: Trials):
    # at eps = sqrt(A_G / B_F) / 2
    ag, bf = t.bounds_G.lower, t.bounds_F.upper
    eps = 0.5 * np.sqrt(ag / bf)
    lower = fr.operator_bounds(_perturbed_operator(t, eps)).lower
    return hb.power(np.sqrt(ag) - eps * np.sqrt(bf), 2) - lower


def _discrete_bessel_norm_bound(t: Trials):
    return fr.max_column_norm(t.F) - np.sqrt(_bounds(np.ones(t.cfg.n_points), t.F).upper)


def _controlled_factorization(t: Trials):
    L, C, S = t.L, t.C, t.S_F
    return np.stack([hb.frobenius_norm(L - C @ S) / t.L_scale,
                     hb.frobenius_norm(L - S @ hb.adjoint(C)) / t.L_scale], axis=-1)


def _controlled_bounds_map(t: Trials):
    low, high, mapped = t.L_spectrum[..., 0], t.L_spectrum[..., -1], t.mapped
    scale = np.maximum(np.max(np.abs(mapped), axis=-1), 1.0)
    return np.stack([np.abs(low - np.min(mapped, axis=-1)) / scale,
                     np.abs(high - np.max(mapped, axis=-1)) / scale], axis=-1)


def _controlled_spectral_mapping(t: Trials):
    return np.max(np.abs(np.sort(t.L_spectrum, axis=-1) - np.sort(t.mapped, axis=-1)),
                  axis=-1) / t.L_scale


def _controlled_positivity(t: Trials):
    spectrum = t.L_spectrum
    return ~hb.is_positive(t.L, t.cfg.tol("controlled_positivity"),
                           (spectrum[..., 0], spectrum[..., -1]))


def _controlled_implies_frame(t: Trials):
    # the frame test reads the eigenvalues the controls are built from
    lam = t.eigen_F.eigenvalues
    is_frame = fr.spectrum_bounds(lam[..., 0], lam[..., -1]).is_frame
    return (t.L_spectrum[..., 0] > 0.0) & ~is_frame


def _precondition_identity(t: Trials):
    D = ctrl.spectral_controls(_specs(t.dual_kinds, t.dual_params), t.S_G)
    return ctrl.precondition_residual(t.C, D, t.w * t.m, t.F, t.G, t.M)


def _weighted_scaling(t: Trials):
    # the bounds of fr.weighted(F, 3), columns times sqrt(3), against 3 times
    # those of F: 3 is no power of two, so the product rounds apart from 3 S_F
    bounds, scaled = t.bounds_F, _bounds(t.w, t.F * math.sqrt(3.0))
    return np.stack([np.abs(scaled.lower - 3.0 * bounds.lower) / (3.0 * bounds.upper),
                     np.abs(scaled.upper - 3.0 * bounds.upper) / (3.0 * bounds.upper)],
                    axis=-1)


def _certificates(t: Trials):
    # floor - measured of certificate 1, and True where a certificate fails:
    # a frame part at or below its floor, any other below it by more than
    # the tolerance; a singular multiplier aborts the check
    measured, floors = certificate_values(
        t.w, t.m, t.F, t.G, t.sigma_M, bounds=(t.bounds_F, t.bounds_G))
    holds = np.where(FRAME_PARTS, measured > floors,
                     measured >= floors - t.cfg.tol("certificates"))
    return floors[..., 0] - measured[..., 0], ~np.all(holds, axis=-1)


def _multiplier_dual(t: Trials):
    H = multiplier_dual_vectors(t.w, t.m, t.F, t.G, t.M_inv, t.bounds_G)
    return hb.frobenius_norm(fr.weighted_gram(t.G, t.w, H) - np.eye(t.cfg.d))


def _positive_symbol_coercivity(t: Trials):
    # delta A_F - lambda_min(M), and True where M is not positive, for the
    # multiplier M of the symbol delta + offsets in [delta, delta + 2)
    m = (t.delta[:, None] + t.offsets).astype(complex)
    M = fr.weighted_gram(t.F, t.w * m, t.F)
    # one eigvalsh gives lam_min and the positivity test
    extremes = hb.extreme_eigenvalues(M)
    not_positive = ~hb.is_positive(M, t.cfg.tol("positive_symbol_coercivity"), extremes)
    return t.delta * t.bounds_F.lower - extremes[0], not_positive


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """||x||^2 of each vector of a stack, as float(np.linalg.norm(x) ** 2)
    takes it for one."""
    return hb.power(hb.norm(x), 2)


def _unit(x: np.ndarray) -> np.ndarray:
    """Each vector of a stack divided by its norm."""
    return x / hb.norm(x)[..., None]


def _tightness(t: Trials):
    """||S - ||g||^2 I||_F / ||g||^2 for the Gabor frame operator S of each window
    g: at least the operator-norm defect, one pass, no eigen-solve and no SVD."""
    gsq = t.gabor_gsq
    return hb.frobenius_norm(t.gabor_S - gsq[:, None, None] * np.eye(t.cfg.d)) / gsq


def _stft_matches(t: Trials):
    # on unit f and g, so every coefficient is at most 1, against the analysis
    # by the d modulations M_b T_a g of one shift a at a time, d^2 entries
    d = t.cfg.d
    g, f = _unit(t.tests[:, 0]), _unit(t.tests[:, 1:2])  # f a block of one
    coeffs = tf.stft_coefficients(f[:, 0], g).reshape(-1, d, 1, d)
    # column b is M_b 1, in C order as np.column_stack lays columns out: BLAS
    # rounds a product with a transposed operand differently.  Phase times
    # window, the operand order of tf.modulate: numpy rounds a complex
    # product differently when its operands are swapped
    ramps = np.ascontiguousarray(tf.modulate(np.ones((d, d)), np.arange(d)).T)
    return np.max([np.abs(coeffs[:, a] - fr.coefficients(ramps * tf.translate(g, a)[..., None], f))
                   for a in range(d)], axis=(0, 2, 3))


def _stft_energy(t: Trials):
    g, f = t.tests[:, 0], t.tests[:, 1]
    coeffs = tf.stft_coefficients(f, g)
    # each coefficient carries the point mass 1/d of the Gabor space
    energy = np.sum((1.0 / t.cfg.d) * np.abs(coeffs) ** 2, axis=-1)
    expected = _sq_norms(g) * _sq_norms(f)
    return np.abs(energy - expected) / expected


def _stft_orthogonality(t: Trials):
    return tf.stft_orthogonality_residual(*np.moveaxis(_unit(t.tests[:, :4]), 1, 0))


def _shift_unitarity(t: Trials):
    x = t.tests[:, 0]
    shifted = tf.modulate(tf.translate(x, t.shifts[:, 0]), t.shifts[:, 1])
    return np.abs(hb.norm(shifted) - hb.norm(x))


# ---------------------------------------------------------------------------
# the measures of the config rows: functions of the configuration
# ---------------------------------------------------------------------------

def _unbounded_norm_growth(cfg: SuiteConfig) -> tuple:
    h = _complex("d")(_rng(cfg.seed, 123), cfg, 1)[0]
    norms = [fr.norm_bound(fr.scaled_singleton(uniform_grid_1d(0.0, 1.0, n), h))
             for n in (100, 1000, 10000)]
    return (min(b / a for a, b in zip(norms, norms[1:])),
            f"norms {['%.4g' % v for v in norms]}")


def _unbounded_bessel_cap(cfg: SuiteConfig) -> float:
    h = _complex("d")(_rng(cfg.seed, 124), cfg, 1)[0]
    hsq = float(np.linalg.norm(h) ** 2)
    caps = []
    for n in (100, 1000, 10000):
        grid = uniform_grid_1d(0.0, 1.0, n)
        quad = float(np.sum(grid.weights
                            * fr.unbounded_amplitude(grid.points[:, 0]) ** 2))
        caps.append(fr.frame_bounds(fr.scaled_singleton(grid, h)).upper - hsq * quad)
    return _max(-math.inf, caps)


# the closed form of the two-sided admissibility constant of the default
# profile
ADMISSIBILITY = 0.25


def _admissibility(wavelet: tf.WaveletSpec) -> float:
    """The two-sided admissibility constant on the oracle's frequency grid."""
    return tf.admissibility_constant(
        wavelet, tf.log_freq_grid(1e-3, 10.0, 2000, two_sided=True))


def _admissibility_oracle(cfg: SuiteConfig) -> tuple:
    value = _admissibility(tf.WaveletSpec())
    return abs(value - ADMISSIBILITY), f"value {value!r}"


def _admissibility_scaling(cfg: SuiteConfig) -> float:
    base = _admissibility(tf.WaveletSpec())
    worst = 0.0
    for c in (0.5, 2.0, 3.0 + 4.0j):
        value = _admissibility(tf.WaveletSpec(
            "given-fourier", lambda g, c=c: c * tf.mexican_hat_fourier(g)))
        worst = max(worst, abs(value - abs(c) ** 2 * base) / (abs(c) ** 2 * base))
    return worst


def _admissibility_phase_invariance(cfg: SuiteConfig) -> float:
    base = _admissibility(tf.WaveletSpec())
    value = _admissibility(tf.WaveletSpec(
        "given-fourier",
        lambda g: tf.mexican_hat_fourier(g) * np.exp(1j * np.sign(g) * 0.7)))
    return abs(value - base) / base


@functools.lru_cache(maxsize=1)
def _small_wavelet_setup():
    d = 64
    grid = wavelet_grid(2.0**-6, 4.0, 48, 0.0, 1.0, d)
    wavelet = tf.WaveletSpec()
    S = fr.frame_operator(tf.wavelet_frame(wavelet, grid, d))
    dft = np.fft.fft(np.eye(d)) / math.sqrt(d)
    S_freq = dft @ S @ dft.conj().T
    # the largest |diagonal entry| of S_freq: ||S|| for an operator diagonal
    # in the frequency basis
    scale = float(np.max(np.abs(np.diagonal(S_freq))))
    return d, grid, wavelet, S, S_freq, scale


def _wavelet_diagonality(cfg: SuiteConfig) -> float:
    *_, S_freq, scale = _small_wavelet_setup()
    off = S_freq - np.diag(np.diagonal(S_freq))
    return float(np.max(np.abs(off))) / scale


def _wavelet_diagonal_oracle(cfg: SuiteConfig) -> float:
    d, grid, wavelet, _, S_freq, _ = _small_wavelet_setup()
    oracle = tf.scale_profile(wavelet, grid, d)
    diag = np.real(np.diagonal(S_freq))
    return float(np.max(np.abs(diag - oracle)) / np.max(oracle))


def _wavelet_band_constant(cfg: SuiteConfig) -> float:
    d, grid, wavelet, _, S_freq, _ = _small_wavelet_setup()
    c_plus = tf.positive_axis_constant(wavelet)
    freqs = tf.dft_frequencies(d)
    band = (np.abs(freqs) >= 1.0) & (np.abs(freqs) <= 9.0)
    diag = np.real(np.diagonal(S_freq))
    return float(np.max(np.abs(diag[band] / c_plus - 1.0)))


def _wavelet_shift_commutation(cfg: SuiteConfig) -> float:
    d, _, _, S, _, scale = _small_wavelet_setup()
    shift = np.roll(np.eye(d), 1, axis=0)
    return hb.frobenius_norm(S @ shift - shift @ S) / scale


def _wavelet_column_norms(cfg: SuiteConfig) -> float:
    d = 32
    n_a, n_b = 8, 16
    grid = wavelet_grid(0.25, 2.0, n_a, 0.0, 1.0, n_b)
    W = tf.wavelet_frame(tf.WaveletSpec(), grid, d)
    norms = np.linalg.norm(W.vectors, axis=0).reshape(n_a, n_b)
    return float(np.max(np.ptp(norms, axis=1) / np.max(norms, axis=1)))


def _residuals(r: Inputs) -> tuple[float, float]:
    """The reconstruction residuals of the bump on the grid of a Calderon
    study, which the study lets go once measured, and on its refinement."""
    residual = functools.partial(tf.calderon_residual, r.wavelet, f=r.f, c_plus=r.c_plus)
    coarse = residual(r.grids.pop())
    return coarse, residual(wavelet_grid(*r.refined))


# the quantities of a Calderon study
CALDERON = {
    "c_full": lambda r: _admissibility(r.wavelet),
    "c_plus": lambda r: tf.positive_axis_constant(r.wavelet),
    "constants": lambda r: f"value {r.c_full!r}, positive-axis constant {r.c_plus!r}",
    "residuals": _residuals,
}


def _calderon_study(wavelet: tf.WaveletSpec, d: int, a_min: float, a_max: float,
                    n_a: int, n_b: int, band: tuple[float, float],
                    taper: float) -> Inputs:
    """The Calderon study of a wavelet: the Inputs of a band-limited bump f,
    of the n_a-cell scale grid with n_b shifts over one period and of its
    refinement to 2 n_a cells, with the quantities of CALDERON.  The bump
    and the first grid are built here, so bad input raises here."""
    setup = (f"d={d} a=[{a_min:g},{a_max:g}] n_a={n_a} n_b={n_b} "
             f"band={tuple(band)} taper={taper:g}")
    return Inputs(CALDERON, wavelet=wavelet, setup=setup,
                  f=tf.bandlimited_bump(d, band, taper),
                  grids=[wavelet_grid(a_min, a_max, n_a, 0.0, 1.0, n_b)],
                  refined=(a_min, a_max, 2 * n_a, 0.0, 1.0, n_b))


@functools.lru_cache(maxsize=1)
def _default_calderon_study() -> Inputs:
    """The _calderon_study of the default wavelet on CALDERON_DEFAULTS: it
    reads no input, so a process keeps one for both Calderon checks."""
    return _calderon_study(tf.WaveletSpec(), **CALDERON_DEFAULTS)


def _refinement(coarse: float, fine: float) -> tuple:
    """The factor by which doubling the scale cells shrinks the residual."""
    return coarse / fine, f"residuals {coarse!r} -> {fine!r}"


# ---------------------------------------------------------------------------
# the check table
# ---------------------------------------------------------------------------

class Row(NamedTuple):
    """A check: its suite (or report), the claim it verifies, its default
    tolerance, its gate and its measure.  A stacked row (``kind`` STACKED)
    has a measure of trial contexts, min(cfg.trials, cap) trials; a config
    row of CHECKS (no kind) has a measure of the configuration, and one of
    WAVELET_RUN a measure of the Inputs of its run."""

    suite: str
    claim: str
    tolerance: float
    gate: str
    measure: Callable
    kind: str | None = None
    cap: int | None = None


# the kind of a stacked row
STACKED = "stacked"


# every check in report order: the suites in the order of SUITES
CHECKS: dict[str, Row] = {
    "frame_factorization": Row(
        "identities", "frame operator equals synthesis composed with analysis", 1e-12,
        MAX0, _frame_factorization, STACKED),
    "reconstruction": Row(
        "identities", "canonical dual reconstructs every vector from analysis by F",
        1e-10, MAX0, _item("dual", 0), STACKED),
    "reconstruction_swapped": Row(
        "identities", "F reconstructs every vector from analysis by the canonical dual",
        1e-10, MAX0, _item("dual", 1), STACKED),
    "multiplier_adjoint": Row(
        "identities",
        "adjoint of the multiplier is the conjugate-symbol multiplier with frames swapped",
        1e-12, MAX0, _multiplier_adjoint, STACKED),
    "difference_symbol": Row(
        "identities",
        "difference of multipliers equals the multiplier of the symbol difference",
        1e-12, MAX0, _difference(lambda t: (
            fr.weighted_gram(t.G, t.w * t.symbol, t.F),
            fr.weighted_gram(t.G, t.w * (t.m - t.symbol), t.F))), STACKED),
    "difference_analysis": Row(
        "identities",
        "difference over analysis frames equals the multiplier of the frame difference",
        1e-12, MAX0, _difference(lambda t: (
            fr.weighted_gram(t.G, t.w * t.m, t.vectors),
            fr.weighted_gram(t.G, t.w * t.m, t.F - t.vectors))), STACKED),
    "difference_synthesis": Row(
        "identities",
        "difference over synthesis frames equals the multiplier of the frame difference",
        1e-12, MAX0, _difference(lambda t: (
            fr.weighted_gram(t.vectors, t.w * t.m, t.F),
            fr.weighted_gram(t.G - t.vectors, t.w * t.m, t.F))), STACKED),
    "weighted_identity": Row(
        "identities",
        "multiplier with a nonnegative symbol is the frame operator of the reweighted frame",
        1e-12, MAX0, _weighted_identity, STACKED),
    "canonical_dual_pair": Row(
        "identities", "frame and its canonical dual synthesize the identity", 1e-10,
        MAX0, _item("dual", 2), STACKED),
    "dual_bounds_inverse": Row(
        "identities", "canonical dual bounds are the reciprocals (1/B, 1/A)", 1e-10,
        MAX0, _item("dual", 3), STACKED),
    "frame_iff_invertible": Row(
        "identities", "frame property coincides with invertibility of the frame operator",
        0.0, COUNT, _frame_iff_invertible, STACKED),
    "bessel_inequality": Row(
        "bounds", "weighted coefficient energy lies between the optimal bounds times ||f||^2",
        1e-10, MAX0, _bessel_inequality, STACKED),
    "bessel_sharpness": Row(
        "bounds", "the top eigenvector attains the upper bound with equality", 1e-10,
        MAX0, _bessel_sharpness, STACKED),
    "op_norm_budget": Row(
        "bounds", "operator norm is at most sup|m| sqrt(B_F B_G)", 1e-10, MAX,
        _budget(math.inf), STACKED),
    "trace_budget": Row(
        "bounds", "trace norm is at most ||m||_1 L_F L_G", 1e-10, MAX, _budget(1.0), STACKED),
    "schatten_budget_p15": Row(
        "bounds", "Schatten 1.5-norm stays under its interpolation budget", 1e-10, MAX,
        _budget(1.5), STACKED),
    "schatten_budget_p2": Row(
        "bounds", "Hilbert-Schmidt norm stays under its interpolation budget", 1e-10, MAX,
        _budget(2.0), STACKED),
    "schatten_budget_p3": Row(
        "bounds", "Schatten 3-norm stays under its interpolation budget", 1e-10, MAX,
        _budget(3.0), STACKED),
    "schatten_monotonicity": Row(
        "bounds", "Schatten norms are nonincreasing in p", 1e-10, MAX0, lambda t: _relative(
            np.diff(t.budgets[0]), np.maximum(t.budgets[0][:, :-1], t.budgets[0][:, 1:])), STACKED),
    "perturb_upper": Row(
        "bounds", "upper bound of G + eps F is at most 2 (B_G + eps^2 B_F)", 1e-10, MAX,
        _perturb_upper, STACKED),
    "perturb_lower": Row(
        "bounds", "lower bound of G + eps F is at least (sqrt(A_G) - eps sqrt(B_F))^2 "
        "for small eps", 1e-10, MAX, _perturb_lower, STACKED),
    "discrete_bessel_norm_bound": Row(
        "bounds", "with unit weights every frame vector norm is at most sqrt(B)", 1e-10,
        MAX, _discrete_bessel_norm_bound, STACKED),
    "unbounded_norm_growth": Row(
        "bounds", "largest vector norm grows by at least 1.5x per grid decade", 1.5,
        FLOOR, _unbounded_norm_growth),
    "unbounded_bessel_cap": Row(
        "bounds", "Bessel bound stays below ||h||^2 times the amplitude quadrature on "
        "every refinement", 1e-10, MAX, _unbounded_bessel_cap),
    "truncation_budget": Row(
        "convergence", "truncated-symbol deviation stays under sup|m - m_n| sqrt(B_F B_G)",
        1e-10, MAX, _item("truncation", 0), STACKED, 50),
    "truncation_monotone": Row(
        "convergence", "nested truncations decrease the deviation monotonically to zero",
        1e-10, MAX, _item("truncation", 1), STACKED, 50),
    "symbol_convergence_p1": Row(
        "convergence", "trace-norm deviation tracks the L1 distance of the symbols",
        1e-10, MAX, _item("convergence", 0), STACKED, 20),
    "symbol_convergence_p2": Row(
        "convergence", "Hilbert-Schmidt deviation tracks the L2 distance of the symbols",
        1e-10, MAX, _item("convergence", 1), STACKED, 20),
    "symbol_convergence_pinf": Row(
        "convergence", "operator-norm deviation tracks the sup distance of the symbols",
        1e-10, MAX, _item("convergence", 2), STACKED, 20),
    "frame_uniform_l2": Row(
        "convergence", "uniform frame perturbation is dominated by eps ||m||_2 sqrt(B_G)",
        1e-10, MAX, _item("convergence", 3), STACKED, 20),
    "frame_uniform_l1": Row(
        "convergence", "uniform frame perturbation is dominated by eps ||m||_1 L_G",
        1e-10, MAX, _item("convergence", 4), STACKED, 20),
    "gabor_tightness": Row(
        "gabor", "cyclic Gabor frame operator is exactly ||g||^2 times the identity",
        1e-10, MAX0, _tightness, STACKED, 100),
    "stft_matches_analysis": Row(
        "gabor", "transform coefficients equal frame analysis entrywise", 1e-12, MAX0,
        _stft_matches, STACKED, 20),
    "stft_energy": Row(
        "gabor", "weighted coefficient energy equals ||g||^2 ||f||^2", 1e-10, MAX0,
        _stft_energy, STACKED, 50),
    "stft_orthogonality": Row(
        "gabor", "coefficient pairing of two windows factors into the two inner products",
        1e-10, MAX0, _stft_orthogonality, STACKED, 100),
    "tf_shift_unitarity": Row(
        "gabor", "time and frequency shifts preserve norms", 1e-12, MAX0,
        _shift_unitarity, STACKED, 100),
    "admissibility_oracle": Row(
        "wavelet", "quadrature admissibility constant matches the closed form 1/4", 1e-4,
        MAX0, _admissibility_oracle),
    "admissibility_scaling": Row(
        "wavelet", "scaling the profile by c scales the constant by |c|^2", 1e-12, MAX0,
        _admissibility_scaling),
    "admissibility_phase_invariance": Row(
        "wavelet", "the constant depends on the profile modulus only", 1e-12, MAX0,
        _admissibility_phase_invariance),
    "wavelet_diagonality": Row(
        "wavelet", "frame operator is diagonal in the frequency basis under a full "
        "uniform shift grid", 1e-10, MAX0, _wavelet_diagonality),
    "wavelet_diagonal_oracle": Row(
        "wavelet", "frequency-basis diagonal matches the per-frequency scale quadrature",
        1e-10, MAX0, _wavelet_diagonal_oracle),
    "wavelet_band_constant": Row(
        "wavelet", "well-covered diagonal entries match the positive-axis admissibility "
        "constant", 0.02, MAX0, _wavelet_band_constant),
    "wavelet_shift_commutation": Row(
        "wavelet", "frame operator commutes with the one-step cyclic shift", 1e-10, MAX0,
        _wavelet_shift_commutation),
    "wavelet_column_norms": Row(
        "wavelet", "column norms do not depend on the shift coordinate", 1e-10, MAX0,
        _wavelet_column_norms),
    "calderon_default": Row(
        "wavelet", "reconstruction residual at the default grid stays under 2%", 0.02,
        MAX0, lambda cfg: _default_calderon_study().residuals[0]),
    "calderon_refinement": Row(
        "wavelet", "doubling the scale count shrinks the residual by a factor in [1.5, 3]",
        3.0, RANGE, lambda cfg: _refinement(*_default_calderon_study().residuals)),
    "controlled_factorization": Row(
        "controlled", "mixed operator equals C S and S C* for self-adjoint commuting "
        "controls", 1e-12, MAX0, _controlled_factorization, STACKED, 100),
    "controlled_bounds_map": Row(
        "controlled", "controlled bounds are the extremes of phi(lambda) lambda over the "
        "frame spectrum", 1e-10, MAX0, _controlled_bounds_map, STACKED, 100),
    "controlled_spectral_mapping": Row(
        "controlled", "spectrum of the mixed operator is the mapped frame spectrum, "
        "relative to max(||(L + L*)/2||, 1)", 1e-12, MAX0, _controlled_spectral_mapping,
        STACKED, 100),
    "controlled_positivity": Row(
        "controlled", "mixed operator of a positive commuting control is positive", 1e-10,
        COUNT, _controlled_positivity, STACKED, 100),
    "controlled_implies_frame": Row(
        "controlled", "a positive controlled lower bound certifies the frame property",
        0.0, COUNT, _controlled_implies_frame, STACKED, 100),
    "precondition_identity": Row(
        "controlled", "undoing the controls recovers the plain multiplier", 1e-10, MAX0,
        _precondition_identity, STACKED, 100),
    "weighted_scaling": Row(
        "weighted", "a constant weight scales both frame bounds by that constant", 1e-12,
        MAX0, _weighted_scaling, STACKED, 100),
    "certificates": Row(
        "weighted", "all five lower-bound certificates hold on invertible instances",
        1e-10, MAX_COUNT_SHOWN, _certificates, STACKED, 100),
    "multiplier_dual": Row(
        "weighted", "the frame built from the inverse multiplier is a dual of G", 1e-9,
        MAX0, _multiplier_dual, STACKED, 50),
    "positive_symbol_coercivity": Row(
        "weighted", "a symbol bounded below by delta makes the multiplier positive with "
        "lower bound delta A_F", 1e-10, MAX_COUNT_SHOWN, _positive_symbol_coercivity,
        STACKED, 100),
}


# the tables of the gabor and wavelet subcommands, apart from CHECKS: the
# stacked rows of a gabor run, |bound - ||g||^2| / ||g||^2 with the lower
# bound clamped at 0, and the rows of the Calderon study of a wavelet run
GABOR_RUN: dict[str, Row] = {
    "gabor_lower_bound": Row(
        "gabor-run", "optimal lower bound equals ||g||^2", 1e-10, MAX0, lambda t: np.abs(
            np.maximum(t.gabor_extremes[0], 0.0) - t.gabor_gsq) / t.gabor_gsq, STACKED),
    "gabor_upper_bound": Row(
        "gabor-run", "optimal upper bound equals ||g||^2", 1e-10, MAX0,
        lambda t: np.abs(t.gabor_extremes[1] - t.gabor_gsq) / t.gabor_gsq, STACKED),
    "gabor_tightness_residual": CHECKS["gabor_tightness"]._replace(
        suite="gabor-run", claim="frame operator equals ||g||^2 times the identity"),
}
# the wavelet rows take the tolerance and the gate of the suite rows they
# repeat on the configured grid
WAVELET_RUN: dict[str, Row] = {
    "admissibility_constant": CHECKS["admissibility_oracle"]._replace(
        suite="wavelet-run", claim="two-sided admissibility quadrature (default profile: 1/4)",
        measure=lambda r: (abs(r.c_full - ADMISSIBILITY), r.constants)),
    "calderon_residual": CHECKS["calderon_default"]._replace(
        suite="wavelet-run",
        claim="reconstruction residual within tolerance on the configured grid",
        measure=lambda r: (r.residuals[0], f"{r.setup}, C_plus={r.c_plus!r}")),
    "calderon_refinement": CHECKS["calderon_refinement"]._replace(
        suite="wavelet-run", claim="residual drops by a factor in [1.5, 3] when scales double",
        measure=lambda r: _refinement(*r.residuals)),
}
# the admissibility row of any other profile, which has no closed form
ADMISSIBLE = Row("wavelet-run", "two-sided admissibility quadrature is finite and positive",
                 0.0, MAX0, lambda r: (float(not 0.0 < r.c_full < math.inf), r.constants))
# the one row of a multiplier report apart from CHECKS, for a symbol equal to
# 1 everywhere with equal frames, whose multiplier is the frame operator
EQUALS_FRAME_OPERATOR = Row(
    "multiplier-run", "unit symbol with equal frames reproduces the frame operator", 1e-12,
    MAX0, lambda t: hb.frobenius_norm(t.M - t.S_F) / t.M_scale, STACKED)
# the rows the tolerance of a multiplier configuration sets
BUDGET_IDS = ("op_norm_budget", "trace_budget", "schatten_budget_p15", "schatten_budget_p2",
              "schatten_budget_p3")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _record(check_id: str, row: Row, tol: float, values: Callable) -> Check:
    """The verdict of a check on what values(check_id, row) gives; raises
    what that raises or gives."""
    given = values(check_id, row)
    if isinstance(given, Exception):
        raise given
    return verdict(check_id, row, tol, given)


def _report(report: Report, table: dict, tolerances: dict, values: Callable) -> Report:
    """``report`` with the _record of every row of ``table`` in table order,
    under its tolerance in ``tolerances`` or else its row's.  A check that
    raises is recorded as failed, with no measured value or budget and the
    exception in its error field; the run continues."""
    for check_id, row in table.items():
        tol = float(tolerances.get(check_id, row.tolerance))
        try:
            report.checks.append(_record(check_id, row, tol, values))
        except Exception as exc:  # keep going; the report carries the failure
            report.checks.append(Check(
                check_id, "check aborted with an exception", None, None, tol, False,
                error=f"{type(exc).__name__}: {exc}"))
    report.finished = _timestamp()
    return report


def _measured(cfg: SuiteConfig, stacked: dict) -> Callable:
    """The stacked values of a suite check, or its measure of ``cfg``."""
    return lambda check_id, row: row.measure(cfg) if row.kind is None else stacked[check_id]


def run_check(cfg: SuiteConfig, check_id: str) -> Check:
    """Check ``check_id`` measured afresh on ``cfg``, as run_suite records
    it; raises what its measure raises."""
    return _record(check_id, CHECKS[check_id], cfg.tol(check_id),
                   _measured(cfg, _stacked_values(cfg, (check_id,))))


def run_suite(config: SuiteConfig) -> Report:
    """Run every check of the configured suite and collect a report: the
    stacked rows of the run are measured together, block by block, and a
    check that reads a shared quantity that raises records its error."""
    table = {c: row for c, row in CHECKS.items() if config.suite in ("all", row.suite)}
    report = Report(suite=config.suite, seed=config.seed, started=_timestamp())
    return _report(report, table, config.tolerances,
                   _measured(config, _stacked_values(config, table)))


@np.errstate(over="ignore", invalid="ignore")
def run_gabor(d: int, window="gaussian") -> Report:
    """Tightness report for one cyclic Gabor system: the rows of GABOR_RUN
    on one trial of the gabor suite whose first test vector is the window,
    built (and checked) before them.  One eigen-solve of its frame operator
    gives the optimal bounds; the tightness residual takes none."""
    cfg = SuiteConfig(suite="gabor", d=d, trials=1)
    g = tf._as_window(tf.WindowSpec(kind=window) if isinstance(window, str) else window, cfg.d)
    run = Trials(cfg, range(1))
    vars(run).update(tests=g[None, None])
    report = Report(suite="gabor-run", seed=cfg.seed, started=_timestamp())
    return _report(report, GABOR_RUN, {}, lambda _, row: [row.measure(run)])


@np.errstate(over="ignore", invalid="ignore")
def run_wavelet(d: int = CALDERON_DEFAULTS["d"], wavelet: tf.WaveletSpec | None = None,
                a_min: float = CALDERON_DEFAULTS["a_min"],
                a_max: float = CALDERON_DEFAULTS["a_max"], n_a: int = CALDERON_DEFAULTS["n_a"],
                n_b: int | None = None, band: tuple[float, float] = CALDERON_DEFAULTS["band"],
                taper: float = CALDERON_DEFAULTS["taper"]) -> Report:
    """Admissibility, reconstruction and refinement report for one wavelet:
    the rows of WAVELET_RUN on its _calderon_study, with ADMISSIBLE for the
    admissibility constant of a profile other than the default."""
    wavelet = wavelet or tf.WaveletSpec()
    d, n_a = _integer("d", d), _integer("n_a", n_a)
    n_b = d if n_b is None else _integer("n_b", n_b)
    report = Report(suite="wavelet-run", seed=0, started=_timestamp())
    run = _calderon_study(wavelet, d, a_min, a_max, n_a, n_b, band, taper)
    table = WAVELET_RUN if wavelet.kind == "mexican-hat-fourier" else {
        **WAVELET_RUN, "admissibility_constant": ADMISSIBLE}
    return _report(report, table, {}, lambda _, row: row.measure(run))


@np.errstate(over="ignore", invalid="ignore")
def run_multiplier(config: dict) -> tuple[Report, str]:
    """Report plus singular-value CSV for one configured multiplier: every
    stacked row of the algebra suites on the one trial of its instance, and
    EQUALS_FRAME_OPERATOR for a symbol equal to 1 everywhere with equal
    frames.  The configuration carries an analysis frame, a synthesis frame
    on the same space and a symbol in their JSON forms, and may set the
    tolerance of the rows of BUDGET_IDS.  The instance sets the roles w, F,
    G and m; the others are drawn from seed 0 at its d and N."""
    if not isinstance(config, dict):
        raise InvalidParameterError("a multiplier configuration must be a JSON object")
    F = fr.SampledFrame.from_dict(config["analysis_frame"])
    G = fr.SampledFrame.from_dict(config["synthesis_frame"])
    fr._check_compatible(F, G)
    m = Symbol.from_dict(config["symbol"], F.space)
    cfg = SuiteConfig(d=F.dim, n_points=F.space.n_points, trials=1, tolerances=dict.fromkeys(
        BUDGET_IDS, config["tolerance"]) if "tolerance" in config else {})
    run = Trials(cfg, range(1))
    vars(run).update(w=F.space.weights[None], F=F.vectors[None], G=G.vectors[None],
                     m=m.values[None])
    # the gabor rows read no instance
    table = {c: row for c, row in CHECKS.items() if row.kind == STACKED and row.suite != "gabor"}
    if np.all(m.values == 1.0) and np.array_equal(F.vectors, G.vectors):
        table["equals_frame_operator"] = EQUALS_FRAME_OPERATOR
    report = Report(suite="multiplier-run", seed=cfg.seed, started=_timestamp())
    report = _report(report, table, cfg.tolerances, lambda _, row: [row.measure(run)])
    # the budget rows read sigma_M: it is kept, or the report carries its error
    return report, hb.spectrum_to_csv(vars(run).get("sigma_M", []))
