"""Concrete frame families: cyclic Gabor systems and sampled wavelet systems.

The Gabor family lives on the cyclic group Z_d: all d^2 modulated translates
M_b T_a g of a window, each carrying quadrature weight 1/d.  With that weight
the frame operator is exactly ||g||^2 times the identity, so tightness is an
identity to rounding, not an approximation.  Translation and modulation
invariance give both Gabor operators a structured form, so neither needs the
d x d^2 matrix of the family:

* frame operator: with T = [T_0 g | ... | T_{d-1} g] the circulant of
  translates and Phi[t, b] = exp(2 pi i t b / d) the phase matrix,
  S[t, s] = (1/d) sum_a g_{t-a} conj(g_{s-a}) sum_b exp(2 pi i b (t - s) / d),
  that is S = (T T^*) o (Phi Phi^*) / d, a Hadamard product of two d x d Gram
  matrices (``gabor_frame_operator``, O(d^3) flops, O(d^2) memory);
* STFT: coefficient (a, b) is <f, M_b T_a g> = FFT_t(f conj(T_a g))[b], so
  the transform is d FFTs of length d (``stft``, O(d^2 log d)).

``gabor_frame`` still builds the explicit family from the same translate and
phase helpers; it is the dense oracle the structured paths are tested against.

Batch axes: the array kernels ``gabor_operator``, ``stft_coefficients`` and
``gabor_vectors`` take windows and signals of shape (..., d) and keep the
leading axes, giving (..., d, d), (..., d^2) and (..., d, d^2); ``translate``
and ``modulate`` take one shift for a stack or one per vector, and
``stft_orthogonality_residual`` takes four stacks.  Each vector of a stack
gets the bits of a call on it alone, so a stack of checks measures what a
loop would.  The kernels do not validate; ``gabor_frame``,
``gabor_frame_operator`` and ``stft`` check one window and call them.

The wavelet family is sampled from a scale/shift grid carrying the weight
da db / a^2.  Columns are built in the frequency domain from an analytic
profile psi_hat evaluated at integer frequencies of the d-point signal space
(period 1), then mapped back by the unitary inverse DFT.  With a full uniform
shift grid (every scale carries the same n_b >= d shifts, 1/n_b apart, with
equal weights) the frame operator is exactly diagonal in the frequency basis:
the shift sum over frequency pairs k != l is a full geometric sum of
exp(-2 pi i m / n_b) with 0 < |m| < d <= n_b, which vanishes.  The diagonal is
``scale_profile``, close to the positive-axis admissibility constant on the
covered band; reconstruction divided by that constant is the sampled
reproducing identity, and ``calderon_residual`` evaluates it on that diagonal
without building the frame.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    InvalidDomainError,
    InvalidParameterError,
    ShapeMismatchError,
)
from .frame import SampledFrame, analysis, synthesis
from .hilbert import inner, norm, value_or_stack
from .measure import MeasureSpace, Symbol

WINDOW_KINDS = ("gaussian", "given-samples")
WAVELET_KINDS = ("mexican-hat-fourier", "given-fourier")


def _translates(x: np.ndarray, shifts) -> np.ndarray:
    """x_{(t - a) mod d} over t, one column per shift a (a scalar gives a
    vector); the leading axes of x are kept."""
    d = x.shape[-1]
    return x[..., np.subtract.outer(np.arange(d), shifts) % d]


def _phases(d: int, freqs) -> np.ndarray:
    """exp(2 pi i b t / d) over t, one column per frequency b (a scalar gives a vector)."""
    return np.exp(np.multiply.outer(np.arange(d), 2j * np.pi * np.asarray(freqs)) / d)


def translate(x, a) -> np.ndarray:
    """Cyclic shift (T_a x)_t = x_{(t - a) mod d} along the last axis; a
    stack of vectors takes one shift or one per vector."""
    x = np.asarray(x, dtype=complex)
    index = (np.arange(x.shape[-1]) - np.asarray(a, dtype=int)[..., None]) % x.shape[-1]
    return np.take_along_axis(x, np.broadcast_to(index, x.shape), axis=-1)


def modulate(x, b) -> np.ndarray:
    """Pointwise phase ramp (M_b x)_t = exp(2 pi i b t / d) x_t along the last
    axis; a stack of vectors takes one frequency or one per vector."""
    x = np.asarray(x, dtype=complex)
    return np.moveaxis(_phases(x.shape[-1], np.asarray(b, dtype=int)), 0, -1) * x


def gabor_vectors(g: np.ndarray) -> np.ndarray:
    """The d x d^2 array of all modulated translates of a window g, column
    a d + b holding M_b T_a g; windows (..., d) give (..., d, d^2)."""
    d = g.shape[-1]
    shifts = np.arange(d)
    cols = _translates(g, shifts)[..., None] * _phases(d, shifts)[:, None, :]
    return cols.reshape(*g.shape, d * d)


def gabor_operator(g: np.ndarray) -> np.ndarray:
    """(T T^*) o (Phi Phi^*) / d for a window g, the frame operator of its
    Gabor family; windows (..., d) give (..., d, d), one BLAS product each."""
    d = g.shape[-1]
    shifts = np.arange(d)
    translates = _translates(g, shifts)
    phases = _phases(d, shifts)
    return (translates @ translates.conj().swapaxes(-1, -2)) * (phases @ phases.conj().T) / d


def stft_coefficients(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """<f, M_b T_a g> at index a d + b: FFT_t(f conj(T_a g))[b], d FFTs of
    length d; vectors f and windows g of shape (..., d) give (..., d^2)."""
    d = f.shape[-1]
    products = _translates(g, np.arange(d)).conj().swapaxes(-1, -2) * f[..., None, :]
    return np.fft.fft(products, axis=-1).reshape(*products.shape[:-2], d * d)


def gaussian_window(d: int) -> np.ndarray:
    """Periodized Gaussian on Z_d, the default Gabor window."""
    if d < 1:
        raise InvalidParameterError(f"need d >= 1, got {d}")
    t = np.arange(d, dtype=float)
    g = np.zeros(d)
    for k in range(-4, 5):
        g += np.exp(-np.pi * (t + k * d) ** 2 / d)
    return g.astype(complex)


@dataclass(frozen=True)
class WindowSpec:
    """Gabor window: the built-in Gaussian or explicitly given samples."""

    kind: str = "gaussian"
    samples: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in WINDOW_KINDS:
            raise InvalidParameterError(f"unknown window kind {self.kind!r}")
        if self.kind == "given-samples":
            if self.samples is None:
                raise InvalidParameterError("given-samples window needs samples")
            samples = _checked_samples(np.asarray(self.samples, dtype=complex).ravel())
            object.__setattr__(self, "samples", samples)

    def build(self, d: int) -> np.ndarray:
        if self.kind == "gaussian":
            return gaussian_window(d)
        if self.samples.shape[0] != d:
            raise ShapeMismatchError(
                f"window has {self.samples.shape[0]} samples, signal space has {d}"
            )
        return self.samples


def _checked_samples(g: np.ndarray) -> np.ndarray:
    """Reject window samples that are not finite or all zero, of one window
    or of any window of a stack (..., d)."""
    if not np.all(np.isfinite(g)):
        raise InvalidParameterError("window samples must be finite")
    if np.any(norm(g) == 0.0):
        raise InvalidParameterError("window must be nonzero")
    return g


def _as_window(window, d: int) -> np.ndarray:
    if isinstance(window, WindowSpec):
        return window.build(d)
    g = np.asarray(window, dtype=complex).ravel()
    if g.shape[0] != d:
        raise ShapeMismatchError(f"window of length {g.shape[0]} for d={d}")
    return _checked_samples(g)


def gabor_space(d: int) -> MeasureSpace:
    """All d^2 time/frequency shifts (a, b), each of mass 1/d."""
    a = np.repeat(np.arange(d, dtype=float), d)
    b = np.tile(np.arange(d, dtype=float), d)
    return MeasureSpace(np.column_stack([a, b]), np.full(d * d, 1.0 / d))


def gabor_frame(window, d: int) -> SampledFrame:
    """Frame of all modulated translates M_b T_a g over Z_d x Z_d.

    Column a d + b is M_b T_a g.  The 1/d point mass makes sum over (a, b) of
    the rank-one projections exactly ||g||^2 I.  This explicit d x d^2 family
    is the dense oracle of ``gabor_frame_operator`` and ``stft``.
    """
    return SampledFrame(gabor_space(d), gabor_vectors(_as_window(window, d)))


def gabor_frame_operator(window, d: int) -> np.ndarray:
    """Frame operator of the cyclic Gabor family, without building the family.

    S = (T T^*) o (Phi Phi^*) / d, the Hadamard product of the Gram matrix of
    the d translates T_a g and that of the d phase columns
    Phi[:, b] = exp(2 pi i b t / d), scaled by the point mass 1/d.  Both Gram
    matrices are computed, so the result carries the rounding of the family
    it stands for rather than the ||g||^2 I the theory predicts.  Equals
    ``frame_operator(gabor_frame(window, d))`` up to rounding, at O(d^3)
    flops and O(d^2) memory instead of O(d^4) and O(d^3).
    """
    return gabor_operator(_as_window(window, d))


def stft(f, window) -> Symbol:
    """Coefficient function <f, M_b T_a g> as a symbol on the Gabor space.

    Coefficient a d + b is FFT_t(f conj(T_a g))[b]: d FFTs of length d, in
    the point order of ``gabor_space`` and of the columns of ``gabor_frame``.
    """
    f = np.asarray(f, dtype=complex).ravel()
    d = f.shape[0]
    return Symbol(stft_coefficients(f, _as_window(window, d)), gabor_space(d))


def stft_orthogonality_residual(f1, f2, g1, g2):
    """Deviation of the weighted coefficient pairing from <f1,f2><g2,g1>: a
    float for four vectors, an array for four stacks of them (..., d).

    On the full cyclic Gabor system the pairing identity is exact, so the
    residual is rounding noise.
    """
    f1, f2, g1, g2 = (np.asarray(v, dtype=complex) for v in (f1, f2, g1, g2))
    if not (f1.shape == f2.shape == g1.shape == g2.shape):
        raise ShapeMismatchError("all four vectors must share one dimension")
    c1 = stft_coefficients(f1, _checked_samples(g1))
    c2 = stft_coefficients(f2, _checked_samples(g2))
    # conjugated in place and multiplied as named arrays: numpy would reuse a
    # large temporary conjugate as the output and swap the factors, which
    # rounds the imaginary parts differently
    np.conj(c2, out=c2)
    lhs = np.sum(c1 * c2, axis=-1) / f1.shape[-1]
    # <f1,f2><g2,g1> and |lhs - rhs| of each quadruple as for one complex
    # scalar, by the product formula and the C library's hypot: numpy's
    # vectorized complex multiply and abs can round differently
    rhs = np.array([x * y for x, y in zip(np.ravel(inner(f1, f2)).tolist(),
                                          np.ravel(inner(g2, g1)).tolist())])
    gap = lhs - rhs.reshape(np.shape(lhs))
    return value_or_stack(np.hypot(gap.real, gap.imag))


def mexican_hat_fourier(gamma) -> np.ndarray:
    """Default admissible profile gamma^2 exp(-gamma^2); its admissibility
    constant over the full line is exactly 1/4."""
    gamma = np.asarray(gamma, dtype=float)
    return gamma**2 * np.exp(-(gamma**2))


@dataclass(frozen=True)
class WaveletSpec:
    """Wavelet described by its frequency-domain profile.

    The profile is either the built-in mexican-hat shape or a user-supplied
    callable (or sampled values aligned with one particular quadrature grid,
    usable for admissibility integrals only).  Callable profiles must vanish
    at frequency zero.
    """

    kind: str = "mexican-hat-fourier"
    fourier_profile: Callable | np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in WAVELET_KINDS:
            raise InvalidParameterError(f"unknown wavelet kind {self.kind!r}")
        if self.kind == "given-fourier":
            if self.fourier_profile is None:
                raise InvalidParameterError("given-fourier wavelet needs a profile")
            if callable(self.fourier_profile):
                if abs(complex(np.asarray(self.fourier_profile(0.0)).ravel()[0])) > 1e-12:
                    raise InvalidParameterError("profile must vanish at frequency 0")
            else:
                samples = np.asarray(self.fourier_profile, dtype=complex).ravel()
                object.__setattr__(self, "fourier_profile", samples)

    @property
    def is_callable(self) -> bool:
        return self.kind == "mexican-hat-fourier" or callable(self.fourier_profile)

    def evaluate(self, gamma) -> np.ndarray:
        if self.kind == "mexican-hat-fourier":
            return mexican_hat_fourier(gamma)
        if not callable(self.fourier_profile):
            raise InvalidParameterError(
                "sampled profiles cannot be evaluated off their quadrature grid"
            )
        return np.asarray(self.fourier_profile(np.asarray(gamma, dtype=float)),
                          dtype=complex)


def log_freq_grid(gamma_min: float, gamma_max: float, n: int,
                  two_sided: bool = False) -> MeasureSpace:
    """Geometric-midpoint frequency grid on [gamma_min, gamma_max].

    With two_sided=True the grid is mirrored to negative frequencies so that
    quadratures over it approximate full-line integrals of even integrands.
    """
    if gamma_min <= 0.0:
        raise InvalidDomainError(f"need gamma_min > 0, got {gamma_min}")
    if not (gamma_min < gamma_max) or n < 1:
        raise InvalidDomainError("degenerate frequency range")
    edges = gamma_min * (gamma_max / gamma_min) ** (np.arange(n + 1) / n)
    mids = np.sqrt(edges[:-1] * edges[1:])
    widths = np.diff(edges)
    if two_sided:
        points = np.concatenate([mids, -mids])
        weights = np.concatenate([widths, widths])
    else:
        points, weights = mids, widths
    return MeasureSpace(points[:, None], weights)


def admissibility_constant(wavelet: WaveletSpec, freq_quadrature: MeasureSpace) -> float:
    """Quadrature of |psi_hat(gamma)|^2 / |gamma| over the given grid.

    The wavelet is admissible when the value is finite and positive.  The
    grid must avoid gamma = 0.
    """
    gamma = freq_quadrature.points[:, 0]
    if np.any(gamma == 0.0):
        raise InvalidDomainError("frequency quadrature must avoid gamma = 0")
    if wavelet.is_callable:
        values = wavelet.evaluate(gamma)
    else:
        values = np.asarray(wavelet.fourier_profile, dtype=complex).ravel()
        if values.shape[0] != freq_quadrature.n_points:
            raise ShapeMismatchError(
                "sampled profile length does not match the quadrature grid"
            )
    integrand = np.abs(values) ** 2 / np.abs(gamma)
    return float(np.sum(freq_quadrature.weights * integrand))


def positive_axis_constant(wavelet: WaveletSpec,
                           gamma_min: float = 1e-4, gamma_max: float = 50.0,
                           n: int = 4000) -> float:
    """Admissibility integral over positive frequencies on a fine log grid."""
    return admissibility_constant(wavelet, log_freq_grid(gamma_min, gamma_max, n))


def dft_frequencies(d: int) -> np.ndarray:
    """Integer frequencies of the d-point period-1 signal space, DFT order."""
    return np.fft.fftfreq(d, 1.0 / d)


def _check_family(wavelet: WaveletSpec, grid: MeasureSpace) -> float:
    """Reject grids and profiles no wavelet family can be built from; return
    the positive-axis admissibility constant."""
    if grid.points.shape[1] != 2:
        raise ShapeMismatchError("scale/shift grid must have 2-coordinate points")
    if not wavelet.is_callable:
        raise InvalidParameterError("frame construction needs an evaluable profile")
    c_plus = positive_axis_constant(wavelet)
    if not (c_plus > 0.0 and math.isfinite(c_plus)):
        raise InvalidParameterError(
            f"profile is not admissible (positive-axis constant {c_plus})"
        )
    if np.any(grid.points[:, 0] <= 0.0):
        raise InvalidDomainError("scale coordinates must be positive")
    return c_plus


def wavelet_frame(wavelet: WaveletSpec, grid: MeasureSpace, d: int) -> SampledFrame:
    """Sampled dilated/shifted wavelet family over a scale/shift grid.

    Column (a, b) has frequency content sqrt(a) psi_hat(a gamma_k)
    exp(-2 pi i b gamma_k) on the d integer frequencies and is mapped to the
    time domain by the unitary inverse DFT.
    """
    _check_family(wavelet, grid)
    a = grid.points[:, 0]
    b = grid.points[:, 1]
    gamma = dft_frequencies(d)
    freq_cols = (np.sqrt(a)[:, None] * wavelet.evaluate(a[:, None] * gamma[None, :])
                 * np.exp(-2j * np.pi * b[:, None] * gamma[None, :]))
    time_cols = np.fft.ifft(freq_cols, axis=1) * np.sqrt(d)
    return SampledFrame(grid, np.ascontiguousarray(time_cols.T))


def scale_profile(wavelet: WaveletSpec, grid: MeasureSpace, d: int) -> np.ndarray:
    """Per-frequency quadrature sum_j w_j a_j |psi_hat(a_j gamma_k)|^2.

    This is the frequency-basis diagonal the frame operator must match when
    the shift grid covers the full period uniformly; well inside the covered
    band it approaches the positive-axis admissibility constant.
    """
    a = grid.points[:, 0]
    scales, index = np.unique(a, return_inverse=True)
    mass = np.bincount(index, weights=grid.weights * a)
    values = np.abs(wavelet.evaluate(scales[:, None] * dft_frequencies(d)[None, :])) ** 2
    return mass @ values


def _full_uniform_shifts(grid: MeasureSpace, d: int) -> bool:
    """Whether every distinct scale carries the same n_b >= d shifts, spaced
    1/n_b apart up to rounding, all with one weight.

    On such a grid the frame operator is exactly diagonal in the frequency
    basis of C^d, with diagonal ``scale_profile``.
    """
    a, b = grid.points[:, 0], grid.points[:, 1]
    order = np.lexsort((b, a))
    _, counts = np.unique(a[order], return_counts=True)
    n_b = int(counts[0])
    if n_b < d or np.any(counts != n_b):
        return False
    b = b[order].reshape(-1, n_b)
    w = grid.weights[order].reshape(-1, n_b)
    slack = 16 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(b))))
    evenly_spaced = np.all(np.abs(b - b[:, :1] - np.arange(n_b) / n_b) <= slack)
    return bool(evenly_spaced and np.all(w == w[:, :1]))


def bandlimited_bump(d: int, band: tuple[float, float], taper: float = 1.0) -> np.ndarray:
    """Unit-norm real signal whose spectrum is a flat-top bump on |gamma| in band.

    The profile is 1 on [lo + taper, hi - taper] with raised-cosine edges,
    applied symmetrically to positive and negative frequencies.
    """
    lo, hi = band
    if not (0.0 < lo < hi) or taper < 0.0 or 2 * taper > (hi - lo):
        raise InvalidParameterError(f"bad band {band} / taper {taper}")
    gamma = np.abs(dft_frequencies(d))
    profile = np.zeros(d)
    flat = (gamma >= lo + taper) & (gamma <= hi - taper)
    profile[flat] = 1.0
    if taper > 0.0:
        rising = (gamma >= lo) & (gamma < lo + taper)
        profile[rising] = 0.5 * (1 - np.cos(np.pi * (gamma[rising] - lo) / taper))
        falling = (gamma > hi - taper) & (gamma <= hi)
        profile[falling] = 0.5 * (1 - np.cos(np.pi * (hi - gamma[falling]) / taper))
    total = float(np.linalg.norm(profile))
    if total == 0.0:
        raise InvalidParameterError(f"band {band} contains no integer frequency")
    f = np.fft.ifft(profile / total) * np.sqrt(d)
    return f.real.astype(complex)


def coverage_deviation(wavelet: WaveletSpec, grid: MeasureSpace, d: int,
                       c_plus: float) -> np.ndarray:
    """Relative deviation of the scale quadrature from the reproducing constant
    c_plus at every frequency; small entries mark well-covered frequencies."""
    return np.abs(scale_profile(wavelet, grid, d) / c_plus - 1.0)


def calderon_residual(wavelet: WaveletSpec, grid: MeasureSpace, f,
                      c_plus: float | None = None) -> float:
    """Relative error of reconstruction through the sampled wavelet family.

    Computes || synthesis(W, analysis(W, f)) / c_plus - f || / ||f|| with
    c_plus the positive-axis admissibility constant.  On a full uniform shift
    grid (every scale with the same n_b >= d shifts, 1/n_b apart, equal
    weights) the frame operator is exactly the diagonal ``scale_profile`` in
    the frequency basis, so the residual is || (profile / c_plus - 1) f_hat ||
    / || f_hat || and the frame is never built.  Any other grid, where shifts
    may alias, goes through the dense frame.  Signals with spectral energy at
    badly covered frequencies are reported with a warning; the residual is
    returned regardless.
    """
    f = np.asarray(f, dtype=complex).ravel()
    scale = float(np.linalg.norm(f))
    if scale == 0.0:
        return 0.0
    d = f.shape[0]
    c_family = _check_family(wavelet, grid)
    if c_plus is None:
        c_plus = c_family

    deviation = coverage_deviation(wavelet, grid, d, c_plus)
    spectrum = np.fft.fft(f)
    energy = np.abs(spectrum) ** 2
    uncovered = float(np.sum(energy[deviation > 0.1]) / np.sum(energy))
    if uncovered > 1e-8:
        warnings.warn(
            f"{uncovered:.2e} of the signal energy sits at frequencies the "
            "scale grid does not cover; the residual reflects that truncation",
            stacklevel=2,
        )
    if _full_uniform_shifts(grid, d):
        return float(np.linalg.norm(deviation * spectrum) / np.linalg.norm(spectrum))
    frame = wavelet_frame(wavelet, grid, d)
    reconstructed = synthesis(frame, analysis(frame, f)) / c_plus
    return float(np.linalg.norm(reconstructed - f) / scale)
