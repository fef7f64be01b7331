import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contframes import tf_frames as tf
from contframes.cli import main
from contframes.errors import (
    InvalidDomainError,
    InvalidParameterError,
    ShapeMismatchError,
)
from contframes.frame import analysis, frame_bounds, frame_operator, synthesis
from contframes.measure import MeasureSpace, wavelet_grid


def random_vec(rng, d):
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


# ---------------------------------------------------------------------------
# shifts and Gabor systems
# ---------------------------------------------------------------------------

def test_translate_modulate_examples():
    e0 = np.zeros(4)
    e0[0] = 1.0
    np.testing.assert_array_equal(tf.translate(e0, 1), np.eye(4)[1])
    ones = np.ones(5, dtype=complex)
    np.testing.assert_array_equal(tf.modulate(ones, 0), ones)


def same_bits(stacked, single) -> bool:
    return stacked.shape == single.shape and stacked.tobytes() == single.tobytes()


def test_shifts_are_unitary_and_commute_up_to_phase():
    rng = np.random.default_rng(0)
    for _ in range(30):
        d = int(rng.choice([4, 8, 16]))
        x = random_vec(rng, d)
        a, b = int(rng.integers(0, d)), int(rng.integers(0, d))
        y = tf.modulate(tf.translate(x, a), b)
        assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), rel=1e-12)
        # T_a M_b = phase * M_b T_a with phase exp(-2 pi i a b / d)
        lhs = tf.translate(tf.modulate(x, b), a)
        rhs = np.exp(-2j * np.pi * a * b / d) * tf.modulate(tf.translate(x, a), b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    # a stack takes one shift per vector, or one for all, and gives each
    # vector the bits of the single-vector call
    for d in (1, 4, 8, 16, 64):
        x = np.array([random_vec(rng, d) for _ in range(7)])
        a, b = rng.integers(0, d, size=7), rng.integers(0, d, size=7)
        shifted = tf.modulate(tf.translate(x, a), b)
        common = tf.modulate(tf.translate(x, int(a[0])), int(b[0]))
        for i in range(7):
            assert same_bits(shifted[i], tf.modulate(tf.translate(x[i], int(a[i])), int(b[i])))
            assert same_bits(common[i], tf.modulate(tf.translate(x[i], int(a[0])), int(b[0])))


def test_gabor_frame_tight_for_gaussian():
    d = 8
    g = tf.gaussian_window(d)
    S = frame_operator(tf.gabor_frame(g, d))
    gsq = float(np.linalg.norm(g) ** 2)
    assert np.linalg.norm(S - gsq * np.eye(d), 2) <= 1e-10 * gsq
    bounds = frame_bounds(tf.gabor_frame(tf.WindowSpec("gaussian"), d))
    assert bounds.lower == pytest.approx(gsq, rel=1e-10)
    assert bounds.upper == pytest.approx(gsq, rel=1e-10)


def test_gabor_frame_impulse_window():
    d = 4
    e0 = np.zeros(d, dtype=complex)
    e0[0] = 1.0
    frame = tf.gabor_frame(e0, d)
    S = frame_operator(frame)
    np.testing.assert_allclose(S, np.eye(d), atol=1e-12)
    assert frame.space.n_points == d * d
    np.testing.assert_allclose(frame.space.weights, 1.0 / d)


def test_gabor_frame_random_windows():
    rng = np.random.default_rng(1)
    for d in (4, 8, 16):
        for _ in range(5):
            g = random_vec(rng, d)
            S = frame_operator(tf.gabor_frame(g, d))
            gsq = float(np.linalg.norm(g) ** 2)
            assert np.linalg.norm(S - gsq * np.eye(d), 2) <= 1e-10 * gsq


def test_gabor_rejects_zero_window():
    with pytest.raises(InvalidParameterError):
        tf.gabor_frame(np.zeros(4), 4)
    with pytest.raises(InvalidParameterError):
        tf.WindowSpec("given-samples", samples=np.zeros(4))
    with pytest.raises(ShapeMismatchError):
        tf.gabor_frame(np.ones(3), 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gabor_paths_reject_non_finite_windows(bad):
    g = np.ones(4, dtype=complex)
    g[1] = bad
    with pytest.raises(InvalidParameterError):
        tf.WindowSpec("given-samples", samples=g)
    with pytest.raises(InvalidParameterError):
        tf.gabor_frame(g, 4)
    with pytest.raises(InvalidParameterError):
        tf.gabor_frame_operator(g, 4)
    with pytest.raises(InvalidParameterError):
        tf.stft(np.ones(4), g)
    with pytest.raises(InvalidParameterError):
        tf.stft_orthogonality_residual(np.ones(4), np.ones(4), np.ones(4), g)


def assert_structured_matches_dense(window, d, f):
    """Hadamard-product S and FFT STFT agree with the explicit family."""
    frame = tf.gabor_frame(window, d)
    S_dense = frame_operator(frame)
    S = tf.gabor_frame_operator(window, d)
    assert np.linalg.norm(S - S_dense, 2) <= 1e-12 * np.linalg.norm(S_dense, 2)
    c_dense = analysis(frame, f)
    c = tf.stft(f, window).values
    assert np.linalg.norm(c - c_dense) <= 1e-12 * np.linalg.norm(c_dense)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8, 16, 64])
def test_structured_gabor_paths_match_dense_oracle(d):
    rng = np.random.default_rng(100 + d)
    windows = [random_vec(rng, d) for _ in range(5)] + [tf.WindowSpec("gaussian")]
    for window in windows:
        assert_structured_matches_dense(window, d, random_vec(rng, d))
    # the kernels over stacks: each row has the bits of the single-window call
    g, f = np.array(windows[:5]), np.array([random_vec(rng, d) for _ in range(5)])
    q = np.array([[random_vec(rng, d) for _ in range(4)] for _ in range(5)])
    operators, coeffs = tf.gabor_operator(g), tf.stft_coefficients(f, g)
    vectors = tf.gabor_vectors(g)
    residuals = tf.stft_orthogonality_residual(*np.moveaxis(q, 1, 0))
    for i in range(5):
        assert same_bits(operators[i], tf.gabor_frame_operator(g[i], d))
        assert same_bits(coeffs[i], tf.stft(f[i], g[i]).values)
        assert same_bits(vectors[i], tf.gabor_frame(g[i], d).vectors)
        assert residuals[i] == tf.stft_orthogonality_residual(*q[i])


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)


@st.composite
def gabor_windows(draw):
    d = draw(st.integers(min_value=1, max_value=24))
    re = np.array(draw(st.lists(finite, min_size=d, max_size=d)))
    im = np.array(draw(st.lists(finite, min_size=d, max_size=d)))
    return re + 1j * im


@settings(deadline=None, max_examples=50)
@given(g=gabor_windows(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_structured_gabor_paths_match_dense_property(g, seed):
    # well above the underflow threshold, so entries of S stay normal numbers
    assume(np.linalg.norm(g) > 1e-100)
    d = g.shape[0]
    assert_structured_matches_dense(g, d, random_vec(np.random.default_rng(seed), d))


def test_gabor_command_never_builds_the_dense_frame(monkeypatch, tmp_path):
    def no_dense_frame(*args, **kwargs):
        raise AssertionError("the d x d^2 Gabor frame was built")

    monkeypatch.setattr(tf, "gabor_frame", no_dense_frame)
    out = tmp_path / "gabor.json"
    assert main(["gabor", "--d", "256", "--out", str(out)]) == 0
    # strict JSON: a NaN or an infinity in the report fails
    checks = json.loads(out.read_text(), parse_constant=lambda token: pytest.fail(token))[
        "checks"]
    assert len(checks) == 3
    assert all(c["pass"] for c in checks)


def test_stft_is_frame_analysis():
    rng = np.random.default_rng(2)
    d = 8
    g = random_vec(rng, d)
    f = random_vec(rng, d)
    coeffs = tf.stft(f, g)
    direct = analysis(tf.gabor_frame(g, d), f)
    np.testing.assert_allclose(coeffs.values, direct, atol=1e-12)


def test_stft_peak_and_zero():
    d = 8
    g = tf.gaussian_window(d)
    g = g / np.linalg.norm(g)
    coeffs = tf.stft(g, g)
    # the coefficient at shift (0, 0) is <g, g>
    assert coeffs.values[0] == pytest.approx(1.0)
    zero = tf.stft(np.zeros(d), g)
    np.testing.assert_array_equal(zero.values, 0.0)


def test_stft_energy_identity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = int(rng.choice([4, 8]))
        g = random_vec(rng, d)
        f = random_vec(rng, d)
        coeffs = tf.stft(f, g)
        energy = float(np.sum(coeffs.space.weights * np.abs(coeffs.values) ** 2))
        assert energy == pytest.approx(
            float(np.linalg.norm(g) ** 2 * np.linalg.norm(f) ** 2), rel=1e-10)


def test_stft_orthogonality_relation():
    d = 6
    rng = np.random.default_rng(4)
    f1 = np.zeros(d, dtype=complex)
    f1[0] = 1.0
    f2 = np.zeros(d, dtype=complex)
    f2[1] = 1.0
    g1, g2 = random_vec(rng, d), random_vec(rng, d)
    assert tf.stft_orthogonality_residual(f1, f2, g1, g2) <= 1e-10

    unit = random_vec(rng, d)
    unit = unit / np.linalg.norm(unit)
    assert tf.stft_orthogonality_residual(unit, unit, unit, unit) <= 1e-10

    for _ in range(20):
        vecs = [random_vec(rng, d) for _ in range(4)]
        assert tf.stft_orthogonality_residual(*vecs) <= 1e-9

    with pytest.raises(ShapeMismatchError):
        tf.stft_orthogonality_residual(f1, f2, g1, np.ones(3))


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_admissibility_oracle_quarter():
    grid = tf.log_freq_grid(1e-3, 10.0, 2000, two_sided=True)
    value = tf.admissibility_constant(tf.WaveletSpec(), grid)
    assert value == pytest.approx(0.25, abs=1e-4)


def test_positive_axis_constant_is_half():
    c_plus = tf.positive_axis_constant(tf.WaveletSpec())
    assert c_plus == pytest.approx(0.125, abs=1e-6)


def test_admissibility_zero_profile():
    dead = tf.WaveletSpec("given-fourier", lambda g: np.zeros_like(np.asarray(g)))
    grid = tf.log_freq_grid(1e-2, 5.0, 100)
    assert tf.admissibility_constant(dead, grid) == 0.0
    with pytest.raises(InvalidParameterError):
        tf.wavelet_frame(dead, wavelet_grid(0.5, 2.0, 4, 0.0, 1.0, 4), 8)


def test_admissibility_scaling():
    grid = tf.log_freq_grid(1e-3, 10.0, 1000, two_sided=True)
    base = tf.admissibility_constant(tf.WaveletSpec(), grid)
    for c in (0.5, 3.0, 1.0 + 2.0j):
        scaled = tf.WaveletSpec("given-fourier",
                                lambda g, c=c: c * tf.mexican_hat_fourier(g))
        value = tf.admissibility_constant(scaled, grid)
        assert value == pytest.approx(abs(c) ** 2 * base, rel=1e-12)


def test_admissibility_rejects_zero_frequency():
    grid = MeasureSpace([[0.0], [1.0]], [1.0, 1.0])
    with pytest.raises(InvalidDomainError):
        tf.admissibility_constant(tf.WaveletSpec(), grid)


def test_admissibility_sampled_profile():
    grid = tf.log_freq_grid(1e-3, 10.0, 500)
    gamma = grid.points[:, 0]
    sampled = tf.WaveletSpec("given-fourier",
                             fourier_profile=tf.mexican_hat_fourier(gamma))
    direct = tf.admissibility_constant(tf.WaveletSpec(), grid)
    assert tf.admissibility_constant(sampled, grid) == pytest.approx(direct)
    with pytest.raises(InvalidParameterError):
        tf.wavelet_frame(sampled, wavelet_grid(0.5, 2.0, 4, 0.0, 1.0, 4), 8)


def test_wavelet_spec_requires_vanishing_at_zero():
    with pytest.raises(InvalidParameterError):
        tf.WaveletSpec("given-fourier", lambda g: np.exp(-np.asarray(g) ** 2))


def test_log_freq_grid_validation():
    with pytest.raises(InvalidDomainError):
        tf.log_freq_grid(0.0, 1.0, 10)
    with pytest.raises(InvalidDomainError):
        tf.log_freq_grid(2.0, 1.0, 10)


# ---------------------------------------------------------------------------
# sampled wavelet frames
# ---------------------------------------------------------------------------

def small_setup():
    d = 64
    grid = wavelet_grid(2.0**-6, 4.0, 48, 0.0, 1.0, d)
    wavelet = tf.WaveletSpec()
    return d, grid, wavelet


def test_wavelet_column_norms_shift_invariant():
    d = 32
    grid = wavelet_grid(0.25, 2.0, 6, 0.0, 1.0, 8)
    W = tf.wavelet_frame(tf.WaveletSpec(), grid, d)
    norms = np.linalg.norm(W.vectors, axis=0).reshape(6, 8)
    assert float(np.max(np.ptp(norms, axis=1))) <= 1e-12 * float(np.max(norms))


def test_wavelet_frame_operator_diagonal_in_frequency():
    d, grid, wavelet = small_setup()
    S = frame_operator(tf.wavelet_frame(wavelet, grid, d))
    dft = np.fft.fft(np.eye(d)) / math.sqrt(d)
    S_freq = dft @ S @ dft.conj().T
    diag = np.real(np.diagonal(S_freq))
    off = S_freq - np.diag(np.diagonal(S_freq))
    assert np.max(np.abs(off)) <= 1e-10 * np.max(diag)
    # diagonal matches the scalar scale quadrature per frequency
    oracle = tf.scale_profile(wavelet, grid, d)
    np.testing.assert_allclose(diag, oracle, atol=1e-12 * np.max(oracle))


def test_wavelet_diagonal_near_constant_in_band():
    d, grid, wavelet = small_setup()
    c_plus = tf.positive_axis_constant(wavelet)
    oracle = tf.scale_profile(wavelet, grid, d)
    freqs = tf.dft_frequencies(d)
    band = (np.abs(freqs) >= 1.0) & (np.abs(freqs) <= 9.0)
    assert np.max(np.abs(oracle[band] / c_plus - 1.0)) <= 0.02


def test_wavelet_frame_operator_commutes_with_shift():
    d, grid, wavelet = small_setup()
    S = frame_operator(tf.wavelet_frame(wavelet, grid, d))
    shift = np.roll(np.eye(d), 1, axis=0)
    defect = np.linalg.norm(S @ shift - shift @ S, 2)
    assert defect <= 1e-10 * np.linalg.norm(S, 2)


def test_bandlimited_bump_properties():
    f = tf.bandlimited_bump(64, (2.0, 8.0), 1.0)
    assert np.linalg.norm(f) == pytest.approx(1.0)
    assert np.max(np.abs(f.imag)) <= 1e-12
    spectrum = np.abs(np.fft.fft(f))
    freqs = np.abs(tf.dft_frequencies(64))
    assert np.all(spectrum[(freqs < 2.0) | (freqs > 8.0)] <= 1e-12)
    with pytest.raises(InvalidParameterError):
        tf.bandlimited_bump(64, (8.0, 2.0))


def test_calderon_residual_zero_signal():
    _, grid, wavelet = small_setup()
    assert tf.calderon_residual(wavelet, grid, np.zeros(64)) == 0.0


def test_calderon_residual_small_on_covered_band():
    d, grid, wavelet = small_setup()
    f = tf.bandlimited_bump(d, (2.0, 8.0), 1.0)
    residual = tf.calderon_residual(wavelet, grid, f)
    assert residual <= 0.02


def test_calderon_warns_on_uncovered_energy():
    d, grid, wavelet = small_setup()
    rng = np.random.default_rng(5)
    f = random_vec(rng, d)  # full-spectrum signal, includes frequency zero
    with pytest.warns(UserWarning):
        tf.calderon_residual(wavelet, grid, f)


def dense_calderon_residual(wavelet, grid, f):
    frame = tf.wavelet_frame(wavelet, grid, f.shape[0])
    reconstructed = synthesis(frame, analysis(frame, f)) / tf.positive_axis_constant(wavelet)
    return float(np.linalg.norm(reconstructed - f) / np.linalg.norm(f))


def spy_wavelet_frame(monkeypatch):
    calls = []
    build = tf.wavelet_frame

    def spy(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(tf, "wavelet_frame", spy)
    return calls


@pytest.mark.parametrize("n_b", [64, 128])
def test_calderon_diagonal_path_matches_dense_oracle(monkeypatch, n_b):
    d, _, wavelet = small_setup()
    grid = wavelet_grid(2.0**-6, 4.0, 48, 0.0, 1.0, n_b)
    f = tf.bandlimited_bump(d, (2.0, 8.0), 1.0)
    oracle = dense_calderon_residual(wavelet, grid, f)
    calls = spy_wavelet_frame(monkeypatch)
    residual = tf.calderon_residual(wavelet, grid, f)
    assert calls == []
    assert residual == pytest.approx(oracle, rel=1e-10)


def test_calderon_aliased_shifts_use_dense_frame(monkeypatch):
    # n_b = 32 < d: shifts alias, the frame operator is not diagonal and the
    # scale-profile formula would understate the residual by a factor ~350
    d, _, wavelet = small_setup()
    grid = wavelet_grid(2.0**-6, 4.0, 48, 0.0, 1.0, 32)
    f = tf.bandlimited_bump(d, (2.0, 8.0), 1.0)
    oracle = dense_calderon_residual(wavelet, grid, f)
    spectrum = np.fft.fft(f)
    gain = tf.scale_profile(wavelet, grid, d) / tf.positive_axis_constant(wavelet) - 1.0
    diagonal = float(np.linalg.norm(gain * spectrum) / np.linalg.norm(spectrum))
    calls = spy_wavelet_frame(monkeypatch)
    residual = tf.calderon_residual(wavelet, grid, f)
    assert len(calls) == 1
    assert residual == pytest.approx(oracle, rel=1e-12)
    assert residual == pytest.approx(0.16, abs=0.01)
    assert diagonal < 1e-3


def nudged_shift(grid):
    points = grid.points.copy()
    points[0, 1] += 1e-3
    return MeasureSpace(points, grid.weights)


def alternating_weights(grid):
    return MeasureSpace(grid.points,
                        grid.weights * (1.0 + 1e-3 * (np.arange(grid.n_points) % 2)))


@pytest.mark.parametrize("perturb", [nudged_shift, alternating_weights])
def test_calderon_irregular_grids_use_dense_frame(monkeypatch, perturb):
    d, grid, wavelet = small_setup()
    grid = perturb(grid)
    f = tf.bandlimited_bump(d, (2.0, 8.0), 1.0)
    oracle = dense_calderon_residual(wavelet, grid, f)
    calls = spy_wavelet_frame(monkeypatch)
    assert tf.calderon_residual(wavelet, grid, f) == pytest.approx(oracle, rel=1e-12)
    assert len(calls) == 1


def test_calderon_diagonal_path_validates_the_family():
    d, grid, _ = small_setup()
    f = tf.bandlimited_bump(d, (2.0, 8.0), 1.0)
    sampled = tf.WaveletSpec("given-fourier", fourier_profile=np.ones(10))
    dead = tf.WaveletSpec("given-fourier", lambda g: np.zeros_like(np.asarray(g)))
    for wavelet in (sampled, dead):
        with pytest.raises(InvalidParameterError):
            tf.calderon_residual(wavelet, grid, f)
    mirrored = MeasureSpace(grid.points * [-1.0, 1.0], grid.weights)
    with pytest.raises(InvalidDomainError):
        tf.calderon_residual(tf.WaveletSpec(), mirrored, f)


def test_scale_profile_repeated_scales_match_per_point_formula():
    rng = np.random.default_rng(6)
    d = 64
    scales = 2.0 ** rng.uniform(-6.0, 2.0, 12)
    a = rng.choice(scales, 500)
    points = np.column_stack([a, rng.uniform(0.0, 1.0, 500)])
    grid = MeasureSpace(points, rng.uniform(0.1, 2.0, 500))
    wavelet = tf.WaveletSpec()
    gamma = tf.dft_frequencies(d)
    per_point = (grid.weights * a) @ np.abs(wavelet.evaluate(a[:, None] * gamma)) ** 2
    np.testing.assert_allclose(tf.scale_profile(wavelet, grid, d), per_point,
                               rtol=1e-13, atol=0.0)
