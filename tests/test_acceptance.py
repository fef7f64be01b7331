"""Acceptance gate: every headline property at its stated tolerance.

Each criterion prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or
by running this file directly) and asserts at the tolerance it states.
"""

import math
import time

import numpy as np
import pytest

from contframes import frame as fr
from contframes import hilbert as hb
from contframes import tf_frames as tf
from contframes.controlled import (
    ControlSpec,
    controlled_frame_operator,
    make_control,
    precondition_identity_residual,
)
from contframes.measure import MeasureSpace, Symbol, lp_norm, uniform_grid_1d, wavelet_grid
from contframes.multiplier import (
    FRAME_PARTS,
    convergence_experiment,
    dual_from_multiplier,
    lower_bound_certificates,
    multiplier,
    truncate_symbol,
)

RESULTS = []


def record(criterion, description, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {criterion:>2}: {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    RESULTS.append(passed)
    return passed


def rng_for(*branch):
    return np.random.default_rng(list(branch))


def random_instance(idx, branch, invertible=False):
    """Random (m, F, G) with d <= 8, N <= 64 and random positive weights."""
    for attempt in range(64):
        rng = rng_for(2026, branch, idx, attempt)
        d = int(rng.integers(2, 9))
        n = int(rng.integers(2 * d, 65))
        space = MeasureSpace(np.arange(float(n))[:, None], rng.uniform(0.2, 2.0, n))
        F = fr.SampledFrame(space, rng.standard_normal((d, n))
                            + 1j * rng.standard_normal((d, n)))
        G = fr.SampledFrame(space, rng.standard_normal((d, n))
                            + 1j * rng.standard_normal((d, n)))
        m = Symbol(rng.standard_normal(n) + 1j * rng.standard_normal(n), space)
        if not invertible:
            return m, F, G
        sigma = hb.singular_values(multiplier(m, F, G))
        if sigma[-1] > 1e-6 * sigma[0]:
            return m, F, G
    raise RuntimeError("no invertible instance found")


def test_criterion_01_frame_operator_factorization():
    start = time.monotonic()
    worst = 0.0
    for i in range(200):
        _, F, _ = random_instance(i, 1)
        S = fr.frame_operator(F)
        composed = np.column_stack(
            [fr.synthesis(F, fr.analysis(F, e)) for e in np.eye(F.dim)])
        worst = max(worst, float(np.linalg.norm(S - composed, 2)
                                 / np.linalg.norm(S, 2)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    assert record(1, "frame operator factors through analysis and synthesis",
                  ok, f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_reconstruction():
    worst = 0.0
    for i in range(200):
        _, F, _ = random_instance(i, 2)
        dual = fr.canonical_dual(F)
        rng = rng_for(2026, 200, i)
        for _ in range(20):
            f = rng.standard_normal(F.dim) + 1j * rng.standard_normal(F.dim)
            rec = fr.synthesis(dual, fr.analysis(F, f))
            worst = max(worst, float(np.linalg.norm(rec - f) / np.linalg.norm(f)))
    assert record(2, "canonical dual reconstructs every vector",
                  worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_03_multiplier_adjoint():
    worst = 0.0
    for i in range(200):
        m, F, G = random_instance(i, 3)
        M = multiplier(m, F, G)
        defect = float(np.linalg.norm(
            M.conj().T - multiplier(m.values.conj(), G, F), 2))
        worst = max(worst, defect / float(np.linalg.norm(M, 2)))
    assert record(3, "multiplier adjoint swaps the frames and conjugates the "
                  "symbol", worst <= 1e-12, f"worst {worst:.2e}")


def test_criterion_04_operator_norm_budget():
    violations = 0
    worst = -math.inf
    for i in range(200):
        m, F, G = random_instance(i, 4)
        cap = lp_norm(F.space, m, math.inf) * math.sqrt(
            fr.frame_bounds(F).upper * fr.frame_bounds(G).upper)
        gap = hb.operator_norm(multiplier(m, F, G)) - cap
        worst = max(worst, gap)
        if gap > 1e-10:
            violations += 1
    assert record(4, "operator norm bounded by sup|m| sqrt(B_F B_G)",
                  violations == 0, f"worst gap {worst:.2e}")


def test_criterion_05_trace_and_schatten_budgets():
    violations = 0
    worst = -math.inf
    for p in (1.0, 1.5, 2.0, 3.0):
        for i in range(200):
            m, F, G = random_instance(i, 50 + int(p * 10))
            lf, lg = fr.norm_bound(F), fr.norm_bound(G)
            bf = fr.frame_bounds(F).upper
            bg = fr.frame_bounds(G).upper
            cap = lp_norm(F.space, m, p) * (lf * lg) ** (1.0 / p) \
                * (bf * bg) ** ((p - 1.0) / (2.0 * p))
            gap = hb.schatten_norm(multiplier(m, F, G), p) - cap
            worst = max(worst, gap)
            if gap > 1e-10:
                violations += 1
    assert record(5, "trace and Schatten norms stay under their budgets "
                  "(p in {1, 1.5, 2, 3})", violations == 0,
                  f"worst gap {worst:.2e}")


def test_criterion_06_difference_identities():
    worst = 0.0
    for i in range(100):
        rng = rng_for(2026, 6, i)
        m, F, G = random_instance(i, 6)
        n = F.space.n_points
        m2 = Symbol(rng.standard_normal(n) + 1j * rng.standard_normal(n), F.space)
        F2 = fr.SampledFrame(F.space, rng.standard_normal((F.dim, n))
                             + 1j * rng.standard_normal((F.dim, n)))
        G2 = fr.SampledFrame(F.space, rng.standard_normal((F.dim, n))
                             + 1j * rng.standard_normal((F.dim, n)))
        deltas = [
            multiplier(m, F, G) - multiplier(m2, F, G)
            - multiplier(m.values - m2.values, F, G),
            multiplier(m, F, G) - multiplier(m, F2, G)
            - multiplier(m, fr.SampledFrame(F.space, F.vectors - F2.vectors), G),
            multiplier(m, F, G) - multiplier(m, F, G2)
            - multiplier(m, F, fr.SampledFrame(F.space, G.vectors - G2.vectors)),
        ]
        worst = max(worst, max(float(np.max(np.abs(d))) for d in deltas))
    assert record(6, "the three difference identities hold entrywise",
                  worst <= 1e-12, f"worst {worst:.2e}")


def test_criterion_07_truncation_convergence():
    worst_gap = -math.inf
    worst_rise = -math.inf
    for i in range(50):
        rng = rng_for(2026, 7, i)
        d = int(rng.integers(2, 9))
        n = int(rng.integers(2 * d, 65))
        space = MeasureSpace(np.arange(float(n))[:, None], rng.uniform(0.2, 2.0, n))
        F = fr.SampledFrame(space, rng.standard_normal((d, n))
                            + 1j * rng.standard_normal((d, n)))
        m = Symbol(rng.uniform(0.0, 3.0, n).astype(complex), space)
        order = np.argsort(np.abs(m.values))[::-1]
        cuts = [max(1, n // 8), n // 4, n // 2, n]
        schedule = [truncate_symbol(m, order[:c]) for c in cuts]
        _, measured, budgets = convergence_experiment("symbol_p", m, F, F, schedule,
                                                      p=math.inf)
        worst_gap = max(worst_gap, float(np.max(measured - budgets)))
        measured = measured.tolist()
        worst_rise = max(worst_rise,
                         max(b - a for a, b in zip(measured, measured[1:])),
                         measured[-1])
    ok = worst_gap <= 1e-10 and worst_rise <= 1e-10
    assert record(7, "nested symbol truncations converge monotonically under "
                  "budget", ok, f"gap {worst_gap:.2e}, rise {worst_rise:.2e}")


def test_criterion_08_convergence_in_ingredients():
    worst = -math.inf
    for i in range(20):
        rng = rng_for(2026, 8, i)
        m, F, G = random_instance(i, 8)
        n = F.space.n_points
        bump_sym = Symbol(rng.standard_normal(n) + 1j * rng.standard_normal(n),
                          F.space)
        sym_schedule = [Symbol(m.values + bump_sym.values / k, F.space)
                        for k in (1, 2, 4, 8)]
        for p in (1.0, 2.0, math.inf):
            _, measured, budgets = convergence_experiment("symbol_p", m, F, G,
                                                          sym_schedule, p=p)
            worst = max(worst, float(np.max(measured - budgets)))
        bump = rng.standard_normal((F.dim, n)) + 1j * rng.standard_normal((F.dim, n))
        frame_schedule = [fr.SampledFrame(F.space, F.vectors + bump / k)
                          for k in (1, 2, 4, 8)]
        for kind in ("frame_uniform_L2", "frame_uniform_L1"):
            _, measured, budgets = convergence_experiment(kind, m, F, G, frame_schedule)
            worst = max(worst, float(np.max(measured - budgets)))
    assert record(8, "symbol and frame perturbation schedules stay under the "
                  "stated budgets", worst <= 1e-10, f"worst gap {worst:.2e}")


def test_criterion_09_gabor_exact_tightness():
    start = time.monotonic()
    worst = 0.0
    for d in (4, 8, 16, 64):
        for i in range(20):
            rng = rng_for(2026, 9, d, i)
            g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            S = fr.frame_operator(tf.gabor_frame(g, d))
            gsq = float(np.linalg.norm(g) ** 2)
            worst = max(worst,
                        float(np.linalg.norm(S - gsq * np.eye(d), 2)) / gsq)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    assert record(9, "cyclic Gabor systems are exactly tight with bound "
                  "||g||^2", ok, f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_10_stft_orthogonality():
    worst = 0.0
    for i in range(100):
        rng = rng_for(2026, 10, i)
        d = int(rng.choice([4, 8, 16]))
        vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d)
                for _ in range(4)]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        worst = max(worst, tf.stft_orthogonality_residual(*vecs))
    assert record(10, "coefficient pairing factors into <f1,f2><g2,g1>",
                  worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_11_wavelet_admissibility_and_reconstruction():
    start = time.monotonic()
    wavelet = tf.WaveletSpec()
    grid = tf.log_freq_grid(1e-3, 10.0, 2000, two_sided=True)
    c_full = tf.admissibility_constant(wavelet, grid)
    oracle_ok = abs(c_full - 0.25) <= 1e-4

    c_plus = tf.positive_axis_constant(wavelet)
    f = tf.bandlimited_bump(512, (2.0, 8.0), 1.0)
    residuals = []
    for n_a in (64, 128):
        scale_grid = wavelet_grid(2.0**-6, 4.0, n_a, 0.0, 1.0, 512)
        residuals.append(tf.calderon_residual(wavelet, scale_grid, f,
                                              c_plus=c_plus))
    ratio = residuals[0] / residuals[1]
    elapsed = time.monotonic() - start
    ok = (oracle_ok and residuals[0] <= 0.02 and 1.5 <= ratio <= 3.0
          and elapsed < 60.0)
    assert record(11, "admissibility oracle, reconstruction residual and "
                  "refinement order", ok,
                  f"C {c_full:.6f}, residual {residuals[0]:.2e}, "
                  f"ratio {ratio:.2f}, {elapsed:.1f}s")


def test_criterion_12_controlled_identities():
    specs = [ControlSpec("identity"), ControlSpec("inverse"), ControlSpec("sqrt"),
             ControlSpec("power", t=0.75), ControlSpec("affine", alpha=1.5, beta=0.3)]
    worst = 0.0
    for i in range(100):
        rng = rng_for(2026, 12, i)
        m, F, G = random_instance(i, 12)
        c_spec = specs[int(rng.integers(0, len(specs)))]
        d_spec = specs[int(rng.integers(0, len(specs)))]
        C = make_control(c_spec, F)
        S = fr.frame_operator(F)
        L = controlled_frame_operator(C, F)
        scale = float(np.linalg.norm(L, 2))
        worst = max(worst,
                    float(np.linalg.norm(L - C @ S, 2)) / scale,
                    float(np.linalg.norm(L - S @ C.conj().T, 2)) / scale,
                    precondition_identity_residual(c_spec, d_spec, m, F, G))
    assert record(12, "controlled factorizations and preconditioning "
                  "identities", worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_13_weighted_certificates():
    failures = 0
    worst_floor_gap = -math.inf
    for i in range(100):
        m, F, G = random_instance(i, 13, invertible=True)
        measured, floors = lower_bound_certificates(m, F, G)
        # a frame part holds above its floor, any other at least at it
        holds = np.where(FRAME_PARTS, measured > floors, measured >= floors - 1e-10)
        if not np.all(holds):
            failures += 1
        worst_floor_gap = max(worst_floor_gap, floors[0] - measured[0])
    ok = failures == 0 and worst_floor_gap <= 1e-10
    assert record(13, "all five lower-bound certificates hold",
                  ok, f"floor gap {worst_floor_gap:.2e}")


def test_criterion_14_dual_from_invertible_multiplier():
    worst = 0.0
    for i in range(50):
        m, F, G = random_instance(i, 14, invertible=True)
        H = dual_from_multiplier(m, F, G)
        worst = max(worst, fr.duality_defect(H, G))
    assert record(14, "the induced dual synthesizes the identity against G",
                  worst <= 1e-9, f"worst {worst:.2e}")


def test_criterion_15_unbounded_bessel_demonstration():
    rng = rng_for(2026, 15)
    h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    hsq = float(np.linalg.norm(h) ** 2)
    norms, caps, uppers = [], [], []
    for n in (100, 1000, 10000):
        grid = uniform_grid_1d(0.0, 1.0, n)
        family = fr.scaled_singleton(grid, h)
        quad = float(np.sum(grid.weights
                            * fr.unbounded_amplitude(grid.points[:, 0]) ** 2))
        norms.append(fr.norm_bound(family))
        caps.append(hsq * quad)
        uppers.append(fr.frame_bounds(family).upper)
    bounded = all(b <= cap + 1e-10 for b, cap in zip(uppers, caps))
    growth = all(b / a >= 1.5 for a, b in zip(norms, norms[1:]))
    assert record(15, "Bessel bound stays capped while vector norms grow "
                  ">= 1.5x per decade", bounded and growth,
                  f"norms {[f'{v:.3g}' for v in norms]}, "
                  f"caps {[f'{v:.3g}' for v in caps]}")


if __name__ == "__main__":
    import sys

    failures = 0
    module = sys.modules[__name__]
    for name in sorted(dir(module)):
        if name.startswith("test_criterion_"):
            try:
                getattr(module, name)()
            except AssertionError:
                failures += 1
    total = len(RESULTS)
    print(f"{total - failures}/{total} acceptance criteria passed")
    sys.exit(0 if failures == 0 else 1)
