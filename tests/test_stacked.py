"""The stacked trials of the identities and bounds suites against the
single-frame API.

Every stacked check measures a chunk of trials with one numpy call per step.
The oracle here is the per-trial loop it replaced, written with the 2-d API
(``frame_bounds``, ``canonical_dual``, ``multiplier``, ``bound_budget``, ...)
on the instances the suites draw; the stacked rows must equal it exactly.
"""

import math

import numpy as np
import pytest

from contframes import frame as fr
from contframes import hilbert as hb
from contframes import suites
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
from contframes.multiplier import bound_budget, multiplier, schatten_budget
from contframes.suites import SuiteConfig, random_frame, random_instance, run_suite


def bits(a):
    a = np.ascontiguousarray(a)
    return a.view(float) if np.iscomplexobj(a) else a


def stream(cfg, branch, i):
    return np.random.default_rng([cfg.seed, branch, i])


def vectors(rng, d, count):
    return [suites.random_vector(rng, d) for _ in range(count)]


# ---------------------------------------------------------------------------
# the per-trial loops, on the 2-d API: one list of values per trial
# ---------------------------------------------------------------------------

def frame_factorization(cfg, i):
    _, F, _ = random_instance(cfg.seed, 101, i, cfg.d, cfg.n_points)
    S = fr.frame_operator(F)
    composed = np.column_stack([fr.synthesis(F, fr.analysis(F, e))
                                for e in np.eye(cfg.d)])
    return [hb.operator_norm(S - composed) / hb.operator_norm(S)]


def reconstruction(branch, swapped):
    def oracle(cfg, i):
        rng = stream(cfg, branch, i)
        F = random_frame(rng, cfg.d, cfg.n_points)
        dual = fr.canonical_dual(F)
        analysis, synthesis = (dual, F) if swapped else (F, dual)
        out = []
        for f in vectors(rng, cfg.d, 20):
            rec = fr.synthesis(synthesis, fr.analysis(analysis, f))
            out.append(float(np.linalg.norm(rec - f) / np.linalg.norm(f)))
        return out
    return oracle


def multiplier_adjoint(cfg, i):
    m, F, G = random_instance(cfg.seed, 104, i, cfg.d, cfg.n_points)
    M = multiplier(m, F, G)
    other = multiplier(m.values.conj(), G, F)
    return [hb.operator_norm(M.conj().T - other) / max(hb.operator_norm(M), 1e-300)]


def difference(branch, which):
    def oracle(cfg, i):
        d, n = cfg.d, cfg.n_points
        rng = stream(cfg, branch, i)
        F = random_frame(rng, d, n)
        G = random_frame(rng, d, n, space=F.space)
        m = suites.random_symbol(rng, F.space)
        m2 = suites.random_symbol(rng, F.space)
        if which == "symbol":
            lhs = multiplier(m, F, G) - multiplier(m2, F, G)
            rhs = multiplier(m.values - m2.values, F, G)
        elif which == "analysis":
            F2 = random_frame(rng, d, n, space=F.space)
            lhs = multiplier(m, F, G) - multiplier(m, F2, G)
            rhs = multiplier(m, fr.SampledFrame(F.space, F.vectors - F2.vectors), G)
        else:
            random_frame(rng, d, n, space=F.space)
            G2 = random_frame(rng, d, n, space=F.space)
            lhs = multiplier(m, F, G) - multiplier(m, F, G2)
            rhs = multiplier(m, F, fr.SampledFrame(F.space, G.vectors - G2.vectors))
        return [float(np.max(np.abs(lhs - rhs)))]
    return oracle


def weighted_identity(cfg, i):
    rng = stream(cfg, 108, i)
    F = random_frame(rng, cfg.d, cfg.n_points)
    m = Symbol(rng.uniform(0.0, 3.0, size=cfg.n_points).astype(complex), F.space)
    M = multiplier(m, F, F)
    S = fr.frame_operator(fr.weighted(F, m))
    return [hb.operator_norm(M - S) / max(hb.operator_norm(S), 1.0)]


def canonical_dual_pair(cfg, i):
    F = random_frame(stream(cfg, 109, i), cfg.d, cfg.n_points)
    return [fr.duality_defect(F, fr.canonical_dual(F))]


def dual_bounds_inverse(cfg, i):
    F = random_frame(stream(cfg, 110, i), cfg.d, cfg.n_points)
    bounds = fr.frame_bounds(F)
    dual = fr.frame_bounds(fr.canonical_dual(F))
    return [abs(dual.lower - 1.0 / bounds.upper) * bounds.upper,
            abs(dual.upper - 1.0 / bounds.lower) * bounds.lower]


def frame_iff_invertible(cfg, i):  # a count, not a max: measured apart
    d, n = cfg.d, cfg.n_points
    rng = stream(cfg, 111, i)
    if i % 2:
        space = suites.random_space(rng, n)
        basis = rng.standard_normal((d, d - 1)) + 1j * rng.standard_normal((d, d - 1))
        F = fr.SampledFrame(space, basis @ rng.standard_normal((d - 1, n)))
    else:
        F = random_frame(rng, d, n)
    try:
        hb.invert(fr.frame_operator(F))
        invertible = True
    except NotInvertibleError:
        invertible = False
    return [fr.frame_bounds(F).is_frame != invertible]


def bessel_inequality(cfg, i):
    rng = stream(cfg, 112, i)
    F = random_frame(rng, cfg.d, cfg.n_points)
    bounds = fr.frame_bounds(F)
    out = []
    for f in vectors(rng, cfg.d, 10):
        energy = float(np.sum(F.space.weights * np.abs(fr.analysis(F, f)) ** 2))
        nsq = float(np.linalg.norm(f) ** 2)
        out += [(bounds.lower * nsq - energy) / nsq, (energy - bounds.upper * nsq) / nsq]
    return out


def bessel_sharpness(cfg, i):
    F = random_frame(stream(cfg, 113, i), cfg.d, cfg.n_points)
    S = fr.frame_operator(F)
    upper = fr.frame_bounds(F).upper
    top = np.linalg.eigh(0.5 * (S + S.conj().T))[1][:, -1]
    energy = float(np.sum(F.space.weights * np.abs(fr.analysis(F, top)) ** 2))
    return [abs(energy - upper) / upper]


def budget(branch, p):
    def oracle(cfg, i):
        m, F, G = random_instance(cfg.seed, branch, i, cfg.d, cfg.n_points)
        report = bound_budget(m, F, G, ps=(p,))
        return [report.actuals[p] - report.schatten_budgets[p]]
    return oracle


def schatten_monotonicity(cfg, i):
    m, F, G = random_instance(cfg.seed, 119, i, cfg.d, cfg.n_points)
    M = multiplier(m, F, G)
    norms = [hb.schatten_norm(M, p) for p in (1.0, 1.5, 2.0, 3.0, math.inf)]
    return [b - a for a, b in zip(norms, norms[1:])]


def perturb_upper(cfg, i):
    rng = stream(cfg, 120, i)
    G = random_frame(rng, cfg.d, cfg.n_points)
    F = random_frame(rng, cfg.d, cfg.n_points, space=G.space)
    eps = float(rng.uniform(0.05, 1.0))
    upper = fr.frame_bounds(fr.perturb(G, F, eps)).upper
    return [upper - 2.0 * (fr.frame_bounds(G).upper + eps**2 * fr.frame_bounds(F).upper)]


def perturb_lower(cfg, i):
    rng = stream(cfg, 121, i)
    G = random_frame(rng, cfg.d, cfg.n_points)
    F = random_frame(rng, cfg.d, cfg.n_points, space=G.space)
    ag, bf = fr.frame_bounds(G).lower, fr.frame_bounds(F).upper
    eps = 0.5 * math.sqrt(ag / bf)
    lower = fr.frame_bounds(fr.perturb(G, F, eps)).lower
    return [(math.sqrt(ag) - eps * math.sqrt(bf)) ** 2 - lower]


def discrete_bessel_norm_bound(cfg, i):
    F = random_frame(stream(cfg, 122, i), cfg.d, cfg.n_points,
                     space=counting_space(cfg.n_points))
    return [fr.norm_bound(F) - math.sqrt(fr.frame_bounds(F).upper)]


ORACLES = {
    "frame_factorization": frame_factorization,
    "reconstruction": reconstruction(102, swapped=False),
    "reconstruction_swapped": reconstruction(103, swapped=True),
    "multiplier_adjoint": multiplier_adjoint,
    "difference_symbol": difference(105, "symbol"),
    "difference_analysis": difference(106, "analysis"),
    "difference_synthesis": difference(107, "synthesis"),
    "weighted_identity": weighted_identity,
    "canonical_dual_pair": canonical_dual_pair,
    "dual_bounds_inverse": dual_bounds_inverse,
    "bessel_inequality": bessel_inequality,
    "bessel_sharpness": bessel_sharpness,
    "op_norm_budget": budget(114, math.inf),
    "trace_budget": budget(115, 1.0),
    "schatten_budget_p15": budget(116, 1.5),
    "schatten_budget_p2": budget(117, 2.0),
    "schatten_budget_p3": budget(118, 3.0),
    "schatten_monotonicity": schatten_monotonicity,
    "perturb_upper": perturb_upper,
    "perturb_lower": perturb_lower,
    "discrete_bessel_norm_bound": discrete_bessel_norm_bound,
}


def stacked(cfg, check_id):
    return np.concatenate([np.ravel(v) for v in suites.stacked_values(cfg, check_id)])


def test_every_trial_loop_of_the_two_suites_is_stacked():
    loops = {fn.__name__.removeprefix("check_")
             for name in ("identities", "bounds") for fn in suites.SUITE_CHECKS[name]}
    # the two unbounded-family checks loop over three grids, not over trials
    assert set(suites.STACKED) == loops - {"unbounded_norm_growth",
                                           "unbounded_bessel_cap",
                                           "frame_iff_invertible"}
    assert set(ORACLES) == set(suites.STACKED)


# at N < d the random families are no frames, which these checks need
NEEDS_FRAMES = {"reconstruction", "reconstruction_swapped", "canonical_dual_pair",
                "dual_bounds_inverse", "perturb_lower"}


@pytest.mark.parametrize("check_id,d,n", [
    (check_id, d, n) for check_id in sorted(ORACLES)
    for d, n in [(4, 12), (8, 64), (8, 4)] if n >= d or check_id not in NEEDS_FRAMES])
def test_stacked_rows_equal_the_single_frame_api(check_id, d, n):
    cfg = SuiteConfig(seed=13, d=d, n_points=n, trials=3)
    oracle = [v for i in range(3) for v in ORACLES[check_id](cfg, i)]
    assert stacked(cfg, check_id).tolist() == oracle


@pytest.mark.parametrize("d,n", [(4, 12), (8, 64), (8, 4)])
def test_stacked_frame_iff_invertible_equals_the_single_frame_api(d, n):
    cfg = SuiteConfig(seed=13, d=d, n_points=n)
    mismatches = suites._frame_iff_invertible(*suites._frames_half_deficient(cfg, range(4)))
    assert mismatches.tolist() == [v for i in range(4) for v in frame_iff_invertible(cfg, i)]


def test_stacked_dual_refuses_non_frames_like_canonical_dual():
    cfg = SuiteConfig(seed=13, d=8, n_points=4, trials=3)
    with pytest.raises(NotAFrameError) as from_stack:
        stacked(cfg, "canonical_dual_pair")
    with pytest.raises(NotAFrameError) as single:
        canonical_dual_pair(cfg, 0)
    assert str(from_stack.value) == str(single.value)


# ---------------------------------------------------------------------------
# chunks
# ---------------------------------------------------------------------------

def test_chunk_rule():
    sizes = lambda d, n, trials: [len(c) for c in suites._chunks(
        SuiteConfig(d=d, n_points=n, trials=trials))]
    assert sizes(8, 64, 200) == [64, 64, 64, 8]
    assert sizes(64, 4096, 4) == [1, 1, 1, 1]
    assert sizes(1, 1, 3) == [3]


@pytest.mark.parametrize("per_chunk", [1, 7, 20])
def test_reports_do_not_depend_on_the_chunk_size(monkeypatch, per_chunk):
    d, n, trials = 4, 12, 20
    reference = {s: run_suite(SuiteConfig(suite=s, trials=trials, d=d, n_points=n,
                                          seed=3)).checks
                 for s in ("identities", "bounds")}
    monkeypatch.setattr(suites, "STACK_ENTRIES", per_chunk * d * n)
    assert {len(c) for c in suites._chunks(
        SuiteConfig(trials=trials, d=d, n_points=n))} <= {per_chunk, trials % per_chunk}
    for suite, checks in reference.items():
        assert run_suite(SuiteConfig(suite=suite, trials=trials, d=d, n_points=n,
                                     seed=3)).checks == checks


# ---------------------------------------------------------------------------
# draws
# ---------------------------------------------------------------------------

def test_vectors_in_one_draw_equal_one_draw_per_vector():
    cfg = SuiteConfig(d=5)
    one = suites._vectors(np.random.default_rng(4), cfg, 20)
    rng = np.random.default_rng(4)
    each = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(20)]
    assert np.array_equal(bits(one), bits(np.array(each)))


def test_symbols_and_vectors_draw_the_values_of_the_dense_expression():
    space = counting_space(7)
    m = suites.random_symbol(np.random.default_rng(9), space)
    v = suites.random_vector(np.random.default_rng(9), 7)
    rng = np.random.default_rng(9)
    dense = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    assert np.array_equal(bits(m.values), bits(dense))
    assert np.array_equal(bits(v), bits(dense))


def test_stacked_instances_equal_random_instance():
    cfg = SuiteConfig(seed=2, d=3, n_points=5)
    w, F, G, m = suites._stack((suites._instance(stream(cfg, 104, i), cfg)
                                for i in range(4)), 4)
    assert suites.STACKED["multiplier_adjoint"].draw is suites._instance
    for i in range(4):
        mi, Fi, Gi = random_instance(2, 104, i, 3, 5)
        assert np.array_equal(w[i], Fi.space.weights)
        assert np.array_equal(bits(F[i]), bits(Fi.vectors))
        assert np.array_equal(bits(G[i]), bits(Gi.vectors))
        assert np.array_equal(bits(m[i]), bits(mi.values))


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
    coeffs = fr.coefficients(V, f)
    dual = fr.dual_vectors(S, V)
    sums = fr.perturbed(W, V, np.full((5, 1, 1), 0.3))
    for k, F in enumerate(frames):
        assert np.array_equal(bits(S[k]), bits(fr.frame_operator(F)))
        assert np.array_equal(bits(fr.weighted_gram(W, w * m, V)[k]),
                              bits(multiplier(m[k], F, others[k])))
        single = fr.frame_bounds(F)
        assert (bounds.lower[k], bounds.upper[k], bounds.is_frame[k]) == (
            single.lower, single.upper, single.is_frame)
        assert np.array_equal(bits(coeffs[k]), bits(fr.analysis(F, f[k])))
        assert np.array_equal(bits(fr.synthesize(V, w, coeffs)[k]),
                              bits(fr.synthesis(F, coeffs[k])))
        assert fr.max_column_norm(V)[k] == fr.norm_bound(F)
        assert np.array_equal(bits(dual[k]), bits(fr.canonical_dual(F).vectors))
        assert np.array_equal(bits(sums[k]), bits(fr.perturb(others[k], F, 0.3).vectors))
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            assert weighted_lp_norm(w, m, p)[k] == lp_norm(F.space, m[k], p)


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
