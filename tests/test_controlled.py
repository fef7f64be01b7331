import numpy as np
import pytest

from contframes import controlled as ctrl
from contframes import frame as fr
from contframes import hilbert as hb
from contframes.controlled import (
    ControlSpec,
    controlled_bounds,
    controlled_frame_operator,
    make_control,
    precondition_identity_residual,
)
from contframes.errors import (
    ContractViolationError,
    InvalidParameterError,
    NotAFrameError,
    NotInvertibleError,
    NumericFailureError,
    ShapeMismatchError,
)
from contframes.frame import SampledFrame, frame_bounds, frame_operator, weighted
from contframes.measure import MeasureSpace, Symbol, counting_space
from contframes.multiplier import dual_from_multiplier, multiplier


def random_frame(seed, d=4, n=16):
    rng = np.random.default_rng(seed)
    space = MeasureSpace(np.arange(float(n))[:, None], rng.uniform(0.2, 2.0, n))
    return SampledFrame(space, rng.standard_normal((d, n))
                        + 1j * rng.standard_normal((d, n)))


SPECS = [
    ControlSpec("identity"),
    ControlSpec("inverse"),
    ControlSpec("sqrt"),
    ControlSpec("power", t=0.75),
    ControlSpec("power", t=-0.5),
    ControlSpec("affine", alpha=1.5, beta=0.25),
]


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        ControlSpec("power")
    with pytest.raises(InvalidParameterError):
        ControlSpec("affine", alpha=1.0)
    with pytest.raises(InvalidParameterError):
        ControlSpec("explicit")
    with pytest.raises(InvalidParameterError):
        ControlSpec("banana")


def test_spec_dict_round_trip():
    for spec in SPECS:
        again = ControlSpec.from_dict(spec.to_dict())
        assert again == spec
    explicit = ControlSpec("explicit", operator=np.eye(3, dtype=complex))
    data = explicit.to_dict()
    assert data["kind"] == "explicit"
    np.testing.assert_array_equal(
        ControlSpec.from_dict(data).operator, np.eye(3))


def test_make_control_identity_spec_is_frame_operator():
    F = random_frame(0)
    C = make_control(ControlSpec("identity"), F)
    np.testing.assert_allclose(C, frame_operator(F), atol=1e-12)


def test_make_control_inverse_on_tight_frame():
    from contframes.frame import tight_from_partition

    F = weighted(tight_from_partition(counting_space(6), 3), np.full(6, 2.0))
    # tight frame with bound 2, so the inverse control is I/2
    C = make_control(ControlSpec("inverse"), F)
    np.testing.assert_allclose(C, 0.5 * np.eye(3), atol=1e-12)


def test_spectral_controls_commute():
    for seed, spec in enumerate(SPECS):
        F = random_frame(seed)
        C = make_control(spec, F)
        S = frame_operator(F)
        assert np.linalg.norm(C @ S - S @ C, 2) <= 1e-10 * max(
            1.0, np.linalg.norm(C, 2) * np.linalg.norm(S, 2))


def test_make_control_requires_frame_for_spectral_kinds():
    flat = SampledFrame(counting_space(5), np.ones((3, 5), dtype=complex))
    with pytest.raises(NotAFrameError):
        make_control(ControlSpec("inverse"), flat)


def test_spectral_controls_refuse_a_non_finite_frame_operator():
    S = np.eye(3, dtype=complex)
    S[0, 1] = np.inf
    with pytest.raises(NumericFailureError, match="^operator has non-finite entries$"):
        ctrl.spectral_controls([ControlSpec("identity")], S)


def diagonal_non_frame():
    """A family of 5 points in C^2 whose frame operator is diag(5, 0) exactly."""
    return SampledFrame(counting_space(5), np.array([np.ones(5), np.zeros(5)], dtype=complex))


@pytest.mark.parametrize("route", [
    pytest.param(fr.canonical_dual, id="canonical_dual"),
    pytest.param(fr.is_riesz_type, id="is_riesz_type"),
    pytest.param(lambda F: dual_from_multiplier(np.ones(5), F, F), id="dual_from_multiplier"),
    pytest.param(lambda F: make_control(ControlSpec("sqrt"), F), id="make_control"),
    pytest.param(lambda F: precondition_identity_residual(
        ControlSpec("identity"), ControlSpec("identity"), np.ones(5), F, F),
        id="precondition_identity_residual"),
])
def test_every_route_to_a_non_frame_refuses_it_with_one_message(route):
    with pytest.raises(NotAFrameError) as refused:
        route(diagonal_non_frame())
    assert str(refused.value) == "lower frame bound is numerically zero (0.000e+00)"


def test_a_singular_explicit_control_is_refused_by_the_invertibility_cutoff():
    # 1e-13 is below the cutoff 1e-12 times the largest singular value 2
    C = np.diag([2.0, 1.0, 1.0, 1e-13])
    with pytest.raises(NotInvertibleError, match="below cutoff") as refused:
        make_control(ControlSpec("explicit", operator=C), random_frame(1))
    assert refused.value.smallest_singular_value == pytest.approx(1e-13, rel=1e-12)


def test_make_control_explicit_validation():
    F = random_frame(1)
    with pytest.raises(NotInvertibleError):
        make_control(ControlSpec("explicit", operator=np.diag([1.0, 1.0, 1.0, 0.0])), F)
    with pytest.raises(ShapeMismatchError):
        make_control(ControlSpec("explicit", operator=np.eye(3)), F)
    C = make_control(ControlSpec("explicit", operator=2.0 * np.eye(4)), F)
    np.testing.assert_array_equal(C, 2.0 * np.eye(4))


def test_affine_map_can_be_singular():
    F = random_frame(2)
    lam = np.linalg.eigvalsh(frame_operator(F))
    # choose the affine map so one eigenvalue is sent to zero
    spec = ControlSpec("affine", alpha=1.0, beta=-float(lam[0]))
    with pytest.raises(NotInvertibleError):
        make_control(spec, F)


def test_controlled_frame_operator_identity_control():
    F = random_frame(3)
    np.testing.assert_allclose(
        controlled_frame_operator(np.eye(4), F), frame_operator(F), atol=1e-12)


def test_controlled_frame_operator_canonical_preconditioning():
    F = random_frame(4)
    C = make_control(ControlSpec("inverse"), F)
    np.testing.assert_allclose(controlled_frame_operator(C, F), np.eye(4), atol=1e-10)


def test_controlled_factorizations():
    for seed, spec in enumerate(SPECS):
        F = random_frame(seed + 10)
        C = make_control(spec, F)
        S = frame_operator(F)
        L = controlled_frame_operator(C, F)
        scale = max(1.0, np.linalg.norm(L, 2))
        assert np.linalg.norm(L - C @ S, 2) <= 1e-12 * scale
        assert np.linalg.norm(L - S @ C.conj().T, 2) <= 1e-12 * scale


def test_controlled_bounds_examples():
    F = random_frame(5)
    bounds = frame_bounds(F)
    lo, hi = controlled_bounds(np.eye(4), F)
    assert lo == pytest.approx(bounds.lower, rel=1e-10)
    assert hi == pytest.approx(bounds.upper, rel=1e-10)

    lo2, hi2 = controlled_bounds(frame_operator(F), F)
    assert lo2 == pytest.approx(bounds.lower**2, rel=1e-9)
    assert hi2 == pytest.approx(bounds.upper**2, rel=1e-9)


def test_controlled_bounds_spectral_mapping():
    for seed, spec in enumerate(SPECS):
        F = random_frame(seed + 20)
        C = make_control(spec, F)
        lam = np.linalg.eigvalsh(frame_operator(F))
        mapped = spec.spectral_map(lam) * lam
        lo, hi = controlled_bounds(C, F)
        assert lo == pytest.approx(float(np.min(mapped)), abs=1e-10 * max(1, hi))
        assert hi == pytest.approx(float(np.max(mapped)), abs=1e-10 * max(1, hi))
        # positive controlled lower bound certifies the frame property
        if lo > 0:
            assert frame_bounds(F).is_frame


def test_controlled_bounds_reject_bad_control():
    F = random_frame(6)
    rng = np.random.default_rng(6)
    asym = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    with pytest.raises(ContractViolationError, match="not self-adjoint"):
        controlled_bounds(asym, F)
    with pytest.raises(ContractViolationError, match="not positive"):
        controlled_bounds(-np.eye(4), F)
    hermitian_not_commuting = np.diag([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ContractViolationError, match="does not commute"):
        controlled_bounds(hermitian_not_commuting, F)


def test_controlled_operator_positification():
    for seed, spec in enumerate(SPECS):
        F = random_frame(seed + 30)
        C = make_control(spec, F)
        assert hb.is_positive(controlled_frame_operator(C, F), 1e-10)


def test_precondition_identity_trivial_controls():
    F = random_frame(7)
    G = SampledFrame(F.space, random_frame(8).vectors)
    m = Symbol(np.random.default_rng(9).standard_normal(16).astype(complex), F.space)
    residual = precondition_identity_residual(
        ControlSpec("explicit", operator=np.eye(4)),
        ControlSpec("explicit", operator=np.eye(4)), m, F, G)
    assert residual <= 1e-14


def test_precondition_identity_scalar_controls():
    F = random_frame(10)
    G = SampledFrame(F.space, random_frame(11).vectors)
    rng = np.random.default_rng(12)
    m = Symbol(rng.standard_normal(16) + 1j * rng.standard_normal(16), F.space)
    residual = precondition_identity_residual(
        ControlSpec("explicit", operator=1.7 * np.eye(4)),
        ControlSpec("explicit", operator=0.3 * np.eye(4)), m, F, G)
    assert residual <= 1e-12


def test_precondition_identity_frame_operator_controls():
    for seed in range(10):
        F = random_frame(seed + 40)
        G = SampledFrame(F.space, random_frame(seed + 140).vectors)
        rng = np.random.default_rng(seed)
        m = Symbol(rng.standard_normal(16) + 1j * rng.standard_normal(16), F.space)
        residual = precondition_identity_residual(
            ControlSpec("identity"), ControlSpec("identity"), m, F, G)
        assert residual <= 1e-10


def test_precondition_identity_mixed_spectral_controls():
    for seed, (c_spec, d_spec) in enumerate(zip(SPECS, reversed(SPECS))):
        F = random_frame(seed + 50)
        G = SampledFrame(F.space, random_frame(seed + 150).vectors)
        rng = np.random.default_rng(seed + 5)
        m = Symbol(rng.standard_normal(16) + 1j * rng.standard_normal(16), F.space)
        residual = precondition_identity_residual(c_spec, d_spec, m, F, G)
        assert residual <= 1e-10


def test_mixed_multiplier_factorization():
    # the controlled multiplier equals D M C* directly
    F = random_frame(13)
    G = SampledFrame(F.space, random_frame(14).vectors)
    rng = np.random.default_rng(15)
    m = Symbol(rng.standard_normal(16) + 1j * rng.standard_normal(16), F.space)
    C = make_control(ControlSpec("sqrt"), F)
    D = make_control(ControlSpec("power", t=0.5), G)
    mixed = multiplier(m, SampledFrame(F.space, C @ F.vectors),
                       SampledFrame(G.space, D @ G.vectors))
    expected = D @ multiplier(m, F, G) @ C.conj().T
    assert np.linalg.norm(mixed - expected, 2) <= 1e-12 * np.linalg.norm(expected, 2)


def test_controlled_frame_operator_matches_the_dense_product():
    F = random_frame(40, d=8, n=64)
    C = make_control(ControlSpec("sqrt"), F)
    dense = ((C @ F.vectors) * F.space.weights) @ F.vectors.conj().T
    assert np.array_equal(controlled_frame_operator(C, F).view(float), dense.view(float))


def test_frame_operator_is_built_once_across_bounds_dual_and_control(monkeypatch):
    calls = []
    weighted_gram = fr.weighted_gram

    def counted(X, c, Y):
        calls.append(X)
        return weighted_gram(X, c, Y)

    # controlled imports the kernel by name, so a recomputation there counts too
    monkeypatch.setattr(fr, "weighted_gram", counted)
    monkeypatch.setattr(ctrl, "weighted_gram", counted)
    F = random_frame(41)
    frame_bounds(F)
    fr.canonical_dual(F)
    for spec in SPECS:
        make_control(spec, F)
    assert len(calls) == 1


def test_controlled_bounds_take_no_second_hermiticity_check(monkeypatch):
    expected = []
    for seed, spec in enumerate(SPECS):
        F = random_frame(seed + 40)
        C = make_control(spec, F)
        expected.append((C, F, hb.hermitian_bounds(controlled_frame_operator(C, F))))

    def removed(*args, **kwargs):
        raise AssertionError("hermitian_bounds was called")

    monkeypatch.setattr(hb, "hermitian_bounds", removed)
    for C, F, bounds in expected:
        assert controlled_bounds(C, F) == bounds
