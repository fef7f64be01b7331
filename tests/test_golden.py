"""Measured values of the seven verify suites, pinned to literals.

The suites draw every instance from seeded streams, so a change to the
streams, to the order in which roles read them or to a measure changes
these values.  Such a change must be a deliberate rebaseline: update the
literals here and record the old and new values.  The values, rounding
errors and distances to budgets, come from numpy's bundled OpenBLAS on
x86-64; another BLAS build may move their last digits.
"""

import json

import pytest

from contframes.cli import main

GOLDEN = {
    "identities": {
        "canonical_dual_pair": 1.3973208366980813e-15,
        "difference_analysis": 9.448519677111503e-16,
        "difference_symbol": 1.3074727374588365e-15,
        "difference_synthesis": 8.367217016989159e-16,
        "dual_bounds_inverse": 1.4461162734675848e-15,
        "frame_factorization": 1.635860383659927e-16,
        "frame_iff_invertible": 0.0,
        "multiplier_adjoint": 5.297303784068213e-16,
        "reconstruction": 1.1512429381535383e-15,
        "reconstruction_swapped": 1.0279834381240728e-15,
        "weighted_identity": 5.355222782034628e-16,
    },
    "bounds": {
        "bessel_inequality": 0.0,
        "bessel_sharpness": 1.009641813399767e-15,
        "discrete_bessel_norm_bound": -2.037248279694829,
        "op_norm_budget": -51.664492111894376,
        "perturb_lower": -2.539172223664094,
        "perturb_upper": -46.276112416845955,
        "schatten_budget_p15": -65.09032771531463,
        "schatten_budget_p2": -52.50239155251346,
        "schatten_budget_p3": -44.002966728821264,
        "schatten_monotonicity": 0.0,
        "trace_budget": -105.15762236795852,
        "unbounded_bessel_cap": 0.0,
        "unbounded_norm_growth": 1.7782794100389225,
    },
    "convergence": {
        "frame_uniform_l1": -5.940591257441418,
        "frame_uniform_l2": -2.7974945515779828,
        "symbol_convergence_p1": -7.72008321396879,
        "symbol_convergence_p2": -3.756374954448974,
        "symbol_convergence_pinf": -2.737848160735737,
        "truncation_budget": 0.0,
        "truncation_monotone": 0.0,
    },
    "controlled": {
        "controlled_bounds_map": 1.7763568394002505e-15,
        "controlled_factorization": 1.5503707458937451e-15,
        "controlled_implies_frame": 0.0,
        "controlled_positivity": 0.0,
        "controlled_spectral_mapping": 1.7763568394002473e-15,
        "precondition_identity": 2.7454320657742395e-15,
    },
    "gabor": {
        "gabor_tightness": 4.3381387318871135e-16,
        "stft_energy": 5.154306141883227e-16,
        "stft_matches_analysis": 4.0029660424867215e-16,
        "stft_orthogonality": 8.777083671441753e-17,
        "tf_shift_unitarity": 4.440892098500626e-16,
    },
    "wavelet": {
        "admissibility_oracle": 2.2091197987572642e-07,
        "admissibility_phase_invariance": 2.220444087159515e-16,
        "admissibility_scaling": 0.0,
        "calderon_default": 0.0002258643967253934,
        "calderon_refinement": 2.1741990666546505,
        "wavelet_band_constant": 0.0005556057916942247,
        "wavelet_column_norms": 6.217774350604046e-16,
        "wavelet_diagonal_oracle": 2.2192120464740292e-15,
        "wavelet_diagonality": 3.169212279980924e-15,
        "wavelet_shift_commutation": 5.33474140638474e-14,
    },
    "weighted": {
        "certificates": -2.51705336661544,
        "multiplier_dual": 9.757772521975298e-15,
        "positive_symbol_coercivity": -1.808466761974103,
        "weighted_scaling": 8.253221948728664e-16,
    },
}


@pytest.mark.parametrize("suite", sorted(GOLDEN))
def test_measured_values_equal_the_pinned_literals(suite, tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", suite, "--d", "4", "--n", "12", "--trials", "10",
                 "--seed", "0", "--out", str(out)]) == 0
    # strict JSON: a NaN or an infinity in the report fails
    checks = json.loads(out.read_text(), parse_constant=lambda token: pytest.fail(token))[
        "checks"]
    assert {c["check_id"]: c["measured"] for c in checks} == GOLDEN[suite]
