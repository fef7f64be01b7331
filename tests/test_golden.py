"""Measured values of the seven verify suites, pinned to literals at a size
inside the first block of trials and at one that crosses a block end.

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
        "frame_uniform_l1": -5.940591257441417,
        "frame_uniform_l2": -2.7974945515779823,
        "symbol_convergence_p1": -7.720083213968793,
        "symbol_convergence_p2": -3.756374954448976,
        "symbol_convergence_pinf": -2.73784816073574,
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

# the six seeded suites at d = 8, N = 64: a block holds 64 trials, so these
# 70 cross a block end, and the caps of 20 and 50 end inside block 0, whose
# capped checks read heads of it
GOLDEN_ACROSS_A_BLOCK = {
    "identities": {
        "canonical_dual_pair": 1.578438077751755e-15,
        "difference_analysis": 1.975046147828359e-15,
        "difference_symbol": 2.507277657281621e-15,
        "difference_synthesis": 2.142591510680771e-15,
        "dual_bounds_inverse": 2.4075298668538294e-15,
        "frame_factorization": 6.073768117887212e-16,
        "frame_iff_invertible": 0.0,
        "multiplier_adjoint": 1.380092680302785e-15,
        "reconstruction": 7.298465351142197e-16,
        "reconstruction_swapped": 7.1547061648335645e-16,
        "weighted_identity": 5.337984652171803e-16,
    },
    "bounds": {
        "bessel_inequality": 0.0,
        "bessel_sharpness": 2.1712121765505633e-15,
        "discrete_bessel_norm_bound": -7.50290053631327,
        "op_norm_budget": -396.05650211785587,
        "perturb_lower": -34.271038439689704,
        "perturb_upper": -213.73590204955207,
        "schatten_budget_p15": -755.6531409827683,
        "schatten_budget_p2": -575.5289086238923,
        "schatten_budget_p3": -466.1273063645567,
        "schatten_monotonicity": 0.0,
        "trace_budget": -1417.2849080104388,
        "unbounded_bessel_cap": 7.105427357601002e-15,
        "unbounded_norm_growth": 1.7782794100389225,
    },
    "convergence": {
        "frame_uniform_l1": -134.46456600734217,
        "frame_uniform_l2": -39.38846007925612,
        "symbol_convergence_p1": -110.72759003961457,
        "symbol_convergence_p2": -38.87789155497103,
        "symbol_convergence_pinf": -23.811779990196897,
        "truncation_budget": 0.0,
        "truncation_monotone": 0.0,
    },
    "controlled": {
        "controlled_bounds_map": 2.4424906541753444e-15,
        "controlled_factorization": 2.4355318697345034e-15,
        "controlled_implies_frame": 0.0,
        "controlled_positivity": 0.0,
        "controlled_spectral_mapping": 2.4424906541753416e-15,
        "precondition_identity": 3.113981094526827e-15,
    },
    "gabor": {
        "gabor_tightness": 1.50935385938606e-15,
        "stft_energy": 5.063900072510161e-16,
        "stft_matches_analysis": 1.4475537224895361e-15,
        "stft_orthogonality": 1.2412670766236366e-16,
        "tf_shift_unitarity": 8.881784197001252e-16,
    },
    "weighted": {
        "certificates": -53.810247047304124,
        "multiplier_dual": 3.742293041936766e-14,
        "positive_symbol_coercivity": -39.49348105900167,
        "weighted_scaling": 1.8115705302111977e-15,
    },
}
# (d, n, trials) -> the pinned values of each suite at that size
SIZES = {(4, 12, 10): GOLDEN, (8, 64, 70): GOLDEN_ACROSS_A_BLOCK}


@pytest.mark.parametrize("suite", sorted(GOLDEN))
def test_measured_values_equal_the_pinned_literals(suite, tmp_path):
    out = tmp_path / "report.json"
    for (d, n, trials), golden in SIZES.items():
        if suite not in golden:
            continue
        assert main(["verify", "--suite", suite, "--d", str(d), "--n", str(n),
                     "--trials", str(trials), "--seed", "0", "--out", str(out)]) == 0
        # strict JSON: a NaN or an infinity in the report fails
        checks = json.loads(out.read_text(),
                            parse_constant=lambda token: pytest.fail(token))["checks"]
        assert {c["check_id"]: c["measured"] for c in checks} == golden[suite]
