"""Measured values of the seven verify suites, pinned to literals at a size
inside the first block of trials and at one that crosses a block end.

The suites draw every instance from seeded streams, so a change to the
streams, to the order in which roles read them or to a measure changes
these values.  Such a change must be a deliberate rebaseline: update the
literals here and record the old and new values.  The values, rounding
errors and margins to bounds relative to the bound, come from numpy's
bundled OpenBLAS on x86-64; another BLAS build may move their last digits.
"""

import json

import pytest

from contframes.cli import main

GOLDEN = {
    "identities": {
        "canonical_dual_pair": 1.012351982521803e-15,
        "difference_analysis": 6.050929473569534e-16,
        "difference_symbol": 8.525684474657061e-16,
        "difference_synthesis": 7.290087152275619e-16,
        "dual_bounds_inverse": 2.0247849788702143e-15,
        "frame_factorization": 1.1437450138973406e-16,
        "frame_iff_invertible": 0.0,
        "multiplier_adjoint": 5.202040430227155e-16,
        "reconstruction": 8.839008216970497e-16,
        "reconstruction_swapped": 8.338479109191575e-16,
        "weighted_identity": 3.158633137520259e-16,
    },
    "bounds": {
        "bessel_inequality": -0.0433176278026946,
        "bessel_sharpness": 7.330201950975737e-16,
        "discrete_bessel_norm_bound": -0.37906329648697085,
        "op_norm_budget": -0.461096817971059,
        "perturb_lower": -2.1230655618235588,
        "perturb_upper": -0.3492150536085616,
        "schatten_budget_p15": -0.5572820201746601,
        "schatten_budget_p2": -0.5325124998816348,
        "schatten_budget_p3": -0.4909669889253406,
        "schatten_monotonicity": -0.010152549916577618,
        "trace_budget": -0.5859325156803205,
        "unbounded_bessel_cap": 2.7239208980656114e-16,
        "unbounded_norm_growth": -0.18551960669261502,
    },
    "convergence": {
        "frame_uniform_l1": -0.7612544480873333,
        "frame_uniform_l2": -0.6217202434887742,
        "symbol_convergence_p1": -0.5742832735629247,
        "symbol_convergence_p2": -0.5541963261645575,
        "symbol_convergence_pinf": -0.4172485199069385,
        "truncation_budget": -0.23127610768839035,
        "truncation_monotone": -0.029135166899591135,
    },
    "controlled": {
        "controlled_bounds_map": 1.7763568394002505e-15,
        "controlled_factorization": 2.6781057472313503e-15,
        "controlled_implies_frame": 0.0,
        "controlled_positivity": 0.0,
        "controlled_spectral_mapping": 2.299528920302934e-15,
        "precondition_identity": 2.8210321573972568e-15,
    },
    "gabor": {
        "gabor_tightness": 8.547743353864389e-16,
        "stft_energy": 4.2827008097302634e-16,
        "stft_matches_analysis": 2.8305244335018383e-16,
        "stft_orthogonality": 1.2412670766236366e-16,
        "tf_shift_unitarity": 2.06655145459897e-16,
    },
    "wavelet": {
        "admissibility_oracle": 8.836479195029057e-07,
        "admissibility_phase_invariance": 2.220444087159515e-16,
        "admissibility_scaling": 0.0,
        "calderon_default": 0.0002258643967253934,
        "calderon_refinement": 2.1741990666546505,
        "wavelet_band_constant": 0.000555605791694266,
        "wavelet_column_norms": 6.217774350604046e-16,
        "wavelet_diagonal_oracle": 6.500570487448956e-15,
        "wavelet_diagonality": 3.757798764139715e-14,
        "wavelet_shift_commutation": 5.364942233498823e-14,
    },
    "weighted": {
        "certificates": -0.7511577461349699,
        "multiplier_dual": 5.233794768199253e-15,
        "positive_symbol_coercivity": -0.5867285859743558,
        "weighted_scaling": 7.620235492460161e-16,
    },
}

# the six seeded suites at d = 8, N = 64: a block holds 64 trials, so these
# 70 cross a block end, and the caps of 20 and 50 end inside block 0, whose
# capped checks read heads of it
GOLDEN_ACROSS_A_BLOCK = {
    "identities": {
        "canonical_dual_pair": 1.4638066460196097e-15,
        "difference_analysis": 1.9016291727494077e-15,
        "difference_symbol": 2.0558908534738557e-15,
        "difference_synthesis": 1.8552850282887808e-15,
        "dual_bounds_inverse": 2.4295142996527063e-15,
        "frame_factorization": 1.6446444536642202e-16,
        "frame_iff_invertible": 0.0,
        "multiplier_adjoint": 1.4282440560789925e-15,
        "reconstruction": 6.54523781544752e-16,
        "reconstruction_swapped": 6.02520949134584e-16,
        "weighted_identity": 5.350097648248099e-16,
    },
    "bounds": {
        "bessel_inequality": -0.1002476166669951,
        "bessel_sharpness": 1.4775393608625926e-15,
        "discrete_bessel_norm_bound": -0.6158606467964939,
        "op_norm_budget": -0.638480820083936,
        "perturb_lower": -2.760515222980139,
        "perturb_upper": -0.4357361349080542,
        "schatten_budget_p15": -0.7223775426079788,
        "schatten_budget_p2": -0.7159438009658965,
        "schatten_budget_p3": -0.6994658640651273,
        "schatten_monotonicity": -0.09460601450625943,
        "trace_budget": -0.7251448005745678,
        "unbounded_bessel_cap": 0.0,
        "unbounded_norm_growth": -0.18551960669261502,
    },
    "convergence": {
        "frame_uniform_l1": -0.9168139675475094,
        "frame_uniform_l2": -0.7997138030549572,
        "symbol_convergence_p1": -0.737887937240808,
        "symbol_convergence_p2": -0.7183236631642378,
        "symbol_convergence_pinf": -0.6138251996057997,
        "truncation_budget": -0.3952478111867103,
        "truncation_monotone": -0.11048217426136552,
    },
    "controlled": {
        "controlled_bounds_map": 2.6645352591003757e-15,
        "controlled_factorization": 2.127948810522559e-15,
        "controlled_implies_frame": 0.0,
        "controlled_positivity": 0.0,
        "controlled_spectral_mapping": 4.1511059247411925e-15,
        "precondition_identity": 4.4086632888526865e-15,
    },
    "gabor": {
        "gabor_tightness": 1.912319861943749e-15,
        "stft_energy": 6.551741215588936e-16,
        "stft_matches_analysis": 1.0980128164946026e-15,
        "stft_orthogonality": 1.0103182026100663e-16,
        "tf_shift_unitarity": 2.2183620576600621e-16,
    },
    "weighted": {
        "certificates": -0.9908524446811456,
        "multiplier_dual": 2.37703465526394e-14,
        "positive_symbol_coercivity": -0.86895563157487,
        "weighted_scaling": 9.821842680249163e-16,
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
