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
        "canonical_dual_pair": 1.012351982521803e-15,
        "difference_analysis": 7.519315143250052e-16,
        "difference_symbol": 1.0276696589231162e-15,
        "difference_synthesis": 9.11146036186395e-16,
        "dual_bounds_inverse": 2.0247849788702143e-15,
        "frame_factorization": 1.1437450138973406e-16,
        "frame_iff_invertible": 0.0,
        "multiplier_adjoint": 5.202040430227155e-16,
        "reconstruction": 8.839008216970497e-16,
        "reconstruction_swapped": 8.338479109191575e-16,
        "weighted_identity": 3.158633137520259e-16,
    },
    "bounds": {
        "bessel_inequality": 0.0,
        "bessel_sharpness": 7.330201950975737e-16,
        "discrete_bessel_norm_bound": -2.1981531638866763,
        "op_norm_budget": -0.461096817971059,
        "perturb_lower": -3.664032154692856,
        "perturb_upper": -34.30797309814528,
        "schatten_budget_p15": -0.5572820201746601,
        "schatten_budget_p2": -0.5325124998816348,
        "schatten_budget_p3": -0.4909669889253406,
        "schatten_monotonicity": 0.0,
        "trace_budget": -0.5859325156803205,
        "unbounded_bessel_cap": 3.552713678800501e-15,
        "unbounded_norm_growth": 1.7782794100389225,
    },
    "convergence": {
        "frame_uniform_l1": -5.094457504212665,
        "frame_uniform_l2": -2.6259430140651947,
        "symbol_convergence_p1": -5.07568674776642,
        "symbol_convergence_p2": -2.7502393667805674,
        "symbol_convergence_pinf": -1.7841672712320047,
        "truncation_budget": -17.353711969961303,
        "truncation_monotone": -1.361421847669348,
    },
    "controlled": {
        "controlled_bounds_map": 1.7763568394002505e-15,
        "controlled_factorization": 2.6781057472313503e-15,
        "controlled_implies_frame": 0.0,
        "controlled_positivity": 0.0,
        "controlled_spectral_mapping": 1.7763568394002473e-15,
        "precondition_identity": 2.8210321573972568e-15,
    },
    "gabor": {
        "gabor_tightness": 8.547743353864389e-16,
        "stft_energy": 4.2827008097302634e-16,
        "stft_matches_analysis": 2.8305244335018383e-16,
        "stft_orthogonality": 1.2412670766236366e-16,
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
        "certificates": -7.8955543719672185,
        "multiplier_dual": 5.233794768199253e-15,
        "positive_symbol_coercivity": -1.999346630034442,
        "weighted_scaling": 7.620235492460161e-16,
    },
}

# the six seeded suites at d = 8, N = 64: a block holds 64 trials, so these
# 70 cross a block end, and the caps of 20 and 50 end inside block 0, whose
# capped checks read heads of it
GOLDEN_ACROSS_A_BLOCK = {
    "identities": {
        "canonical_dual_pair": 1.4638066460196097e-15,
        "difference_analysis": 2.0180420980031784e-15,
        "difference_symbol": 2.113052239066689e-15,
        "difference_synthesis": 2.1285914346887666e-15,
        "dual_bounds_inverse": 2.4295142996527063e-15,
        "frame_factorization": 1.6446444536642202e-16,
        "frame_iff_invertible": 0.0,
        "multiplier_adjoint": 1.4282440560789925e-15,
        "reconstruction": 6.54523781544752e-16,
        "reconstruction_swapped": 6.02520949134584e-16,
        "weighted_identity": 5.350097648248099e-16,
    },
    "bounds": {
        "bessel_inequality": 0.0,
        "bessel_sharpness": 1.4775393608625926e-15,
        "discrete_bessel_norm_bound": -8.526538673902627,
        "op_norm_budget": -0.638480820083936,
        "perturb_lower": -40.070500176800664,
        "perturb_upper": -187.19054987357416,
        "schatten_budget_p15": -0.7223775426079788,
        "schatten_budget_p2": -0.7159438009658965,
        "schatten_budget_p3": -0.6994658640651273,
        "schatten_monotonicity": 0.0,
        "trace_budget": -0.7251448005745678,
        "unbounded_bessel_cap": 7.105427357601002e-15,
        "unbounded_norm_growth": 1.7782794100389225,
    },
    "convergence": {
        "frame_uniform_l1": -101.42547057706663,
        "frame_uniform_l2": -36.74513042478958,
        "symbol_convergence_p1": -82.92792867523282,
        "symbol_convergence_p2": -33.10119786308911,
        "symbol_convergence_pinf": -15.50092409816796,
        "truncation_budget": -147.09797088527557,
        "truncation_monotone": -27.958662089224475,
    },
    "controlled": {
        "controlled_bounds_map": 2.6645352591003757e-15,
        "controlled_factorization": 2.127948810522559e-15,
        "controlled_implies_frame": 0.0,
        "controlled_positivity": 0.0,
        "controlled_spectral_mapping": 2.664535259100372e-15,
        "precondition_identity": 4.4086632888526865e-15,
    },
    "gabor": {
        "gabor_tightness": 1.912319861943749e-15,
        "stft_energy": 6.551741215588936e-16,
        "stft_matches_analysis": 1.0980128164946026e-15,
        "stft_orthogonality": 1.0103182026100663e-16,
        "tf_shift_unitarity": 8.881784197001252e-16,
    },
    "weighted": {
        "certificates": -91.03378453721433,
        "multiplier_dual": 2.37703465526394e-14,
        "positive_symbol_coercivity": -43.479557136284356,
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
