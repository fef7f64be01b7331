"""Measured values of five seeded suites, pinned to literals.

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
        "canonical_dual_pair": 1.199995929184332e-15,
        "difference_analysis": 1.0695084443661336e-14,
        "difference_symbol": 1.5888218580782548e-14,
        "difference_synthesis": 1.5888218580782548e-14,
        "dual_bounds_inverse": 2.2011934827683625e-15,
        "frame_factorization": 2.1515075745999557e-16,
        "frame_iff_invertible": 0.0,
        "multiplier_adjoint": 2.5078722452141928e-16,
        "reconstruction": 1.0013901968566236e-15,
        "reconstruction_swapped": 1.229696823415234e-15,
        "weighted_identity": 2.223766973807737e-16,
    },
    "bounds": {
        "bessel_inequality": 0.0,
        "bessel_sharpness": 1.1254700079851817e-15,
        "discrete_bessel_norm_bound": -1.974616098693895,
        "op_norm_budget": -42.93667828453415,
        "perturb_lower": -5.085961320263733,
        "perturb_upper": -30.189584202254892,
        "schatten_budget_p15": -63.6509205704235,
        "schatten_budget_p2": -53.23734043003067,
        "schatten_budget_p3": -45.439380712024445,
        "schatten_monotonicity": 0.0,
        "trace_budget": -91.95655279193639,
        "unbounded_bessel_cap": 3.552713678800501e-15,
        "unbounded_norm_growth": 1.7782794100389225,
    },
    "convergence": {
        "frame_uniform_l1": -8.874091942681142,
        "frame_uniform_l2": -4.738068856648278,
        "symbol_convergence_p1": -5.194882166736735,
        "symbol_convergence_p2": -2.6888439154079076,
        "symbol_convergence_pinf": -2.018169424119588,
        "truncation_budget": 0.0,
        "truncation_monotone": 0.0,
    },
    "controlled": {
        "controlled_bounds_map": 2.220446049250313e-15,
        "controlled_factorization": 3.261548175029378e-15,
        "controlled_implies_frame": 0.0,
        "controlled_positivity": 0.0,
        "controlled_spectral_mapping": 2.2204460492503103e-15,
        "precondition_identity": 2.329661873606221e-15,
    },
    "weighted": {
        "certificates": -2.2372336813793114,
        "multiplier_dual": 5.2661621412764984e-15,
        "positive_symbol_coercivity": -3.005037894920724,
        "weighted_scaling": 0.0,
    },
}


@pytest.mark.parametrize("suite", sorted(GOLDEN))
def test_measured_values_equal_the_pinned_literals(suite, tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", suite, "--d", "4", "--n", "12", "--trials", "10",
                 "--seed", "0", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert {c["check_id"]: c["measured"] for c in checks} == GOLDEN[suite]
