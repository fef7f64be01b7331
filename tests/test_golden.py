"""Measured values of two seeded suites, pinned to literals.

The suites draw every instance from seeded streams, so a change to the
streams, to the order in which roles read them or to a measure changes
these values.  Such a change must be a deliberate rebaseline: update the
literals here and record the old and new values.  Values are rounding-level
errors from numpy's bundled OpenBLAS on x86-64; another BLAS build may move
their last digits.
"""

import json

import pytest

from contframes.cli import main

GOLDEN = {
    "identities": {
        "frame_factorization": 2.1515075745999557e-16,
        "reconstruction": 6.389110110211377e-16,
        "reconstruction_swapped": 6.688427021606006e-16,
        "multiplier_adjoint": 2.640477411196568e-16,
        "difference_symbol": 1.5888218580782548e-14,
        "difference_analysis": 7.944109290391274e-15,
        "difference_synthesis": 2.139016888732267e-14,
        "weighted_identity": 2.223766973807737e-16,
        "canonical_dual_pair": 8.254756890813921e-16,
        "dual_bounds_inverse": 2.966043034739131e-15,
        "frame_iff_invertible": 0.0,
    },
    "controlled": {
        "controlled_factorization": 3.261548175029378e-15,
        "controlled_bounds_map": 1.887379141862766e-15,
        "controlled_spectral_mapping": 1.4432899320127035e-15,
        "controlled_positivity": 0.0,
        "controlled_implies_frame": 0.0,
        "precondition_identity": 2.329661873606221e-15,
    },
}


@pytest.mark.parametrize("suite", sorted(GOLDEN))
def test_measured_values_equal_the_pinned_literals(suite, tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", suite, "--d", "4", "--n", "12", "--trials", "10",
                 "--seed", "0", "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert {c["check_id"]: c["measured"] for c in checks} == GOLDEN[suite]
