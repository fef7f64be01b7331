"""The memory contract of the algebra suites: no temporary grows with N.

Every product over the measure space is summed a chunk of points at a time
(``frame.weighted_gram``), and every operand built only to feed a product
exists one chunk at a time, so what a suite holds beyond the roles it draws
is bounded by ``frame.BLOCK_ENTRIES``, whatever the number of points.
``tracemalloc`` traces numpy's array data, so its peak counts the roles and
every temporary.
"""

import tracemalloc

import pytest

from contframes import suites
from contframes.suites import SuiteConfig, run_suite

ALGEBRA = ("identities", "bounds", "convergence", "controlled", "weighted")
MIB = 2**20
# a few vectors of one value a point, such as a product's coefficients w m,
# may be alive at a peak beside the roles: 4 complex values a point, where a
# d x N temporary at d = 64 holds 64
VECTORS_A_POINT = 4 * 16


@pytest.fixture
def drawn(monkeypatch):
    """The bytes of each role the trial contexts draw, in drawing order."""
    read, sizes = suites.Trials._read, []

    def counted(self, name):
        values = read(self, name)
        sizes.append(values.nbytes)
        return values

    monkeypatch.setattr(suites.Trials, "_read", counted)
    return sizes


def traced_run(suite, n, drawn):
    """(traced peak, bytes of the roles drawn) of one run of ``suite`` at
    d = 64 with n points and one trial, seed 7."""
    # a process's first run allocates what the process keeps after it
    run_suite(SuiteConfig(suite=suite, d=2, n_points=4, trials=1))
    drawn.clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = run_suite(SuiteConfig(suite=suite, d=64, n_points=n, trials=1, seed=7))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert report.all_passed
    return peak, sum(drawn)


@pytest.mark.parametrize("suite", ALGEBRA)
def test_no_temporary_grows_with_the_number_of_points(drawn, suite):
    # at N = 4096 a d x N role is 4 MiB and a chunk 0.5 MiB.  Doubling N
    # raises the peak by what the roles grow, and by no d x N temporary
    (peak, roles), (double_peak, double_roles) = (traced_run(suite, n, drawn)
                                                  for n in (4096, 8192))
    assert double_peak - peak <= double_roles - roles + VECTORS_A_POINT * 4096
    # what a suite holds beyond its roles: a few chunks, also for the
    # unbounded-family rows of the bounds suite, whose d x 10000 families
    # exist a chunk at a time
    assert peak <= roles + 2 * MIB
