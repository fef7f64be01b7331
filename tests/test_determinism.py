"""Reports are byte-identical, timestamps aside, across BLAS thread counts.

One child interpreter per BLAS setting runs every invocation in process, so
the thirteen comparisons start two interpreters, not twenty-six.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import contframes

SRC = str(Path(contframes.__file__).resolve().parents[1])
TIMESTAMP = re.compile(r'^  "(started|finished)": .*$', re.MULTILINE)


def verify(suite, d, n, trials):
    return ["verify", "--suite", suite, "--d", str(d), "--n", str(n), "--trials", str(trials)]


# the argv of each compared run, by the test that compares it
INVOCATIONS = {
    "identities": verify("identities", 8, 64, 5),
    "large_identities": verify("identities", 64, 4096, 1),
    "small_bounds": verify("bounds", 8, 64, 5),
    "bounds": verify("bounds", 8, 64, 70),
    "controlled": verify("controlled", 8, 64, 70),
    "convergence": verify("convergence", 8, 64, 5),
    "weighted": verify("weighted", 8, 64, 5),
    "gabor": verify("gabor", 8, 64, 5),
    "all": verify("all", 8, 64, 5),
    "chunked": verify("all", 64, 1100, 2),
    "wavelet_suite": ["verify", "--suite", "wavelet"],
    "wavelet": ["wavelet"],
    "wavelet_grid": ["wavelet", "--d", "64", "--n-a", "16"],
}

# runs every invocation of argv[2] (JSON) with its report in the folder
# argv[1], and prints the exit codes as JSON
CHILD = """
import contextlib, json, os, sys
from contframes.cli import main
out, invocations = sys.argv[1], json.loads(sys.argv[2])
codes = {}
with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
    for name, argv in invocations.items():
        codes[name] = main(argv + ["--out", f"{out}/{name}.json"])
print(json.dumps(codes))
"""


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """{threads: (exit codes, folder of reports)} for OPENBLAS_NUM_THREADS 1 and 2,
    both children run at once."""
    path = os.environ.get("PYTHONPATH")
    children = {}
    for threads in ("1", "2"):
        out = tmp_path_factory.mktemp(f"threads_{threads}")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
        children[threads] = out, subprocess.Popen(
            [sys.executable, "-c", CHILD, str(out), json.dumps(INVOCATIONS)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    runs = {}
    for threads, (out, child) in children.items():
        stdout, stderr = child.communicate(timeout=300)
        assert child.returncode == 0, stderr
        runs[threads] = json.loads(stdout), out
    return runs


def assert_same_across_threads(reports, name: str, code: int = 0):
    (codes_one, one), (codes_two, two) = reports["1"], reports["2"]
    assert codes_one[name] == codes_two[name] == code
    one, two = (Path(folder, f"{name}.json").read_text() for folder in (one, two))
    assert len(TIMESTAMP.findall(one)) == 2
    assert TIMESTAMP.sub("", one) == TIMESTAMP.sub("", two)


def test_identities_report_independent_of_blas_threads(reports):
    assert_same_across_threads(reports, "identities")


def test_large_identities_report_independent_of_blas_threads(reports):
    # at d = 8 BLAS keeps every product on one thread; at 64 x 4096 it splits them
    assert_same_across_threads(reports, "large_identities")


def test_small_bounds_report_independent_of_blas_threads(reports):
    # the budgets family: five budgets and monotonicity from one SVD a trial
    assert_same_across_threads(reports, "small_bounds")


def test_bounds_report_independent_of_blas_threads(reports):
    # 70 trials at d = 8, N = 64 stack as blocks of 64 and 6
    assert_same_across_threads(reports, "bounds")


def test_controlled_report_independent_of_blas_threads(reports):
    # 70 trials under the cap of 100 stack as blocks of 64 and 6
    assert_same_across_threads(reports, "controlled")


def test_convergence_report_independent_of_blas_threads(reports):
    # the convergence family: symbol and frame bumps of one instance a trial
    assert_same_across_threads(reports, "convergence")


def test_weighted_report_independent_of_blas_threads(reports):
    # the weighted family: the certificates, the induced dual, the scaling
    # and the coercivity of one instance a trial
    assert_same_across_threads(reports, "weighted")


def test_gabor_report_independent_of_blas_threads(reports):
    # the gabor checks measure stacks of windows and vectors, a block of trials each
    assert_same_across_threads(reports, "gabor")


def test_all_suites_report_independent_of_blas_threads(reports):
    # every suite in one run: the stacked checks read one context per
    # block, shared across the algebra suites, or a head of it
    assert_same_across_threads(reports, "all")


def test_a_run_whose_products_cross_chunk_ends_is_independent_of_blas_threads(reports):
    # at d = 64 a product sums chunks of 512 points, so N = 1100 ends in a
    # chunk of 76; each trial is its own block
    assert_same_across_threads(reports, "chunked")


def test_wavelet_suite_report_independent_of_blas_threads(reports):
    # the rows that read no trial, the Calderon rows on the default study
    assert_same_across_threads(reports, "wavelet_suite")


def test_wavelet_report_independent_of_blas_threads(reports):
    # the Calderon study of the wavelet subcommand at its defaults
    assert_same_across_threads(reports, "wavelet")


def test_wavelet_report_on_its_own_grid_independent_of_blas_threads(reports):
    # at d = 64 with 16 scale cells the refinement exceeds its range of
    # [1.5, 3], so the run exits 1 on both
    assert_same_across_threads(reports, "wavelet_grid", code=1)
