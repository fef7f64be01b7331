"""Reports are byte-identical, timestamps aside, across BLAS thread counts."""

import os
import re
import subprocess
import sys
from pathlib import Path

import contframes

SRC = str(Path(contframes.__file__).resolve().parents[1])
TIMESTAMP = re.compile(r'^  "(started|finished)": .*$', re.MULTILINE)


def verify_report(tmp_path: Path, threads: str, d: int, n: int, trials: int,
                  suite: str) -> str:
    out = tmp_path / f"report_{threads}.json"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    subprocess.run(
        [sys.executable, "-m", "contframes.cli", "verify", "--suite", suite,
         "--d", str(d), "--n", str(n), "--trials", str(trials), "--out", str(out)],
        env=env, check=True, capture_output=True, timeout=60,
    )
    return out.read_text()


def assert_same_across_threads(tmp_path: Path, d: int, n: int, trials: int,
                               suite: str = "identities"):
    one = verify_report(tmp_path, "1", d, n, trials, suite)
    two = verify_report(tmp_path, "2", d, n, trials, suite)
    assert len(TIMESTAMP.findall(one)) == 2
    assert TIMESTAMP.sub("", one) == TIMESTAMP.sub("", two)


def test_identities_report_independent_of_blas_threads(tmp_path):
    assert_same_across_threads(tmp_path, 8, 64, 5)


def test_large_identities_report_independent_of_blas_threads(tmp_path):
    # at d = 8 BLAS keeps every product on one thread; at 64 x 4096 it splits them
    assert_same_across_threads(tmp_path, 64, 4096, 1)


def test_small_bounds_report_independent_of_blas_threads(tmp_path):
    # the budgets family: five budgets and monotonicity from one SVD a trial
    assert_same_across_threads(tmp_path, 8, 64, 5, suite="bounds")


def test_bounds_report_independent_of_blas_threads(tmp_path):
    # 70 trials at d = 8, N = 64 stack as chunks of 64 and 6
    assert_same_across_threads(tmp_path, 8, 64, 70, suite="bounds")


def test_controlled_report_independent_of_blas_threads(tmp_path):
    # 70 trials under the cap of 100 stack as chunks of 64 and 6
    assert_same_across_threads(tmp_path, 8, 64, 70, suite="controlled")


def test_convergence_report_independent_of_blas_threads(tmp_path):
    # the convergence family: symbol and frame bumps of one instance a trial
    assert_same_across_threads(tmp_path, 8, 64, 5, suite="convergence")


def test_weighted_report_independent_of_blas_threads(tmp_path):
    # the weighted family: the certificates, the induced dual, the scaling
    # and the coercivity of one instance a trial
    assert_same_across_threads(tmp_path, 8, 64, 5, suite="weighted")


def test_gabor_report_independent_of_blas_threads(tmp_path):
    # the gabor checks measure stacks of windows and vectors, a chunk of trials each
    assert_same_across_threads(tmp_path, 8, 64, 5, suite="gabor")


def test_all_suites_report_independent_of_blas_threads(tmp_path):
    # every suite in one run: the stacked checks read one context per
    # chunk, shared across the algebra suites
    assert_same_across_threads(tmp_path, 8, 64, 5, suite="all")
