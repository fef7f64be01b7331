"""Reports are byte-identical, timestamps aside, across BLAS thread counts.

One child interpreter per BLAS setting runs every configuration in process,
so the nine comparisons start two interpreters, not eighteen.
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

# (suite, d, n, trials) of each compared run, by the test that compares it
CONFIGS = {
    "identities": ("identities", 8, 64, 5),
    "large_identities": ("identities", 64, 4096, 1),
    "small_bounds": ("bounds", 8, 64, 5),
    "bounds": ("bounds", 8, 64, 70),
    "controlled": ("controlled", 8, 64, 70),
    "convergence": ("convergence", 8, 64, 5),
    "weighted": ("weighted", 8, 64, 5),
    "gabor": ("gabor", 8, 64, 5),
    "all": ("all", 8, 64, 5),
}

# runs every configuration of argv[2] (JSON) with its report in the folder
# argv[1], and prints the exit codes as JSON
CHILD = """
import contextlib, json, os, sys
from contframes.cli import main
out, configs = sys.argv[1], json.loads(sys.argv[2])
codes = {}
with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
    for name, (suite, d, n, trials) in configs.items():
        codes[name] = main(["verify", "--suite", suite, "--d", str(d), "--n", str(n),
                            "--trials", str(trials), "--out", f"{out}/{name}.json"])
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
            [sys.executable, "-c", CHILD, str(out), json.dumps(CONFIGS)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    runs = {}
    for threads, (out, child) in children.items():
        stdout, stderr = child.communicate(timeout=300)
        assert child.returncode == 0, stderr
        runs[threads] = json.loads(stdout), out
    return runs


def assert_same_across_threads(reports, name: str):
    (codes_one, one), (codes_two, two) = reports["1"], reports["2"]
    assert codes_one[name] == codes_two[name] == 0
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
