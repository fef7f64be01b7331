"""Tests of the benchmark itself: tiny-size smoke runs and the correctness gate.

Run from the repository root with ``python3 -m pytest perfbench/tests``.  The
transforms smoke run takes about 12 s and 1.6 GB, because the wavelet suite
has fixed sizes that the CLI cannot shrink.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import metric_units  # noqa: E402
from workloads import WORKLOADS, Invocation  # noqa: E402

TINY = {
    "suites_small": {"trials": 2},
    "suites_large": {"d": 4, "n": 16, "trials": 1},
    "transforms": {"gabor_d": 8},
}


def gabor_only(*extra: str) -> workloads.Workload:
    argv = ("verify", "--suite", "gabor", "--seed", "{seed}", "--trials", "2",
            *extra, "--out", "{out_0}")
    return dataclasses.replace(WORKLOADS["suites_small"], name="gabor_only",
                               invocations=(Invocation(argv, "gabor"),))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_of_each_workload(name):
    workload = WORKLOADS[name]
    result = run.run(workload, seed=0, seconds=0, trace=False, sizes=TINY[name])
    assert result["correct"], result["problems"]
    assert result["attempted"] == workload.expected_checks
    assert result["failed"] == 0, result["failed_ids"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = run.run(WORKLOADS["suites_small"], seed=0, seconds=0, trace=True,
                     sizes=TINY["suites_small"])
    assert result["correct"], result["problems"]
    assert list(result["metrics"]) == list(metric_units())
    assert result["metrics"]["cli.calls"]["value"] == 2 * 6  # main + build_parser
    assert result["metrics"]["hilbert.hermitian_bounds.calls"]["value"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_forced_failing_verdict_raises_fail_ratio():
    base = run.run(gabor_only(), seed=0, seconds=0, trace=False)
    forced = run.run(gabor_only("--tol", "gabor_tightness=0"), seed=0,
                     seconds=0, trace=False)
    assert base["failed"] == 0
    assert forced["failed"] == 1 and forced["failed_ids"] == ["gabor_tightness"]
    # a failing verdict is a result, not a malformed output
    assert forced["correct"], forced["problems"]


def test_missing_check_id_raises_fail_ratio(monkeypatch):
    expected = workloads.SUITE_CHECK_IDS["gabor"] + ("dropped_check",)
    monkeypatch.setitem(workloads.SUITE_CHECK_IDS, "gabor", expected)
    result = run.run(gabor_only(), seed=0, seconds=0, trace=False)
    assert result["failed"] == 1 and result["failed_ids"] == ["dropped_check"]
    assert result["attempted"] == len(expected)
    assert not result["correct"]
    assert "missing check dropped_check" in result["problems"]


def _report(*checks, measured="0.0"):
    return ('{"started": "x", "finished": "y", "checks": ['
            + ", ".join(f'{{"check_id": "{c}", "measured": {measured}, "pass": true}}'
                        for c in checks) + "]}")


def test_grade_rejects_nan_and_counts_every_check():
    failed, problems = run.grade(_report("a", "b", measured="NaN"), ("a", "b"), 0)
    assert failed == ["a", "b"]
    assert problems and "rejected" in problems[0]


def test_grade_flags_exit_code_that_contradicts_the_report():
    failed, problems = run.grade(_report("a"), ("a",), 1)
    assert failed == [] and problems == ["exit code 1, report implies 0"]


def test_reports_that_differ_between_passes_are_incorrect():
    one = {"failed": [], "problems": [], "setup_s": 0.2, "wall_s": 1.0,
           "cpu_s": 1.0, "peak_rss_mb": 50.0, "raw": {"wall_s": 1.0, "cpu_s": 1.0},
           "ref_s": [run.REFERENCE_S], "reports": [run.without_timestamps(_report("a"))]}
    other = dict(one, reports=[run.without_timestamps(_report("b"))])
    result = run.summarize(WORKLOADS["suites_small"], [one, other],
                           [(0.2, run.REFERENCE_S)], trace=False)
    assert not result["correct"]
    assert any("differ" in p for p in result["problems"])


def test_timestamps_are_the_only_fields_ignored():
    a = json.dumps({"started": "1", "finished": "2", "seed": 0})
    b = json.dumps({"started": "3", "finished": "4", "seed": 0})
    c = json.dumps({"started": "1", "finished": "2", "seed": 1})
    assert run.without_timestamps(a) == run.without_timestamps(b)
    assert run.without_timestamps(a) != run.without_timestamps(c)


def test_invocation_times_are_normalized_by_the_reference_around_them():
    nominal = run.REFERENCE_S
    one = {"wall_s": [1.0, 3.0], "cpu_s": [1.0, 4.0], "ref_s": [nominal, 1.5 * nominal]}
    run.pass_times(one, normalize=True)
    assert one["wall_s"] == pytest.approx(1.0 + 3.0 / 1.5)
    assert one["cpu_s"] == pytest.approx(1.0 + 4.0 / 1.5)
    assert one["raw"] == {"wall_s": 4.0, "cpu_s": 5.0}
    other = {"wall_s": [1.0, 3.0], "cpu_s": [1.0, 4.0], "ref_s": []}
    run.pass_times(other, normalize=False)
    assert other["wall_s"] == 4.0 and other["cpu_s"] == 5.0


def test_end_to_end_metrics_are_medians_and_raw_medians_are_kept():
    passes = [{"failed": [], "problems": [], "setup_s": 0.9, "wall_s": wall,
               "cpu_s": wall, "peak_rss_mb": 50.0, "ref_s": [run.REFERENCE_S],
               "raw": {"wall_s": 2 * wall, "cpu_s": 2 * wall}, "reports": []}
              for wall in (2.0, 3.0, 2.2)]
    nominal = run.REFERENCE_S
    setups = [(0.4, nominal), (0.9, 1.5 * nominal), (0.6, nominal)]
    result = run.summarize(WORKLOADS["suites_small"], passes, setups, trace=False)
    metrics = result["metrics"]
    assert metrics["wall_s"]["value"] == pytest.approx(2.2)
    assert metrics["wall_s"]["raw"] == pytest.approx(4.4)
    # import-only interpreters only, each by its own reference: 0.4, 0.6, 0.6
    assert metrics["setup_s"]["value"] == pytest.approx(0.6)
    assert metrics["setup_s"]["raw"] == pytest.approx(0.6)
    assert metrics["peak_rss_mb"]["value"] == 50.0
    assert result["ref_s"] == run.REFERENCE_S
    raw = run.summarize(WORKLOADS["transforms"], passes, setups, trace=False)
    assert "raw" not in raw["metrics"]["wall_s"] and "ref_s" not in raw


def test_tracer_reaches_functions_held_in_module_tables(tmp_path):
    # in a child interpreter, because install() rebinds the package for good
    script = f"""
import contextlib, io, sys
sys.path[:0] = [{str(run.SRC)!r}, {str(run.HERE)!r}]
from contframes import cli
from tracer import Tracer
tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["verify", "--suite", "identities", "--trials", "1",
              "--out", {str(tmp_path / "r.json")!r}])
print(tracer.stats["suites.check_reconstruction"][0], tracer._cost > 0)
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["1", "True"]
