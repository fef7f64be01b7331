import csv
import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from contframes import controlled as ctrl
from contframes import frame as fr
from contframes import suites
from contframes import tf_frames as tf
from contframes.cli import main
from contframes.errors import InvalidParameterError
from contframes.frame import SampledFrame
from contframes.measure import MeasureSpace, Symbol, counting_space
from contframes.reporting import Report
from contframes.suites import SuiteConfig, run_multiplier, run_suite, run_wavelet


TIMESTAMP = re.compile(r'^  "(started|finished)": .*\n', re.MULTILINE)


def reject_constant(token):
    raise ValueError(f"invalid JSON constant {token}")


def read_json(path):
    """A report, parsed as strict JSON: NaN and Infinity are refused."""
    return json.loads(path.read_text(), parse_constant=reject_constant)


def strip_timestamps(data):
    return {k: v for k, v in data.items() if k not in ("started", "finished")}


def test_verify_small_suite_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "identities", "--seed", "1",
                 "--trials", "10", "--d", "4", "--n", "16",
                 "--out", str(out)])
    assert code == 0
    data = read_json(out)
    assert data["suite"] == "identities"
    assert data["summary"]["passed"] == data["summary"]["total"]
    assert all("claim" in c and "measured" in c for c in data["checks"])


def test_verify_unknown_suite_is_usage_error():
    assert main(["verify", "--suite", "bogus"]) == 2


def test_verify_deterministic_up_to_timestamps(tmp_path):
    args = ["verify", "--suite", "identities", "--seed", "7", "--trials", "5",
            "--d", "3", "--n", "12"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert strip_timestamps(read_json(out1)) == strip_timestamps(read_json(out2))


def test_verify_tolerance_override_fails_run(tmp_path):
    # an impossible tolerance flips the run to failing exit status
    out = tmp_path / "r.json"
    code = main(["verify", "--suite", "identities", "--seed", "1",
                 "--trials", "5", "--d", "3", "--n", "12",
                 "--tol", "frame_factorization=0", "--out", str(out)])
    assert code == 1
    data = read_json(out)
    flagged = {c["check_id"]: c["pass"] for c in data["checks"]}
    assert flagged["frame_factorization"] is False


def test_verify_bad_tolerance_syntax():
    assert main(["verify", "--suite", "identities", "--tol", "oops"]) == 2


def test_verify_unknown_tolerance_key_flag(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "gabor", "--tol", "gabor_tightnes=1e-30",
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_verify_unknown_tolerance_key_config(tmp_path):
    cfg = {"suite": "gabor", "trials": 2, "d": 4, "n": 8,
           "tolerances": {"gabor_tightnes": 1e-30},
           "output": str(tmp_path / "r.json")}
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0, float("-inf")])
def test_suite_config_rejects_bad_tolerance(value):
    with pytest.raises(InvalidParameterError, match="finite and >= 0"):
        SuiteConfig(suite="gabor", tolerances={"gabor_tightness": value})


def test_suite_config_accepts_zero_tolerance():
    assert SuiteConfig(suite="gabor", tolerances={"gabor_tightness": 0}).tol(
        "gabor_tightness") == 0.0


def test_verify_non_finite_tolerance_flag(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "gabor", "--tol", "gabor_tightness=nan",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert "finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("value", [-1.0, None, "loose"])
def test_verify_bad_tolerance_config(tmp_path, value):
    cfg = {"suite": "gabor", "trials": 2, "d": 4, "n": 8,
           "tolerances": {"gabor_tightness": value},
           "output": str(tmp_path / "r.json")}
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "r.json").exists()


def test_verify_csv_output(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["verify", "--suite", "identities", "--seed", "1",
                 "--trials", "5", "--d", "3", "--n", "12",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "check_id,claim,measured,budget,tolerance,pass,detail,error"
    assert len(lines) > 5


def test_csv_reports_carry_the_detail_and_the_error_of_each_check(tmp_path):
    # at N = 4 < d = 8 the draws are no frames: the checks that need the
    # canonical dual abort, and the CSV names the exception as the JSON does
    argv = ["verify", "--suite", "identities", "--d", "8", "--n", "4", "--trials", "5",
            "--seed", "2"]
    direct, src, again = (tmp_path / name for name in ("r.csv", "r.json", "again.csv"))
    assert main([*argv, "--format", "csv", "--out", str(direct)]) == 1
    row = next(r for r in csv.DictReader(direct.open())
               if r["check_id"] == "canonical_dual_pair")
    assert row == {"check_id": "canonical_dual_pair",
                   "claim": "check aborted with an exception", "measured": "",
                   "budget": "", "tolerance": "1e-10", "pass": "false", "detail": "",
                   "error": "NotAFrameError: lower frame bound is numerically zero "
                            "(0.000e+00)"}
    # JSON -> CSV: every field of every check, the CSV of the run itself
    assert main([*argv, "--out", str(src)]) == 1
    assert main(["report", "--in", str(src), "--format", "csv", "--out", str(again)]) == 1
    assert again.read_text() == direct.read_text()
    cells = lambda v: "" if v is None else repr(v)
    assert [tuple(r.values()) for r in csv.DictReader(again.open())] == [
        (c["check_id"], c["claim"], cells(c["measured"]), cells(c["budget"]),
         cells(c["tolerance"]), "true" if c["pass"] else "false", c.get("detail", ""),
         c.get("error", "")) for c in read_json(src)["checks"]]


def test_gabor_command(tmp_path):
    out = tmp_path / "gabor.json"
    assert main(["gabor", "--d", "8", "--out", str(out)]) == 0
    data = read_json(out)
    ids = {c["check_id"] for c in data["checks"]}
    assert {"gabor_lower_bound", "gabor_upper_bound",
            "gabor_tightness_residual"} <= ids


def test_gabor_rejects_zero_window(tmp_path):
    window = tmp_path / "window.json"
    window.write_text(json.dumps([0.0] * 8))
    assert main(["gabor", "--d", "8", "--window", str(window)]) == 2


def test_gabor_custom_window(tmp_path):
    window = tmp_path / "window.json"
    window.write_text(json.dumps([1.0, 0.0, 0.0, 0.0]))
    out = tmp_path / "gabor.json"
    assert main(["gabor", "--d", "4", "--window", str(window),
                 "--out", str(out)]) == 0


def test_gabor_rejects_non_finite_window(tmp_path, capsys):
    window = tmp_path / "window.json"
    window.write_text(json.dumps([1.0, float("nan"), 0.0, 0.0]))
    assert "NaN" in window.read_text()
    assert main(["gabor", "--d", "4", "--window", str(window)]) == 2
    assert "window samples must be finite" in capsys.readouterr().err


def test_multiplier_command(tmp_path):
    rng = np.random.default_rng(0)
    space = counting_space(12)
    F = SampledFrame(space, rng.standard_normal((4, 12))
                     + 1j * rng.standard_normal((4, 12)))
    config = {
        "analysis_frame": F.to_dict(),
        "synthesis_frame": F.to_dict(),
        "symbol": Symbol(np.ones(12, dtype=complex), space).to_dict(),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    sigma = tmp_path / "sigma.csv"
    code = main(["multiplier", "--config", str(cfg_path), "--out", str(out),
                 "--sigma-csv", str(sigma)])
    assert code == 0
    data = read_json(out)
    ids = {c["check_id"] for c in data["checks"]}
    assert "equals_frame_operator" in ids
    assert "multiplier_adjoint" in ids
    lines = sigma.read_text().strip().splitlines()
    assert lines[0] == "index,sigma"
    assert len(lines) == 5  # d singular values


# the report of the configuration below without its timestamps: its text
# up to the second check, the measured value of every check, each passing,
# and its CSV; the last digits come from numpy's bundled OpenBLAS, as in
# tests/test_golden.py
MULTIPLIER_HEAD = """\
{
  "suite": "multiplier-run",
  "seed": 0,
  "checks": [
    {
      "check_id": "bessel_inequality",
      "claim": "weighted coefficient energy lies between the optimal bounds times ||f||^2",
      "measured": 0.0,
      "budget": 1e-10,
      "tolerance": 1e-10,
      "pass": true
    },
"""
MULTIPLIER_MEASURED = {
    "bessel_inequality": 0.0,
    "bessel_sharpness": 1.422311655676207e-16,
    "canonical_dual_pair": 5.751743179104396e-16,
    "certificates": -3.2871119768689194,
    "controlled_bounds_map": 4.440892098500626e-16,
    "controlled_factorization": 8.415555609185619e-16,
    "controlled_implies_frame": 0.0,
    "controlled_positivity": 0.0,
    "controlled_spectral_mapping": 4.440892098500624e-16,
    "difference_analysis": 5.830855454473589e-16,
    "difference_symbol": 9.961672645123683e-16,
    "difference_synthesis": 4.1851356501598905e-16,
    "discrete_bessel_norm_bound": -0.7776821639608271,
    "dual_bounds_inverse": 5.199683878658031e-16,
    "frame_factorization": 6.920973007862285e-17,
    "frame_iff_invertible": 0.0,
    "frame_uniform_l1": -1.614873657107999,
    "frame_uniform_l2": -1.1054062767718627,
    "multiplier_adjoint": 2.668628197947126e-16,
    "multiplier_dual": 2.8150832545488057e-15,
    "op_norm_budget": -0.5866047103866816,
    "perturb_lower": -1.7494831158666493,
    "perturb_upper": -41.330084784615984,
    "positive_symbol_coercivity": -2.6170994876976663,
    "precondition_identity": 5.835194730308098e-15,
    "reconstruction": 5.610738851756005e-16,
    "reconstruction_swapped": 4.9612145408148645e-16,
    "schatten_budget_p15": -0.5458078408248791,
    "schatten_budget_p2": -0.5376239663296101,
    "schatten_budget_p3": -0.5379595864932784,
    "schatten_monotonicity": 0.0,
    "symbol_convergence_p1": -3.98155350810399,
    "symbol_convergence_p2": -2.3619293675001694,
    "symbol_convergence_pinf": -1.7518563293821492,
    "trace_budget": -0.565238213371798,
    "truncation_budget": -10.008463857183393,
    "truncation_monotone": -5.197057893859568,
    "weighted_identity": 3.0111154942687716e-16,
    "weighted_scaling": 2.1334674835143103e-16,
}
MULTIPLIER_CSV = """\
index,sigma
0,19.88052221398031
1,5.4965383504876835
2,1.0043322484094122
"""


def pinned_multiplier_config():
    """A configuration at d = 3, N = 6 with weights in [0.2, 2)."""
    rng = np.random.default_rng(7)
    space = MeasureSpace(np.arange(6, dtype=float)[:, None], rng.uniform(0.2, 2.0, 6))
    F, G = (SampledFrame(space, rng.standard_normal((3, 6))
                         + 1j * rng.standard_normal((3, 6))) for _ in range(2))
    m = Symbol(rng.standard_normal(6) + 1j * rng.standard_normal(6), space)
    return {"analysis_frame": F.to_dict(), "synthesis_frame": G.to_dict(),
            "symbol": m.to_dict()}


def test_multiplier_command_output_is_pinned(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(pinned_multiplier_config()))
    out, sigma = tmp_path / "report.json", tmp_path / "sigma.csv"
    assert main(["multiplier", "--config", str(cfg_path), "--out", str(out),
                 "--sigma-csv", str(sigma)]) == 0
    assert TIMESTAMP.sub("", out.read_text()).startswith(MULTIPLIER_HEAD)
    data = read_json(out)
    assert data["summary"] == {"total": 39, "passed": 39}
    assert {c["check_id"]: c["measured"] for c in data["checks"]} == MULTIPLIER_MEASURED
    assert sigma.read_text() == MULTIPLIER_CSV


def test_multiplier_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["multiplier", "--config", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"symbol": {"re": [], "im": []}}))
    assert main(["multiplier", "--config", str(missing)]) == 2
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert main(["multiplier", "--config", str(listed)]) == 2


def unit_symbol_config(symbol_value):
    """A multiplier configuration with equal frames and a constant symbol."""
    rng = np.random.default_rng(3)
    space = counting_space(8)
    F = SampledFrame(space, rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8)))
    return {"analysis_frame": F.to_dict(), "synthesis_frame": F.to_dict(),
            "symbol": Symbol(np.full(8, symbol_value, dtype=complex), space).to_dict()}


@pytest.mark.parametrize("tolerance", ["nan", float("nan"), -1.0, "inf", "tight"])
def test_multiplier_refuses_a_bad_tolerance(tmp_path, capsys, tolerance):
    cfg_path, out = tmp_path / "config.json", tmp_path / "report.json"
    cfg_path.write_text(json.dumps({**unit_symbol_config(1.0), "tolerance": tolerance}))
    assert main(["multiplier", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()
    assert "tolerances must be finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("mismatch,message", [
    ("space", "frames live on different measure spaces"),
    ("d", "dimension mismatch 3 vs 4")])
def test_multiplier_refuses_a_mismatched_pair(tmp_path, capsys, mismatch, message):
    # the synthesis frame on the points of the analysis frame's space under
    # other weights, or in another dimension
    rng = np.random.default_rng(5)
    space = counting_space(8)
    if mismatch == "space":
        space, d = MeasureSpace(space.points, np.full(8, 2.0)), 3
    else:
        d = 4
    G = SampledFrame(space, rng.standard_normal((d, 8)) + 1j * rng.standard_normal((d, 8)))
    cfg_path, out, sigma = (tmp_path / name for name in ("config.json", "r.json", "s.csv"))
    cfg_path.write_text(json.dumps({**unit_symbol_config(2.0), "synthesis_frame": G.to_dict()}))
    assert main(["multiplier", "--config", str(cfg_path), "--out", str(out),
                 "--sigma-csv", str(sigma)]) == 2
    assert not out.exists() and not sigma.exists()
    assert message in capsys.readouterr().err


def test_a_multiplier_report_checks_with_the_rows_of_checks(monkeypatch):
    # every check but equals_frame_operator is the row of CHECKS of its id:
    # its claim, its gate and its tolerance, or the configuration's for the
    # budget rows
    rows, verdict = [], suites.verdict
    monkeypatch.setattr(suites, "verdict", lambda check_id, row, tol, values: rows.append(
        (check_id, row)) or verdict(check_id, row, tol, values))
    stacked = [c for c, row in suites.CHECKS.items()
               if row.kind == suites.STACKED and row.suite != "gabor"]
    for config, tolerance, ids in [
            (unit_symbol_config(1.0), None, [*stacked, "equals_frame_operator"]),
            ({**pinned_multiplier_config(), "tolerance": 1e-3}, 1e-3, stacked)]:
        rows.clear()
        report, _ = run_multiplier(config)
        assert [check.check_id for check in report.checks] == [c for c, _ in rows] == ids
        for (check_id, row), check in zip(rows, report.checks):
            assert row is (suites.EQUALS_FRAME_OPERATOR if check_id == "equals_frame_operator"
                           else suites.CHECKS[check_id])
            assert check.claim == row.claim and check.passed
            assert check.tolerance == (tolerance if tolerance and check_id in suites.BUDGET_IDS
                                       else row.tolerance)


def test_multiplier_frame_operator_row_needs_the_unit_symbol_exactly(tmp_path):
    # 1 + 1e-6 is within np.allclose of 1, but its multiplier is not S
    for value, expected in [(1.0, True), (1.0 + 1e-6, False)]:
        report, _ = run_multiplier(unit_symbol_config(value))
        ids = {check.check_id for check in report.checks}
        assert ("equals_frame_operator" in ids) is expected
        assert report.all_passed


def test_report_rerender(tmp_path):
    src = tmp_path / "src.json"
    assert main(["verify", "--suite", "identities", "--seed", "1",
                 "--trials", "5", "--d", "3", "--n", "12",
                 "--out", str(src)]) == 0
    out = tmp_path / "again.csv"
    assert main(["report", "--in", str(src), "--format", "csv",
                 "--out", str(out)]) == 0
    assert out.read_text().startswith("check_id,claim,")
    assert main(["report", "--in", str(tmp_path / "nope.json")]) == 2


def test_wavelet_command_light(tmp_path):
    out = tmp_path / "wavelet.json"
    code = main(["wavelet", "--d", "64", "--n-a", "24", "--band", "2", "6",
                 "--out", str(out)])
    assert code in (0, 1)
    data = read_json(out)
    ids = {c["check_id"] for c in data["checks"]}
    assert {"admissibility_constant", "calderon_residual",
            "calderon_refinement"} <= ids
    residual = next(c for c in data["checks"] if c["check_id"] == "calderon_residual")
    assert residual["measured"] <= 0.02


@pytest.mark.parametrize("d", ["0", "-4"])
def test_wavelet_command_rejects_an_empty_signal_space(tmp_path, capsys, d):
    out = tmp_path / "wavelet.json"
    assert main(["wavelet", "--d", d, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: need d >= 1, got {d}\n"


def admissibility_check(report):
    return next(c for c in report.checks if c.check_id == "admissibility_constant")


def test_run_wavelet_admissibility_gate_can_fail(monkeypatch):
    light = dict(d=64, n_a=24, band=(2.0, 6.0))
    assert admissibility_check(run_wavelet(**light)).passed
    profile = tf.mexican_hat_fourier
    monkeypatch.setattr(tf, "mexican_hat_fourier", lambda g: 2.0 * profile(g))
    report = run_wavelet(**light)
    check = admissibility_check(report)
    # |c - 1/4| of the constant c = 1 of the doubled profile
    assert check.measured == pytest.approx(0.75, abs=4e-4)
    assert not check.passed
    assert not report.all_passed


def test_run_wavelet_custom_profile_admissibility_gate():
    # a profile other than the default has no closed form: its constant is
    # held to the admissibility condition, finite and > 0, measured 0 where
    # it holds and 1 where it fails
    light = dict(d=64, n_a=24, band=(2.0, 6.0))
    doubled = tf.WaveletSpec("given-fourier", lambda g: 2.0 * tf.mexican_hat_fourier(g))
    check = admissibility_check(run_wavelet(wavelet=doubled, **light))
    assert check.measured == 0.0
    assert check.passed and check.budget == check.tolerance == 0.0
    value = float(check.detail.split(",")[0].removeprefix("value "))
    assert value == pytest.approx(1.0, abs=4e-4)
    assert ", positive-axis constant " in check.detail
    # a profile that vanishes on the quadrature grid fails the gate; the
    # Calderon checks, which refuse to build its family, abort
    dead = tf.WaveletSpec("given-fourier", lambda g: np.zeros_like(np.asarray(g)))
    report = run_wavelet(wavelet=dead, **light)
    check = admissibility_check(report)
    assert check.measured == 1.0 and not check.passed and not check.error
    assert check.detail.startswith("value 0.0, ")
    assert {c.check_id: c.error.split(":")[0] for c in report.checks if c.error} == {
        "calderon_residual": "InvalidParameterError",
        "calderon_refinement": "InvalidParameterError"}


def test_run_suite_determinism_inprocess():
    cfg = SuiteConfig(suite="gabor", seed=11, trials=5, d=4, n_points=8)
    first = run_suite(cfg).to_dict()
    second = run_suite(cfg).to_dict()
    assert strip_timestamps(first) == strip_timestamps(second)


def test_run_multiplier_budget_report():
    rng = np.random.default_rng(7)
    space = counting_space(10)
    F = SampledFrame(space, rng.standard_normal((3, 10))
                     + 1j * rng.standard_normal((3, 10)))
    G = SampledFrame(space, rng.standard_normal((3, 10))
                     + 1j * rng.standard_normal((3, 10)))
    m = Symbol(rng.standard_normal(10) + 1j * rng.standard_normal(10), space)
    config = {"analysis_frame": F.to_dict(), "synthesis_frame": G.to_dict(),
              "symbol": m.to_dict()}
    report, csv_text = run_multiplier(config)
    assert report.all_passed
    assert csv_text.startswith("index,sigma")


def test_verify_config_file(tmp_path):
    cfg = {"suite": "identities", "seed": 5, "trials": 5, "d": 3, "n": 12,
           "format": "json", "output": str(tmp_path / "from_config.json")}
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfg_path)]) == 0
    data = read_json(tmp_path / "from_config.json")
    assert data["suite"] == "identities"
    assert data["seed"] == 5

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["verify", "--config", str(bad)]) == 2


def config_text(**values) -> str:
    """A suite configuration of identities at d = 3, N = 6, 2 trials, with
    ``values`` as JSON text by key: Infinity and NaN have no json.dumps form
    that the strict reader of a report accepts, so the text is joined here."""
    fields = {"suite": '"identities"', "trials": "2", "d": "3", "n": "6", **values}
    return "{" + ", ".join(f'"{key}": {text}' for key, text in fields.items()) + "}"


# int() would run d = 4.9 as 4 and trials = true as 1, and raise an
# uncaught OverflowError on Infinity
@pytest.mark.parametrize("key,text", [
    ("d", "4.9"), ("trials", "true"), ("seed", "false"), ("n", "Infinity"),
    ("d", "-Infinity"), ("seed", "NaN"), ("n", '"1e3"'), ("trials", "[2]")])
def test_verify_config_refuses_sizes_that_are_no_integers(tmp_path, capsys, key, text):
    cfg_path, out = tmp_path / "suite.json", tmp_path / "report.json"
    cfg_path.write_text(config_text(**{key: text}))
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"error: {key} must be an integer" in capsys.readouterr().err


# each library entry point refuses a size that is no integer, where numpy
# would take d = 4.9 and trials = True for sizes or raise a TypeError of its own
@pytest.mark.parametrize("call,name", [
    (lambda: SuiteConfig(suite="identities", trials=True), "trials"),
    (lambda: SuiteConfig(suite="identities", n_points=6.5), "n"),
    (lambda: SuiteConfig(d=4.9), "d"),
    (lambda: SuiteConfig(seed=float("nan")), "seed"),
    (lambda: suites.run_gabor(True), "d"),
    (lambda: suites.run_gabor(4.9), "d"),
    (lambda: run_wavelet(d=True), "d"),
    (lambda: run_wavelet(d=64.5), "d"),
    (lambda: run_wavelet(d=64, n_a=np.float64(2.5)), "n_a"),
    (lambda: run_wavelet(d=64, n_b=False), "n_b"),
], ids=["suite-trials", "suite-n", "suite-d", "suite-seed", "gabor-bool", "gabor-float",
        "wavelet-d-bool", "wavelet-d-float", "wavelet-n_a", "wavelet-n_b"])
def test_the_library_refuses_sizes_that_are_no_integers(call, name):
    with pytest.raises(InvalidParameterError, match=f"^{name} must be an integer, got "):
        call()


def test_the_library_takes_numpy_integers_as_ints():
    config = SuiteConfig(suite="identities", seed=np.int64(5), trials=np.int32(2),
                         d=np.int16(3), n_points=np.uint8(6))
    assert config == SuiteConfig(suite="identities", seed=5, trials=2, d=3, n_points=6)
    assert {type(value) for value in (config.seed, config.trials, config.d,
                                      config.n_points)} == {int}
    json.dumps(run_suite(config).to_dict())


def test_the_gabor_run_reads_its_size_as_its_configuration_does():
    # an integral float or an integer string is the int, for the window too
    window = np.random.default_rng(4).standard_normal(8)
    expected = [strip_timestamps(suites.run_gabor(8, w).to_dict()) for w in ("gaussian", window)]
    for d in (8.0, "8", np.int16(8)):
        assert [strip_timestamps(suites.run_gabor(d, w).to_dict())
                for w in ("gaussian", window)] == expected, d


def test_verify_config_reads_integral_numbers_and_strings(tmp_path):
    cfg_path, out, flags = tmp_path / "suite.json", tmp_path / "r.json", tmp_path / "f.json"
    cfg_path.write_text(config_text(d="3.0", trials='"2"', seed='" 4"'))
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["verify", "--suite", "identities", "--trials", "2", "--d", "3", "--n", "6",
                 "--seed", "4", "--out", str(flags)]) == 0
    assert strip_timestamps(read_json(out)) == strip_timestamps(read_json(flags))


@pytest.mark.parametrize("flag", [
    ["--suite", "identities"], ["--seed", "5"], ["--trials", "50"], ["--d", "4"],
    ["--n", "12"], ["--tol", "trace_budget=1e-9"], ["--format", "csv"],
    ["--seed", "0", "--format", "json"]])
def test_verify_config_refuses_the_flags_it_replaces(tmp_path, capsys, flag):
    cfg_path, out = tmp_path / "suite.json", tmp_path / "report.json"
    cfg_path.write_text(json.dumps({"suite": "identities", "trials": 2, "d": 3, "n": 6}))
    assert main(["verify", "--config", str(cfg_path), *flag, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert all(name in err for name in flag[::2])
    # --out still overrides the output the file names
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert read_json(out)["suite"] == "identities"


def test_aborted_checks_write_valid_json(monkeypatch, tmp_path, capsys):
    def boom(cfg):
        raise RuntimeError("boom")

    def overflow(t):
        raise FloatingPointError("overflow")

    # a config row and two stacked rows whose measures raise
    errors = {"unbounded_norm_growth": (boom, "RuntimeError: boom"),
              "gabor_tightness": (boom, "RuntimeError: boom"),
              "certificates": (overflow, "FloatingPointError: overflow")}
    for check_id, (measure, _) in errors.items():
        monkeypatch.setitem(suites.CHECKS, check_id,
                            suites.CHECKS[check_id]._replace(measure=measure))
    out = tmp_path / "report.json"
    assert main(["verify", "--suite", "all", "--d", "4", "--n", "12", "--trials", "5",
                 "--out", str(out)]) == 1
    data = read_json(out)
    checks = {c["check_id"]: c for c in data["checks"]}
    assert sorted(c for c, check in checks.items() if not check["pass"]) == sorted(errors)
    for check_id, (_, error) in errors.items():
        aborted = checks[check_id]
        assert aborted["measured"] is None and aborted["budget"] is None
        assert aborted["tolerance"] == suites.CHECKS[check_id].tolerance
        assert aborted["error"] == error
    assert checks["tf_shift_unitarity"]["pass"]
    assert "error" not in checks["tf_shift_unitarity"]
    assert "measured=n/a budget=n/a" in capsys.readouterr().out

    assert Report.from_dict(data).to_dict() == data
    csv_out = tmp_path / "report.csv"
    assert main(["report", "--in", str(out), "--out", str(csv_out)]) == 1
    row = next(line for line in csv_out.read_text().splitlines()
               if line.startswith("gabor_tightness,"))
    assert row.endswith(",,,1e-10,false,,RuntimeError: boom")


def test_each_suite_has_the_rows_the_benchmark_expects(monkeypatch):
    # the benchmark counts an expected check id that a report lacks as a
    # failure, so without this a renamed or dropped row fails only there
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert {row.suite for row in suites.CHECKS.values()} == set(suites.SUITES) - {"all"}
    for suite in suites.SUITES[:-1]:
        assert sorted(workloads.SUITE_CHECK_IDS[suite]) == sorted(
            check_id for check_id, row in suites.CHECKS.items() if row.suite == suite)
    assert {row.gate for row in suites.CHECKS.values()} == {
        suites.MAX0, suites.MAX, suites.COUNT, suites.MAX_COUNT_SHOWN, suites.FLOOR,
        suites.RANGE}
    # the subcommand rows add no gate: each holds one value against its
    # tolerance, as a suite row does
    tables = (suites.GABOR_RUN, suites.WAVELET_RUN,
              {"equals_frame_operator": suites.EQUALS_FRAME_OPERATOR})
    rows = [row for table in tables for row in table.values()] + [suites.ADMISSIBLE]
    assert {row.gate for row in rows} <= {row.gate for row in suites.CHECKS.values()}
    # the gabor subcommand's tightness row is the suite's, in its own report
    assert suites.GABOR_RUN["gabor_tightness_residual"]._replace(
        suite="gabor", claim=suites.CHECKS["gabor_tightness"].claim) == suites.CHECKS[
        "gabor_tightness"]
    # the gabor subcommand writes the report the transforms workload reads
    assert sorted(workloads.SUITE_CHECK_IDS["gabor-run"]) == sorted(suites.GABOR_RUN)
    assert {row.suite for table in tables for row in table.values()} == {
        "gabor-run", "wavelet-run", "multiplier-run"}


def test_frame_iff_invertible_lets_unexpected_errors_abort(monkeypatch):
    def broken_singular_values(T):
        raise FloatingPointError("overflow")

    monkeypatch.setattr(suites.hb, "singular_values", broken_singular_values)
    with pytest.raises(FloatingPointError):
        suites.run_check(SuiteConfig(trials=2, d=3, n_points=8), "frame_iff_invertible")


def test_controlled_spectral_mapping_catches_relative_map_error(monkeypatch):
    cfg = SuiteConfig(trials=10)
    assert suites.run_check(cfg, "controlled_spectral_mapping").passed
    true_map = ctrl.ControlSpec.spectral_map

    def true_controls(specs, S, eigen=None):
        lam, U = np.linalg.eigh(S)
        phi = np.array([true_map(spec, row) for spec, row in zip(specs, lam)])
        return (U * phi[:, None, :]) @ U.conj().swapaxes(-1, -2)

    monkeypatch.setattr(ctrl.ControlSpec, "spectral_map",
                        lambda spec, lam: true_map(spec, lam) * (1 + 1e-10))
    monkeypatch.setattr(ctrl, "spectral_controls", true_controls)
    check = suites.run_check(cfg, "controlled_spectral_mapping")
    assert check.measured > 1e-11
    assert not check.passed


def test_run_gabor_takes_bounds_without_the_oracle(monkeypatch):
    def no_oracle(*args, **kwargs):
        raise AssertionError("hermitian_bounds was called")

    monkeypatch.setattr(suites.hb, "hermitian_bounds", no_oracle)
    window = np.random.default_rng(24).standard_normal(256)
    report = suites.run_gabor(256, window)
    assert [c.check_id for c in report.checks] == [
        "gabor_lower_bound", "gabor_upper_bound", "gabor_tightness_residual"]
    assert report.all_passed


def skew_gabor_operator(monkeypatch):
    """Add i 1e-8 ||g||^2 I, a skew-Hermitian term the Hermitian part (and so
    every eigenvalue) does not see, to each Gabor frame operator."""
    build = tf.gabor_operator

    def skewed(g):
        gsq = np.sum(np.abs(g) ** 2, axis=-1)[..., None, None]
        return build(g) + 1e-8j * gsq * np.eye(g.shape[-1])

    monkeypatch.setattr(tf, "gabor_operator", skewed)


def test_gabor_tightness_checks_see_a_skew_part(monkeypatch):
    skew_gabor_operator(monkeypatch)
    check = suites.run_check(SuiteConfig(suite="gabor"), "gabor_tightness")
    assert not check.passed
    assert check.measured >= 1e-8
    report = suites.run_gabor(64, "gaussian")
    passed = {c.check_id: c.passed for c in report.checks}
    assert passed == {"gabor_lower_bound": True, "gabor_upper_bound": True,
                      "gabor_tightness_residual": False}


def test_suite_config_from_dict_keeps_the_defaults():
    assert SuiteConfig.from_dict({}) == SuiteConfig()
    config = SuiteConfig.from_dict({"suite": "bounds", "seed": "3", "trials": 7,
                                    "d": 4, "n": 16, "format": "csv",
                                    "output": "r.csv",
                                    "tolerances": {"trace_budget": 1e-9}})
    assert config == SuiteConfig(suite="bounds", seed=3, trials=7, d=4, n_points=16,
                                 tolerances={"trace_budget": 1e-9},
                                 output="r.csv", format="csv")


@pytest.mark.parametrize("payload", [{"n_points": 16}, {"trials": 2, "sed": 1}, [1]])
def test_suite_config_from_dict_rejects_unknown_keys(payload):
    with pytest.raises(InvalidParameterError):
        SuiteConfig.from_dict(payload)


@pytest.mark.parametrize("payload", [
    {"suite": "gabor", "trials": 2, "n_points": 16},
    {"suite": "gabor", "trials": None},
    {"suite": "gabor", "tolerances": None},
])
def test_verify_config_with_unknown_key_or_bad_value_exits_2(tmp_path, capsys, payload):
    payload["output"] = str(tmp_path / "r.json")
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(payload))
    assert main(["verify", "--config", str(cfg_path)]) == 2
    assert not (tmp_path / "r.json").exists()
    assert "error:" in capsys.readouterr().err


def test_positive_symbol_coercivity_takes_one_eigvalsh_of_the_multiplier(monkeypatch):
    cfg = SuiteConfig(trials=6, d=4, n_points=12)
    ids = ("weighted_scaling", "positive_symbol_coercivity")
    before = [suites.run_check(cfg, check_id) for check_id in ids]
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    # outside run_suite each check draws and measures afresh
    assert [suites.run_check(cfg, check_id) for check_id in ids] == before
    assert all(check.passed for check in before)
    # over the stack of the six trials: the frame operator of F and that of
    # its reweighting by 3, then the frame operator of F and the multipliers,
    # whose extremes give lam_min and hb.is_positive
    assert calls == [(cfg.trials, 4, 4)] * 2 * 2


def counted_calls(monkeypatch, name):
    """The shapes of the arrays given to np.linalg.<name>, call by call."""
    calls, solver = [], getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


# the SVDs of one 64-trial block at d = 8, N = 64, each of a stack of 8 x 8
# matrices: identities takes the invertibility test of frame_iff_invertible
# and the inverse of S_F for the dual; controlled the inverses of both
# controls; weighted sigma_M alone, which the head of multiplier_dual's
# first 50 trials cuts from the block.  The convergence suite runs on the
# block's first 50 trials: the truncation rows take the three truncated
# deviations of each, the convergence rows on the head of 20 one SVD of the
# multiplier of each bump.  No SVD is taken only for a scale: the defects are
# Frobenius norms over ||X||_F / sqrt(d) or a spectrum held (hilbert's norm
# policy).
SVDS = {"identities": [(64, 8, 8)] * 2, "controlled": [(64, 8, 8)] * 2,
        "weighted": [(64, 8, 8)], "convergence": [(50, 3, 8, 8), (20, 8, 8), (20, 8, 8)]}


@pytest.mark.parametrize("suite", sorted(SVDS))
def test_the_algebra_suites_take_the_pinned_svds(monkeypatch, tmp_path, suite):
    calls = counted_calls(monkeypatch, "svd")
    assert main(["verify", "--suite", suite, "--d", "8", "--n", "64", "--trials", "64",
                 "--out", str(tmp_path / "r.json")]) == 0
    # the shapes pin the number of calls and of the matrices given to them
    assert calls == SVDS[suite]


# the eigen-solves of the same block, (eigh, eigvalsh) call by call, each of
# a stack of 8 x 8 matrices or of one: identities takes the bounds of S_F,
# of the canonical dual and of frame_iff_invertible's operator; bounds the
# eigh of bessel_sharpness beside the bounds of S_F, S_G, both perturbed
# frames and F with unit weights, then one 8 x 8 frame operator for each
# unbounded-family grid; convergence the bounds of S_F on the head of 50 and
# of S_G on the head of 20; controlled the eigh of S_F and of S_G for the
# two controls, the extremes of C and the spectrum of L; weighted the bounds
# of S_F, of its reweighting by 3, of S_G, of m F and m G, and the extremes
# of the coercive multiplier.  The non-finite test of hb._require_finite
# adds none.
EIGEN_SOLVES = {
    "identities": ([], [(64, 8, 8)] * 3),
    "bounds": ([(64, 8, 8)], [(64, 8, 8)] * 5 + [(8, 8)] * 3),
    "convergence": ([], [(50, 8, 8), (20, 8, 8)]),
    "controlled": ([(64, 8, 8)] * 2, [(64, 8, 8)] * 2),
    "weighted": ([], [(64, 8, 8)] * 6),
}


@pytest.mark.parametrize("suite", sorted(EIGEN_SOLVES))
def test_the_algebra_suites_take_the_pinned_eigen_solves(monkeypatch, tmp_path, suite):
    calls = tuple(counted_calls(monkeypatch, name) for name in ("eigh", "eigvalsh"))
    assert main(["verify", "--suite", suite, "--d", "8", "--n", "64", "--trials", "64",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert calls == EIGEN_SOLVES[suite]


def counted_grams(monkeypatch):
    """The shape of X of each weighted_gram(X, c, Y), call by call, in every
    module that holds the function (multiplier and controlled import it by
    name)."""
    calls, gram = [], fr.weighted_gram
    holders = [module for name, module in sys.modules.items()
               if name.split(".")[0] == "contframes"
               and getattr(module, "weighted_gram", None) is gram]

    def counted(X, c, Y):
        calls.append(np.shape(X))
        return gram(X, c, Y)

    for module in holders:
        monkeypatch.setattr(module, "weighted_gram", counted)
    return calls


# the Gram products sum_j c_j X_j Y_j^* of one 64-trial block at d = 8,
# N = 64: the shape of X, (trials, d, columns), call by call.  The convergence
# suite runs on the block's first 50 trials: the truncation rows form one
# product for each segment of dropped points, N/2, N/4 and N/8 columns, and
# S_F; the convergence rows on the head of 20 S_G and the multipliers of the
# two bumps.  The bounds suite forms S_F, S_G, M, sum_j w_j G_j F_j^* (of
# which both perturbed frame operators are formed) and F with unit weights,
# then the three unbounded-family grids.
GRAMS = {
    "identities": [(64, 8, 64)] * 13,
    "bounds": [(64, 8, 64)] * 5 + [(8, 100), (8, 1000), (8, 10000)],
    "convergence": [(50, 8, 32), (50, 8, 16), (50, 8, 8), (50, 8, 64)] + [(20, 8, 64)] * 3,
    "controlled": [(64, 8, 64)] * 5,
    "weighted": [(64, 8, 64)] * 6 + [(50, 8, 64), (64, 8, 64)],
}
# the calls a trial and their columns in d x N products, where a block holds
# one trial and no cap cuts it, as at d = 64, N = 4096 with 4 trials; the
# convergence suite formed 18 full products a trial before it took each step
# from the multiplier of its bump or of its dropped points, and the bounds
# suite 6 before it took the perturbed frame operators from S_G, S_F and
# sum_j w_j G_j F_j^*
GRAMS_A_TRIAL = {"identities": (13, 13), "bounds": (5, 5), "convergence": (7, 4.875),
                 "controlled": (5, 5), "weighted": (8, 8)}


@pytest.mark.parametrize("suite", sorted(GRAMS))
def test_the_algebra_suites_form_the_pinned_gram_products(monkeypatch, tmp_path, suite):
    calls = counted_grams(monkeypatch)
    args = ["verify", "--suite", suite, "--d", "8", "--n", "64", "--out", str(tmp_path / "r.json")]
    assert main(args + ["--trials", "64"]) == 0
    assert calls == GRAMS[suite]
    monkeypatch.setattr(suites, "BLOCK_ENTRIES", 8 * 64)
    calls.clear()
    assert main(args + ["--trials", "4"]) == 0
    trials = [shape for shape in calls if len(shape) == 3]  # (1, d, columns)
    assert (len(trials) / 4, sum(shape[-1] for shape in trials) / (4 * 64)) == GRAMS_A_TRIAL[suite]


# the work of one multiplier run at the pinned configuration, d = 3, N = 6:
# its 39 rows read one context of one trial, so a product or an SVD two
# suites share, S_F first, is formed once.  Gram products: the shape of X,
# (1, d, columns), call by call, d x N but for the truncation segments of 3
# and 2 points; the five suites on one-trial blocks form 38 (GRAMS_A_TRIAL),
# and the controlled suite's M is the identities suite's.
# SVDs: the inverse of S_F for the dual and the invertibility test, sigma_M,
# the truncated deviations at the two distinct cuts below N = 6 at once, the
# multiplier of each bump and the inverses of both controls.
MULTIPLIER_GRAMS = [(1, 3, 6)] * 16 + [(1, 3, 3), (1, 3, 2)] + [(1, 3, 6)] * 9
MULTIPLIER_SVDS = [(1, 3, 3)] * 3 + [(1, 2, 3, 3)] + [(1, 3, 3)] * 4


def test_a_multiplier_run_forms_the_pinned_gram_products_and_svds(monkeypatch, tmp_path):
    grams, svds = counted_grams(monkeypatch), counted_calls(monkeypatch, "svd")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(pinned_multiplier_config()))
    assert main(["multiplier", "--config", str(cfg_path), "--out", str(tmp_path / "r.json"),
                 "--sigma-csv", str(tmp_path / "s.csv")]) == 0
    assert (grams, svds) == (MULTIPLIER_GRAMS, MULTIPLIER_SVDS)


def test_a_singular_weighted_run_takes_one_svd(monkeypatch, tmp_path):
    # at N < d every multiplier is singular: sigma_M of the one block aborts
    # certificates and multiplier_dual, and nothing is drawn again
    calls = counted_calls(monkeypatch, "svd")
    assert main(["verify", "--suite", "weighted", "--d", "8", "--n", "4", "--trials", "5",
                 "--seed", "2", "--out", str(tmp_path / "r.json")]) == 1
    assert calls == [(5, 8, 8)]


def test_the_gabor_suite_takes_no_eigen_solve_and_no_svd(monkeypatch, tmp_path):
    # gabor_tightness measures ||S - ||g||^2 I||_F in one pass
    eigvalsh, svd = (counted_calls(monkeypatch, name) for name in ("eigvalsh", "svd"))
    assert main(["verify", "--suite", "gabor", "--d", "8", "--n", "64", "--trials", "64",
                 "--out", str(tmp_path / "r.json")]) == 0
    assert eigvalsh == svd == []


def test_the_gabor_command_takes_one_product_and_one_eigen_solve(monkeypatch):
    # the three rows read one Gabor operator, the bounds one eigvalsh of it
    products, operator = [], tf.gabor_operator

    def counted(g):
        products.append(g.shape)
        return operator(g)

    monkeypatch.setattr(tf, "gabor_operator", counted)
    eigvalsh, svd = (counted_calls(monkeypatch, name) for name in ("eigvalsh", "svd"))
    window = np.random.default_rng(24).standard_normal(256)
    assert suites.run_gabor(256, window).all_passed
    assert (products, eigvalsh, svd) == ([(1, 256)], [(1, 256, 256)], [])


def test_every_report_budget_is_its_tolerance(tmp_path):
    # the one budget a record has, in every report of every subcommand; a
    # check that aborted has none
    cfg_path, window = tmp_path / "config.json", tmp_path / "window.json"
    cfg_path.write_text(json.dumps(pinned_multiplier_config()))
    window.write_text(json.dumps([1e200, 0.0, 0.0, 0.0]))
    runs = {"gabor": (["gabor", "--d", "8"], 0),
            "overflow": (["gabor", "--d", "4", "--window", str(window)], 1),
            "wavelet": (["wavelet", "--d", "64", "--n-a", "64", "--band", "2", "8"], 0),
            "multiplier": (["multiplier", "--config", str(cfg_path)], 0),
            "verify": (["verify", "--suite", "all"], 0)}
    for name, (argv, code) in runs.items():
        out = tmp_path / f"{name}.json"
        assert main([*argv, "--out", str(out)]) == code
        checks = read_json(out)["checks"]
        assert checks and all(c["budget"] is None if "error" in c else
                              c["budget"] == c["tolerance"] for c in checks), name
    assert sum("error" in c for c in read_json(tmp_path / "overflow.json")["checks"]) == 2


def test_the_gabor_suite_never_builds_the_gabor_family(monkeypatch, tmp_path):
    # stft_matches_analysis takes the d modulations of one shift at a time,
    # d^2 entries a trial, never the d x d^2 family of all of them
    def family(*args, **kwargs):
        raise AssertionError("gabor_vectors was called")

    monkeypatch.setattr(tf, "gabor_vectors", family)
    assert main(["verify", "--suite", "gabor", "--d", "16", "--out",
                 str(tmp_path / "r.json")]) == 0


# the trial cap of each gabor row
GABOR_CAPS = {"gabor_tightness": 100, "stft_matches_analysis": 20, "stft_energy": 50,
              "stft_orthogonality": 100, "tf_shift_unitarity": 100}


def gabor_measures(monkeypatch) -> dict:
    """The trials and the sizes d that each gabor row measures from now on,
    row by row."""
    seen = {}
    for check_id, row in suites.CHECKS.items():
        if row.suite == "gabor":
            def counted(t, check_id=check_id, measure=row.measure):
                seen.setdefault(check_id, []).extend((i, t.tests.shape[-1]) for i in t.trials)
                return measure(t)

            monkeypatch.setitem(suites.CHECKS, check_id, row._replace(measure=counted))
    return seen


@pytest.mark.parametrize("flags,trials", [
    (["--trials", "3"], {c: 3 for c in GABOR_CAPS}), ([], GABOR_CAPS)])
def test_the_gabor_rows_measure_the_configured_trials(monkeypatch, tmp_path, flags, trials):
    # --trials reaches every row, each up to its cap
    seen = gabor_measures(monkeypatch)
    assert main(["verify", "--suite", "gabor", *flags, "--out", str(tmp_path / "r.json")]) == 0
    assert {c: [i for i, _ in values] for c, values in seen.items()} == {
        c: list(range(count)) for c, count in trials.items()}


def test_the_gabor_rows_measure_the_configured_d(monkeypatch, tmp_path):
    seen = gabor_measures(monkeypatch)
    reports = {}
    for d in (4, 8):
        out = tmp_path / f"d{d}.json"
        assert main(["verify", "--suite", "gabor", "--d", str(d), "--trials", "5",
                     "--out", str(out)]) == 0
        reports[d] = [c["measured"] for c in read_json(out)["checks"]]
        assert {size for values in seen.values() for _, size in values} == {d}
        seen.clear()
    assert reports[4] != reports[8]


def test_positive_symbol_coercivity_counts_non_hermitian_multipliers(monkeypatch):
    cfg = SuiteConfig(trials=3, d=4, n_points=12)
    weighted_gram = fr.weighted_gram

    def non_hermitian_multipliers(X, c, Y):
        # the multipliers' coefficients w m are complex, the frame operator's
        # weights w real
        out = weighted_gram(X, c, Y)
        if np.iscomplexobj(c):
            out = out + 1e-3 * np.triu(np.ones(out.shape[-2:]), 1)
        return out

    monkeypatch.setattr(fr, "weighted_gram", non_hermitian_multipliers)
    check = suites.run_check(cfg, "positive_symbol_coercivity")
    assert check.measured < 0.0 and not check.passed
