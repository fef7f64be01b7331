import json

import numpy as np

from contframes.controlled import ControlSpec
from contframes.frame import SampledFrame
from contframes.hilbert import operator_from_dict, operator_to_dict, spectrum_to_csv
from contframes.measure import MeasureSpace, Symbol
from contframes.reporting import Check, Report


def test_measure_space_round_trip():
    rng = np.random.default_rng(0)
    space = MeasureSpace(rng.standard_normal((7, 2)), rng.uniform(0.1, 2.0, 7))
    again = MeasureSpace.from_dict(json.loads(json.dumps(space.to_dict())))
    np.testing.assert_array_equal(again.points, space.points)
    np.testing.assert_array_equal(again.weights, space.weights)


def test_symbol_round_trip():
    rng = np.random.default_rng(1)
    space = MeasureSpace(np.arange(5.0)[:, None], np.ones(5))
    m = Symbol(rng.standard_normal(5) + 1j * rng.standard_normal(5), space)
    again = Symbol.from_dict(json.loads(json.dumps(m.to_dict())), space)
    np.testing.assert_array_equal(again.values, m.values)


def test_frame_round_trip():
    rng = np.random.default_rng(2)
    space = MeasureSpace(np.arange(6.0)[:, None], rng.uniform(0.5, 1.5, 6))
    F = SampledFrame(space, rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6)))
    payload = json.loads(json.dumps(F.to_dict()))
    again = SampledFrame.from_dict(payload)
    assert payload["d"] == 3
    np.testing.assert_array_equal(again.vectors, F.vectors)
    np.testing.assert_array_equal(again.space.weights, space.weights)


def test_operator_round_trip():
    rng = np.random.default_rng(3)
    T = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    data = json.loads(json.dumps(operator_to_dict(T)))
    np.testing.assert_array_equal(operator_from_dict(data), T)


def test_control_spec_round_trip_via_json():
    spec = ControlSpec("affine", alpha=0.5, beta=2.0)
    again = ControlSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    power = ControlSpec.from_dict({"kind": "power", "t": 0.5})
    assert power.t == 0.5


def test_spectrum_csv_full_precision():
    value = 1.0 / 3.0
    text = spectrum_to_csv([value])
    assert text.splitlines()[0] == "index,sigma"
    assert float(text.splitlines()[1].split(",")[1]) == value


def test_report_round_trip_and_summary():
    report = Report(suite="identities", seed=3, started="t0", finished="t1")
    report.checks.append(Check("b_check", "claim b", 1.0, 2.0, 1e-10, True))
    report.checks.append(Check("a_check", "claim a", 3.0, 2.0, 1e-10, False, "boom"))
    data = json.loads(report.to_json())
    assert data["summary"] == {"total": 2, "passed": 1}
    # checks are sorted by identifier for stable output
    assert [c["check_id"] for c in data["checks"]] == ["a_check", "b_check"]
    again = Report.from_dict(data)
    assert again.summary == report.summary
    assert again.checks[0].detail == "boom"

    csv_text = report.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "check_id,claim,measured,budget,tolerance,pass,detail,error"
    assert lines[1] == "a_check,claim a,3.0,2.0,1e-10,false,boom,"
    assert len(lines) == 3
