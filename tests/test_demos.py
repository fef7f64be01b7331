"""Every demo runs to the end in process, with its output captured."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out.startswith("== ")
    assert "nan" not in out
