"""Reports are byte-identical, timestamps aside, across BLAS thread counts."""

import os
import re
import subprocess
import sys
from pathlib import Path

import contframes

SRC = str(Path(contframes.__file__).resolve().parents[1])
TIMESTAMP = re.compile(r'^  "(started|finished)": .*$', re.MULTILINE)


def verify_report(tmp_path: Path, threads: str) -> str:
    out = tmp_path / f"report_{threads}.json"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    subprocess.run(
        [sys.executable, "-m", "contframes.cli", "verify", "--suite", "identities",
         "--d", "8", "--n", "64", "--trials", "5", "--out", str(out)],
        env=env, check=True, capture_output=True, timeout=60,
    )
    return out.read_text()


def test_identities_report_independent_of_blas_threads(tmp_path):
    one = verify_report(tmp_path, "1")
    two = verify_report(tmp_path, "2")
    assert len(TIMESTAMP.findall(one)) == 2
    assert TIMESTAMP.sub("", one) == TIMESTAMP.sub("", two)
