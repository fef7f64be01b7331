"""The allocator setting of the command line.

``contframes.cli.main`` starts glibc's allocator at its largest dynamic
thresholds, so the d x N temporaries of a command reuse freed heap pages;
the library API leaves the allocator of the importing process alone.
"""

import ctypes
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

import contframes
from contframes.cli import main

SRC = str(Path(contframes.__file__).resolve().parents[1])
TIMESTAMP = re.compile(r'^  "(started|finished)": .*$', re.MULTILINE)
ARGV = ["verify", "--suite", "identities", "--d", "3", "--n", "6", "--trials", "2"]

# mallopt(M_MMAP_THRESHOLD = -3, 32 MiB) and mallopt(M_TRIM_THRESHOLD = -1, 64 MiB)
THRESHOLDS = [(-3, 32 * 2**20), (-1, 64 * 2**20)]


class LibraryWithoutMallopt:
    def __init__(self, name):
        pass


def no_library(name):
    raise OSError("no C library")


@pytest.fixture
def recorded(monkeypatch):
    """The (param, value) of each mallopt call, with ctypes.CDLL a C library
    whose mallopt records them."""
    calls = []

    class Library:
        def __init__(self, name):
            self.mallopt = lambda param, value: calls.append((param, value))

    monkeypatch.setattr(ctypes, "CDLL", Library)
    return calls


def test_main_sets_the_two_heap_thresholds(recorded, tmp_path):
    assert main([*ARGV, "--out", str(tmp_path / "r.json")]) == 0
    assert recorded == THRESHOLDS


def test_the_library_api_sets_no_threshold(recorded):
    report = contframes.run_suite(contframes.SuiteConfig(suite="identities", d=3, n_points=6,
                                                         trials=2))
    assert report.all_passed and recorded == []


# a fresh interpreter with mallopt recorded before contframes is imported:
# the import and a suite run print the calls they made
LIBRARY_CHILD = """
import ctypes, json
calls = []
class Library:
    def __init__(self, name):
        self.mallopt = lambda param, value: calls.append((param, value))
ctypes.CDLL = Library
import contframes
from contframes import suites
imported = list(calls)
assert suites.run_suite(suites.SuiteConfig(suite="identities", d=3, n_points=6, trials=2)).all_passed
print(json.dumps([imported, calls]))
"""


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)


def test_importing_the_package_sets_no_threshold():
    child = subprocess.run([sys.executable, "-c", LIBRARY_CHILD], env=child_env(),
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == [[], []]


@pytest.mark.parametrize("library", [LibraryWithoutMallopt, no_library])
def test_main_runs_as_before_without_mallopt(monkeypatch, tmp_path, library):
    out = tmp_path / "r.json"
    assert main([*ARGV, "--out", str(out)]) == 0
    monkeypatch.setattr(ctypes, "CDLL", library)
    assert main([*ARGV, "--out", str(tmp_path / "without.json")]) == 0
    assert (TIMESTAMP.sub("", (tmp_path / "without.json").read_text())
            == TIMESTAMP.sub("", out.read_text()))


def has_glibc_mallopt() -> bool:
    if platform.libc_ver()[0] != "glibc":
        return False
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


# one 64 x 4096 identities run in a fresh interpreter: its minor page faults
# during main, and the pages of its peak RSS rise.  The rise is read from
# /proc, VmHWM after less VmRSS before: ru_maxrss starts at the parent's
# peak across exec, so it would hide the rise under a larger parent
FAULTS_CHILD = """
import contextlib, json, os, resource, sys
from contframes.cli import main

def status(key):
    with open("/proc/self/status") as lines:
        return next(int(line.split()[1]) for line in lines if line.startswith(key + ":"))

rss, faults = status("VmRSS"), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
    code = main(["verify", "--suite", "identities", "--d", "64", "--n", "4096",
                 "--trials", "2", "--out", sys.argv[1]])
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
pages = (status("VmHWM") - rss) * 1024 // os.sysconf("SC_PAGE_SIZE")
print(json.dumps([code, faults, pages]))
"""


@pytest.mark.skipif(not (has_glibc_mallopt() and os.path.exists("/proc/self/status")),
                    reason="needs glibc's mallopt and /proc/self/status")
def test_a_large_run_faults_each_page_in_at_most_once(tmp_path):
    # with glibc's default thresholds a freed 4 MiB temporary goes back to
    # the kernel and the next one faults its pages in again: about 1.9
    # faults per page of the peak RSS rise; with the pages kept, about 0.4
    child = subprocess.run([sys.executable, "-c", FAULTS_CHILD, str(tmp_path / "r.json")],
                           env=child_env(), capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    code, faults, pages = json.loads(child.stdout)
    assert code == 0 and pages > 0
    assert faults <= pages, (faults, pages)
