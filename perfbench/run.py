"""Benchmark of the contframes CLI: time and memory to a verification verdict.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run is a closed loop with one client.  Each pass runs the workload's CLI
invocations through ``contframes.cli.main`` in a fresh interpreter, so
per-process caches start cold as they do for a CLI user; passes repeat until
``--seconds`` have elapsed and every timing is the median over the passes.
BLAS threads stay at the machine default, which the host line records.

The host's speed drifts by tens of percent within seconds (shared machine).
So interpreter-bound times are host-normalized by a fixed small-matrix
reference kernel timed in the same process: multiplied by ``REFERENCE_S``
over the reference time.  ``setup_s`` uses the reference timed right after
the imports.  For ``suites_small``, whose time is small-matrix calls, each
invocation's wall and CPU times use the mean of the references timed before
and after it.  The raw medians are printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, the traced over
untraced wall time, and fails the run if tracing changed any report.

Every report is graded: it must parse as strict JSON (no NaN or Infinity),
carry every expected check id, and agree with the exit code.  Failing,
aborted and missing checks are counted in ``failed`` out of ``attempted``
expected checks; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_units
from workloads import WORKLOADS, Workload, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUPS_PER_PASS = 2  # import-only interpreters before each untraced pass
DEADLINE_S = 150.0  # start no pass that could end after this
# nominal time of worker.reference_kernel, about its time on the baseline host
REFERENCE_S = 0.045
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ---------------------------------------------------------------------------
# grading reports
# ---------------------------------------------------------------------------

def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def strict_loads(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def without_timestamps(text: str) -> str:
    """Report text with the started/finished values blanked."""
    return re.sub(r'"(started|finished)": "[^"]*"', r'"\1": ""', text)


def grade(text: str | None, expected: tuple[str, ...], exit_code: int | None):
    """(failed check ids, problems) of one report against its expected ids.

    A missing or unparseable report fails every expected check.  Problems
    are defects of the output itself: they make the run incorrect.
    """
    if text is None:
        return list(expected), ["no report written"]
    try:
        checks = {c["check_id"]: c for c in strict_loads(text)["checks"]}
    except (ValueError, KeyError, TypeError) as exc:
        return list(expected), [f"report rejected: {exc}"]
    problems = [f"missing check {cid}" for cid in expected if cid not in checks]
    for cid, check in checks.items():
        measured = check.get("measured")
        if not isinstance(measured, (int, float)) or isinstance(measured, bool):
            problems.append(f"check {cid} aborted: {check.get('detail', '')}")
    failed = [cid for cid in expected if checks.get(cid, {}).get("pass") is not True]
    implied = 0 if all(c.get("pass") is True for c in checks.values()) else 1
    if exit_code != implied:
        problems.append(f"exit code {exit_code}, report implies {implied}")
    return failed, problems


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def spawn(argvs: list[list[str]], traced: bool, timeout: float,
          reference: bool = False) -> dict:
    """Run one pass in a fresh interpreter and return its measurements."""
    spec = json.dumps({"src": str(SRC), "argvs": argvs, "trace": traced,
                       "reference": reference})
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), repr(spawned), spec],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_pass(workload: Workload, argvs, traced: bool, timeout: float) -> dict:
    """One graded pass: measurements, failed check ids, problems, reports."""
    outs = [Path(argv[argv.index("--out") + 1]) for argv in argvs]
    for out in outs:
        out.unlink(missing_ok=True)
    try:
        result = spawn(argvs, traced, timeout, workload.normalize)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        failed = [cid for ids in workload.expected_ids() for cid in ids]
        return {"failed": failed, "problems": [f"pass failed: {exc}"], "reports": None}
    pass_times(result, workload.normalize)
    result["failed"], result["problems"], result["reports"] = [], [], []
    for out, expected, code in zip(outs, workload.expected_ids(), result["exit_codes"]):
        text = out.read_text() if out.exists() else None
        failed, problems = grade(text, expected, code)
        result["failed"] += failed
        result["problems"] += problems
        result["reports"].append(None if text is None else without_timestamps(text))
    return result


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        sizes: dict | None = None) -> dict:
    """Measure ``workload`` for ``seconds`` and return the benchmark result."""
    workdir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        write_inputs(workload, seed, workdir, sizes)
        argvs = workload.argv_lists(seed, workdir, sizes)
        spawn([], False, DEADLINE_S)  # writes bytecode caches; not timed
        passes, durations, setups = [], [], []
        began = time.monotonic()
        while True:
            traced = trace and len(passes) % 2 == 1
            started = time.monotonic()
            if not trace:
                for _ in range(SETUPS_PER_PASS):
                    one = spawn([], False, DEADLINE_S, reference=True)
                    setups.append((one["setup_s"], one["setup_ref_s"]))
            passes.append(run_pass(workload, argvs, traced,
                                   DEADLINE_S - (time.monotonic() - began)))
            passes[-1]["traced"] = traced
            durations.append(time.monotonic() - started)
            # stop before a pass that would likely end after the budget
            elapsed = time.monotonic() - began
            expected_end = elapsed + statistics.median(durations)
            if len(passes) >= (2 if trace else 1) and (
                    expected_end > seconds or elapsed + max(durations) > DEADLINE_S):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return summarize(workload, passes, setups, trace)


def normalized(raw: float, ref_s: float) -> float:
    """A raw time scaled to a host that runs the reference in REFERENCE_S."""
    return raw * REFERENCE_S / ref_s


def pass_times(result: dict, normalize: bool) -> None:
    """Turn a pass's per-invocation wall and CPU times into the pass's
    times, normalized invocation by invocation if asked; keep the raw sums."""
    result["raw"] = {name: sum(result[name]) for name in ("wall_s", "cpu_s")}
    for name in ("wall_s", "cpu_s"):
        result[name] = (sum(map(normalized, result[name], result["ref_s"]))
                        if normalize else result["raw"][name])


def summarize(workload: Workload, passes: list[dict],
              setups: list[tuple[float, float]], trace: bool) -> dict:
    """The result of a run from its passes and the (set-up time, reference
    time) pairs of its import-only interpreters."""
    problems = [p for one in passes for p in one["problems"]]
    reports = [one["reports"] for one in passes if one["reports"] is not None]
    if any(r != reports[0] for r in reports[1:]):
        problems.append("reports differ between passes of one seed"
                        + (" (traced vs untraced)" if trace else ""))
    measured = [one for one in passes if "wall_s" in one]
    result = {
        "correct": not problems and len(measured) == len(passes),
        "attempted": workload.expected_checks * len(passes),
        "failed": sum(len(one["failed"]) for one in passes),
        "metrics": {},
        "problems": problems,
        "failed_ids": sorted({cid for one in passes for cid in one["failed"]}),
        "passes": len(passes),
    }
    if len(measured) != len(passes):
        return result
    if not trace:
        for name, unit in END_TO_END.items():
            if name == "setup_s":
                values = [normalized(*pair) for pair in setups]
            else:
                values = [one[name] for one in measured]
            result["metrics"][name] = {"value": statistics.median(values),
                                       "unit": unit, "samples": values}
        result["metrics"]["setup_s"]["raw"] = statistics.median(s for s, _ in setups)
        if workload.normalize:
            for name in ("wall_s", "cpu_s"):
                result["metrics"][name]["raw"] = statistics.median(
                    one["raw"][name] for one in measured)
        if workload.normalize:
            result["ref_s"] = statistics.median(r for one in measured for r in one["ref_s"])
        return result
    traced = [one for one in measured if one["traced"]]
    plain_wall = statistics.median(one["wall_s"] for one in measured if not one["traced"])
    for name, unit in metric_units().items():
        if name == "trace.overhead_ratio":
            samples = [one["wall_s"] / plain_wall for one in traced]
        else:
            samples = [one["layers"][name] for one in traced]
        result["metrics"][name] = {"value": statistics.median(samples),
                                   "unit": unit, "samples": samples}
    return result


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def host_info() -> dict:
    """Machine facts kept apart from the metrics."""
    import numpy
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def print_result(workload: Workload, seed: int, result: dict) -> None:
    print(f"workload {workload.name}, seed {seed}: {result['passes']} passes, "
          "closed loop, one client, a fresh interpreter per pass")
    print(f"seed role: {workload.seed_role}")
    print("expected to move: " + ", ".join(workload.moves))
    print("host " + json.dumps(host_info(), sort_keys=True))
    normalized_names = "setup_s, wall_s and cpu_s are" if "ref_s" in result else "setup_s is"
    if result["metrics"]:
        print(f"{normalized_names} host-normalized to a reference kernel "
              f"time of {REFERENCE_S} s" + (f" (median here {result['ref_s']:.4g} s)"
                                            if "ref_s" in result else ""))
    for name, metric in result["metrics"].items():
        samples = " ".join(f"{v:.4g}" for v in metric["samples"])
        raw = f"raw median {metric['raw']:.4g}; " if "raw" in metric else ""
        print(f"{name} {metric['value']:.6g} {metric['unit']} "
              f"({raw}median of {len(metric['samples'])}: {samples})")
    ratio = result["failed"] / result["attempted"]
    print(f"fail_ratio {ratio:.6g} ratio ({result['failed']} of "
          f"{result['attempted']} expected checks failed)")
    for cid in result["failed_ids"]:
        print(f"failed check: {cid}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not math.isfinite(args.seconds) or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not (SRC / "contframes" / "cli.py").is_file():
        print(f"error: no contframes sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print_result(workload, args.seed,
                 run(workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
