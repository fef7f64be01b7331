"""One pass of a workload in a fresh interpreter.

Usage: ``python3 worker.py SPAWN_TIME SPEC_JSON``.  ``SPAWN_TIME`` is the
parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` covers interpreter start-up plus the import of ``contframes`` and
its CLI.  The spec names the source root, the argv lists to run through
``contframes.cli.main``, whether to trace and whether to time the reference
kernel after the imports and after each invocation.  The last stdout line is
one JSON object with the pass's measurements.
"""

import contextlib
import json
import os
import resource
import sys
import time

REFERENCE_CALLS = 2000


def reference_kernel():
    """A timer of fixed small-matrix work: products of an 8x64 complex matrix
    with its adjoint and their singular values, the kind of call that
    ``suites_small`` makes; like start-up, it is interpreter-bound.  It
    allocates a few KiB, so peak RSS is not moved, and its input depends
    neither on the seed nor on the program."""
    import numpy as np
    rng = np.random.default_rng(20111110)
    small = rng.standard_normal((8, 64)) + 1j * rng.standard_normal((8, 64))

    def timed() -> float:
        start = time.perf_counter()
        for _ in range(REFERENCE_CALLS):
            np.linalg.svd(small @ small.conj().T, compute_uv=False)
        return time.perf_counter() - start
    return timed


def cpu_time() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    spawned = float(sys.argv[1])
    spec = json.loads(sys.argv[2])
    sys.path.insert(0, spec["src"])
    import contframes
    from contframes import cli
    setup_s = time.monotonic() - spawned
    if not os.path.abspath(contframes.__file__).startswith(spec["src"] + os.sep):
        raise SystemExit(f"imported contframes from {contframes.__file__}, "
                         f"not from {spec['src']}")

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    reference = reference_kernel() if spec["reference"] else None
    refs = [reference()] if reference else []
    exit_codes, walls, cpus = [], [], []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        for argv in spec["argvs"]:
            cpu0, start = cpu_time(), time.perf_counter()
            exit_codes.append(cli.main(argv))
            walls.append(time.perf_counter() - start)
            cpus.append(cpu_time() - cpu0)
            if reference:
                refs.append(reference())

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": walls,  # per invocation
        "cpu_s": cpus,
        "setup_ref_s": refs[0] if refs else None,
        "ref_s": [(a + b) / 2 for a, b in zip(refs, refs[1:])],  # around each
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_codes": exit_codes,
        "layers": tracer.metrics() if tracer else None,
    }))


if __name__ == "__main__":
    main()
