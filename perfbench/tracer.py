"""Per-layer tracing, installed from outside the program.

``Tracer.install`` replaces every public function of each layer module (and
the public methods and ``__post_init__`` of the classes it defines) with a
wrapper that records a span: calls and self time, where self time is the
span's duration minus the time its child spans cover.  The program's code is
not modified; a module that imported a function by name gets the wrapper too,
and so do the module-level dicts and lists that hold functions (such as the
suite check table).

The wrapper's own cost, calibrated on a no-op per install, and the argument
bookkeeping for the computed counts are counted as covered by the child, so
they land in no span's self time; ``trace.overhead_ratio`` still shows the
whole cost of tracing.

Only the traced passes install it; end-to-end metrics come from untraced
passes.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time

LAYERS = ("measure", "hilbert", "frame", "multiplier", "controlled", "tf_frames",
          "suites", "reporting", "cli")

# functions reported one by one; all other wrapped functions only count
# towards their layer's totals
FUNCTIONS = {
    "hilbert": ("hermitian_bounds", "singular_values", "invert"),
    "frame": ("frame_operator", "frame_bounds", "analysis", "synthesis",
              "canonical_dual", "SampledFrame.init"),
    "measure": ("MeasureSpace.init",),
    "multiplier": ("multiplier", "bound_budget", "convergence_experiment",
                   "lower_bound_certificates"),
    "controlled": ("make_control",),
    "tf_frames": ("gabor_frame", "wavelet_frame", "scale_profile",
                  "calderon_residual", "mexican_hat_fourier"),
    "suites": ("random_frame", "random_instance", "random_invertible_instance"),
}

# counts computed from argument shapes, not measured
COMPUTED = {
    "frame.frame_operator.gflop": "GFLOP",
    "multiplier.multiplier.gflop": "GFLOP",
    "tf_frames.wavelet_frame.gbytes": "GB",
    "tf_frames.gabor_frame.gbytes": "GB",
}

# the functions whose arguments feed COMPUTED
WATCHED = {name.rsplit(".", 1)[0] for name in COMPUTED}

DRAW = "suites.random_invertible_instance"

RATIOS = ("frame.frame_operator.repeat_ratio",
          "suites.random_invertible_instance.attempts_per_draw",
          "trace.overhead_ratio")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for layer, names in FUNCTIONS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    units.update(COMPUTED)
    units.update({name: "ratio" for name in RATIOS})
    return units


def _fingerprint(vectors) -> bytes:
    """Content key of a frame's vector array, from a strided sample."""
    flat = vectors.reshape(-1)
    step = max(1, flat.size // 4096)
    digest = hashlib.blake2b(flat[::step].tobytes(), digest_size=16)
    digest.update(repr(vectors.shape).encode())
    return digest.digest()


def _rebind(container, replaced, depth: int = 2) -> None:
    """Replace wrapped functions held in dicts and lists, in place, down to
    ``depth`` levels of nesting."""
    if isinstance(container, dict):
        items = list(container.items())
    elif isinstance(container, list):
        items = list(enumerate(container))
    else:
        return
    for key, value in items:
        if id(value) in replaced:
            container[key] = replaced[id(value)]
        elif depth > 1:
            _rebind(value, replaced, depth - 1)


class Tracer:
    def __init__(self):
        self.stats = {}
        self.computed = dict.fromkeys(COMPUTED, 0.0)
        self.frames_seen = set()
        self.attempts = 0
        self._child = []
        self._cost = 0.0  # wrapper time per call outside the span, calibrated

    # -- recording -----------------------------------------------------------

    def _on_call(self, name, args):
        if name == "frame.frame_operator":
            vectors = args["F"].vectors
            d, n = vectors.shape
            self.computed["frame.frame_operator.gflop"] += 8e-9 * d * d * n
            self.frames_seen.add(_fingerprint(vectors))
        elif name == "multiplier.multiplier":
            d, n = args["F"].vectors.shape
            self.computed["multiplier.multiplier.gflop"] += 8e-9 * d * d * n
        elif name == "tf_frames.wavelet_frame":
            self.computed["tf_frames.wavelet_frame.gbytes"] += (
                16e-9 * args["d"] * args["grid"].n_points)
        elif name == "tf_frames.gabor_frame":
            self.computed["tf_frames.gabor_frame.gbytes"] += 16e-9 * args["d"] ** 3

    def wrap(self, name, fn):
        """fn inside a span named ``name``; the caller's span counts the
        wrapper's calibrated cost and the bookkeeping for the computed counts
        as covered, so neither is booked as anyone's self time."""
        child = self._child  # per open span: time covered by its children
        clock = time.perf_counter
        record = self.stats.setdefault(name, [0, 0.0])  # calls, self time

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                record[0] += 1
                record[1] += elapsed - child.pop()
                if child:
                    child[-1] += elapsed + self._cost

        if name in WATCHED:
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def watched(*args, **kwargs):
                start = clock()
                self._on_call(name, signature.bind(*args, **kwargs).arguments)
                if child:
                    child[-1] += clock() - start
                return timed(*args, **kwargs)
            return watched
        if name == DRAW:
            svd = self.stats.setdefault("hilbert.singular_values", [0, 0.0])

            @functools.wraps(fn)
            def draw(*args, **kwargs):
                before = svd[0]
                try:
                    return timed(*args, **kwargs)
                finally:  # each attempt takes exactly one SVD
                    self.attempts += svd[0] - before
            return draw
        return timed

    # -- installation --------------------------------------------------------

    def calibrate(self, calls: int = 20000) -> None:
        """Measure the wrapper's cost per call outside its own span."""
        noop = self.wrap("trace.calibration", lambda: None)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        total = time.perf_counter() - start
        self._cost = max(0.0, (total - self.stats.pop("trace.calibration")[1]) / calls)

    def install(self) -> None:
        """Wrap every layer's public callables and rebind every reference."""
        self.calibrate()
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"contframes.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".", 1)[0] != "contframes":
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])
                else:  # e.g. the lists of suites.SUITE_CHECKS
                    _rebind(obj, replaced)

    def _wrap_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            if attr == "__post_init__":
                label = f"{layer}.{cls.__name__}.init"
            elif attr.startswith("_"):
                continue
            else:
                label = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self.wrap(label, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(label, raw))

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far (no overhead ratio)."""
        def stat(name, i):
            return self.stats.get(name, (0, 0.0))[i]

        out = {}
        for layer in LAYERS:
            names = [n for n in self.stats if n.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(stat(n, 0) for n in names)
            out[f"{layer}.self_s"] = sum(stat(n, 1) for n in names)
        for layer, names in FUNCTIONS.items():
            for name in names:
                key = f"{layer}.{name}"
                out[f"{key}.calls"] = stat(key, 0)
                out[f"{key}.self_s"] = stat(key, 1)
        out.update(self.computed)
        op_calls = stat("frame.frame_operator", 0)
        out["frame.frame_operator.repeat_ratio"] = (
            op_calls / len(self.frames_seen) if self.frames_seen else 0.0)
        draws = stat(DRAW, 0)
        out[f"{DRAW}.attempts_per_draw"] = self.attempts / draws if draws else 0.0
        return out
