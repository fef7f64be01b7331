"""The benchmark's workloads: exact CLI argv lists, sizes and expected checks.

Each workload is a list of ``contframes`` CLI invocations that one fresh
interpreter runs in order (a closed loop with one client).  Argv entries are
templates: ``{seed}`` is the workload seed, ``{out_0}``, ``{out_1}``, ... are
the report paths of the invocations, ``{window}`` is the seeded Gabor window
file, and the remaining fields come from ``sizes``.

The seed reaches the program only through ``--seed`` and through the window
file passed as ``--window PATH``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Check ids each report must carry.  A report that drops one of these counts
# the missing check as failed, so a removed check cannot read as a speed-up.
SUITE_CHECK_IDS = {
    "identities": (
        "canonical_dual_pair", "difference_analysis", "difference_symbol",
        "difference_synthesis", "dual_bounds_inverse", "frame_factorization",
        "frame_iff_invertible", "multiplier_adjoint", "reconstruction",
        "reconstruction_swapped", "weighted_identity",
    ),
    "bounds": (
        "bessel_inequality", "bessel_sharpness", "discrete_bessel_norm_bound",
        "op_norm_budget", "perturb_lower", "perturb_upper",
        "schatten_budget_p15", "schatten_budget_p2", "schatten_budget_p3",
        "schatten_monotonicity", "trace_budget", "unbounded_bessel_cap",
        "unbounded_norm_growth",
    ),
    "convergence": (
        "frame_uniform_l1", "frame_uniform_l2", "symbol_convergence_p1",
        "symbol_convergence_p2", "symbol_convergence_pinf",
        "truncation_budget", "truncation_monotone",
    ),
    "gabor": (
        "gabor_tightness", "stft_energy", "stft_matches_analysis",
        "stft_orthogonality", "tf_shift_unitarity",
    ),
    "wavelet": (
        "admissibility_oracle", "admissibility_phase_invariance",
        "admissibility_scaling", "calderon_default", "calderon_refinement",
        "wavelet_band_constant", "wavelet_column_norms",
        "wavelet_diagonal_oracle", "wavelet_diagonality",
        "wavelet_shift_commutation",
    ),
    "controlled": (
        "controlled_bounds_map", "controlled_factorization",
        "controlled_implies_frame", "controlled_positivity",
        "controlled_spectral_mapping", "precondition_identity",
    ),
    "weighted": (
        "certificates", "multiplier_dual", "positive_symbol_coercivity",
        "weighted_scaling",
    ),
    "gabor-run": (
        "gabor_lower_bound", "gabor_tightness_residual", "gabor_upper_bound",
    ),
}


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    report: str  # key of SUITE_CHECK_IDS for the report it writes


@dataclass(frozen=True)
class Workload:
    name: str
    seed_role: str
    invocations: tuple[Invocation, ...]
    sizes: dict = field(default_factory=dict)
    # per-layer metrics this workload is expected to move (README.md)
    moves: tuple[str, ...] = ()
    # host-normalize its wall and CPU times (README.md, "Host-normalized times")
    normalize: bool = False

    def argv_lists(self, seed: int, workdir: Path, sizes: dict | None = None) -> list[list[str]]:
        values = {**self.sizes, **(sizes or {}), "seed": seed,
                  "window": str(workdir / "window.json")}
        values.update({f"out_{i}": str(workdir / f"report_{i}.json")
                       for i in range(len(self.invocations))})
        return [[a.format(**values) for a in inv.argv] for inv in self.invocations]

    def expected_ids(self) -> list[tuple[str, ...]]:
        return [SUITE_CHECK_IDS[inv.report] for inv in self.invocations]

    @property
    def expected_checks(self) -> int:
        return sum(len(ids) for ids in self.expected_ids())


def _verify(suite: str, index: int, sized: bool) -> Invocation:
    argv = ["verify", "--suite", suite, "--seed", "{seed}"]
    if sized:
        argv += ["--d", "{d}", "--n", "{n}", "--trials", "{trials}"]
    return Invocation(tuple(argv + ["--out", f"{{out_{index}}}"]), suite)


ALGEBRA = ("identities", "bounds", "convergence", "controlled", "weighted")
SMALL_SUITES = ("identities", "bounds", "convergence", "gabor", "controlled",
                "weighted")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="suites_small",
            seed_role="--seed of every verify invocation",
            invocations=tuple(_verify(s, i, sized=True)
                              for i, s in enumerate(SMALL_SUITES)),
            sizes={"d": 8, "n": 64, "trials": 200},
            normalize=True,
            moves=("hilbert.hermitian_bounds.self_s", "suites.random_frame.self_s",
                   "suites.random_instance.self_s",
                   "suites.random_invertible_instance.self_s",
                   "suites.random_invertible_instance.attempts_per_draw"),
        ),
        Workload(
            name="suites_large",
            seed_role="--seed of every verify invocation",
            invocations=tuple(_verify(s, i, sized=True)
                              for i, s in enumerate(ALGEBRA)),
            sizes={"d": 64, "n": 4096, "trials": 4},
            moves=("suites.random_frame.self_s", "frame.frame_operator.self_s",
                   "multiplier.multiplier.self_s", "frame.frame_operator.repeat_ratio",
                   "frame.frame_operator.gflop", "multiplier.multiplier.gflop"),
        ),
        Workload(
            name="transforms",
            seed_role="--seed of the wavelet verify; seeds the Gabor window file",
            invocations=(
                _verify("wavelet", 0, sized=False),
                Invocation(("gabor", "--d", "{gabor_d}", "--window", "{window}",
                            "--out", "{out_1}"), "gabor-run"),
            ),
            sizes={"gabor_d": 256},
            moves=("tf_frames.wavelet_frame.self_s",
                   "tf_frames.mexican_hat_fourier.self_s",
                   "tf_frames.wavelet_frame.gbytes", "tf_frames.gabor_frame.self_s",
                   "tf_frames.gabor_frame.gbytes", "frame.frame_operator.self_s",
                   "frame.frame_operator.repeat_ratio"),
        ),
    )
}


def write_inputs(workload: Workload, seed: int, workdir: Path,
                 sizes: dict | None = None) -> None:
    """Write the seeded input files the workload's argv names."""
    workdir.mkdir(parents=True, exist_ok=True)
    if "gabor_d" in workload.sizes:
        d = int({**workload.sizes, **(sizes or {})}["gabor_d"])
        rng = random.Random(seed)
        samples = [rng.gauss(0.0, 1.0) for _ in range(d)]
        (workdir / "window.json").write_text(json.dumps(samples))
