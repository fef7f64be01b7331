"""Controls as preconditioners and the certificates of an invertible multiplier.

Run with: python demos/controlled_weighted.py
"""

import numpy as np

from contframes import (
    ControlSpec,
    MeasureSpace,
    SampledFrame,
    Symbol,
    controlled_bounds,
    controlled_frame_operator,
    dual_from_multiplier,
    duality_defect,
    frame_bounds,
    frame_operator,
    lower_bound_certificates,
    make_control,
    precondition_identity_residual,
)
from contframes.multiplier import multiplier

rng = np.random.default_rng(11)
n, d = 32, 5
space = MeasureSpace(np.arange(float(n))[:, None], rng.uniform(0.2, 2.0, n))
F = SampledFrame(space, rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)))
G = SampledFrame(space, rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)))
m = Symbol(rng.standard_normal(n) + 1j * rng.standard_normal(n), space)

print("== spectral controls commute with the frame operator by construction ==")
S = frame_operator(F)
for spec in (ControlSpec("inverse"), ControlSpec("sqrt"),
             ControlSpec("power", t=0.75)):
    C = make_control(spec, F)
    L = controlled_frame_operator(C, F)
    print(f"  {spec.kind:>8}: ||L - C S|| = {np.linalg.norm(L - C @ S, 2):.2e}, "
          f"controlled bounds {tuple(round(b, 4) for b in controlled_bounds(C, F))}")

print("\n== the inverse control preconditions the frame operator to identity ==")
C = make_control(ControlSpec("inverse"), F)
L = controlled_frame_operator(C, F)
print(f"||L - I|| = {np.linalg.norm(L - np.eye(d), 2):.2e}")

print("\n== undoing two controls around a mixed multiplier ==")
residual = precondition_identity_residual(
    ControlSpec("sqrt"), ControlSpec("power", t=-0.5), m, F, G)
print(f"relative defect: {residual:.2e}")

print("\n== an invertible multiplier certifies lower frame bounds ==")
report = lower_bound_certificates(m, F, G)
for cert in report.parts:
    floor = "-" if cert.floor is None else f"{cert.floor:.5f}"
    print(f"  part {cert.part}: measured {cert.measured:.5f}  floor {floor}  "
          f"pass {cert.passed}")

print("\n== and hands back a dual of the synthesis frame ==")
H = dual_from_multiplier(m, F, G)
print(f"identity defect of the induced dual pair: {duality_defect(H, G):.2e}")
print(f"G is a frame with bounds "
      f"({frame_bounds(G).lower:.4f}, {frame_bounds(G).upper:.4f})")
