"""Cyclic Gabor systems: exact tightness and the coefficient pairing identity.

Run with: python demos/gabor_tightness.py
"""

import numpy as np

from contframes import (
    frame_bounds,
    analysis,
    frame_operator,
    gabor_frame,
    gabor_frame_operator,
    gaussian_window,
    stft,
    stft_orthogonality_residual,
)

rng = np.random.default_rng(5)

print("== all modulated translates with weight 1/d form an exactly tight frame ==")
for d in (4, 8, 16, 64):
    g = gaussian_window(d)
    S = frame_operator(gabor_frame(g, d))
    gsq = float(np.linalg.norm(g) ** 2)
    resid = np.linalg.norm(S - gsq * np.eye(d), 2) / gsq
    bounds = frame_bounds(gabor_frame(g, d))
    print(f"  d = {d:>2}: ||g||^2 = {gsq:8.4f}  A = {bounds.lower:8.4f}  "
          f"B = {bounds.upper:8.4f}  tightness defect {resid:.2e}")

print("\n== the same holds for any nonzero window ==")
for trial in range(3):
    d = 16
    g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    S = frame_operator(gabor_frame(g, d))
    gsq = float(np.linalg.norm(g) ** 2)
    print(f"  random window {trial}: defect "
          f"{np.linalg.norm(S - gsq * np.eye(d), 2) / gsq:.2e}")

print("\n== coefficient energy identity ==")
d = 32
g = gaussian_window(d)
f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
coeffs = stft(f, g)
energy = float(np.sum(coeffs.space.weights * np.abs(coeffs.values) ** 2))
print(f"sum of weighted |coefficients|^2 = {energy:.6f}")
print(f"||g||^2 ||f||^2                 = "
      f"{float(np.linalg.norm(g) ** 2 * np.linalg.norm(f) ** 2):.6f}")

print("\n== pairing two analyses factors into two inner products ==")
vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(4)]
vecs = [v / np.linalg.norm(v) for v in vecs]
print(f"orthogonality relation residual: "
      f"{stft_orthogonality_residual(*vecs):.2e}")

print("\n== structured paths agree with the explicit d x d^2 family ==")
d = 64
g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
f = rng.standard_normal(d) + 1j * rng.standard_normal(d)
dense = gabor_frame(g, d)
S_dense = frame_operator(dense)
S = gabor_frame_operator(g, d)  # (T T^*) o (Phi Phi^*) / d, no d x d^2 matrix
print(f"Hadamard-product frame operator vs dense: "
      f"{np.linalg.norm(S - S_dense, 2) / np.linalg.norm(S_dense, 2):.2e} relative")
c_dense = analysis(dense, f)
c = stft(f, g).values  # d FFTs of length d
print(f"FFT short-time transform vs dense analysis: "
      f"{np.linalg.norm(c - c_dense) / np.linalg.norm(c_dense):.2e} relative")
