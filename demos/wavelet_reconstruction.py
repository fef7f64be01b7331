"""Sampled wavelet systems: admissibility, scale coverage, reconstruction.

Run with: python demos/wavelet_reconstruction.py
"""

import numpy as np

from contframes import (
    WaveletSpec,
    admissibility_constant,
    bandlimited_bump,
    calderon_residual,
    log_freq_grid,
    positive_axis_constant,
    wavelet_grid,
)
from contframes.tf_frames import dft_frequencies, scale_profile

wavelet = WaveletSpec()  # frequency profile gamma^2 exp(-gamma^2)

print("== admissibility constant by quadrature ==")
two_sided = log_freq_grid(1e-3, 10.0, 2000, two_sided=True)
c_full = admissibility_constant(wavelet, two_sided)
c_plus = positive_axis_constant(wavelet)
print(f"full-line constant {c_full:.8f} (closed form 0.25)")
print(f"positive-axis constant {c_plus:.8f} (half of the full constant)")

print("\n== the scale grid covers a band of frequencies ==")
d, a_min, a_max, n_a = 512, 2.0**-6, 4.0, 64
grid = wavelet_grid(a_min, a_max, n_a, 0.0, 1.0, d)
profile = scale_profile(wavelet, grid, d) / c_plus
freqs = dft_frequencies(d)
for gamma in (1, 2, 8, 32, 128):
    k = int(np.argmax(freqs == gamma))
    print(f"  frequency {gamma:>3}: scale quadrature / constant = {profile[k]:.4f}")

print("\n== reconstruction of a band-limited signal ==")
f = bandlimited_bump(d, (2.0, 8.0), 1.0)
residual = calderon_residual(wavelet, grid, f, c_plus=c_plus)
print(f"relative residual with {n_a} scale cells: {residual:.2e}")

fine = wavelet_grid(a_min, a_max, 2 * n_a, 0.0, 1.0, d)
residual_fine = calderon_residual(wavelet, fine, f, c_plus=c_plus)
print(f"relative residual with {2 * n_a} scale cells: {residual_fine:.2e}")
print(f"refinement ratio: {residual / residual_fine:.2f}")
