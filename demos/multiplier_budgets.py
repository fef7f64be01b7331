"""Frame multipliers: assembly, adjoint, norm budgets, truncation decay.

Run with: python demos/multiplier_budgets.py
"""

import math

import numpy as np

from contframes import (
    MeasureSpace,
    SampledFrame,
    Symbol,
    bound_budget,
    convergence_experiment,
    diag_singular_values,
    frame_operator,
    truncate_symbol,
)
from contframes.multiplier import multiplier

rng = np.random.default_rng(7)
n, d = 40, 6
space = MeasureSpace(np.arange(float(n))[:, None], rng.uniform(0.2, 2.0, n))
F = SampledFrame(space, rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)))
G = SampledFrame(space, rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n)))
m = Symbol(rng.standard_normal(n) + 1j * rng.standard_normal(n), space)

print("== a multiplier inserts the symbol between analysis and synthesis ==")
M = multiplier(m, F, G)
print(f"operator shape {M.shape}, unit symbol against one frame recovers the "
      f"frame operator to "
      f"{np.linalg.norm(multiplier(np.ones(n), F, F) - frame_operator(F), 2):.2e}")

print("\n== adjoint identity ==")
defect = np.linalg.norm(M.conj().T - multiplier(m.values.conj(), G, F), 2)
print(f"||M* - M(conj m, G, F)|| = {defect:.2e}")

print("\n== pointwise multiplication spectrum ==")
print("largest |m_j| values:", np.round(diag_singular_values(m)[:5], 4))

print("\n== every Schatten norm sits under its budget ==")
actuals, budgets = bound_budget(m, F, G)
for p, actual in actuals.items():
    tag = "inf" if p == math.inf else f"{p:g}"
    print(f"  p = {tag:>4}: actual {actual:9.4f}  budget {budgets[p]:9.4f}  "
          f"within {actual <= budgets[p] + 1e-10}")

print("\n== truncating the symbol by largest modulus converges under budget ==")
pos = Symbol(rng.uniform(0.0, 3.0, n).astype(complex), space)
order = np.argsort(np.abs(pos.values))[::-1]
schedule = [truncate_symbol(pos, order[:c]) for c in (5, 10, 20, 40)]
_, deviations, step_budgets = convergence_experiment("symbol_p", pos, F, F, schedule,
                                                    p=math.inf)
for keep, deviation, budget in zip((5, 10, 20, 40), deviations, step_budgets):
    print(f"  keep {keep:>2}: ||M_n - M|| = {deviation:9.4f}  budget {budget:9.4f}")
print(f"monotone decrease: {bool(np.all(np.diff(deviations) <= 1e-10))}, "
      f"all dominated: {bool(np.all(deviations <= step_budgets + 1e-10))}")
