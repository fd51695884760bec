"""Certifying nonclassicality of a harmonic oscillator state.

The protocol measures sgn(q) at times 0, T/3 and 2T/3. Any classical
trajectory theory keeps the average positivity P3 at or below 2/3 when
the probing ratio tau = T/(2 pi / omega0) lies in [3/4, 3/2]. Quantum
mechanics can do better: with seven levels retained, the optimal state
reaches about 0.687 at tau = 1.
"""

import numpy as np

from dyncert import models, protocol

model = models.harmonic()

print("Truncation sweep at tau = 1 (violation first appears at n = 6):")
for n_max in range(3, 9):
    slc = protocol.truncated_slice(model, n_max, check=False)
    p3 = protocol.max_score(slc, 1.0).p3_max
    marker = "  <- violation" if p3 > 2.0 / 3.0 + 1e-12 else ""
    print(f"  n <= {n_max}: P3 = {p3:.6f}{marker}")

slc6 = protocol.truncated_slice(model, 6, check=False)
result = protocol.max_score(slc6, 1.0)
ref = protocol.reference_state("psi6", slc6)
overlap = abs(np.vdot(ref.amplitudes, result.state.amplitudes))
print(f"\nOptimal 7-level state overlaps the closed-form benchmark "
      f"to {overlap:.6f}")

print("\nBoundary check: at tau = 3/4 and 3/2 the quantum maximum "
      "collapses to the classical bound:")
for tau in (0.75, 1.5):
    print(f"  tau = {tau}: P3 = {protocol.max_score(slc6, tau).p3_max:.9f}")

print("\nFour levels suffice if tau is re-optimized:")
slc4 = protocol.truncated_slice(model, 4, check=False)
tau_star, p_star = protocol.maximize_over_tau(
    lambda t: protocol.p3_max(slc4, t))
print(f"  optimum P3 = {p_star:.6f} at tau = {tau_star:.4f}")
