"""From exact scores to simulated experiments and phase-space pictures.

run_protocol simulates the actual measurement procedure, in which each
round probes one of the three times uniformly at random and scores 1 with
the Born probability P_k that the position measured then is positive. It
draws that law per chunk of m rounds: the rounds at each time from
Multinomial(m; 1/3, 1/3, 1/3), and the scoring rounds at time k from
Binomial(m_k, P_k).
The Wigner function shows where the certified state hides its
nonclassicality.
"""

import numpy as np

from dyncert import models, phasespace, protocol, simulate

slc = protocol.truncated_slice(models.harmonic(), 6, check=False)
psi6 = protocol.reference_state("psi6", slc)
exact = protocol.score_state(psi6, 1.0)
print(f"Exact P3 of the benchmark state: {exact:.6f}")

est = simulate.run_protocol(psi6, 1.0, 200000, seed=7)
print(f"Monte Carlo (2e5 rounds):        {est.p3_hat:.6f} "
      f"+- {est.stderr:.6f}")

probs = protocol.round_probabilities(psi6, 1.0)
print("P(q > 0) at the three probing times: "
      + ", ".join(f"{p:.6f}" for p in probs))

print("\nThese are equal, and so are the three probing-time densities "
      "(that is what makes the state optimal):")
qs = np.linspace(-6, 6, 1201)
d0 = phasespace.marginal_density(psi6, 0.0, 1.0, qs)
d1 = phasespace.marginal_density(psi6, 1.0 / 3.0, 1.0, qs)
print(f"  max |rho_0 - rho_1| = {np.max(np.abs(d0 - d1)):.2e}")
print(f"  positive-side mass  = {np.trapezoid(d0[qs >= 0], qs[qs >= 0]):.6f}")

q_axis, p_axis = phasespace.default_axes(psi6, n_q=121, n_p=121)
grid = phasespace.wigner_cartesian(psi6, q_axis, p_axis)
print(f"\nWigner function: min = {grid.values.min():.4f} "
      f"(negativity certifies nonclassicality), integral = "
      f"{grid.integral():.6f}")

pend = protocol.truncated_slice(models.pendulum(-0.02), 6, check=False)
state = protocol.max_score(pend, 1.0).state
phis = np.linspace(-np.pi, np.pi, 121)
w = phasespace.wigner_angular(state, phis, phasespace.default_m_range(state))
print(f"Angular Wigner (pendulum): min = {w.values.min():.4f}, "
      f"sum rule = {w.integral():.6f}")
