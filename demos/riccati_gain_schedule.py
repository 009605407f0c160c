"""Linear-quadratic goodwill tracking.

The value function is v(t, x) = -P(t) x^2 with P solving a terminal
value Riccati problem, and the optimal spend is proportional feedback
u = G(t) x. Signal-dependent noise (sigma2 > 0) can make the problem
ill posed beyond a critical horizon; this script shows both regimes.
"""

import numpy as np

from adkit import (
    ModelParams,
    closed_loop_mean,
    lq_feedback,
    riccati_integrate,
)

p = ModelParams(rho=0.5, c=0.1, T=1.0, sigma1=0.2, sigma2=0.5, gamma0=0.5)
sol = riccati_integrate(p)

print("well posed: %s (case %s)" % (sol.well_posed, sol.case_label))
print("P(0) = %.10f, value at x_init: %.10f"
      % (sol.P[0], -float(sol.P[0]) * p.x_init ** 2))
print("grid audit: max midpoint residual %.2e" % sol.max_midpoint_residual)

print("\ngain schedule G(t):")
for t in np.linspace(0.0, p.T, 6):
    print("  t=%.1f  P=%+.6f  G=%.6f" % (t, float(sol.P_at(t)), float(sol.gain_at(t))))

pol = lq_feedback(sol, p)
print("\nfeedback at t=0.5: u(x=0.5)=%.4f u(x=1)=%.4f u(x=2)=%.4f"
      % tuple(float(pol(0.5, x)) for x in (0.5, 1.0, 2.0)))

mean = closed_loop_mean(sol, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
print("closed-loop mean path E[x_t]: %s" % np.round(mean, 5).tolist())

print("\n--- a horizon past the critical length ---")
p_ill = ModelParams(rho=0.5, c=0.0, T=1.0, sigma2=1.0, gamma0=0.75)
ill = riccati_integrate(p_ill)
rep = ill.classification
print("case %s, closed-form horizon bound T_max = %.6f" % (rep.case_label, rep.T_max))
print("well posed on T=%g: %s; P blows down at t_blow = %.6f"
      % (p_ill.T, ill.well_posed, ill.t_blow))

p_ok = ModelParams(rho=0.5, c=0.0, T=0.9 * rep.T_max, sigma2=1.0, gamma0=0.75)
print("shrinking T to 0.9*T_max = %.4f: well posed = %s"
      % (p_ok.T, riccati_integrate(p_ok).well_posed))
