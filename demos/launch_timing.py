"""Product launch as a discretionary stopping problem.

Pre-launch attention y drifts toward mu/rho and is steered down by
costly damping u; launching at level y pays y^2. Below the free
boundary x0 it is optimal to launch immediately; above it, damp with
u = 2 sqrt(rho) h(w), w = sqrt(rho) (y - mu/rho), and wait, where
h(w) = 1/(sqrt(pi) erfcx(w)) - w is the rescaled normal inverse Mills
ratio.
"""

import numpy as np

from adkit import PathGrid, StoppingParams, simulate_stopped, solve_stopping

sp = StoppingParams(k=1.0, rho=0.5, gamma1=2.0, gamma2=2.0)
sol = solve_stopping(sp)

print("mu = rho*k = %.3f, rest point mu/rho = %.3f" % (sp.mu, sp.mu / sp.rho))
print("free boundary x0 = %.12f" % sol.x0)
print("matching constant alpha2 = %.12f" % sol.alpha2)
print("control at the boundary u*(x0) = %.6f (= x0/gamma1 = %.6f)"
      % (float(sol.policy(sol.x0)), sol.x0 / sp.gamma1))

rep = sol.residual_report
print("\nvariational inequality audit:")
print("  stop side max (should be <= 0): %+.3e" % rep.stop_side_max)
print("  continuation PDE residual max:  %.3e" % rep.pde_residual_max)
print("  min obstacle gap x^2 - v:       %+.3e" % rep.obstacle_gap_min)

print("\nvalue vs obstacle:")
for y in (0.5, 1.0, sol.x0, sol.x0 + 0.5, sol.x0 + 1.0, sol.x0 + 3.0):
    v = float(sol.value(y))
    print("  y=%.3f  v=%.6f  y^2=%.6f  gap=%.2e" % (y, v, y * y, y * y - v))

print("\nthree stopped sample paths from y=3:")
g = PathGrid(0.0, 60.0, 30000)
for seed in (1, 2, 3):
    r = simulate_stopped(sp.mu, sp.rho, sp.gamma1, sp.gamma2, sol, g, 3.0, seed)
    print("  seed %d: launch at tau=%.2f, terminal y=%.4f, cost=%.4f%s"
          % (seed, r.tau, r.y_path[-1], r.cost,
             " (horizon hit)" if r.truncated else ""))
