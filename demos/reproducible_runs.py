"""Reproducibility of the Monte Carlo engine.

Every path draws from its own counter-based substream keyed by
(seed, path index), so results do not depend on block size or
evaluation order: the first 123 paths of a run give the same samples
as a run of 123 paths. Reruns are bit-identical, and antithetic pairing
is a pure re-indexing.
"""

import numpy as np

from adkit import (
    ModelParams,
    PathGrid,
    evaluate_policy,
    linear_policy,
    solve_linear,
)

p = ModelParams(rho=0.5, c=0.1, T=1.0, sigma0=0.2, gamma0=1.2)
sol = solve_linear(p)
pol = linear_policy(sol)
g = PathGrid(0.0, p.T, 200)
reward, loss = (lambda x: p.gamma0 * x), (lambda u: u)

a = evaluate_policy(p, pol, reward, loss, 0.0, 1.0, g, 20000, seed=42,
                    keep_samples=True)
b = evaluate_policy(p, pol, reward, loss, 0.0, 1.0, g, 20000, seed=42)
c = evaluate_policy(p, pol, reward, loss, 0.0, 1.0, g, 123, seed=42,
                    keep_samples=True)
print("same seed, rerun:        identical = %s" % (a.mean == b.mean))
print("first 123 paths alone:   identical = %s"
      % np.array_equal(a.samples[:123], c.samples))

d = evaluate_policy(p, pol, reward, loss, 0.0, 1.0, g, 20000, seed=43)
print("different seed:          mean moves by %.2e" % abs(a.mean - d.mean))

anti = evaluate_policy(p, pol, reward, loss, 0.0, 1.0, g, 20000, seed=42,
                       antithetic=True)
print("\nplain      se = %.3e" % a.std_error)
print("antithetic se = %.3e (x%.1f smaller)"
      % (anti.std_error, a.std_error / anti.std_error))

v = sol.value(0.0, 1.0)
print("\nclosed-form value %.6f; MC mean %.6f; |diff|/se = %.2f"
      % (v, a.mean, abs(a.mean - v) / a.std_error))

print("\nconvergence in paths (seed fixed, nested blocks):")
for n in (1000, 4000, 16000, 64000):
    r = evaluate_policy(p, pol, reward, loss, 0.0, 1.0, g, n, seed=7)
    print("  n=%6d  mean=%.6f  se=%.4f" % (n, r.mean, r.std_error))
