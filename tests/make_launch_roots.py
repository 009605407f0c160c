"""Writes tests/launch_roots.json, the 50-digit reference free boundaries
that tests/test_stopping.py checks free_boundary against.

    python3 tests/make_launch_roots.py

Each root is that of the smooth-fit function
f(x) = x/gamma1 - 2*sqrt(rho)*h(w), h(w) = exp(-w^2)/(sqrt(pi)*erfc(w)) - w,
w = sqrt(rho)*(x - k), for the exact values of the float inputs k, rho
and gamma1, found by bisection at 80 significant digits from
lo = 2*rho*k/(2*rho + 1/gamma1), where f < 0. It needs mpmath, which
adkit does not depend on; the tests read only the table.
"""

import json
from pathlib import Path

import mpmath as mp

DIGITS = 50
# (k, rho, gamma1, what the case covers)
CASES = [
    (1.0, 0.5, 2.0, "the acceptance-criterion instance"),
    (0.0, 0.5, 2.0, "k = 0, so the Newton start lo is 0"),
    (3.0, 0.5, 4.0, "k = 3, far right of the drift rest point"),
    (1.226, 501.1, 662.7, "x0 = 26.36 at w = 563, on the continued fraction"),
    (770.0, 5e4, 8.0, "exp(-x0^2/(2*gamma1)) underflows, so alpha2 = 0"),
    (120.0, 1.0, 1.5, "root below w = -26, where erfcx overflows"),
    (10.0, 1.0, 1.5, "root at w = -2.5"),
    (1.0, 1e-300, 2.0, "tiny rho"),
    (3.2e53, 9.224e-321, 2.04, "subnormal rho, k near 1e53"),
    (0.0264, 3.57e-310, 8.15, "subnormal rho"),
    (22.478, 8.379, 1.3867, "a root at the float resolution of the fit"),
    (0.0024, 7.05, 131.6, "root at w = 30"),
    (5.02360651095488, 950.3390044131041, 828.1616289291845, "seed-1 sweep draw"),
    (0.008653750322722102, 687.059680457001, 302.6531328352203, "seed-1 sweep draw"),
    (0.06788409530083715, 0.20134794792601604, 47.0915911369146,
     "seed-1 sweep draw, root at w = 2.92, just below the continued fraction"),
    (0.02103209669806774, 9.375665238274847, 1.021398010742508, "seed-1 sweep draw"),
    (1.0, 1e6, 2.0, "large rho"),
    (1.0, 1.0, 1e6, "large gamma1"),
    (1.0, 1.0, 1.001, "gamma1 near 1"),
    (1e3, 1e-3, 2.0, "large k, small rho: root at w = -31.5"),
]


def root(k, rho, gamma1, dps=80):
    """The root of f for the exact values of the floats k, rho, gamma1."""
    mp.mp.dps = dps
    k, rho, gamma1 = mp.mpf(k), mp.mpf(rho), mp.mpf(gamma1)
    sqrho = mp.sqrt(rho)

    def f(x):
        w = sqrho * (x - k)
        return x / gamma1 - 2 * sqrho * (mp.exp(-w * w) / (mp.sqrt(mp.pi) * mp.erfc(w)) - w)

    lo = 2 * rho * k / (2 * rho + 1 / gamma1)
    step = max(1 / sqrho, lo)
    hi = lo + step
    while f(hi) <= 0:
        lo, step = hi, 2 * step
        hi = lo + step
    while hi - lo > mp.mpf(10) ** (10 - dps) * hi:
        mid = (lo + hi) / 2
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def main():
    rows = [{"k": k, "rho": rho, "gamma1": gamma1, "note": note,
             "x0": mp.nstr(root(k, rho, gamma1), DIGITS)}
            for k, rho, gamma1, note in CASES]
    out = Path(__file__).with_name("launch_roots.json")
    out.write_text(json.dumps({"mpmath": mp.__version__, "digits": DIGITS, "roots": rows},
                              indent=1) + "\n")
    print("wrote %d roots to %s" % (len(rows), out))


if __name__ == "__main__":
    main()
