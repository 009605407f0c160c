"""Writes the high-precision reference tables that the tests check the
closed forms against:

    python3 tests/make_refs.py

- tests/launch_roots.json: 50-digit free boundaries of the launch problem
  (tests/test_stopping.py);
- tests/linear_refs.json: 50-digit linear and budget switch times, b1(0),
  spend bounds and budget multipliers (tests/test_linear.py);
- tests/riccati_refs.json: P to 40 digits on 41 equally spaced nodes of
  two LQ instances, and the 40-digit blow-down horizon T_max = T - t_blow
  of three more (tests/test_lq.py).

Every value is for the exact values of the float inputs. It needs mpmath,
the optional `refs` extra (pip install -e .[refs]); adkit itself does not
depend on it, and the tests read only the tables.
"""

import json
from pathlib import Path

import mpmath as mp
import numpy as np

DIGITS = 50
HERE = Path(__file__).parent

# --- launch problem -------------------------------------------------------

# (k, rho, gamma1, what the case covers)
LAUNCH_CASES = [
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


def launch_root(k, rho, gamma1, dps=80):
    """The root of the smooth-fit function f(x) = x/gamma1 - 2*sqrt(rho)*h(w),
    h(w) = exp(-w^2)/(sqrt(pi)*erfc(w)) - w, w = sqrt(rho)*(x - k), found by
    bisection at dps significant digits from lo = 2*rho*k/(2*rho + 1/gamma1),
    where f < 0."""
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


def launch_table():
    rows = [{"k": k, "rho": rho, "gamma1": gamma1, "note": note,
             "x0": mp.nstr(launch_root(k, rho, gamma1), DIGITS)}
            for k, rho, gamma1, note in LAUNCH_CASES]
    return {"mpmath": mp.__version__, "digits": DIGITS, "roots": rows}


# --- linear and budget problems ------------------------------------------

LINEAR_MODEL = {"rho": 0.5, "T": 1.0, "gamma0": 1.2, "m": 1.0}
BUDGET_M = 0.5
LINEAR_CS = [0.1, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 0.0]


def linear_row(c, rho, T, gamma0, m, M, dps=80):
    """Closed forms at dps digits; c = 0 is the undiscounted limit, where
    the budget problem is not posed."""
    mp.mp.dps = dps
    c, rho, T, gamma0, m, M = (mp.mpf(v) for v in (c, rho, T, gamma0, m, M))
    span = T if c == 0 else -mp.expm1(-c * T) / c  # int_0^T exp(-c*u) du
    gamma = gamma0 * mp.exp(-c * T)
    row = {"t_star": T - mp.log(gamma0) / (rho + c),
           "b1_0": m * gamma / rho * -mp.expm1(-rho * T) - m * span,
           "spend_bound": m * span,
           "budget_t_star": None, "lambda_star": None}
    if c > 0:
        t_b = -mp.log(c * M / m + mp.exp(-c * T)) / c
        row.update(budget_t_star=t_b, lambda_star=mp.exp((rho + c) * t_b - rho * T))
    return {k: v if v is None else mp.nstr(v, DIGITS) for k, v in row.items()}


def linear_table():
    rows = [dict({"c": c, **LINEAR_MODEL, "M": BUDGET_M},
                 **linear_row(c, M=BUDGET_M, **LINEAR_MODEL)) for c in LINEAR_CS]
    return {"mpmath": mp.__version__, "digits": DIGITS, "rows": rows}


# --- Riccati equation ------------------------------------------------------

RICCATI_DIGITS = 40
RICCATI_NODES = 41
RICCATI_CASES = [
    ({"rho": 0.5, "c": 0.1, "T": 1.0, "sigma1": 0.2, "sigma2": 0.5, "gamma0": 0.5},
     "the criterion-8 instance"),
    ({"rho": 1.3450747927979014, "c": 0.08048654558455348, "T": 1.0577445473656921,
      "sigma1": 0.1472319766657085, "sigma2": 0.18597678542470739,
      "gamma0": 0.3543296150356794}, "a random well-posed instance"),
]


def riccati_P(rho, c, T, sigma1, sigma2, gamma0, dps=60):
    """P at the float nodes numpy.linspace(0, T, RICCATI_NODES), from the
    Taylor-series integrator of mpmath run backward from P(T) = -gamma:
    dP/dt = (2*rho - sigma1^2)*P + (1 + sigma1*sigma2)^2*P^2/D,
    D = exp(-c*t) + sigma2^2*P."""
    mp.mp.dps = dps
    nodes = np.linspace(0.0, T, RICCATI_NODES)
    rho, c, T, sigma1, sigma2, gamma0 = (mp.mpf(v) for v in
                                         (rho, c, T, sigma1, sigma2, gamma0))
    a, q, s2 = 2 * rho - sigma1 ** 2, (1 + sigma1 * sigma2) ** 2, sigma2 ** 2

    def rhs(tau, P):  # in tau = T - t
        t = T - tau
        return -(a * P + q * P * P / (mp.exp(-c * t) + s2 * P))

    P = mp.odefun(rhs, 0, -gamma0 * mp.exp(-c * T))
    return [(float(t), mp.nstr(P(T - mp.mpf(float(t))), RICCATI_DIGITS)) for t in nodes]


RICCATI_BLOWDOWN = [
    ({"rho": 0.5, "c": 0.0, "T": 1.0, "sigma1": 0.0, "sigma2": 1.0, "gamma0": 0.75},
     "P_ILL, the blow-down instance of tests/test_lq.py"),
    ({"rho": 0.1, "c": 1.0, "T": 5.0, "sigma1": 0.7, "sigma2": 0.5, "gamma0": 1.0},
     "c = 1, whose undiscounted horizon is 0.2068"),
    ({"rho": 0.1, "c": 0.0, "T": 1.0, "sigma1": 0.7, "sigma2": 1e-2, "gamma0": 1.0},
     "small sigma2, alpha < 0"),
]


def riccati_T_max(rho, c, T, sigma1, sigma2, gamma0, dps=60):
    """T - t_blow, t_blow the limit of the time at which the scaled
    solution pi = exp(c*t)*P, pi(T) = -gamma0, reaches pi as pi tends to
    -1/sigma2^2, where D = 0:

        t(pi) = T + log(pi/pi_T)/alpha
                - q/(alpha*beta)*log((alpha + beta*pi)/(alpha + beta*pi_T)),

    alpha = 2*rho + c - sigma1^2, q = (1 + sigma1*sigma2)^2 and
    beta = alpha*sigma2^2 + q. The limit is taken along the path, from
    pi_T (e = 1) toward -1/sigma2^2 (e -> 0)."""
    mp.mp.dps = dps
    rho, c, T, sigma1, sigma2, gamma0 = (mp.mpf(v) for v in
                                         (rho, c, T, sigma1, sigma2, gamma0))
    alpha = 2 * rho + c - sigma1 ** 2
    q = (1 + sigma1 * sigma2) ** 2
    beta = alpha * sigma2 ** 2 + q
    pi_T, pi_b = -gamma0, -1 / sigma2 ** 2

    def t(pi):
        return (T + mp.log(pi / pi_T) / alpha
                - q / (alpha * beta) * mp.log((alpha + beta * pi) / (alpha + beta * pi_T)))

    return T - mp.limit(lambda e: t(pi_b + e * (pi_T - pi_b)), 0)


def riccati_table():
    rows = []
    for model, note in RICCATI_CASES:
        nodes = riccati_P(**model)
        rows.append({"model": model, "note": note, "t": [t for t, _ in nodes],
                     "P": [P for _, P in nodes]})
    blow = [{"model": model, "note": note,
             "T_max": mp.nstr(riccati_T_max(**model), RICCATI_DIGITS)}
            for model, note in RICCATI_BLOWDOWN]
    return {"mpmath": mp.__version__, "digits": RICCATI_DIGITS, "instances": rows,
            "blowdown": blow}


def main():
    for name, table in (("launch_roots.json", launch_table()),
                        ("linear_refs.json", linear_table()),
                        ("riccati_refs.json", riccati_table())):
        out = HERE / name
        out.write_text(json.dumps(table, indent=1) + "\n")
        print("wrote %s" % out)


if __name__ == "__main__":
    main()
