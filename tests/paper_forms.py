"""The paper's reduced forms, kept beside the tests that pin them.

No solver, CLI path or demo calls these: the Riccati solver classifies
from its scaled flow, and the launch solver works in the Mills ratio h.
The tests check the paper's statements against them: the reduced
coefficients a1..a4 and their discriminant zeta (criterion 7), the
sigma2 = 0 blow-up time, and the basis function u2 of the continuation
ODE (criterion 9's fit residual).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from adkit import ModelParams, ParamError, StableRangeError, StoppingParams
from adkit._scipy import erfcx
from adkit.lq import _rhs_coeffs, _sigma2_sq
from adkit.model import as_array, float_like
from adkit.stopping import SQRT_PI, _scaled_arg


@dataclass(frozen=True)
class RiccatiCoeffs:
    a1: float
    a2: float
    a3: float
    a4: float
    zeta: float


def riccati_coeffs(p: ModelParams) -> RiccatiCoeffs:
    """The paper's reduced coefficients a1..a4 in 1/sigma2 and the
    discriminant zeta = a2^2 - 4*a1*a3 of a1*x^2 + a2*x + a3, which is
    (2*rho - sigma1^2)^2 identically; the quadratic factors as
    -(x - 1)*(beta*x - q)/sigma2^2. The discount rate does not enter.
    These coefficients cancel as sigma2 shrinks and overflow below sigma2
    of about 1e-77, so riccati_integrate does not use them: it classifies
    from the scaled flow, whose alpha^2 is zeta of the scaled problem
    (rho + c/2 in place of rho, c = 0).
    """
    if p.sigma2 <= 0:
        raise ParamError("sigma2 > 0")
    a4 = 1.0 - p.gamma0 * _sigma2_sq(p)
    if not a4 > 0:
        raise ParamError("1 - gamma0*sigma2^2 > 0")
    inv = 1.0 / p.sigma2
    try:
        a1 = -2.0 * p.rho - 2.0 * p.sigma1 * inv - inv * inv
        a2 = 2.0 * p.rho + p.sigma1 ** 2 + 2.0 * inv * inv + 4.0 * p.sigma1 * inv
        a3 = -((p.sigma1 + inv) ** 2)
        zeta = a2 * a2 - 4.0 * a1 * a3
    except OverflowError:
        zeta = math.inf
    if not math.isfinite(zeta):
        raise StableRangeError(
            "Riccati coefficients overflow (rho=%g, sigma1=%g, sigma2=%g)"
            % (p.rho, p.sigma1, p.sigma2)
        )
    return RiccatiCoeffs(a1, a2, a3, a4, zeta)


def riccati_sigma2_zero_blow(p: ModelParams) -> Optional[float]:
    """Time where the sigma2 = 0 closed form diverges (Q crosses 0),
    or None if P stays finite on all of (-inf, T). Raises
    StableRangeError when that time leaves the float range."""
    if p.sigma2 != 0:
        raise ParamError("sigma2 = 0")
    a, _ = _rhs_coeffs(p)
    k = a + p.c
    try:
        if k == 0:
            t_blow = p.T - math.exp(a * p.T) / p.gamma
        else:
            val = math.exp(k * p.T) - k * math.exp(a * p.T) / p.gamma
            # k > 0: exp(k t) is increasing, so a root below T needs 0 < val;
            # k < 0: val > exp(k T) always holds, so the root always sits below T
            if k > 0 and val <= 0:
                return None
            t_blow = math.log(val) / k
    except (OverflowError, ZeroDivisionError, ValueError):
        t_blow = math.nan
    if not math.isfinite(t_blow):
        raise StableRangeError(
            "sigma2 = 0 blow-up time out of float range (rho=%g, c=%g, T=%g, sigma1=%g)"
            % (p.rho, p.c, p.T, p.sigma1))
    return t_blow


def u2(x, sp: StoppingParams):
    """Decaying solution of the homogeneous continuation ODE,
    exp(w^2) * integral_x^inf exp(-rho*(s - mu/rho)^2) ds, through erfcx;
    StableRangeError where it overflows, as it does for w below about -26."""
    w = _scaled_arg(as_array(x, "x"), sp)
    with np.errstate(over="ignore"):
        out = (SQRT_PI / (2.0 * math.sqrt(sp.rho))) * erfcx(w)
    if np.isinf(out).any():
        raise StableRangeError("u2 overflows: some w = sqrt(rho)*(x - mu/rho) is as low as %g"
                               % np.nanmin(w))
    return float_like(x, out)
