"""The scipy functions adkit calls, each importing its scipy submodule on
its first call; no other module of adkit imports scipy.

Importing scipy.integrate or .linalg loads several hundred modules,
which takes longer than solving a linear or budget problem; those
closed forms, and the Riccati closed form, need only numpy. So no scipy
module is imported with adkit: the Riccati oracle loads scipy.integrate
(which brings in scipy.optimize), the launch problem and Monte Carlo
normals scipy.special, and the FD oracle scipy.linalg, each when first
called. The launch problem's root finder is a Newton iteration in
stopping.py, not scipy.optimize. An import statement for a
module already loaded costs well under a microsecond.
"""


def ndtri(x, out=None):
    import scipy.special
    return scipy.special.ndtri(x, out=out)


def erfc(x, out=None):
    import scipy.special
    return scipy.special.erfc(x, out=out)


def erfcx(x, out=None):
    import scipy.special
    return scipy.special.erfcx(x, out=out)


def solve_ivp(fun, t_span, y0, **kwargs):
    import scipy.integrate
    return scipy.integrate.solve_ivp(fun, t_span, y0, **kwargs)


def get_lapack_funcs(names, arrays):
    import scipy.linalg
    return scipy.linalg.get_lapack_funcs(names, arrays)
