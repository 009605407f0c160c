"""The scipy functions adkit calls, each importing its scipy submodule on
its first call.

Importing scipy.integrate, .interpolate, .optimize, .special and .linalg
loads several hundred modules, which takes longer than solving a linear
or budget problem; those closed forms need only numpy. So no scipy
module is imported with adkit: the Riccati integrator loads
scipy.integrate and scipy.interpolate, the launch problem scipy.optimize
and scipy.special, Monte Carlo normals scipy.special, and the FD oracle
scipy.linalg, each when first called. An import statement for a module
already loaded costs well under a microsecond.
"""


def ndtri(x, out=None):
    import scipy.special
    return scipy.special.ndtri(x, out=out)


def erfcx(x, out=None):
    import scipy.special
    return scipy.special.erfcx(x, out=out)


def brentq(f, a, b, **kwargs):
    import scipy.optimize
    return scipy.optimize.brentq(f, a, b, **kwargs)


def solve_ivp(fun, t_span, y0, **kwargs):
    import scipy.integrate
    return scipy.integrate.solve_ivp(fun, t_span, y0, **kwargs)


def PchipInterpolator(x, y):
    import scipy.interpolate
    return scipy.interpolate.PchipInterpolator(x, y)


def get_lapack_funcs(names, arrays):
    import scipy.linalg
    return scipy.linalg.get_lapack_funcs(names, arrays)
