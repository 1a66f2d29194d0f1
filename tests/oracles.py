"""Independent oracles shared by the test suite.

Everything here deliberately avoids the code paths under test: the normal CDF
is obtained by quadrature of the density or in arbitrary precision (mpmath),
optimizers are value-comparison searches, and the coefficient oracles are
plain Monte Carlo.  Normal quantiles come from ``scipy.special.ndtri``, which
the package does not use.
"""

import math

import mpmath
import numpy as np
from scipy import integrate
from scipy.special import ndtri as phi_inv  # noqa: F401  (normal quantiles)

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def quad_phi(x):
    """Normal CDF by adaptive quadrature of the density."""
    if x > 0:
        return 1.0 - quad_phi(-x)
    val, _ = integrate.quad(
        lambda y: math.exp(-0.5 * y * y) / _SQRT_2PI,
        -np.inf,
        x,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=300,
    )
    return val


def mp_f_helper(x):
    """exp(x^2 / 2) * Phi(x) in 50-digit arithmetic, rounded to a double."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        return float(mpmath.exp(x * x / 2) * mpmath.ncdf(x))


def mp_h_helper(x):
    """x * exp(x^2 / 2) * Phi(x), the increasing helper h of Appendix H."""
    return x * mp_f_helper(x)


def mp_acceptance_terms(s, ell):
    """(Phi(-ell / (2 sqrt s)), E) of the acceptance at unit curvature, as
    mpmath numbers at the working precision, with
    E = exp(ell^2 (s - 1) / 2) Phi(ell (1 / (2 sqrt s) - sqrt s))."""
    s, ell = mpmath.mpf(s), mpmath.mpf(ell)
    root_s = mpmath.sqrt(s)
    return (mpmath.ncdf(-ell / (2 * root_s)),
            mpmath.exp(ell**2 * (s - 1) / 2) * mpmath.ncdf(ell * (1 / (2 * root_s) - root_s)))


def mp_f1(s, ell):
    """f1(s, ell) as an mpmath number at the working precision.

    The closed form ell^2 (Phi(-ell / (2 sqrt s)) + (1 - 2s) E) / (1 - s); at
    50 digits the division by 1 - s costs nothing for |1 - s| >= 1e-20, and
    s == 1 takes the diagonal form 2 ell^2 ((1 + ell^2 / 4) Phi(-ell / 2)
    - ell pdf(ell / 2) / 2).
    """
    first, e = mp_acceptance_terms(s, ell)
    ell = mpmath.mpf(ell)
    if s == 1:
        return 2 * ell**2 * ((1 + ell**2 / 4) * first - ell / 2 * mpmath.npdf(ell / 2))
    return ell**2 * (first + (1 - 2 * mpmath.mpf(s)) * e) / (1 - mpmath.mpf(s))


def mills_bounds(x):
    """Two-sided Mills-ratio bounds (lower, upper) on Phi(x) for x < 0."""
    density_part = math.exp(-0.5 * x * x)
    lower = -x / (_SQRT_2PI * (1.0 + x * x)) * density_part
    upper = density_part / (-x * _SQRT_2PI)
    return lower, upper


def mc_gamma_gdrift(a, b, ell, n_samples, seed):
    """Monte Carlo estimates of the diffusion and drift coefficients.

    Uses the Gaussian representation: with Z ~ N(-ell^2 b / 2, ell^2 a),
    gamma = ell^2 E[e^Z ^ 1] and g_drift = ell^2 E[e^Z 1{Z<0}].
    Returns (gamma_hat, gamma_se, gdrift_hat, gdrift_se).
    """
    rng = np.random.default_rng(seed)
    z = rng.normal(-0.5 * ell * ell * b, ell * math.sqrt(a), size=n_samples)
    capped = np.exp(np.minimum(z, 0.0))
    drift = np.where(z < 0.0, capped, 0.0)
    scale = ell * ell
    root_n = math.sqrt(n_samples)
    return (
        scale * capped.mean(),
        scale * capped.std() / root_n,
        scale * drift.mean(),
        scale * drift.std() / root_n,
    )


def golden_max(fn, lo, hi, tol=1e-9):
    """Value-only golden-section maximizer (oracle for derivative solvers)."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv * (hi - lo)
    x2 = lo + inv * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv * (hi - lo)
            f1 = fn(x1)
    return 0.5 * (lo + hi)


def bisect_on(fn, target, lo, hi, iters=200):
    """Bisection for fn(x) == target with fn increasing on [lo, hi]."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mp_double_well(x):
    """(V, V', V'') of the raw double well at the double x, in 50 digits.

    The raw well is (x^2 - 1)^2 inside |x| <= 1 and 4 (|x| - 1)^2 outside,
    before the constant that normalizes exp(-V) is added.
    """
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        if abs(x) <= 1:
            return (x * x - 1) ** 2, 4 * x**3 - 4 * x, 12 * x * x - 4
        return 4 * (abs(x) - 1) ** 2, 8 * (x - mpmath.sign(x)), mpmath.mpf(8)


def mp_double_well_constants():
    """(shift, i_fisher, K) of the double well as 50-digit mpf values.

    shift = log of the integral of exp(-raw V), the constant added to the
    raw well; i_fisher = E V'^2 and K = E[5 V'''^2 + 3 V''^3] under the
    normalized density, with V''' = 24 x inside |x| <= 1 and 0 outside.
    """
    with mpmath.workdps(50):
        pieces = [-mpmath.inf, -1, 0, 1, mpmath.inf]

        def against_density(fn):
            return mpmath.quad(lambda x: fn(x) * mpmath.exp(-mp_double_well(x)[0]), pieces)

        def k_integrand(x):
            d3 = 24 * x if abs(x) <= 1 else 0
            return 5 * d3**2 + 3 * mp_double_well(x)[2] ** 3

        mass = against_density(lambda x: 1)
        fisher = against_density(lambda x: mp_double_well(x)[1] ** 2) / mass
        return mpmath.log(mass), fisher, against_density(k_integrand) / mass


def lfilter_ar1(ell, steps, y0, rng):
    """The fixed-variance MALA limit chain Y_{k+1} = (1 - ell^2/2) Y_k + ell G
    from y0, through scipy.signal's linear filter on the same normals."""
    from scipy import signal  # slow to import; only this reference needs it

    noise = rng.standard_normal(steps)
    decay = 1.0 - 0.5 * ell * ell
    zi = signal.lfiltic([ell], [1.0, -decay], y=[y0])
    filtered, _ = signal.lfilter([ell], [1.0, -decay], noise, zi=zi)
    return np.concatenate(([y0], filtered))
