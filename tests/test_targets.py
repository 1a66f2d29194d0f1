import math
import pickle

import mpmath
import numpy as np
import pytest
from oracles import mp_double_well, mp_double_well_constants

from mhscaling import limits, targets
from mhscaling.errors import DomainError, QuadratureError
from mhscaling.targets import (
    custom_potential,
    double_well_potential,
    empirical_moments,
    gaussian_potential,
    integrate_against_density,
    potential_by_name,
    sample_stationary,
    stationary_coordinate_moments,
    stationary_moments,
)


def test_gaussian_values():
    p = gaussian_potential()
    assert float(p.eval_v(0.0)) == pytest.approx(0.5 * math.log(2 * math.pi), rel=1e-15)
    assert float(p.d1(3.2)) == 3.2
    assert float(p.d2(-1.0)) == 1.0
    assert float(p.d3(2.0)) == 0.0
    assert float(p.d4(2.0)) == 0.0
    assert p.i_fisher == pytest.approx(1.0, abs=1e-10)


def test_gaussian_normalization():
    p = gaussian_potential()
    assert integrate_against_density(p, lambda x: 1.0) == pytest.approx(1.0, abs=1e-9)


def test_double_well_shape():
    p = double_well_potential()
    shift = float(p.eval_v(1.0))  # raw value is 0 at the well bottoms
    assert float(p.eval_v(0.0)) - shift == pytest.approx(1.0, rel=1e-12)
    assert float(p.d1(2.0)) == pytest.approx(8.0 * 2.0 - 8.0, rel=1e-14)
    assert float(p.d1(-2.0)) == pytest.approx(-8.0, rel=1e-14)
    # V and V' continuous across the matching points
    for x in (1.0, -1.0):
        assert float(p.eval_v(x - 1e-13)) == pytest.approx(float(p.eval_v(x + 1e-13)), abs=1e-11)
        assert float(p.d1(x - 1e-13)) == pytest.approx(float(p.d1(x + 1e-13)), abs=1e-11)
    assert float(p.d2(0.99)) == pytest.approx(12 * 0.99**2 - 4, rel=1e-13)
    assert float(p.d2(1.5)) == 8.0


def test_double_well_normalized():
    p = double_well_potential()
    assert integrate_against_density(p, lambda x: 1.0) == pytest.approx(1.0, abs=1e-8)


def test_double_well_fisher_matches_reported_scale():
    # the classic stationary step constant for this target is 2.38 / sqrt(I),
    # reported as 1.18
    p = double_well_potential()
    assert 2.38 / math.sqrt(p.i_fisher) == pytest.approx(1.18, abs=5e-3)


def test_stationary_moments_identities():
    for p in (gaussian_potential(), double_well_potential()):
        sm = stationary_moments(p)
        assert sm.a == pytest.approx(sm.b, abs=1e-7)
        assert sm.a == pytest.approx(sm.i_fisher, abs=1e-7)
        assert sm.mala_m4 == pytest.approx(0.0, abs=1e-6)


def test_gaussian_stationary_values():
    sm = stationary_moments(gaussian_potential())
    assert sm.a == pytest.approx(1.0, abs=1e-8)
    assert sm.b == pytest.approx(1.0, abs=1e-8)


def test_equilibrium_coordinate_moments():
    mean, second = stationary_coordinate_moments(gaussian_potential())
    assert mean == pytest.approx(0.0, abs=1e-9)
    assert second == pytest.approx(1.0, abs=1e-8)
    mean, second = stationary_coordinate_moments(double_well_potential())
    assert mean == pytest.approx(0.0, abs=1e-9)
    # two-decimal value reported for this target is 0.96
    assert second == pytest.approx(0.96, abs=5e-3)


def test_empirical_moments_gaussian():
    p = gaussian_potential()
    em = empirical_moments(p, [0.0, 0.0, 0.0])
    assert em.a == 0.0 and em.b == 1.0
    em = empirical_moments(p, [10.0] * 7)
    assert em.a == 100.0 and em.b == 1.0
    assert em.i_fisher == pytest.approx(1.0, abs=1e-10)


def test_empirical_moments_double_well():
    em = empirical_moments(double_well_potential(), [1.0, -1.0])
    assert em.a == 0.0
    assert em.b == pytest.approx(8.0, rel=1e-14)


def test_empirical_moments_mala_combination():
    # for the standard normal potential the combination is x^2 - 1
    p = gaussian_potential()
    rng = np.random.default_rng(4)
    xs = rng.normal(0.0, math.sqrt(2.0), size=200_000)
    em = empirical_moments(p, xs)
    assert em.mala_m4 == pytest.approx(1.0, abs=0.02)
    assert em.mala_m4 == pytest.approx(float(np.mean(xs**2 - 1.0)), rel=1e-12)
    # off-equilibrium law: a = E[x^2] = 2 while b stays 1
    assert em.a == pytest.approx(2.0, abs=0.02)
    assert em.b == 1.0


def _mala_terms(p, x):
    d1, d2 = p.d1(x), p.d2(x)
    return d1 * d1 * d2 + p.d4(x) - 2.0 * p.d3(x) * d1 - d2 * d2


def test_empirical_mala_m4_at_equilibrium_gaussian():
    # a 10^6-draw sample mean of the steering combination is 0 within 4 SE
    p = gaussian_potential()
    xs = sample_stationary(p, 1_000_000, np.random.default_rng(11))
    se = float(np.std(_mala_terms(p, xs))) / math.sqrt(xs.size)
    assert abs(empirical_moments(p, xs).mala_m4) < 4.0 * se


def test_empirical_mala_m4_at_equilibrium_double_well():
    # V''' jumps by -24 at x = -1 and at x = 1, so the weak V'''' holds two
    # point masses a sample never sees: the sample mean estimates only the
    # classical integral (about 22.5), while the stationary moment, which
    # adds the masses -24 exp(-V(+-1)), is 0
    p = double_well_potential()
    xs = sample_stationary(p, 1_000_000, np.random.default_rng(12))
    se = float(np.std(_mala_terms(p, xs))) / math.sqrt(xs.size)
    classical = integrate_against_density(p, lambda x: float(_mala_terms(p, x)))
    assert classical == pytest.approx(22.5, abs=0.1)
    assert abs(empirical_moments(p, xs).mala_m4 - classical) < 4.0 * se
    masses = -24.0 * (math.exp(-float(p.eval_v(-1.0))) + math.exp(-float(p.eval_v(1.0))))
    assert stationary_moments(p).mala_m4 == pytest.approx(classical + masses, abs=1e-8)
    assert stationary_moments(p).mala_m4 == pytest.approx(0.0, abs=1e-8)


def test_empirical_moments_empty():
    with pytest.raises(DomainError):
        empirical_moments(gaussian_potential(), [])


def test_integration_by_parts_identity():
    for p in (gaussian_potential(), double_well_potential()):
        lhs = integrate_against_density(p, lambda x: float(p.d1(x)) ** 2)
        rhs = integrate_against_density(p, lambda x: float(p.d2(x)))
        assert lhs == pytest.approx(rhs, abs=1e-7)


def test_derivative_consistency_via_construction():
    # construction re-checks d1..d4 against stencils of eval_v; reaching here
    # without DomainError is the assertion, but probe a few points anyway
    p = double_well_potential()
    h = 1e-3
    for x in (-2.2, -0.5, 0.3, 1.7):
        fd = (float(p.eval_v(x + h)) - float(p.eval_v(x - h))) / (2 * h)
        assert fd == pytest.approx(float(p.d1(x)), abs=1e-4)


def test_custom_potential_validation_catches_bad_derivative():
    with pytest.raises(DomainError):
        custom_potential(
            "broken",
            eval_v=lambda x: 0.5 * np.asarray(x, float) ** 2 + 0.5 * math.log(2 * math.pi),
            d1=lambda x: 2.0 * np.asarray(x, float),  # wrong slope
            d2=lambda x: np.ones_like(np.asarray(x, float)),
            d3=lambda x: np.zeros_like(np.asarray(x, float)),
            d4=lambda x: np.zeros_like(np.asarray(x, float)),
        )


def test_custom_potential_normalize_and_trusted():
    p = custom_potential(
        "shifted-gaussian",
        eval_v=lambda x: 0.5 * np.asarray(x, float) ** 2,  # missing constant
        d1=lambda x: np.asarray(x, float),
        d2=lambda x: np.ones_like(np.asarray(x, float)),
        d3=lambda x: np.zeros_like(np.asarray(x, float)),
        d4=lambda x: np.zeros_like(np.asarray(x, float)),
        normalize=True,
    )
    assert integrate_against_density(p, lambda x: 1.0) == pytest.approx(1.0, abs=1e-9)
    assert float(p.eval_v(0.0)) == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-9)
    # every potential is checked: there is no option to skip the checks
    with pytest.raises(TypeError):
        custom_potential("unchecked", p.eval_v, p.d1, p.d2, p.d3, p.d4, trusted=True)


def test_custom_potential_refuses_an_unnormalized_density():
    # x^2/2 without its constant: exp(-V) integrates to sqrt(2 pi)
    with pytest.raises(DomainError, match="integrate to 1"):
        custom_potential(
            "unnormalized-gaussian",
            eval_v=lambda x: 0.5 * np.asarray(x, float) ** 2,
            d1=lambda x: np.asarray(x, float),
            d2=lambda x: np.ones_like(np.asarray(x, float)),
            d3=lambda x: np.zeros_like(np.asarray(x, float)),
            d4=lambda x: np.zeros_like(np.asarray(x, float)),
        )


@pytest.mark.parametrize("build", [gaussian_potential, double_well_potential])
def test_builtin_potentials_pickle(build):
    p = build()
    q = pickle.loads(pickle.dumps(p))
    xs = np.linspace(-4.0, 4.0, 33)
    assert q.name == p.name and q.breakpoints == p.breakpoints
    assert np.array_equal(q.eval_v(xs), p.eval_v(xs))
    assert np.array_equal(q.d1(xs), p.d1(xs))
    assert q.i_fisher == p.i_fisher


def test_builtin_constants_are_pinned():
    # the double well's normalizing constant is V(1), where the raw well is 0
    p = double_well_potential()
    assert repr(float(p.eval_v(1.0))) == "0.7576747894170736"
    assert repr(p.i_fisher) == "4.049556503944827"
    assert repr(gaussian_potential().i_fisher) == "1.0"


def _ulps_off(got, exact):
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(got) - exact) / math.ulp(got))


def test_double_well_matches_a_50_digit_oracle():
    # V and V' to 2^-50 relative and V'' to 2e-15 absolute, also where the
    # expanded polynomials cancel: at tiny x and next to the wells
    xs = np.concatenate((
        np.linspace(-3.0, 3.0, 6001),
        [1e-300, 1e-8, -1e-8, 1.0 + 2.0**-52, 1.0 - 2.0**-52, 1.0 - 1e-9, -(1.0 - 1e-9), 1.0 + 1e-9],
    ))
    p = double_well_potential()
    got = (targets._dw_raw_v(xs), p.d1(xs), p.d2(xs))
    with mpmath.workdps(50):
        for k, x in enumerate(xs):
            v, d1, d2 = mp_double_well(x)
            assert abs(got[0][k] - v) <= 2.0**-50 * abs(v), x
            assert abs(got[1][k] - d1) <= 2.0**-50 * abs(d1), x
            assert abs(got[2][k] - d2) <= 2e-15, x


def test_double_well_constants_match_a_50_digit_oracle():
    # i_fisher is the double nearest its 50-digit value.  The shift, a log of
    # a quadrature in doubles, is 0.97 ulp above its value (the nearest
    # double is 0.7576747894170734); it is pinned, as every double-well data
    # file depends on it, so it is held to within one ulp.
    shift, fisher, k_moment = mp_double_well_constants()
    p = double_well_potential()
    assert _ulps_off(float(p.eval_v(1.0)), shift) <= 1.0
    assert _ulps_off(p.i_fisher, fisher) <= 0.5
    with mpmath.workdps(50):
        assert abs(limits._z_moment(p) - k_moment) <= 1e-13 * k_moment
    assert limits._z_moment(gaussian_potential()) == 3.0


def _gaussian_with(**overrides):
    g = gaussian_potential()
    closures = dict(eval_v=g.eval_v, d1=g.d1, d2=g.d2, d3=g.d3, d4=g.d4)
    return custom_potential("gaussian-variant", **{**closures, **overrides})


def _nan_outside(fn, edge):
    return lambda x: np.where(np.abs(x) <= edge, fn(x), np.nan)


@pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
@pytest.mark.parametrize("case, error", [
    ("d1-nan-off-2", DomainError),
    ("v-nan-off-5", QuadratureError),
    ("nan-integrand", QuadratureError),
])
def test_nan_is_refused_by_construction_and_quadrature(case, error):
    # every check is written so that nan fails it: none of these builds a
    # potential or returns a number
    gauss = gaussian_potential()
    with pytest.raises(error):
        if case == "d1-nan-off-2":
            _gaussian_with(d1=_nan_outside(gauss.d1, 2.0))
        elif case == "v-nan-off-5":
            _gaussian_with(eval_v=_nan_outside(gauss.eval_v, 5.0))
        else:
            integrate_against_density(gauss, lambda x: math.nan)


def test_custom_potential_with_constant_curvature():
    # V'' of a Gaussian of variance 4 may be given as one number; the
    # empirical moments, the particle step and the chains take it as they
    # take the array of that number.
    from mhscaling.chains import ConstantEll, chain_rng, run_chain
    from mhscaling.limits import integrate_particles, make_ensemble

    def wide_gaussian(d2):
        return custom_potential(
            "wide-gaussian",
            eval_v=lambda x: np.asarray(x, float) ** 2 / 8.0 + 0.5 * math.log(8.0 * math.pi),
            d1=lambda x: np.asarray(x, float) / 4.0,
            d2=d2,
            d3=lambda x: np.zeros_like(np.asarray(x, float)),
            d4=lambda x: np.zeros_like(np.asarray(x, float)),
        )

    scalar = wide_gaussian(lambda x: 0.25)
    array = wide_gaussian(lambda x: np.full(np.shape(x), 0.25))
    xs = np.linspace(-3.0, 5.0, 7)
    assert empirical_moments(scalar, xs) == empirical_moments(array, xs)
    particles, chains = [], []
    for p in (scalar, array):
        ensemble = make_ensemble(xs, dt=0.1, rng=chain_rng(1))
        particles.append(np.array(integrate_particles(ensemble, p, 1.0, t_max=1.0)).tobytes())
        chains.append(run_chain(xs, p, ConstantEll(1.5), steps=20, rng=chain_rng(2))[0])
    assert particles[0] == particles[1]
    assert chains[0] == chains[1]


def test_potential_by_name():
    assert potential_by_name("gaussian").name == "gaussian"
    assert potential_by_name("double-well").name == "double-well"
    with pytest.raises(DomainError):
        potential_by_name("banana")


def test_sample_stationary_matches_moments():
    rng = np.random.default_rng(9)
    for p in (gaussian_potential(), double_well_potential()):
        xs = sample_stationary(p, 100_000, rng)
        _, second = stationary_coordinate_moments(p)
        assert float(np.mean(xs)) == pytest.approx(0.0, abs=0.02)
        assert float(np.mean(xs**2)) == pytest.approx(second, abs=0.02)
