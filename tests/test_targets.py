import math

import numpy as np
import pytest

from mhscaling.errors import DomainError
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
