import math

import numpy as np
import pytest

from mhscaling.chains import (
    ConstantAccNumeric,
    ConstantEll,
    RateOptimal,
    chain_rng,
    run_mala,
    strategy_from_label,
)
from mhscaling.coefficients import f1, g_drift, gamma, phi
from mhscaling.errors import DomainError
from mhscaling.limits import (
    ParticleEnsemble,
    entropy_rate_bound,
    gaussian_entropy,
    integrate_gaussian_ode,
    integrate_mala_second_moment,
    integrate_particles,
    make_ensemble,
    mala_ar1_limit,
    mala_regime,
    mala_w,
    mala_z_optimum,
    mala_z_stationary,
    meanfield_particle_step,
)
from mhscaling.targets import custom_potential, gaussian_potential


def wiggly_potential():
    # Gaussian with a sine perturbation, so that its stationary moment
    # K = E[5 V'''^2 + 3 V''^3] differs from the Gaussian's K = 3
    def as_arr(x):
        return np.asarray(x, dtype=float)

    return custom_potential(
        "wiggly",
        eval_v=lambda x: 0.5 * as_arr(x) ** 2 + 0.2 * np.sin(3.0 * as_arr(x)),
        d1=lambda x: as_arr(x) + 0.6 * np.cos(3.0 * as_arr(x)),
        d2=lambda x: 1.0 - 1.8 * np.sin(3.0 * as_arr(x)),
        d3=lambda x: -5.4 * np.cos(3.0 * as_arr(x)),
        d4=lambda x: 16.2 * np.sin(3.0 * as_arr(x)),
        normalize=True,
    )


def ode_step(m, s, ell, dt):
    """(m, s) after one integrator step of length dt."""
    traj = integrate_gaussian_ode(m, s, ConstantEll(ell), dt=dt, t_max=dt)
    assert traj.t.size == 2
    return traj.m[-1], traj.s[-1]


def test_gaussian_moments_invariant():
    ode_step(1.0, 1.0, 1.0, 1e-3)  # boundary allowed (point mass start)
    with pytest.raises(DomainError):
        ode_step(2.0, 1.0, 1.0, 1e-3)


def test_entropy_values():
    assert gaussian_entropy(0.0, 1.0) == 0.0
    assert gaussian_entropy(0.0, math.e) == pytest.approx((math.e - 2.0) / 2.0, rel=1e-14)
    assert gaussian_entropy(1.0, 2.0) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(DomainError):
        gaussian_entropy(1.0, 1.0)


def test_ode_fixed_point():
    m, s = ode_step(0.0, 1.0, 2.0, 1e-3)
    assert m == 0.0
    assert s == pytest.approx(1.0, abs=1e-14)


def test_ode_drift_sign():
    # above equilibrium the second moment decreases, below it increases
    _, above = ode_step(0.0, 4.0, 1.5, 1e-3)
    _, below = ode_step(0.0, 0.25, 1.5, 1e-3)
    assert above < 4.0
    assert below > 0.25


def test_ode_guard_preserves_variance():
    for dt in (0.5, 2.0, 10.0):
        m, s = ode_step(3.0, 9.000001, 0.8, dt)
        assert s >= m * m


def test_ode_convergence_and_entropy_decay():
    traj = integrate_gaussian_ode(
        10.0, 100.0, ConstantEll(2.38), dt=1e-3, t_max=60.0, stop_tol=1e-6
    )
    assert abs(traj.m[-1]) < 1e-6
    assert abs(traj.s[-1] - 1.0) < 1e-6
    finite = traj.entropy[np.isfinite(traj.entropy)]
    assert np.all(np.diff(finite) <= 1e-10)


def test_ode_exponential_decay_slope_bound():
    ell = 2.38
    traj = integrate_gaussian_ode(0.0, 5.0, ConstantEll(ell), dt=1e-3, t_max=12.0)
    mask = np.isfinite(traj.entropy) & (traj.entropy > 1e-12)
    t = traj.t[mask]
    log_h = np.log(traj.entropy[mask])
    tail = t > 0.7 * t[-1]
    slope = np.polyfit(t[tail], log_h[tail], 1)[0]
    s_max = float(np.max(traj.s))
    assert slope <= -f1(s_max, ell) + 1e-6


def test_ode_unique_attractor_random_starts():
    rng = np.random.default_rng(123)
    for _ in range(20):
        m0 = float(rng.uniform(-4.0, 4.0))
        s0 = m0 * m0 + float(rng.uniform(0.05, 9.0))
        traj = integrate_gaussian_ode(
            m0, s0, ConstantEll(2.0), dt=2e-3, t_max=80.0, stop_tol=1e-5
        )
        assert abs(traj.m[-1]) < 1e-5 and abs(traj.s[-1] - 1.0) < 1e-5


def test_ode_policies_follow_tuning_rules():
    from mhscaling.limits import policy_ell
    from mhscaling.tuning import ell_alpha, ell_star

    assert policy_ell(RateOptimal(), 0.0, 4.0) == ell_star(4.0).ell
    assert policy_ell(ConstantAccNumeric(0.3), 0.0, 4.0) == ell_alpha(4.0, 0.3).ell
    assert policy_ell(ConstantEll(1.1), 5.0, 30.0) == 1.1


def test_ode_solves_the_policy_once_per_refresh():
    calls = []

    class Counting(ConstantEll):
        def scale(self, a, b, m, s, n, theta=None):
            calls.append((m, s))
            return super().scale(a, b, m, s, n, theta)

    traj = integrate_gaussian_ode(1.0, 4.0, Counting(1.5), dt=1e-2, t_max=0.5)
    assert len(traj.t) - 1 == 50 and len(calls) == 50
    calls.clear()
    integrate_gaussian_ode(1.0, 4.0, Counting(1.5), dt=1e-2, t_max=0.5, policy_every=3)
    assert len(calls) == 17  # steps 0, 3, ..., 48


@pytest.mark.parametrize("label", ["constant:2.38", "star", "alpha:0.27", "ent"])
def test_ode_entropy_dissipation_bound(label):
    # dH/dt <= -f1(s, ell) I / 2 along the moment flow, with I = m^2 + (v-1)^2/v
    # the Fisher information of N(m, v) relative to N(0, 1); equality for
    # m = 0.  dH/dt is a central difference of the recorded entropy, and the
    # scale in effect at a state is the one recorded on the step leaving it.
    dt = 1e-3
    strategy = strategy_from_label(label)
    for m0, s0 in ((0.0, 4.0), (0.0, 0.25), (2.0, 6.0), (3.0, 13.0)):
        traj = integrate_gaussian_ode(m0, s0, strategy, dt=dt, t_max=1.0)
        dh = (traj.entropy[2:] - traj.entropy[:-2]) / (2.0 * dt)
        m, s, ell = traj.m[1:-1], traj.s[1:-1], traj.ell[2:]
        v = s - m * m
        fisher = m * m + (v - 1.0) ** 2 / v
        rate = np.array([f1(float(si), float(li)) for si, li in zip(s, ell)])
        bound = -0.5 * rate * fisher
        assert np.all(dh <= bound + 1e-3 * np.abs(bound)), (m0, s0)
        if m0 == 0.0:
            np.testing.assert_allclose(dh, bound, rtol=1e-3)


def test_meanfield_pure_diffusion_with_flat_potential():
    def zeros(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    flat = custom_potential(
        "flat", eval_v=zeros, d1=zeros, d2=zeros, d3=zeros, d4=zeros, trusted=True
    )
    ell, dt = 1.3, 1e-2
    pe = make_ensemble(np.zeros(50_000), dt=dt, rng=chain_rng(8))
    meanfield_particle_step(pe, flat, ell)
    # drift vanishes; increments are pure noise with variance gamma(0,0,ell)*dt
    assert gamma(0.0, 0.0, ell) == ell * ell
    assert float(np.mean(pe.xs)) == pytest.approx(0.0, abs=3 * ell * math.sqrt(dt / 50_000) * 2)
    assert float(np.var(pe.xs)) == pytest.approx(ell * ell * dt, rel=0.05)


def test_particle_step_evaluates_each_derivative_once():
    calls = {"d1": 0, "d2": 0, "d3": 0, "d4": 0}

    def counted(name, fn):
        def wrapped(x):
            calls[name] += 1
            return fn(x)
        return wrapped

    base = gaussian_potential()
    p = custom_potential(
        "counted-gaussian", base.eval_v,
        **{name: counted(name, getattr(base, name)) for name in calls}, trusted=True,
    )
    calls.update(d1=0, d2=0, d3=0, d4=0)  # construction evaluates d1 for i_fisher
    meanfield_particle_step(make_ensemble(np.ones(100), dt=1e-2, rng=chain_rng(3)), p, 1.2)
    assert calls == {"d1": 1, "d2": 1, "d3": 0, "d4": 0}


def test_meanfield_tracks_ode():
    # small ensemble smoke test; the acceptance suite runs the full-size one
    p = gaussian_potential()
    ell = 1.5
    rng = chain_rng(0)
    xs = math.sqrt(2.0) * rng.standard_normal(4000)
    pe = ParticleEnsemble(xs=xs.copy(), t=0.0, dt=1e-2, rng=rng)
    ts, ms, ss = integrate_particles(pe, p, ell, t_max=3.0)
    traj = integrate_gaussian_ode(
        float(xs.mean()), float((xs**2).mean()), ConstantEll(ell), dt=1e-3, t_max=3.0
    )
    gap = np.max(np.abs(ss - np.interp(ts, traj.t, traj.s)))
    assert gap < 0.2


def test_ensemble_validation():
    with pytest.raises(DomainError):
        make_ensemble(np.zeros(1), dt=1e-2, rng=chain_rng(0))
    for dt in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            make_ensemble(np.zeros(10), dt=dt, rng=chain_rng(0))


def test_entropy_rate_bound():
    assert entropy_rate_bound(1.0, 1.0, 2.0, 0.0) == 0.0
    from mhscaling.tuning import ell_star

    ell = ell_star(1.0).ell
    got = entropy_rate_bound(1.0, 1.0, ell, 2.0)
    assert got == pytest.approx(-f1(1.0, ell), rel=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = float(rng.uniform(0.0, 8.0))
        b = float(rng.uniform(-4.0, 4.0))
        ell = float(rng.uniform(0.1, 4.0))
        fisher = float(rng.uniform(0.0, 5.0))
        assert entropy_rate_bound(a, b, ell, fisher) <= 0.0
    with pytest.raises(DomainError):
        entropy_rate_bound(1.0, 1.0, 1.0, -0.5)


def test_mala_regime_classification():
    reg = mala_regime(-1.0, eps=1e-6)
    assert reg.tag == "negative_moment" and reg.variance_exponent == 0.5
    reg = mala_regime(0.0)
    assert reg.tag == "stationary_moment"
    assert reg.variance_exponent == pytest.approx(1.0 / 3.0)
    reg = mala_regime(0.5)
    assert reg.tag == "positive_moment" and reg.variance_exponent is None
    # dead band swallows tiny values
    assert mala_regime(1e-12).tag == "stationary_moment"
    with pytest.raises(DomainError):
        mala_regime(1.0, eps=-1.0)


def test_mala_w_values():
    assert mala_w(0.5, 1.2) == 1.2**2
    assert mala_w(0.0, 1.2) == 1.2**2
    assert mala_w(-8.0 / 1.2**4, 1.2) == pytest.approx(1.2**2 * math.exp(-1.0), rel=1e-14)
    with pytest.raises(DomainError):
        mala_w(0.0, 0.0)


def test_mala_second_moment_ode_monotone_to_one():
    ts, ss = integrate_mala_second_moment(4.0, 1.4, dt=1e-3, t_max=8.0)
    assert np.all(np.diff(ss) < 0)
    assert ss[-1] == pytest.approx(1.0, abs=1e-3)
    ts, ss = integrate_mala_second_moment(0.25, 1.4, dt=1e-3, t_max=8.0)
    assert np.all(np.diff(ss) > 0)


def test_limit_integrators_refuse_bad_horizon():
    pe = make_ensemble(np.zeros(10), dt=1e-2, rng=chain_rng(0))
    for t_max in (-5.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            integrate_gaussian_ode(10.0, 100.0, ConstantEll(1.0), dt=1e-2, t_max=t_max)
        with pytest.raises(DomainError):
            integrate_particles(pe, gaussian_potential(), 1.0, t_max=t_max)
        with pytest.raises(DomainError):
            integrate_mala_second_moment(4.0, 1.4, dt=1e-3, t_max=t_max)
    for dt in (0.0, -1e-3, math.inf, math.nan):
        with pytest.raises(DomainError):
            integrate_mala_second_moment(4.0, 1.4, dt=dt, t_max=1.0)
    # a zero-length horizon gives the start row alone
    assert integrate_gaussian_ode(1.0, 2.0, ConstantEll(1.0), t_max=0.0).t.tolist() == [0.0]
    assert integrate_particles(pe, gaussian_potential(), 1.0, t_max=0.0)[0].tolist() == [0.0]
    assert integrate_mala_second_moment(4.0, 1.4, t_max=0.0)[1].tolist() == [4.0]


def test_mala_z_gaussian_matches_finite_n_acceptance():
    # Oracle: MALA chains at stationarity in dimension n = 2000 with proposal
    # std ell * n^(-1/6); their mean acceptance probability should sit at the
    # limit z / ell^2 = 2 Phi(-ell^3 / 8).  Six chains of 1500 steps put the
    # standard error at ell = 2 near 0.008.
    p = gaussian_potential()
    n, steps, chains = 2000, 1500, 6
    observed = []
    for ell in (1.0, 1.5, 2.0):
        limit = mala_z_stationary(p, ell) / ell**2
        assert limit == pytest.approx(2.0 * phi(-(ell**3) / 8.0), rel=1e-12)
        means = []
        for seed in range(chains):
            rng = chain_rng(seed)
            records, _ = run_mala(rng.standard_normal(n), p, ell * n ** (-1.0 / 6.0),
                                  steps=steps, rng=rng)
            means.append(np.mean([r.acc_prob for r in records]))
        observed.append(float(np.mean(means)))
        assert observed[-1] == pytest.approx(limit, abs=0.03)
    assert observed[0] > observed[1] > observed[2]


def test_mala_z_small_ell_limit():
    p = wiggly_potential()
    assert mala_z_stationary(p, 1e-4) == pytest.approx(1e-8, rel=1e-3)


def test_mala_z_optimum_universal_acceptance():
    p = wiggly_potential()
    opt = mala_z_optimum(p)
    assert opt.acceptance == pytest.approx(0.574, abs=1e-3)
    # independent root of the optimality condition 2 Phi(-u) = 3 u pdf(u)
    def crit(u):
        return 2.0 * phi(-u) - 3.0 * u * math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi)

    lo, hi = 0.1, 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if crit(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert opt.acceptance == pytest.approx(2.0 * phi(-0.5 * (lo + hi)), rel=1e-12)
    # ell is the argmax of the speed, whose relative curvature there is O(1)
    assert opt.z_value == pytest.approx(mala_z_stationary(p, opt.ell), rel=1e-14)
    for factor in (1.0 - 1e-5, 1.0 + 1e-5):
        assert mala_z_stationary(p, opt.ell * factor) < opt.z_value


def test_ar1_variance_and_recursion():
    y = mala_ar1_limit(1.0, 300_000, y0=0.0, rng=chain_rng(5))
    assert float(np.var(y[1000:])) == pytest.approx(4.0 / 3.0, abs=0.03)

    class NoNoise:
        def standard_normal(self, size):
            return np.zeros(size)

    y = mala_ar1_limit(1.3, 10, y0=2.0, rng=NoNoise())
    decay = 1.0 - 0.5 * 1.3**2
    assert np.allclose(y, [2.0 * decay**k for k in range(11)])
    with pytest.raises(DomainError):
        mala_ar1_limit(2.0, 10, rng=chain_rng(0))
    with pytest.raises(DomainError):
        mala_ar1_limit(0.0, 10, rng=chain_rng(0))


def test_limit_csv_format(tmp_path):
    from mhscaling import cli

    assert cli.main(["simulate", "--kind", "ode", "--strategy", "constant:1",
                     "--m0", "1", "--s0", "2", "--dt", "1e-2", "--t-max", "0.05",
                     "--out", str(tmp_path)]) == 0
    traj = integrate_gaussian_ode(1.0, 2.0, ConstantEll(1.0), dt=1e-2, t_max=0.05)
    lines = (tmp_path / "limit.csv").read_text().splitlines()
    assert lines[0] == cli.LIMIT_HEADER == "t,m,s,H,ell_used,acc"
    assert len(lines) == traj.t.size + 1
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] == 0.0 and row[1] == 1.0 and row[2] == 2.0
    last = [float(v) for v in lines[-1].split(",")]
    assert last == [traj.t[-1], traj.m[-1], traj.s[-1], traj.entropy[-1],
                    traj.ell[-1], traj.acc[-1]]


def test_diffusion_drift_ratio_at_matched_moments():
    for c in (0.4, 1.0, 3.0):
        for ell in (0.7, 1.5):
            assert gamma(c, c, ell) / (2.0 * g_drift(c, c, ell)) == pytest.approx(
                1.0, rel=1e-12
            )
