import hashlib
import math

import mpmath
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
    _MALA_U_STAR,
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
from mhscaling.targets import Potential, custom_potential, gaussian_potential


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


@pytest.mark.parametrize("v", [1e-300, 1e-17, 1e-16, 1e-10, 0.3])
def test_entropy_at_small_variance_matches_mpmath(v):
    # s - 1 - log(s) at m = 0; 1 + (v - 1) rounds v away below 1.1e-16
    with mpmath.workdps(50):
        exact = (mpmath.mpf(v) - 1 - mpmath.log(mpmath.mpf(v))) / 2
    assert gaussian_entropy(0.0, v) == pytest.approx(float(exact), rel=1e-15)


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


def test_time_to_equilibrium_against_the_target_acceptance():
    # The paper's practical rule: a constant acceptance between 1/4 and 1/3
    # brings the Gaussian limit to equilibrium nearly as fast as the
    # rate-optimal scale, and targets well outside it do not.  T is the first
    # time the entropy is below 1e-4.  Observed: alpha in [1/4, 1/3] within
    # +7.0 % of star, alpha = 0.15 +34 to +36 %, alpha = 1/2 +10.4 % or more;
    # at dt = 1e-3 none of them moves by more than 0.1 points.
    def reach(m, s, spec, t_max):
        traj = integrate_gaussian_ode(m, s, strategy_from_label(spec), dt=1e-2, t_max=t_max)
        below = np.flatnonzero(traj.entropy < 1e-4)
        return traj.t[below[0]] if below.size else math.inf

    for m, s in ((0.0, 100.0), (0.0, 0.01), (2.0, 6.0)):
        best = reach(m, s, "star", 40.0)
        t_max = 1.5 * best  # later than that is slower than every bound below
        for alpha in (0.25, 0.27, 0.3, 1.0 / 3.0):
            assert reach(m, s, f"alpha:{alpha}", t_max) <= 1.08 * best, (m, s, alpha)
        assert reach(m, s, "alpha:0.15", t_max) >= 1.25 * best, (m, s)
        assert reach(m, s, "alpha:0.5", t_max) >= 1.09 * best, (m, s)


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

    # V = 0 has infinite mass, so no construction check would pass it
    flat = Potential("flat", eval_v=zeros, d1=zeros, d2=zeros, d3=zeros, d4=zeros)
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
        **{name: counted(name, getattr(base, name)) for name in calls},
    )
    calls.update(d1=0, d2=0, d3=0, d4=0)  # construction evaluates them to check them
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


@pytest.mark.parametrize("call, expected", [
    (lambda: mala_w(-1.0, math.inf), DomainError),
    (lambda: mala_w(math.nan, 1.0), DomainError),
    (lambda: mala_z_stationary(gaussian_potential(), math.inf), DomainError),
    (lambda: mala_regime(math.inf), DomainError),
    (lambda: mala_regime(-math.inf), DomainError),
    (lambda: mala_regime(1.0, eps=math.nan), DomainError),
    (lambda: integrate_mala_second_moment(math.nan, 1.0), DomainError),
    (lambda: integrate_mala_second_moment(2.0, math.inf), DomainError),
    (lambda: entropy_rate_bound(1.0, 1.0, 1.0, fisher=math.nan), DomainError),
    # past ell^4 = inf, the limit of ell^2 (exp(ell^4 moment / 8) ^ 1)
    (lambda: mala_w(-1.0, 1e100), 0.0),
    (lambda: mala_w(0.0, 1e100), 1e200),
    (lambda: mala_w(1.0, 1e100), 1e200),
    # past ell^3 = inf, 2 ell^2 Phi(-inf)
    (lambda: mala_z_stationary(gaussian_potential(), 1e120), 0.0),
], ids=["w-inf-ell", "w-nan-moment", "z-inf-ell", "regime-inf", "regime-minus-inf",
        "regime-nan-eps", "flow-nan-s0", "flow-inf-ell", "bound-nan-fisher",
        "w-huge-ell-negative", "w-huge-ell-zero", "w-huge-ell-positive", "z-huge-ell"])
def test_mala_limit_objects_at_non_finite_or_huge_input(call, expected):
    if expected is DomainError:
        with pytest.raises(DomainError):
            call()
    else:
        assert call() == expected


def test_mala_second_moment_ode_monotone_to_one():
    ts, ss = integrate_mala_second_moment(4.0, 1.4, dt=1e-3, t_max=8.0)
    assert np.all(np.diff(ss) < 0)
    assert ss[-1] == pytest.approx(1.0, abs=1e-3)
    ts, ss = integrate_mala_second_moment(0.25, 1.4, dt=1e-3, t_max=8.0)
    assert np.all(np.diff(ss) > 0)


@pytest.mark.parametrize("dt", [0.3, 1.0])
def test_mala_flow_never_goes_negative(dt):
    # At ell = 3 the flow from s0 = 4 is stiff for these steps: an RK4 step
    # without the variance guard overshoots to s = -0.050 (dt 0.3) and -9.5
    # (dt 1.0); with it the flow stays at s >= 0.906 and 0.697.
    ss = integrate_mala_second_moment(4.0, 3.0, dt=dt)[1]
    assert np.all(ss >= 0.0)


def test_limit_flows_are_pinned():
    # The digest of both deterministic flows: the moment ODE under four
    # strategies from the point mass (10, 100), and the MALA second-moment
    # flow from either side of 1.  It moves if the RK4 step, the fields or
    # the tuning solves change, and such a change must be recorded with the
    # old digest, the new one and the oracle result that justifies it; it is
    # also tied to the scipy in use, whose special functions the fields call.
    digest = hashlib.sha256()
    for spec in ("constant:2.38", "star", "alpha:0.27", "ent"):
        traj = integrate_gaussian_ode(10.0, 100.0, strategy_from_label(spec), dt=1e-2,
                                      stop_tol=1e-6)
        for column in (traj.t, traj.m, traj.s, traj.entropy, traj.ell, traj.acc):
            digest.update(column.tobytes())
    for s0 in (4.0, 0.25):
        for column in integrate_mala_second_moment(s0, 1.4, dt=1e-3, t_max=2.0):
            digest.update(column.tobytes())
    assert digest.hexdigest() == (
        "b1886c0b2ff0886222b8aa9f6304ad1a9648316b06cbc2647fabbe20192eb452"
    )


def test_mala_first_step_acceptance_tends_to_the_transient_limit():
    # The paper's transient MALA claim as a finite-n oracle.  From
    # coordinates iid N(0, s0) on the Gaussian, with proposal std
    # ell n^(-1/4), the mean acceptance of one run_mala step tends to
    # mala_w(s0 - 1, ell) / ell^2 as n grows: exp(ell^4 (s0 - 1) / 8) below
    # s0 = 1 and 1 above it.
    # Calibration note (ell = 1.2, 400 starts, 12 disjoint seed groups): the
    # n = 400 -> 1,600 gaps were 0.0011 -> 0.0001 (s0 = 0.5, inside the
    # noise), 0.0141 -> 0.0064 (0.8), 0.0085 -> 0.0023 (1.5) and 0 (3), as
    # means over the groups.  Every group passed the asserts below.  A plain
    # "n = 1,600 within 3 SE" failed in 6 groups at s0 = 0.8 and in all 12
    # at 1.5: the gap left at n = 1,600 is finite-n bias, which more starts
    # only resolve better, so the bound allows half the n = 400 gap (a bias
    # decaying at least like n^(-1/2)) on top of the noise.
    p, ell, seeds = gaussian_potential(), 1.2, range(400)

    def acceptance(s0, n):
        probs = []
        for seed in seeds:
            rng = chain_rng([n, seed])
            init = math.sqrt(s0) * rng.standard_normal(n)
            records, _ = run_mala(init, p, ell * n**-0.25, 1, rng=rng)
            probs.append(records[0].acc_prob)
        return np.mean(probs), np.std(probs, ddof=1) / math.sqrt(len(probs))

    for s0 in (0.5, 0.8, 1.5, 3.0):
        limit = mala_w(s0 - 1.0, ell) / ell**2
        (small, _), (large, se) = acceptance(s0, 400), acceptance(s0, 1600)
        gap_small, gap_large = abs(small - limit), abs(large - limit)
        assert gap_large <= 3.0 * se + 0.5 * gap_small, (s0, small, large, se, limit)
        if s0 in (0.8, 1.5):  # n = 400 is clearly off the limit here
            assert gap_large < gap_small, (s0, small, large, limit)
    assert large >= 0.999  # s0 = 3: every start accepts, the SE is 0


def test_limit_integrators_refuse_bad_horizon():
    pe = make_ensemble(np.zeros(10), dt=1e-2, rng=chain_rng(0))
    for t_max in (-5.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            integrate_gaussian_ode(10.0, 100.0, ConstantEll(1.0), dt=1e-2, t_max=t_max)
        with pytest.raises(DomainError):
            integrate_particles(pe, gaussian_potential(), 1.0, t_max=t_max)
        with pytest.raises(DomainError):
            integrate_mala_second_moment(4.0, 1.4, dt=1e-3, t_max=t_max)
    for dt in (0.0, -1e-3, math.inf, math.nan, 5e-324, 1e-300):
        with pytest.raises(DomainError):
            integrate_mala_second_moment(4.0, 1.4, dt=dt, t_max=1.0)
    # a step count that overflows a float
    with pytest.raises(DomainError):
        integrate_gaussian_ode(10.0, 100.0, ConstantEll(1.0), dt=5e-324, t_max=1.0)
    with pytest.raises(DomainError):
        integrate_particles(pe, gaussian_potential(), 1.0, t_max=1e308)
    for every in (0, -1):
        with pytest.raises(DomainError):
            integrate_gaussian_ode(10.0, 100.0, ConstantEll(1.0), dt=1e-2, t_max=1.0,
                                   policy_every=every)
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


def test_mala_u_star_is_the_50_digit_root():
    with mpmath.workdps(50):
        oracle = mpmath.findroot(lambda u: 2 * mpmath.ncdf(-u) - 3 * u * mpmath.npdf(u), 0.56)
    assert abs(_MALA_U_STAR - oracle) <= math.ulp(_MALA_U_STAR)


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
    for y0 in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            mala_ar1_limit(1.0, 5, y0=y0, rng=chain_rng(0))


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
