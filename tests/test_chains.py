import dataclasses
import inspect
import math
import pickle

import numpy as np
import pytest
from scipy import special, stats

from mhscaling import chains, tuning
from mhscaling.chains import (
    DEFAULT_ELL_CAP,
    ChainRuns,
    ConstantAccAdaptive,
    ConstantAccNumeric,
    ConstantEll,
    EntropyOptimalGaussian,
    RateOptimal,
    StepRecord,
    adaptive_update,
    chain_rng,
    run_chain,
    run_chains,
    run_chains_moments,
    run_mala,
    rwm_step,
    strategy_from_label,
)
from mhscaling.errors import DomainError
from mhscaling.limits import mala_ar1_limit
from mhscaling.targets import double_well_potential, gaussian_potential

from oracles import phi_inv


def test_strategy_labels_roundtrip():
    for spec, label in [
        ("constant:2.38", "constant-2.38"),
        ("alpha:0.27", "acc-0.27-numeric"),
        ("alpha-adaptive:0.3", "acc-0.3-adaptive"),
        ("star", "rate-optimal"),
        ("ent", "entropy-gaussian"),
    ]:
        assert strategy_from_label(spec).label() == label
    with pytest.raises(DomainError):
        strategy_from_label("bogus")


@pytest.mark.parametrize("strategy", [
    ConstantEll(1.2345678), ConstantEll(2.380000001), ConstantEll(),
    ConstantAccNumeric(0.2345678), ConstantAccAdaptive(1.0 / 3.0),
    RateOptimal(), EntropyOptimalGaussian(),
])
def test_strategy_spec_roundtrip_is_lossless(strategy):
    assert strategy_from_label(strategy.spec()) == strategy


def test_strategy_spec_defaults():
    assert strategy_from_label("constant") == ConstantEll(2.38)
    assert strategy_from_label("alpha") == ConstantAccNumeric(0.27)
    assert strategy_from_label("alpha-adaptive") == ConstantAccAdaptive(0.27)
    assert RateOptimal().spec() == "star"
    assert ConstantEll(2.38).spec() == "constant:2.38"


@pytest.mark.parametrize("text", [
    "constant:abc", "constant:inf", "alpha:nan", "alpha-adaptive:0.2x",
    "star:5", "ent:1", "constant-2.38", "rate-optimal", "constant:1e200",
])
def test_strategy_spec_malformed(text):
    with pytest.raises(DomainError):
        strategy_from_label(text)


def test_strategy_kinds_are_declared_once():
    # the refusal of an unknown kind lists every kind with its field, from the
    # classes themselves, and only Strategy defines label()
    with pytest.raises(DomainError) as refusal:
        strategy_from_label("bogus")
    usage = str(refusal.value).split("expected ", 1)[1]
    assert usage == "constant[:ell] | alpha[:alpha] | alpha-adaptive[:alpha] | star | ent"
    assert usage.split(" | ") == [
        kind + "".join(f"[:{f.name}]" for f in dataclasses.fields(cls))
        for kind, cls in chains._KINDS.items()
    ]
    for cls in chains._KINDS.values():
        assert [c for c in cls.__mro__ if "label" in vars(c)] == [chains.Strategy]


@pytest.mark.parametrize("text, wording", [
    ("alpha:nan", "must lie in (0, 1), got nan"),
    ("alpha-adaptive:inf", "must lie in (0, 1), got inf"),
    ("constant:inf", "must be > 0 with a finite square, got inf"),
    ("constant:abc", "'abc' is not a number"),
])
def test_strategy_argument_is_refused_by_its_class(text, wording):
    # a number is the class's to check, in its own wording; the spec parser
    # refuses only text that is no number, by name
    with pytest.raises(DomainError) as refusal:
        strategy_from_label(text)
    assert wording in str(refusal.value) and "\n" not in str(refusal.value)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5, math.nan])
@pytest.mark.parametrize("cls", [ConstantAccNumeric, ConstantAccAdaptive])
def test_acceptance_targets_outside_the_unit_interval_are_refused(cls, alpha):
    with pytest.raises(DomainError, match="alpha must lie in"):
        cls(alpha)


@pytest.mark.parametrize("text", ["alpha:1", "alpha-adaptive:0"])
def test_strategy_spec_with_an_acceptance_target_off_the_unit_interval(text):
    with pytest.raises(DomainError, match="alpha must lie in"):
        strategy_from_label(text)


def test_choose_ell_constant_and_rate_optimal():
    assert ConstantEll(2.38).scale(5.0, 1.0, 0.0, 5.0) == 2.38
    got = RateOptimal().scale(1.0, 1.0, 0.0, 1.0)
    assert got == pytest.approx(1.85, abs=0.01)


def test_choose_ell_acceptance_numeric():
    got = ConstantAccNumeric(0.27).scale(5.24, 5.24, 0.0, 1.0)
    want = tuning.ell_alpha(1.0, 0.27).ell / math.sqrt(5.24)
    assert got == pytest.approx(want, rel=1e-12)


def test_acceptance_matching_at_a_point_start_uses_the_s_zero_root():
    # at x = 0 the Gaussian's a_hat is 0, and the scale is the root of
    # exp(-ell^2 / 2) = alpha, not that of a clamped moment ratio
    records, _ = run_chain(np.zeros(10), gaussian_potential(), ConstantAccNumeric(0.27), 1,
                           rng=chain_rng(0))
    want = math.sqrt(-2.0 * math.log(0.27))
    assert abs(records[0].ell_used - want) <= 1e-13 * want


def test_choose_ell_concave_fallback():
    # nonpositive curvature estimate: numeric rules return the cap
    assert ConstantAccNumeric(0.3).scale(1.0, -0.5, 0.0, 1.0) == DEFAULT_ELL_CAP
    assert RateOptimal().scale(1.0, 0.0, 0.0, 1.0) == DEFAULT_ELL_CAP


def test_choose_ell_adaptive_is_refused():
    # the adaptive scale is a chain's theta, not a function of the moments
    with pytest.raises(DomainError, match="deterministic-limit"):
        ConstantAccAdaptive(0.3).scale(1.0, 1.0, 0.0, 1.0)


def test_every_strategy_scales_from_the_four_moments_alone():
    for cls in chains._KINDS.values():
        assert list(inspect.signature(cls.scale).parameters) == ["self", "a", "b", "m", "s"], cls


def test_choose_ell_entropy_degenerate_point_start():
    # zero spread falls back to the rate-optimal value
    got = EntropyOptimalGaussian().scale(100.0, 1.0, 10.0, 100.0)
    assert got == pytest.approx(tuning.ell_star(100.0).ell, rel=1e-12)


def test_adaptive_update_fixed_points():
    assert adaptive_update(0.3, 0.25, 0.25, k=5) == 0.3
    moved = adaptive_update(0.0, 0.5, 0.25, k=0)
    assert moved == pytest.approx(0.25)  # gamma_1 = 1


def test_rwm_step_zero_move_accepts():
    # a proposal equal to the current point has acceptance probability 1
    p = gaussian_potential()

    class ZeroNoise:
        # zero proposal normals; each step's last normal gives the uniform
        # Phi(5) = 0.9999997, which still accepts at probability 1
        def standard_normal(self, size, out):
            out[...] = 0.0
            out[..., -1] = 5.0

    _, rec = rwm_step(np.zeros(1), p, ConstantEll(1.0), rng=ZeroNoise())
    assert rec.acc_prob == 1.0
    assert rec.accepted


def test_rwm_acc_prob_is_density_ratio():
    p = gaussian_potential()

    class FixedNoise:
        def __init__(self, y):
            self.y = y

        def standard_normal(self, size, out):
            out[...] = self.y

    y = 1.7
    # n=1: the proposal is exactly y
    _, rec = rwm_step(np.zeros(1), p, ConstantEll(1.0), rng=FixedNoise(y))
    assert rec.acc_prob == pytest.approx(math.exp(-0.5 * y * y), rel=1e-12)


def test_rwm_stationary_acceptance_level():
    p = gaussian_potential()
    rng = chain_rng(42)
    init = rng.standard_normal(100)
    records, _ = run_chain(init, p, ConstantEll(2.38), steps=20_000, rng=rng)
    mean_acc = float(np.mean([r.acc_prob for r in records]))
    assert mean_acc == pytest.approx(0.234, abs=0.02)


def test_run_chain_deterministic_and_zero_steps():
    p = gaussian_potential()
    r1, s1 = run_chain(np.zeros(4), p, ConstantEll(1.0), steps=60, rng=chain_rng(5))
    r2, s2 = run_chain(np.zeros(4), p, ConstantEll(1.0), steps=60, rng=chain_rng(5))
    assert np.array_equal(s1, s2)
    assert r1 == r2
    r0, s0 = run_chain(np.ones(4), p, ConstantEll(1.0), steps=0, rng=chain_rng(5))
    assert r0 == []
    assert np.array_equal(s0, np.ones(4))


def test_adaptive_theta_starts_with_the_batch():
    # An adaptive row holds theta = log(2.38 / sqrt(n)) before its first step;
    # the other rows have none.
    p, n = gaussian_potential(), 16
    runs = run_chains(np.ones((2, n)), p, [ConstantAccAdaptive(0.3), ConstantEll(1.0)], 0,
                      rngs=[chain_rng(0), chain_rng(1)])
    assert runs.theta == [math.log(2.38 / math.sqrt(n)), None]
    assert runs.a_hat.shape == (2, 0)


def test_run_chain_preserves_stationarity():
    p = gaussian_potential()
    rng = chain_rng(7)
    init = rng.standard_normal(100)
    records, _ = run_chain(init, p, ConstantEll(2.38), steps=100_000, rng=rng)
    mean_second = float(np.mean([r.s_hat for r in records]))
    assert mean_second == pytest.approx(1.0, abs=0.02)


def _finite_n_acceptance(s, n, ell):
    # Expected acceptance of one random walk step on the Gaussian from a
    # point x with mean x^2 = s, in dimension n.  Along x the proposal
    # normal is z and the rest of its squared norm is w ~ chi2(n - 1), so
    # the change of sum V is q(z) = d z^2 + c z + d w.  The z integral of
    # min(1, e^-q) is closed form (1 between the roots of q, a Gaussian tail
    # outside); the w one is a 200-point midpoint rule in probability.
    w = stats.chi2.ppf((np.arange(200) + 0.5) / 200, n - 1)
    c, d = ell * np.sqrt(s)[:, None], ell * ell / (2 * n)
    tau, e = 1 + 2 * d, d * w
    root = np.sqrt(np.maximum(c * c - 4 * d * e, 0.0))
    lo = (-c - root) / (2 * d)
    hi = np.maximum(2 * e / (-c - root), lo)  # the roots; equal when q > 0 throughout
    mu, log_k = -c / tau, c * c / (2 * tau) - e - 0.5 * math.log(tau)
    tails = (np.exp(log_k + special.log_ndtr(math.sqrt(tau) * (lo - mu)))
             + np.exp(log_k + special.log_ndtr(-math.sqrt(tau) * (hi - mu))))
    return (special.ndtr(hi) - special.ndtr(lo) + tails).mean(axis=1)


def test_acceptance_rate_tracks_limit_as_n_grows():
    # mean per-step acceptance at rescaled times approaches the limiting
    # acceptance computed from the moment ODE, and the gap shrinks with n.
    # The mean is taken of each step's expected acceptance given the point
    # it starts from, which has the same mean as acc_prob without the noise
    # of the proposal; acc_prob must average to it over all steps and inside
    # each window.  The differences acc_prob - expected are uncorrelated
    # across steps (each has mean 0 given the chain's past), so a plain
    # standard error applies.
    from mhscaling import limits
    from mhscaling.coefficients import acc_rate

    p = gaussian_potential()
    ell, mu0, var0 = 2.0, 3.0, 1.0
    traj = limits.integrate_gaussian_ode(
        mu0, mu0**2 + var0, ConstantEll(ell), dt=1e-4, t_max=1.05
    )
    t_grid = (0.2, 0.4, 0.6, 0.8, 1.0)

    def tracking_dev(n, reps, seed0):
        # the reps chains run as one batch; chain r is the run_chain of
        # chain_rng(seed0 + r), bit for bit
        window = max(1, n // 20)
        rngs = [chain_rng(seed0 + r) for r in range(reps)]
        inits = [mu0 + math.sqrt(var0) * rng.standard_normal(n) for rng in rngs]
        runs = run_chains(inits, p, [ConstantEll(ell)] * reps, steps=n, rngs=rngs)
        grid = np.linspace(runs.s_hat.min(), runs.s_hat.max(), 400)
        expected = np.interp(runs.s_hat, grid, _finite_n_acceptance(grid, n, ell))
        noise = runs.acc_prob - expected
        assert abs(noise.mean()) < 5.0 * noise.std() / math.sqrt(noise.size), n
        devs = []
        for t in t_grid:
            center = min(int(n * t), n - 1)
            lo = max(0, center - window // 2)
            gap = noise[:, lo : lo + window]
            assert abs(gap.mean()) < 4.0 * gap.std() / math.sqrt(gap.size), (n, t)
            ode_acc = acc_rate(traj.s[int(round(t / 1e-4))], 1.0, ell)
            devs.append(abs(expected[:, lo : lo + window].mean() - ode_acc))
        return max(devs)

    dev10 = tracking_dev(10, 1500, 400)
    dev50 = tracking_dev(50, 1200, 500)
    dev200 = tracking_dev(200, 700, 600)
    assert dev200 < dev50 < dev10


def test_rwm_reversibility_goodness_of_fit():
    # n = 1 long run should be indistinguishable from the standard normal
    p = gaussian_potential()
    records, end = run_chain(np.zeros(1), p, ConstantEll(2.38), 120_000, rng=chain_rng(3))
    # at n = 1 a record's m_hat is the coordinate its step starts from, so
    # the coordinate after step k is the m_hat of step k + 1
    xs = [r.m_hat for r in records[1:]] + [end[0]]
    thinned = np.array(xs[2000::20])
    n_bins = 20
    edges = [-np.inf] + [phi_inv(i / n_bins) for i in range(1, n_bins)] + [np.inf]
    counts, _ = np.histogram(thinned, bins=edges)
    expected = len(thinned) / n_bins
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # significance level 1e-3
    assert chi2 < stats.chi2.ppf(1 - 1e-3, df=n_bins - 1)


def test_exchangeability_commutes_with_permutation():
    p = double_well_potential()
    perm = np.array([2, 0, 1])

    class PermutedBlocks:
        """Wraps a generator, permuting each step's proposal normals (the
        per-coordinate noise streams) by the same permutation applied to the
        coordinates; the step's last normal, its uniform, stays put."""

        def __init__(self, seed):
            self.base = chain_rng(seed)

        def standard_normal(self, size, out):
            self.base.standard_normal(size, out=out)
            out[..., :-1] = out[..., perm]

    init = np.array([0.3, -1.2, 2.0])
    plain, _ = run_chain(init, p, ConstantEll(1.3), steps=40, rng=chain_rng(11))
    permuted, end = run_chain(
        init[perm], p, ConstantEll(1.3), steps=40, rng=PermutedBlocks(11)
    )
    # same acceptance path and moment estimates; coordinates permuted
    assert [r.accepted for r in plain] == [r.accepted for r in permuted]
    for a, b in zip(plain, permuted):
        assert a.acc_prob == pytest.approx(b.acc_prob, rel=1e-12)
        assert a.a_hat == pytest.approx(b.a_hat, rel=1e-12)

    replay, end2 = run_chain(init, p, ConstantEll(1.3), steps=40, rng=chain_rng(11))
    assert np.allclose(end, end2[perm])


def test_mala_exponent_matches_density_ratio():
    rng = np.random.default_rng(0)
    for p in (gaussian_potential(), double_well_potential()):
        for _ in range(40):
            n = 5
            x = rng.normal(0.0, 2.0, n)
            noise = rng.normal(0.0, 1.0, n)
            sigma = float(rng.uniform(0.05, 1.2))
            d1x = np.asarray(p.d1(x))
            jump = sigma * noise - 0.5 * sigma**2 * d1x
            y = x + jump
            reverse = noise - 0.5 * sigma * (d1x + np.asarray(p.d1(y)))
            printed = float(
                np.sum(p.eval_v(x)) - np.sum(p.eval_v(y))
                + 0.5 * (np.sum(noise**2) - np.sum(reverse**2))
            )

            def log_q(frm, to):
                mean = frm - 0.5 * sigma**2 * np.asarray(p.d1(frm))
                return float(-np.sum((to - mean) ** 2) / (2.0 * sigma**2))

            ratio = (
                float(np.sum(p.eval_v(x)) - np.sum(p.eval_v(y)))
                + log_q(y, x)
                - log_q(x, y)
            )
            assert printed == pytest.approx(ratio, abs=1e-10)


def test_mala_gaussian_closed_form_exponent():
    # per-coordinate exponent for the standard normal target:
    # l^4/8 (x^2 - g^2) + (l^5/8 - l^3/4) x g - l^6/32 x^2 with l = sigma
    p = gaussian_potential()
    x, noise, sigma = 1.0, 0.5, 0.8
    jump = sigma * noise - 0.5 * sigma**2 * x
    y = x + jump
    reverse = noise - 0.5 * sigma * (x + y)
    printed = (
        float(p.eval_v(x)) - float(p.eval_v(y)) + 0.5 * (noise**2 - reverse**2)
    )
    closed = (
        sigma**4 / 8.0 * (x**2 - noise**2)
        + (sigma**5 / 8.0 - sigma**3 / 4.0) * x * noise
        - sigma**6 / 32.0 * x**2
    )
    assert printed == pytest.approx(closed, abs=1e-12)


def test_mala_small_sigma_accepts():
    p = gaussian_potential()
    records, _ = run_mala(np.full(20, 1.5), p, sigma=1e-4, steps=50, rng=chain_rng(1))
    assert all(r.acc_prob > 0.999 for r in records)
    assert len(records) == 50 and all(r.accepted for r in records)


def test_mala_rejects_nonpositive_sigma():
    p = gaussian_potential()
    # a sigma whose square overflows would write acc_prob = nan
    for sigma in (0.0, math.nan, math.inf, 1e155):
        with pytest.raises(DomainError):
            run_mala(np.zeros(3), p, sigma, 1, rng=chain_rng(0))


@pytest.mark.parametrize("p", [gaussian_potential(), double_well_potential()])
def test_overflowing_proposal_is_a_rejection(p):
    # At a scale near 1e154 the proposal's V (and for MALA its V' and the
    # exponent) overflow: the step must reject quietly, not warn or write nan.
    runs = [run_chain(np.zeros(1), p, ConstantEll(1e154), 20, rng=chain_rng(1)),
            run_mala(np.full(1, 0.5), p, 1e154, 20, rng=chain_rng(1))]
    for (records, end), start in zip(runs, (0.0, 0.5)):
        assert len(records) == 20
        assert all(r.acc_prob == 0.0 and not r.accepted for r in records)
        assert all(math.isfinite(v) for r in records
                   for v in (r.ell_used, r.a_hat, r.b_hat, r.m_hat, r.s_hat))
        assert end.tolist() == [start]


def test_adaptive_strategy_reaches_target_rate():
    p = gaussian_potential()
    rng = chain_rng(21)
    init = rng.standard_normal(100)
    records, _ = run_chain(
        init, p, ConstantAccAdaptive(alpha=0.234), steps=30_000, rng=rng
    )
    tail = [r.acc_prob for r in records[-10_000:]]
    assert 0.21 <= float(np.mean(tail)) <= 0.26


def test_trajectory_csv_format(tmp_path):
    from mhscaling import cli

    assert cli.main(["simulate", "--kind", "rwm", "--n", "3", "--steps", "5",
                     "--strategy", "constant:1", "--init", "point:0", "--seed", "0",
                     "--out", str(tmp_path)]) == 0
    records, _ = run_chain(np.zeros(3), gaussian_potential(), ConstantEll(1.0), steps=5,
                           rng=chain_rng(0))
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "k,ell_used,acc_prob,a_hat,b_hat"
    assert len(lines) == 6
    fields = lines[1].split(",")
    assert int(fields[0]) == 1
    # every double reads back exactly
    r = records[0]
    assert [float(v) for v in fields[1:]] == [r.ell_used, r.acc_prob, r.a_hat, r.b_hat]


def _bits(record):
    return np.array(dataclasses.astuple(record), dtype=float).tobytes()


@pytest.mark.parametrize("target, spec", [
    *[("gaussian", s) for s in ("constant:2.38", "star", "alpha:0.27", "ent")],
    *[("double-well", s) for s in ("constant:2.38", "star", "alpha:0.27")],
    ("gaussian", "mala"),
    ("double-well", "mala"),
])
def test_cached_summary_steps_like_a_fresh_state(target, spec):
    # A chain run again from its end point on the same generator must step
    # bit for bit as it would have gone on: a run keeps nothing outside its
    # position and its stream.  (An adaptive chain also carries theta, which
    # a new run restarts; test_batch_rows_step_like_chains_alone checks it.)
    p = gaussian_potential() if target == "gaussian" else double_well_potential()
    if spec == "mala":
        sigma = 0.8 if target == "gaussian" else 0.3  # both accept and reject

        def run(init, steps, rng):
            return run_mala(init, p, sigma, steps, rng=rng)
        init = chain_rng(9).standard_normal(50) + 1.0
    else:
        def run(init, steps, rng):
            return run_chain(init, p, strategy_from_label(spec), steps, rng=rng)
        init = np.full(50, 10.0)
    whole, whole_end = run(init, 340, chain_rng(5))
    rng = chain_rng(5)
    _, middle = run(init, 300, rng)
    resumed, end = run(middle, 40, rng)
    for record, alone in zip(resumed, whole[300:], strict=True):
        assert _bits(dataclasses.replace(record, k=alone.k)) == _bits(alone)
    assert end.tobytes() == whole_end.tobytes()
    assert {r.accepted for r in resumed} == {True, False}


def test_rate_optimal_solves_once_per_point(monkeypatch):
    # one solve at the start and one after each acceptance, none on rejection,
    # through the scale-only solve the strategy calls
    calls = 0
    solve = chains._ell_star_ab

    def counted(a, b):
        nonlocal calls
        calls += 1
        return solve(a, b)

    monkeypatch.setattr(chains, "_ell_star_ab", counted)
    records, _ = run_chain(np.full(50, 10.0), gaussian_potential(), RateOptimal(),
                           steps=300, rng=chain_rng(4))
    assert calls == 1 + sum(r.accepted for r in records[:-1])
    assert calls < len(records)


def test_chains_evaluate_no_rule_objective(monkeypatch):
    # A chain reads only its scale: a batch of the five rules, whose tuned
    # rows solve at every new point, evaluates none of the rules' objectives
    # (f1 for star, the acceptance curve for alpha, the entropy derivative
    # for ent); the public solvers still do, once per solve.
    calls = {}

    def counted(name):
        fn = getattr(tuning, name)

        def wrapped(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapped

    for name in ("f1", "j_curve", "_entropy_derivative_objective"):
        monkeypatch.setattr(tuning, name, counted(name))
    p, specs = gaussian_potential(), FIVE_SPECS
    runs = run_chains(np.full((len(specs), 20), 3.0), p,
                      [strategy_from_label(spec) for spec in specs], 100,
                      rngs=[chain_rng([2, r]) for r in range(len(specs))])
    assert runs.accepted[1:3].sum() > 10 and runs.accepted[4].sum() > 10
    assert calls == {}
    tuning.ell_star_ab(3.0, 1.0), tuning.ell_alpha_ab(3.0, 1.0, 0.27)
    tuning.ell_ent_gaussian(1.0, 3.0)
    assert calls == {"f1": 1, "j_curve": 1, "_entropy_derivative_objective": 1}


@pytest.mark.parametrize("kind", ["rwm", "mala", "run_chains", "run_chains_moments"])
def test_steps_leave_the_callers_array_alone(kind):
    # The Gaussian's V' returns its argument, so a batch summary that kept
    # it would hold the chain's own coords; and a batch moves its accepted
    # rows in place, so a batch that kept the caller's starts would write
    # the proposals there.  Chains started from one array must run like
    # chains started from copies of it, and the array must not move.
    p = gaussian_potential()

    def run(init, seed):
        # the bytes of what the run returns, and whether any chain moved
        if kind == "mala":
            records, end = run_mala(init, p, 0.5, 30, rng=chain_rng(seed))
        elif kind == "rwm":
            records, end = run_chain(init, p, ConstantEll(1.0), 30, rng=chain_rng(seed))
        else:
            args = (init, p, [ConstantEll(1.0)] * len(init), 30)
            rngs = [chain_rng([seed, r]) for r in range(len(init))]
            if kind == "run_chains_moments":
                m_hat, s_hat = run_chains_moments(*args, rngs=rngs)
                return [m_hat.tobytes(), s_hat.tobytes()], bool(np.any(s_hat != 1.0))
            runs = run_chains(*args, rngs=rngs)
            return ([getattr(runs, f.name).tobytes() for f in dataclasses.fields(runs)
                     if f.name != "theta"], bool(runs.accepted.any()))
        return [_bits(r) for r in records] + [end.tobytes()], any(r.accepted for r in records)

    shared = np.full(20 if kind in ("rwm", "mala") else (3, 20), 1.0)
    for seed in (3, 4):
        got, moved = run(shared, seed)
        assert got == run(shared.copy(), seed)[0]
        assert moved
    assert np.all(shared == 1.0)


def _alone(init, p, strategy, steps, rng):
    # A chain stepped alone with whole-vector numpy reductions and its own
    # scale cache: the reference the batch kernel's rows must match.
    x = np.array(init, dtype=float)
    n = x.size
    theta = math.log(2.38 / math.sqrt(n)) if isinstance(strategy, ConstantAccAdaptive) else None

    def summary(x):
        d1 = p.d1(x)
        return np.sum(p.eval_v(x)), (float(np.mean(d1 * d1)), float(np.mean(p.d2(x))),
                                     float(np.mean(x)), float(np.mean(x * x)))

    sum_v, here = summary(x)
    ell, rows = None, []
    for k in range(steps):
        if theta is not None:
            ell = math.exp(theta) * math.sqrt(n)
        elif ell is None:
            ell = strategy.scale(*here)
        draws = rng.standard_normal(n + 1)  # n proposal normals, then the uniform's
        y = x + ell / math.sqrt(n) * draws[:n]
        acc_prob = float(np.exp(min(float(sum_v - np.sum(p.eval_v(y))), 0.0)))
        accepted = bool(special.ndtr(draws[n]) <= acc_prob)
        rows.append((ell, accepted, acc_prob, *here))
        if theta is not None:
            theta = adaptive_update(theta, acc_prob, strategy.alpha, k)
        if accepted:
            x, ell = y, None
            sum_v, here = summary(x)
    return [np.array(column) for column in zip(*rows)], x, theta


RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(StepRecord))[1:]  # all but k
FIVE_SPECS = ("constant:2.38", "star", "alpha:0.27", "alpha-adaptive:0.27", "ent")


@pytest.mark.parametrize("target, starts, specs", [
    ("gaussian", ("point:10", "gaussian:0,1"), FIVE_SPECS),
    ("double-well", ("gaussian:0,1", "point:3"), FIVE_SPECS[:4]),
])
def test_batch_rows_step_like_chains_alone(monkeypatch, target, starts, specs):
    # Each row of a mixed batch must give, bit for bit, the records and end
    # point of the same chain run alone, by run_chain and by a whole-vector
    # reference: a stream, exp or reduction that depended on the other rows,
    # or on the route, would show here.
    from mhscaling.targets import initial_coords, potential_by_name

    p = potential_by_name(target)
    cases = [(start, spec) for start in starts for spec in specs]
    n, steps = 20, 150

    def start(i):
        kind, _, arg = cases[i][0].partition(":")
        rng = chain_rng([7, i])
        return initial_coords(kind, arg.split(","), n, p, rng), rng

    scale_calls = {}
    for cls in {type(strategy_from_label(spec)) for spec in specs}:
        def counted(self, *args, _scale=cls.scale):
            scale_calls[id(self)] = scale_calls.get(id(self), 0) + 1
            return _scale(self, *args)
        monkeypatch.setattr(cls, "scale", counted)

    strategies = [strategy_from_label(spec) for _, spec in cases]
    inits, rngs = zip(*(start(i) for i in range(len(cases))))
    runs = run_chains(inits, p, strategies, steps, rngs=rngs)
    batch_calls = [scale_calls.get(id(s), 0) for s in strategies]

    assert len({row.tobytes() for row in runs.accepted}) == len(cases)
    for i, (_, spec) in enumerate(cases):
        accepted = runs.accepted[i]
        assert 0 < accepted.sum() < steps, spec
        if spec.startswith("constant"):  # one scale for the whole chain
            assert batch_calls[i] == 1, spec
        elif spec != "alpha-adaptive:0.27":  # one scale per point visited
            assert batch_calls[i] == 1 + accepted[:-1].sum(), spec

        init, rng = start(i)
        records, coords = run_chain(init, p, strategy_from_label(spec), steps, rng=rng)
        init, rng = start(i)
        columns, end, theta = _alone(init, p, strategy_from_label(spec), steps, rng)
        for name, column in zip(RECORD_FIELDS, columns):
            got = getattr(runs, name)[i]
            assert got.tobytes() == column.tobytes(), (spec, name)
            alone = np.array([getattr(r, name) for r in records], dtype=got.dtype)
            assert got.tobytes() == alone.tobytes(), (spec, name)
        assert [r.k for r in records] == list(range(1, steps + 1))
        assert runs.coords[i].tobytes() == end.tobytes() == coords.tobytes()
        assert runs.theta[i] == theta, spec

    inits, rngs = zip(*(start(i) for i in range(len(cases))))
    m_hat, s_hat = run_chains_moments(inits, p, strategies, steps, rngs=rngs)
    assert m_hat.tobytes() == runs.m_hat.tobytes()
    assert s_hat.tobytes() == runs.s_hat.tobytes()


def _mixed_batch():
    p = double_well_potential()
    specs = ("constant:2.38", "star", "alpha:0.27", "alpha-adaptive:0.27", "constant:0.5")
    inits = [np.full(7, 1.0 + i) for i in range(len(specs))]
    return p, inits, [strategy_from_label(spec) for spec in specs]


@pytest.mark.parametrize("block", [1, 5, 5 * 8 * 4, chains._BLOCK])
def test_run_chains_bits_do_not_depend_on_the_block_size(monkeypatch, block):
    # The rows draw K steps of normals at a time, K = _BLOCK // (R (n + 1))
    # raised to 32 within 32 _BLOCK: here 1, 4, 32 (37 steps end on a short
    # block) and all 37 at once.  Every K must give the bits of the run that
    # draws one step at a time.
    p, inits, strategies = _mixed_batch()

    def run():
        rngs = [chain_rng([3, i]) for i in range(len(inits))]
        runs = run_chains(inits, p, strategies, 37, rngs=rngs)
        mala, _ = run_mala(inits[0], p, 0.4, 37, rng=chain_rng(8))
        return ([getattr(runs, f.name).tobytes() for f in dataclasses.fields(runs)
                 if f.name != "theta"], runs.theta, [_bits(r) for r in mala])

    monkeypatch.setattr(chains, "_BLOCK", 1)
    one_step = run()
    monkeypatch.setattr(chains, "_BLOCK", block)
    assert run() == one_step
    assert 0 < np.frombuffer(one_step[0][1], dtype=bool).sum() < 5 * 37  # accepts and rejects


def test_a_run_leaves_its_generator_n_plus_1_normals_per_step_on():
    # Stream layout 2: a step takes n + 1 normals from the chain's generator
    # and nothing else, so a run of `steps` steps leaves it where
    # steps * (n + 1) normals leave a fresh one, whatever the block size.
    p, inits, strategies = _mixed_batch()
    n, steps = len(inits[0]), 301
    rngs = [chain_rng([4, i]) for i in range(len(inits))]
    run_chains(inits, p, strategies, steps, rngs=rngs)
    one = chain_rng(5)
    run_chain(inits[0], p, strategies[1], steps, rng=one)
    mala = chain_rng(6)
    run_mala(inits[0], p, 0.4, steps, rng=mala)
    seeds = [[4, i] for i in range(len(rngs))] + [5, 6]
    for seed, rng in zip(seeds, [*rngs, one, mala], strict=True):
        fresh = chain_rng(seed)
        fresh.standard_normal(steps * (n + 1))
        assert rng.random(4).tolist() == fresh.random(4).tolist(), seed


@pytest.mark.parametrize("target, sigma", [("gaussian", 1.6), ("double-well", 0.6)])
def test_mala_first_step_follows_the_stream_layout(target, sigma):
    # The first MALA step rebuilt by hand from a fresh generator: n
    # proposal normals g, then one normal z whose Phi(z) is the uniform.
    from mhscaling.targets import potential_by_name

    p = potential_by_name(target)
    x = chain_rng(9).standard_normal(30) + 1.0
    outcomes = set()
    for seed in range(8):
        (record,), end = run_mala(x, p, sigma, 1, rng=chain_rng(seed))
        draws = chain_rng(seed).standard_normal(31)
        g, d1x = draws[:30], np.asarray(p.d1(x))
        y = x + (sigma * g - 0.5 * sigma * sigma * d1x)
        reverse = g - 0.5 * sigma * (d1x + np.asarray(p.d1(y)))
        exponent = (np.sum(p.eval_v(x)) - np.sum(p.eval_v(y))
                    + 0.5 * (np.sum(g * g) - np.sum(reverse * reverse)))
        acc_prob = float(np.exp(min(exponent, 0.0)))
        assert record.acc_prob == pytest.approx(acc_prob, rel=1e-12)
        assert record.accepted == (special.ndtr(draws[30]) <= acc_prob)
        assert end.tobytes() == (y if record.accepted else x).tobytes()
        outcomes.add(record.accepted)
    assert outcomes == {True, False}


@pytest.mark.parametrize("record_every", [1, 3, 3.0])
@pytest.mark.parametrize("target, kernel", [
    ("gaussian", 0.8), ("double-well", 0.3),  # run_mala at sigma = kernel
    *[(target, spec) for target in ("gaussian", "double-well")  # run_chain
      for spec in ("alpha-adaptive:0.27", "star")],
])
def test_run_mala_steps_like_mala_step(target, kernel, record_every):
    # Recording every r-th step must keep exactly those records of the
    # chain that records every step, bit for bit, and end at its end point,
    # for both kernels; 200 steps end between two records at r = 3.
    from mhscaling.targets import potential_by_name

    p = potential_by_name(target)
    init, steps = chain_rng(9).standard_normal(50) + 1.0, 200

    def run(*every):
        if isinstance(kernel, str):
            return run_chain(init, p, strategy_from_label(kernel), steps, *every,
                             rng=chain_rng(5))
        return run_mala(init, p, kernel, steps, *every, rng=chain_rng(5))

    records, end = run(record_every)
    every, every_end = run()
    r = int(record_every)
    assert len(records) == steps // r
    assert [_bits(rec) for rec in records] == [_bits(rec) for rec in every[r - 1::r]]
    assert end.tobytes() == every_end.tobytes()
    assert [rec.k for rec in every] == list(range(1, steps + 1))
    assert 0 < sum(rec.accepted for rec in every) < steps


def test_chain_runs_hold_the_record_fields_then_the_end_state():
    # The step loop fills ChainRuns from a kernel's record by position, so
    # its fields must be StepRecord's after k, in order, then the end state.
    assert dataclasses.fields(StepRecord)[0].name == "k"
    names = tuple(f.name for f in dataclasses.fields(ChainRuns))
    assert names == (*RECORD_FIELDS, "coords", "theta")


@pytest.mark.parametrize("run", [
    lambda steps: run_chain(np.zeros(3), gaussian_potential(), ConstantEll(1.0), steps,
                            rng=chain_rng(0)),
    lambda steps: run_chains(np.zeros((2, 3)), gaussian_potential(), [ConstantEll(1.0)] * 2,
                             steps, rngs=[chain_rng(0), chain_rng(1)]),
    lambda steps: run_chains_moments(np.zeros((2, 3)), gaussian_potential(),
                                     [ConstantEll(1.0)] * 2, steps,
                                     rngs=[chain_rng(0), chain_rng(1)]),
    lambda steps: run_mala(np.zeros(3), gaussian_potential(), 0.5, steps, rng=chain_rng(0)),
    lambda steps: mala_ar1_limit(1.0, steps, rng=chain_rng(0)),
], ids=["run_chain", "run_chains", "run_chains_moments", "run_mala", "mala_ar1_limit"])
def test_step_counts_must_be_whole_numbers(run):
    # a count that is not whole, or not a number, is refused by name in one
    # line; a whole float runs as its int
    for steps in (2.5, 0.5, math.nan, math.inf, None, -1, 10**7 + 1):
        with pytest.raises(DomainError, match="^steps must be a whole number from 0 to 10,000,000"):
            run(steps)
    assert pickle.dumps(run(2.0)) == pickle.dumps(run(2))


def test_chains_track_the_moment_ode_as_n_grows():
    # Mean-field limit (Jourdain, Lelievre & Miasojedow 2012): in dimension n
    # the RWM chain's second moment s_hat at step k tracks the moment ODE at
    # t = k / n, with an O(n^-1/2) gap.  Each chain is compared with the ODE
    # from its own start moments, so the gap measures propagation rather
    # than the sampling of the start.
    # Calibration note: over seeds 0..39 in five disjoint groups of eight,
    # the pooled median sup gap was 0.47-0.63 at n = 200 and 0.21-0.27 at
    # n = 800, and the n -> 4n ratio 0.34-0.54 (median 0.43); seeds 0..7 are
    # the group at 0.34.
    from mhscaling import limits

    p = gaussian_potential()
    m0, var0, t_max = 2.0, 3.0, 3.0
    specs, seeds = ("star", "alpha:0.27"), range(8)

    def median_sup_gap(n):
        rows = [(spec, seed) for spec in specs for seed in seeds]
        rngs = [chain_rng([n, seed]) for _, seed in rows]
        inits = [m0 + math.sqrt(var0) * rng.standard_normal(n) for rng in rngs]
        steps = int(t_max * n)
        paths = run_chains_moments(inits, p, [strategy_from_label(spec) for spec, _ in rows],
                                   steps, rngs=rngs)
        times = np.arange(steps) / n
        gaps = []
        for (spec, _), m_hat, s_hat in zip(rows, *paths):
            traj = limits.integrate_gaussian_ode(m_hat[0], s_hat[0], strategy_from_label(spec),
                                                 dt=1e-2, t_max=t_max)
            gaps.append(np.max(np.abs(s_hat - np.interp(times, traj.t, traj.s))))
        return float(np.median(gaps))

    gap_small, gap_large = median_sup_gap(200), median_sup_gap(800)
    assert gap_small < 0.8
    assert 0.3 <= gap_large / gap_small <= 0.8


@pytest.mark.parametrize("route", ["run_chain", "rwm_step", "run_chains_moments"])
def test_entropy_strategy_is_refused_off_the_gaussian(route):
    # ent minimizes the Gaussian entropy derivative; on another target it
    # would run on without a word
    p, ent = double_well_potential(), EntropyOptimalGaussian()
    with pytest.raises(DomainError, match="Gaussian"):
        if route == "run_chain":
            run_chain(np.zeros(5), p, ent, steps=2, rng=chain_rng(0))
        elif route == "rwm_step":
            rwm_step(np.zeros(5), p, ent, rng=chain_rng(0))
        else:
            run_chains_moments([np.zeros(5)], p, [ent], 2, rngs=[chain_rng(0)])


def test_run_chains_refuses_a_one_dimensional_start():
    with pytest.raises(DomainError, match="R rows"):
        run_chains(np.zeros(5), gaussian_potential(), [ConstantEll(1.0)], 2,
                   rngs=[chain_rng(0)])


@pytest.mark.parametrize("run", [run_chains, run_chains_moments])
def test_run_chains_refuses_a_batch_of_no_rows(run):
    # no chains is a bad argument, not a block size of K steps per 0 rows
    with pytest.raises(DomainError, match="R rows"):
        run(np.zeros((0, 3)), gaussian_potential(), [], 3, rngs=[])


def test_chain_rng_takes_whole_seeds_only():
    # A missing seed would draw fresh OS entropy and a fractional one fails
    # inside numpy; both are refused by name.  Ints, sequences of them and
    # SeedSequences give the streams they gave before.
    for bad in (None, -1, -1.0, 2.5, math.nan, "3", [2, -1], [2, 0.5], (None,), [2, [3, 4]]):
        with pytest.raises(DomainError, match="^seed must be a whole number >= 0"):
            chain_rng(bad)
    want = np.random.Generator(np.random.Philox([2, 5])).standard_normal(4)
    for seed in ([2, 5], (2, 5), np.array([2, 5]), [np.int64(2), 5], [2.0, 5],
                 np.random.SeedSequence([2, 5])):
        assert np.array_equal(chain_rng(seed).standard_normal(4), want)
    assert np.array_equal(chain_rng(3.0).standard_normal(4),
                          np.random.Generator(np.random.Philox(3)).standard_normal(4))


@pytest.mark.parametrize("strategies, seeds", [(2, 3), (3, 2)])
def test_run_chains_needs_one_strategy_and_generator_per_chain(strategies, seeds):
    with pytest.raises(DomainError, match="one strategy and one generator per chain"):
        run_chains(np.zeros((3, 4)), gaussian_potential(), [ConstantEll(1.0)] * strategies, 2,
                   rngs=[chain_rng(k) for k in range(seeds)])
