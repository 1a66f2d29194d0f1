import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from mhscaling import tuning
from mhscaling.chains import (
    DEFAULT_ELL_CAP,
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
    "star:5", "ent:1", "constant-2.38", "rate-optimal",
])
def test_strategy_spec_malformed(text):
    with pytest.raises(DomainError):
        strategy_from_label(text)


def test_choose_ell_constant_and_rate_optimal():
    assert ConstantEll(2.38).scale(5.0, 1.0, 0.0, 5.0, 10) == 2.38
    got = RateOptimal().scale(1.0, 1.0, 0.0, 1.0, 10)
    assert got == pytest.approx(1.85, abs=0.01)


def test_choose_ell_acceptance_numeric():
    got = ConstantAccNumeric(0.27).scale(5.24, 5.24, 0.0, 1.0, 10)
    want = tuning.ell_alpha(1.0, 0.27).ell / math.sqrt(5.24)
    assert got == pytest.approx(want, rel=1e-12)


def test_choose_ell_concave_fallback():
    # nonpositive curvature estimate: numeric rules return the cap
    assert ConstantAccNumeric(0.3).scale(1.0, -0.5, 0.0, 1.0, 10) == DEFAULT_ELL_CAP
    assert RateOptimal().scale(1.0, 0.0, 0.0, 1.0, 10) == DEFAULT_ELL_CAP


def test_choose_ell_adaptive_uses_theta():
    got = ConstantAccAdaptive(0.3).scale(1.0, 1.0, 0.0, 1.0, 25, theta=0.5)
    assert got == pytest.approx(math.exp(0.5) * 5.0, rel=1e-14)
    with pytest.raises(DomainError, match="theta"):
        ConstantAccAdaptive(0.3).scale(1.0, 1.0, 0.0, 1.0, 25)


def test_choose_ell_entropy_degenerate_point_start():
    # zero spread falls back to the rate-optimal value
    got = EntropyOptimalGaussian().scale(100.0, 1.0, 10.0, 100.0, 10)
    assert got == pytest.approx(tuning.ell_star(100.0).ell, rel=1e-12)


def test_adaptive_update_fixed_points():
    assert adaptive_update(0.3, 0.25, 0.25, k=5) == 0.3
    moved = adaptive_update(0.0, 0.5, 0.25, k=0)
    assert moved == pytest.approx(0.25)  # gamma_1 = 1


def test_rwm_step_zero_move_accepts():
    # a proposal equal to the current point has acceptance probability 1
    p = gaussian_potential()

    class ZeroNoise:
        def standard_normal(self, size):
            return np.zeros(size)

        def random(self):
            return 0.999999

    _, rec = rwm_step(np.zeros(1), p, ConstantEll(1.0), rng=ZeroNoise())
    assert rec.acc_prob == 1.0
    assert rec.accepted


def test_rwm_acc_prob_is_density_ratio():
    p = gaussian_potential()

    class FixedNoise:
        def __init__(self, y):
            self.y = y

        def standard_normal(self, size):
            return np.full(size, self.y)

        def random(self):
            return 1.0

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


def test_run_chain_preserves_stationarity():
    p = gaussian_potential()
    rng = chain_rng(7)
    init = rng.standard_normal(100)
    records, _ = run_chain(init, p, ConstantEll(2.38), steps=100_000, rng=rng)
    mean_second = float(np.mean([r.s_hat for r in records]))
    assert mean_second == pytest.approx(1.0, abs=0.02)


def test_acceptance_rate_tracks_limit_as_n_grows():
    # mean per-step acceptance at rescaled times approaches the limiting
    # acceptance computed from the moment ODE, and the gap shrinks with n
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
        sums = dict.fromkeys(t_grid, 0.0)
        rngs = [chain_rng(seed0 + r) for r in range(reps)]
        inits = [mu0 + math.sqrt(var0) * rng.standard_normal(n) for rng in rngs]
        runs = run_chains(inits, p, [ConstantEll(ell)] * reps, steps=n, rngs=rngs)
        for probs in runs.acc_prob:
            for t in t_grid:
                center = min(int(n * t), n - 1)
                lo = max(0, center - window // 2)
                sums[t] += probs[lo : lo + window].mean()
        devs = []
        for t in t_grid:
            ode_acc = acc_rate(traj.s[int(round(t / 1e-4))], 1.0, ell)
            devs.append(abs(sums[t] / reps - ode_acc))
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
        """Wraps a generator, permuting each normal block (the per-coordinate
        noise streams) by the same permutation applied to the coordinates."""

        def __init__(self, seed):
            self.base = chain_rng(seed)

        def standard_normal(self, size):
            return self.base.standard_normal(size)[perm]

        def random(self):
            return self.base.random()

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
    with pytest.raises(DomainError):
        run_mala(np.zeros(3), p, 0.0, 1, rng=chain_rng(0))


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
    # one solve at the start and one after each acceptance, none on rejection
    calls = 0
    solve = tuning.ell_star_ab

    def counted(a, b):
        nonlocal calls
        calls += 1
        return solve(a, b)

    monkeypatch.setattr(tuning, "ell_star_ab", counted)
    records, _ = run_chain(np.full(50, 10.0), gaussian_potential(), RateOptimal(),
                           steps=300, rng=chain_rng(4))
    assert calls == 1 + sum(r.accepted for r in records[:-1])
    assert calls < len(records)


@pytest.mark.parametrize("kind", ["rwm", "mala"])
def test_steps_leave_the_callers_array_alone(kind):
    # The Gaussian's V' returns its argument, so a batch summary that kept
    # it would hold the chain's own coords and an accepted step would write
    # the proposal into the caller's array.  Two chains started from one
    # array must run like two chains started from copies of it, and the
    # array must not move.
    p = gaussian_potential()

    def run(init, seed):
        if kind == "mala":
            return run_mala(init, p, 0.5, 30, rng=chain_rng(seed))
        return run_chain(init, p, ConstantEll(1.0), 30, rng=chain_rng(seed))

    shared = np.full(20, 1.0)
    for seed in (3, 4):
        records, end = run(shared, seed)
        alone, alone_end = run(shared.copy(), seed)
        assert [_bits(r) for r in records] == [_bits(r) for r in alone]
        assert end.tobytes() == alone_end.tobytes()
        assert any(r.accepted for r in records)
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
        if theta is not None or ell is None:
            ell = strategy.scale(*here, n, theta)
        y = x + ell / math.sqrt(n) * rng.standard_normal(n)
        acc_prob = math.exp(min(float(sum_v - np.sum(p.eval_v(y))), 0.0))
        accepted = rng.uniform() <= acc_prob
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
        if spec != "alpha-adaptive:0.27":  # one scale per point visited
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


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("target, sigma", [("gaussian", 0.8), ("double-well", 0.3)])
def test_run_mala_steps_like_mala_step(target, sigma, record_every):
    # Recording every r-th step must keep exactly those records of the
    # chain that records every step, bit for bit, and end at its end point.
    from mhscaling.targets import potential_by_name

    p = potential_by_name(target)
    init, steps = chain_rng(9).standard_normal(50) + 1.0, 200
    records, end = run_mala(init, p, sigma, steps, record_every, rng=chain_rng(5))
    every, every_end = run_mala(init, p, sigma, steps, rng=chain_rng(5))
    assert len(records) == steps // record_every
    assert [_bits(r) for r in records] == [_bits(r) for r in every[record_every - 1::record_every]]
    assert end.tobytes() == every_end.tobytes()
    assert [r.k for r in every] == list(range(1, steps + 1))
    assert 0 < sum(r.accepted for r in every) < steps


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
