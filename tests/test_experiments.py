import copy
import hashlib
import json
import math

import numpy as np
import pytest

from mhscaling.chains import (
    ConstantEll,
    chain_rng,
    run_chain,
    run_chains_moments,
    strategy_from_label,
)
from mhscaling.errors import DomainError
from mhscaling.experiments import (
    ExperimentConfig,
    aggregate_bias,
    desk_config,
    estimator_m,
    estimator_s,
    mean_relative_loss,
    paper_config,
    relative_loss_surface,
    robustness_grid,
    square_bias_sweep,
)
from mhscaling.targets import gaussian_potential


def _const_m(value, count):
    # per-step m_hat of a chain held at value on every coordinate
    return np.full(count, value)


def test_estimators_on_constant_trajectories():
    m = _const_m(0.0, 50)
    assert estimator_s(m * m, 0, 50) == 0.0
    assert estimator_m(m, 0, 50) == 0.0
    m = _const_m(3.0, 80)
    assert estimator_s(m * m, 20, 60) == pytest.approx(9.0)
    assert estimator_m(m, 20, 60) == pytest.approx(3.0)


def test_estimators_take_one_window_per_row():
    per_step = np.arange(12.0).reshape(3, 4)
    assert estimator_s(per_step, 1, 2).tolist() == [1.5, 5.5, 9.5]
    assert estimator_m(per_step, 0, 4).tolist() == [1.5, 5.5, 9.5]
    assert estimator_m(per_step[0], 1, 2) == 1.5


def test_estimator_antisymmetric_average():
    m = np.concatenate([_const_m(2.0, 10), _const_m(-2.0, 10)])
    assert estimator_m(m, 0, 20) == 0.0


def test_estimators_length_guard():
    m = _const_m(1.0, 10)
    with pytest.raises(DomainError):
        estimator_s(m, 5, 10)
    with pytest.raises(DomainError):
        estimator_m(m, 0, 11)
    with pytest.raises(DomainError):
        estimator_m(np.ones((3, 10)), 0, 11)
    with pytest.raises(DomainError):  # numpy would slice steps 61-160
        estimator_s(np.arange(200.0), -140, 100)
    with pytest.raises(DomainError):
        estimator_m(np.ones((3, 10)), -1, 5)


def test_estimator_stationary_chain_near_one():
    p = gaussian_potential()
    rng = chain_rng(14)
    init = rng.standard_normal(100)
    records, _ = run_chain(init, p, ConstantEll(2.38), steps=8500, rng=rng)
    s_hat = [r.s_hat for r in records]
    m_hat = [r.m_hat for r in records]
    t0, window, n_batches = 500, 8000, 16
    est = estimator_s(s_hat, t0, window)
    # batch-means standard error accounts for the chain autocorrelation
    batch = window // n_batches
    batch_means_s = [
        estimator_s(s_hat, t0 + i * batch, batch) for i in range(n_batches)
    ]
    se_s = float(np.std(batch_means_s, ddof=1)) / math.sqrt(n_batches)
    assert abs(est - 1.0) <= 3.0 * se_s
    batch_means_m = [
        estimator_m(m_hat, t0 + i * batch, batch) for i in range(n_batches)
    ]
    se_m = float(np.std(batch_means_m, ddof=1)) / math.sqrt(n_batches)
    assert abs(estimator_m(m_hat, t0, window)) <= 3.0 * se_m


def test_aggregate_bias_identical_replicates_zero_stderr():
    curve = aggregate_bias(
        [1.25, 1.25, 1.25], [0.25, 0.25, 0.25], 1.0, 0.0, t0=7, strategy="x"
    )
    assert curve.stderr_s == 0.0
    assert curve.stderr_m == 0.0
    assert curve.sq_bias_s == pytest.approx(0.0625)
    assert curve.sq_bias_m == pytest.approx(0.0625)
    assert curve.t0 == 7 and curve.strategy == "x"


def test_config_validation():
    with pytest.raises(DomainError):
        ExperimentConfig("gaussian", 10, 0, (0,), 5, (ConstantEll(1.0),))
    with pytest.raises(DomainError):
        ExperimentConfig("gaussian", 10, 10, (0,), 1, (ConstantEll(1.0),))
    with pytest.raises(DomainError):
        ExperimentConfig("gaussian", 10, 10, (5, 0), 5, (ConstantEll(1.0),))
    with pytest.raises(DomainError):
        ExperimentConfig("gaussian", 10, 10, (0,), 5, (ConstantEll(1.0),), init_kind="nope")
    with pytest.raises(DomainError):
        ExperimentConfig("gaussian", 10, 10, (), 5, (ConstantEll(1.0),))
    with pytest.raises(DomainError):
        ExperimentConfig("gaussian", 10, 10, (-100, 0), 5, (ConstantEll(1.0),))
    with pytest.raises(DomainError):
        ExperimentConfig("gaussian", 10, 10, (0,), 5, ())


def test_presets():
    desk = desk_config()
    assert desk.n == 50 and desk.window == 500 and desk.replicates == 50
    paper = paper_config()
    assert paper.n == 100 and paper.window == 1500 and paper.replicates == 200


def _mini_config(seed=3):
    return ExperimentConfig(
        target="gaussian",
        n=10,
        window=60,
        t0_grid=(0, 30),
        replicates=4,
        strategies=(strategy_from_label("constant:2.38"), strategy_from_label("star")),
        init_kind="point",
        init_params=(10.0,),
        seed=seed,
    )


def test_sweep_deterministic_and_worker_independent():
    cfg = _mini_config()
    serial = square_bias_sweep(cfg, workers=1)
    again = square_bias_sweep(cfg, workers=1)
    parallel = square_bias_sweep(cfg, workers=3)
    assert serial == again == parallel


def test_sweep_bias_decreases_with_burn_in():
    cfg = _mini_config()
    curves = square_bias_sweep(cfg, workers=1)
    for label in ("constant-2.38", "rate-optimal"):
        vals = {c.t0: c.sq_bias_s for c in curves if c.strategy == label}
        assert vals[30] < vals[0]


def test_sweep_gaussian_init_and_stationary_init():
    for kind, params in (("gaussian", (0.0, 4.0)), ("stationary", ())):
        cfg = ExperimentConfig(
            target="gaussian", n=8, window=40, t0_grid=(0,), replicates=3,
            strategies=(strategy_from_label("constant:2.38"),),
            init_kind=kind, init_params=params, seed=1,
        )
        curves = square_bias_sweep(cfg, workers=1)
        assert len(curves) == 1
        assert curves[0].sq_bias_s >= 0.0


def test_write_bias_outputs(tmp_path, capsys):
    from mhscaling import cli

    cfg = _mini_config()
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "out"
    assert cli.main(["experiment", "--config", str(config_path), "--threads", "1",
                     "--out", str(out)]) == 0
    assert "wrote 3 files" in capsys.readouterr().out
    names = sorted(p.name for p in out.iterdir())
    assert names == ["bias_constant-2.38.csv", "bias_rate-optimal.csv", "manifest.json"]
    text = (out / "bias_rate-optimal.csv").read_text().splitlines()
    assert text[0] == cli.BIAS_HEADER == "t0,sq_bias_s,sq_bias_m,stderr_s,stderr_m"
    assert len(text) == 3
    want = [c for c in square_bias_sweep(cfg, workers=1) if c.strategy == "rate-optimal"]
    rows = [[float(v) for v in line.split(",")] for line in text[1:]]
    assert rows == [[c.t0, c.sq_bias_s, c.sq_bias_m, c.stderr_s, c.stderr_m] for c in want]


def test_config_refuses_strategies_sharing_a_label():
    # both would write bias_constant-2.38.csv and tag their rows alike
    with pytest.raises(DomainError, match="distinct labels"):
        ExperimentConfig(
            target="gaussian", n=10, window=60, t0_grid=(0,), replicates=4,
            strategies=(strategy_from_label("constant:2.38"),
                        strategy_from_label("constant:2.380000001")),
        )


def test_relative_loss_surface_bounds_and_matched_regimes():
    rows = relative_loss_surface([1.0], [0.01, 1.0, 100.0], [0.27, 0.35, 0.37])
    assert all(0.0 <= r.loss < 1.0 for r in rows)
    at = {(r.alpha, r.a): r.loss for r in rows}
    # each target is near-matched in its own regime
    assert at[(0.37, 0.01)] < 0.05
    assert at[(0.35, 1.0)] < 0.05
    assert at[(0.27, 100.0)] < 0.05


def test_relative_loss_domain():
    with pytest.raises(DomainError):
        relative_loss_surface([0.0], [1.0], [0.3])
    with pytest.raises(DomainError):
        relative_loss_surface([1.0], [1.0], [1.5])


def test_ordering_from_below_equilibrium():
    # point start at the origin: the second moment converges from below, and
    # the fixed stationary-optimal scale is still the slowest strategy
    cfg = ExperimentConfig(
        target="gaussian",
        n=50,
        window=400,
        t0_grid=(0, 25, 50, 100),
        replicates=30,
        strategies=(strategy_from_label("constant:2.38"), strategy_from_label("star")),
        init_kind="point",
        init_params=(0.0,),
        seed=12,
    )
    curves = square_bias_sweep(cfg, workers=2)
    const = {c.t0: c for c in curves if c.strategy == "constant-2.38"}
    star = {c.t0: c for c in curves if c.strategy == "rate-optimal"}
    compared = 0
    for t0 in cfg.t0_grid:
        c0, c1 = const[t0], star[t0]
        if c0.sq_bias_s > 3 * c0.stderr_s and c1.sq_bias_s > 3 * c1.stderr_s:
            compared += 1
            joint = math.hypot(c0.stderr_s, c1.stderr_s)
            assert c0.sq_bias_s >= c1.sq_bias_s - 2.0 * joint
    assert compared >= 2


def test_default_strategies_scale_constant_by_target():
    desk = desk_config(target="double-well")
    labels = [s.label() for s in desk.strategies]
    assert labels[0].startswith("constant-1.18")
    assert "entropy-gaussian" not in labels
    assert desk_config(target="gaussian").strategies[0].label() == "constant-2.38"


def test_bias_falls_below_noise_floor_for_large_burn_in():
    cfg = ExperimentConfig(
        target="gaussian",
        n=30,
        window=400,
        t0_grid=(0, 600),
        replicates=30,
        strategies=(strategy_from_label("star"), strategy_from_label("alpha:0.27")),
        init_kind="point",
        init_params=(10.0,),
        seed=6,
    )
    curves = square_bias_sweep(cfg, workers=2)
    for c in curves:
        if c.t0 == 0:
            assert c.sq_bias_s > 3.0 * c.stderr_s  # transient bias visible
        else:
            assert c.sq_bias_s <= 3.0 * c.stderr_s  # converged, noise only


def test_mean_relative_loss_prefers_low_alpha_on_default_grid():
    b_values, a_grid, alphas = robustness_grid()
    rows = relative_loss_surface(b_values, a_grid[::6], alphas)
    means = mean_relative_loss(rows)
    assert min(means, key=means.get) == 0.27


def _layout_config(init_kind, init_params):
    return ExperimentConfig(
        target="gaussian",
        n=10,
        window=40,
        t0_grid=(0, 20),
        replicates=3,
        strategies=tuple(strategy_from_label(s) for s in
                         ("constant:2.38", "star", "alpha:0.27", "alpha-adaptive:0.27", "ent")),
        init_kind=init_kind,
        init_params=init_params,
        seed=11,
    )


def test_sweep_stream_layout_is_pinned():
    # The digest of a small five-strategy sweep, taken before its chains ran
    # as one batch.  It moves if the stream layout (see the README) or the
    # arithmetic of a step changes, and such a change must be recorded; it
    # is also tied to the numpy and scipy in use (their normals, root solves
    # and sums), so an upgrade of either may move it without any change
    # here.  test_sweep_rows_draw_from_their_own_children checks the layout
    # alone.
    rows = "\n".join(repr(row) for row in square_bias_sweep(_layout_config("point", (10.0,))))
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "b71bed2c640c7a72985e64eabbdaaf20db570cd91f125d9c1b09751192524f22"
    )


def test_sweep_rows_draw_from_their_own_children(monkeypatch):
    # Row i * R + r (strategy i, replicate r) of the sweep's batch draws from
    # child i * R + r of SeedSequence(seed).spawn(S * R): its start
    # coordinates first, then n normals and one uniform for its first step.
    # Checked against fresh generators on those children, with tolerances,
    # so that it holds whatever the library versions.
    from mhscaling import experiments

    cfg = _layout_config("gaussian", (0.0, 1.0))
    n, reps = cfg.n, cfg.replicates
    seen = {}

    def spy(inits, p, strategies, steps, *, rngs):
        seen["inits"] = [np.array(x) for x in inits]
        seen["rngs"] = copy.deepcopy(list(rngs))
        seen["labels"] = [s.label() for s in strategies]
        seen["paths"] = run_chains_moments(inits, p, strategies, steps, rngs=rngs)
        return seen["paths"]

    monkeypatch.setattr(experiments, "run_chains_moments", spy)
    square_bias_sweep(cfg)
    m_hat = seen["paths"][0]
    p = gaussian_potential()
    children = np.random.SeedSequence(cfg.seed).spawn(len(cfg.strategies) * reps)
    for j, child in enumerate(children):
        assert seen["labels"][j] == cfg.strategies[j // reps].label()
        fresh = chain_rng(child)
        x = fresh.standard_normal(n)
        np.testing.assert_allclose(seen["inits"][j], x, rtol=1e-12)
        assert seen["rngs"][j].random(3).tolist() == copy.deepcopy(fresh).random(3).tolist()
        if j < reps:  # constant:2.38 rows: redo the first step by hand
            y = x + 2.38 / math.sqrt(n) * fresh.standard_normal(n)
            acc_prob = math.exp(min(float(np.sum(p.eval_v(x)) - np.sum(p.eval_v(y))), 0.0))
            after = y if fresh.uniform() <= acc_prob else x
            assert m_hat[j, 1] == pytest.approx(np.mean(after), rel=1e-12)
