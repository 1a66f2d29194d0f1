import math

import numpy as np
import pytest

from mhscaling.chains import ConstantEll, StepRecord, chain_rng, run_chain, strategy_from_label
from mhscaling.errors import DomainError
from mhscaling.experiments import (
    BIAS_HEADER,
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
    write_bias_outputs,
)
from mhscaling.targets import gaussian_potential


def _const_records(value, count):
    return [
        StepRecord(
            k=k + 1, ell_used=1.0, accepted=True, acc_prob=1.0,
            a_hat=0.0, b_hat=1.0, m_hat=value, s_hat=value**2,
        )
        for k in range(count)
    ]


def test_estimators_on_constant_trajectories():
    recs = _const_records(0.0, 50)
    assert estimator_s(recs, 0, 50) == 0.0
    assert estimator_m(recs, 0, 50) == 0.0
    recs = _const_records(3.0, 80)
    assert estimator_s(recs, 20, 60) == pytest.approx(9.0)
    assert estimator_m(recs, 20, 60) == pytest.approx(3.0)


def test_estimator_antisymmetric_average():
    recs = _const_records(2.0, 10) + _const_records(-2.0, 10)
    assert estimator_m(recs, 0, 20) == 0.0


def test_estimators_length_guard():
    recs = _const_records(1.0, 10)
    with pytest.raises(DomainError):
        estimator_s(recs, 5, 10)
    with pytest.raises(DomainError):
        estimator_m(recs, 0, 11)


def test_estimator_stationary_chain_near_one():
    p = gaussian_potential()
    rng = chain_rng(14)
    init = rng.standard_normal(100)
    records, _ = run_chain(init, p, ConstantEll(2.38), steps=8500, rng=rng)
    t0, window, n_batches = 500, 8000, 16
    est = estimator_s(records, t0, window)
    # batch-means standard error accounts for the chain autocorrelation
    batch = window // n_batches
    batch_means_s = [
        estimator_s(records, t0 + i * batch, batch) for i in range(n_batches)
    ]
    se_s = float(np.std(batch_means_s, ddof=1)) / math.sqrt(n_batches)
    assert abs(est - 1.0) <= 3.0 * se_s
    batch_means_m = [
        estimator_m(records, t0 + i * batch, batch) for i in range(n_batches)
    ]
    se_m = float(np.std(batch_means_m, ddof=1)) / math.sqrt(n_batches)
    assert abs(estimator_m(records, t0, window)) <= 3.0 * se_m


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


def test_write_bias_outputs(tmp_path):
    cfg = _mini_config()
    curves = square_bias_sweep(cfg, workers=1)
    paths = write_bias_outputs(cfg, curves, tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["bias_constant-2.38.csv", "bias_rate-optimal.csv"]
    text = (tmp_path / "bias_rate-optimal.csv").read_text().splitlines()
    assert text[0] == BIAS_HEADER
    assert len(text) == 3
    assert len(paths) == 2


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
