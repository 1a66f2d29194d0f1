import copy
import dataclasses
import hashlib
import importlib
import inspect
import json
import math

import numpy as np
import pytest
from scipy import special

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
    mean_relative_loss,
    preset_config,
    relative_loss_surface,
    robustness_grid,
    square_bias,
    square_bias_sweep,
    window_mean,
)
from mhscaling.targets import gaussian_potential


def _const_m(value, count):
    # per-step m_hat of a chain held at value on every coordinate
    return np.full(count, value)


def test_estimators_on_constant_trajectories():
    m = _const_m(0.0, 50)
    assert window_mean(m * m, 0, 50) == 0.0
    assert window_mean(m, 0, 50) == 0.0
    m = _const_m(3.0, 80)
    assert window_mean(m * m, 20, 60) == pytest.approx(9.0)
    assert window_mean(m, 20, 60) == pytest.approx(3.0)


def test_estimators_take_one_window_per_row():
    per_step = np.arange(12.0).reshape(3, 4)
    assert window_mean(per_step, 1, 2).tolist() == [1.5, 5.5, 9.5]
    assert window_mean(per_step, 0, 4).tolist() == [1.5, 5.5, 9.5]
    assert window_mean(per_step[0], 1, 2) == 1.5


def test_estimator_antisymmetric_average():
    m = np.concatenate([_const_m(2.0, 10), _const_m(-2.0, 10)])
    assert window_mean(m, 0, 20) == 0.0


def test_estimators_length_guard():
    m = _const_m(1.0, 10)
    with pytest.raises(DomainError):
        window_mean(m, 5, 10)
    with pytest.raises(DomainError):
        window_mean(m, 0, 11)
    with pytest.raises(DomainError):
        window_mean(np.ones((3, 10)), 0, 11)
    with pytest.raises(DomainError):  # numpy would slice steps 61-160
        window_mean(np.arange(200.0), -140, 100)
    with pytest.raises(DomainError):
        window_mean(np.ones((3, 10)), -1, 5)


@pytest.mark.parametrize("window", [0, -3])
def test_window_mean_refuses_an_empty_or_negative_window(window):
    # an empty window averaged to nan; a negative one averaged steps 1-7
    with pytest.raises(DomainError, match="window length"):
        window_mean(np.ones(10), 0, window)


def test_square_bias_refuses_one_replicate():
    # one replicate has no spread, so its stderr was nan
    with pytest.raises(DomainError, match="^replicates must be a whole number >= 2"):
        square_bias([[1.25], [0.25]], 1.0)


def test_estimator_stationary_chain_near_one():
    p = gaussian_potential()
    rng = chain_rng(14)
    init = rng.standard_normal(100)
    records, _ = run_chain(init, p, ConstantEll(2.38), steps=8500, rng=rng)
    s_hat = [r.s_hat for r in records]
    m_hat = [r.m_hat for r in records]
    t0, window, n_batches = 500, 8000, 16
    est = window_mean(s_hat, t0, window)
    # batch-means standard error accounts for the chain autocorrelation
    batch = window // n_batches
    batch_means_s = [
        window_mean(s_hat, t0 + i * batch, batch) for i in range(n_batches)
    ]
    se_s = float(np.std(batch_means_s, ddof=1)) / math.sqrt(n_batches)
    assert abs(est - 1.0) <= 3.0 * se_s
    batch_means_m = [
        window_mean(m_hat, t0 + i * batch, batch) for i in range(n_batches)
    ]
    se_m = float(np.std(batch_means_m, ddof=1)) / math.sqrt(n_batches)
    assert abs(window_mean(m_hat, t0, window)) <= 3.0 * se_m


def test_aggregate_bias_identical_replicates_zero_stderr():
    sq_bias_s, stderr_s = square_bias([1.25, 1.25, 1.25], 1.0)
    sq_bias_m, stderr_m = square_bias([0.25, 0.25, 0.25], 0.0)
    assert stderr_s == 0.0
    assert stderr_m == 0.0
    assert sq_bias_s == pytest.approx(0.0625)
    assert sq_bias_m == pytest.approx(0.0625)


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


@pytest.mark.parametrize("name", ["desk", "paper", "bare"])
@pytest.mark.parametrize("target", ["gaussian", "double-well"])
def test_config_round_trips_through_json(name, target):
    # What to_dict writes (into every manifest) from_dict reads back equal,
    # for both presets and for a config that leaves out every default; its
    # keys are the dataclass fields, in their order.
    if name == "bare":
        cfg = ExperimentConfig.from_dict({"target": target, "n": 3, "window": 2,
                                          "t0_grid": [0, 1], "replicates": 2,
                                          "strategies": ["constant:1.5", "star"]})
        assert (cfg.init_kind, cfg.init_params, cfg.seed) == ("point", (10.0,), 0)
    else:
        cfg = preset_config(name, target, seed=5)
    written = cfg.to_dict()
    assert list(written) == [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert ExperimentConfig.from_dict(json.loads(json.dumps(written))) == cfg


def test_config_counts_are_checked_where_built():
    # Direct construction and from_dict share one check of the counts: a
    # whole float count runs as an int, a fractional one or n < 1 is refused
    # when the config is built, not by numpy or the first draw.
    base = {"target": "gaussian", "n": 4, "window": 3, "t0_grid": (0, 2), "replicates": 2,
            "strategies": (ConstantEll(1.0),)}
    want = square_bias_sweep(ExperimentConfig(**base))
    for key, value in (("n", 4.0), ("window", 3.0), ("t0_grid", (0.0, 2.0)),
                       ("replicates", 2.0)):
        cfg = ExperimentConfig(**{**base, key: value})
        assert cfg == ExperimentConfig(**base) and square_bias_sweep(cfg) == want, key
    for key, value in (("n", 0), ("n", 10.5), ("window", 20.5), ("t0_grid", (0, 2.5)),
                       ("replicates", 2.5), ("seed", 1.5)):
        with pytest.raises(DomainError, match="must be"):
            ExperimentConfig(**{**base, key: value})
    # not a number at all: refused by name in one line, not by int()
    for bad in (math.nan, math.inf, None):
        for key, value, name in (("n", bad, "n"), ("window", bad, "window"),
                                 ("t0_grid", (0, bad), "burn-in t0"),
                                 ("replicates", bad, "replicates"), ("seed", bad, "seed")):
            with pytest.raises(DomainError, match=f"^{name} must be a whole number"):
                ExperimentConfig(**{**base, key: value})
    with pytest.raises(DomainError, match="n must be a whole number >= 1"):
        ExperimentConfig.from_dict({**base, "n": 0, "t0_grid": [0, 2], "strategies": ["star"]})
    # a grid that is not a sequence is refused as a grid, a bad entry by its name
    for grid in (None, 5, 2.5):
        with pytest.raises(DomainError, match="^t0 grid must be a sequence"):
            ExperimentConfig(**{**base, "t0_grid": grid})
    for grid in (((0, 2),), (0, (1, 2)), "02"):
        with pytest.raises(DomainError, match="^burn-in t0 must be a whole number"):
            ExperimentConfig(**{**base, "t0_grid": grid})
    for t0, window, name in ((2.5, 3, "burn-in t0"), (0, 3.5, "window length T"),
                             (math.nan, 3, "burn-in t0"), (math.inf, 3, "burn-in t0"),
                             (None, 3, "burn-in t0"), (0, math.nan, "window length T"),
                             (0, math.inf, "window length T"), (0, None, "window length T")):
        with pytest.raises(DomainError, match=f"^{name} must be a whole number"):
            window_mean(np.zeros((2, 10)), t0, window)
    assert window_mean(np.arange(10.0), 2.0, 3.0) == 3.0


def test_presets():
    desk = preset_config("desk")
    assert desk.n == 50 and desk.window == 500 and desk.replicates == 50
    paper = preset_config("paper")
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
    assert cli.main(["experiment", "--config", str(config_path), "--out", str(out)]) == 0
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
    for a in (-1.0, math.nan):
        with pytest.raises(DomainError, match="moment a must be >= 0"):
            relative_loss_surface([1.0], [a], [0.3])


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
    desk = preset_config("desk", target="double-well")
    labels = [s.label() for s in desk.strategies]
    assert labels[0].startswith("constant-1.18")
    assert "entropy-gaussian" not in labels
    assert preset_config("desk", target="gaussian").strategies[0].label() == "constant-2.38"


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
    # The digest of a small five-strategy sweep at stream layout 2.  It
    # moves if the stream layout (see the README) or the arithmetic of a step
    # changes, and such a change must be recorded; it is also tied to the
    # numpy and scipy in use (their normals, special functions and sums), so
    # an upgrade of either may move it without any change here.
    # test_sweep_rows_draw_from_their_own_children checks the layout alone.
    rows = "\n".join(repr(row) for row in square_bias_sweep(_layout_config("point", (10.0,))))
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "521c120dfaf30bc26cd7f4d94e08281ac7e83f08f370bb8147705510164678de"
    )


def test_sweep_reduction_over_many_replicates_is_pinned():
    # As test_sweep_stream_layout_is_pinned, at R = 12: numpy sums eight or
    # more replicates pairwise, so this digest also pins the order in which
    # the bias and stderr reduce over replicates.  It is tied to the numpy
    # and scipy in use as that one is.
    cfg = ExperimentConfig(
        target="double-well", n=10, window=60, t0_grid=(0, 10, 30), replicates=12,
        strategies=tuple(strategy_from_label(s) for s in
                         ("constant:2.38", "star", "alpha:0.27", "alpha-adaptive:0.27")),
        init_kind="gaussian", init_params=(0.0, 1.0), seed=3,
    )
    rows = "\n".join(repr(row) for row in square_bias_sweep(cfg))
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "115a64422f2c7e7769501f8f3b1b7c6728d778a4c1f5b65650619721ce885dc0"
    )


def test_sweep_rows_draw_from_their_own_children(monkeypatch):
    # Stream layout 2: row i * R + r (strategy i, replicate r) of the sweep's
    # batch draws from child i * R + r of SeedSequence(seed).spawn(S * R):
    # its start coordinates first, then n + 1 normals a step, n for the
    # proposal and one whose Phi is the uniform that decides.  Checked
    # against fresh generators on those children, with tolerances, so that
    # it holds whatever the library versions.
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
    outcomes = set()
    for j, child in enumerate(children):
        assert seen["labels"][j] == cfg.strategies[j // reps].label()
        fresh = chain_rng(child)
        x = fresh.standard_normal(n)
        np.testing.assert_allclose(seen["inits"][j], x, rtol=1e-12)
        assert seen["rngs"][j].random(3).tolist() == copy.deepcopy(fresh).random(3).tolist()
        if j < reps:  # constant:2.38 rows: redo the first step by hand
            draws = fresh.standard_normal(n + 1)
            y = x + 2.38 / math.sqrt(n) * draws[:n]
            acc_prob = math.exp(min(float(np.sum(p.eval_v(x)) - np.sum(p.eval_v(y))), 0.0))
            accepted = special.ndtr(draws[n]) <= acc_prob
            outcomes.add(bool(accepted))
            assert m_hat[j, 1] == pytest.approx(np.mean(y if accepted else x), rel=1e-12)
    assert outcomes == {True, False}


@pytest.mark.parametrize("name", ["chains", "coefficients", "experiments", "limits",
                                  "targets", "tuning"])
def test_all_lists_exactly_the_public_names(name):
    module = importlib.import_module(f"mhscaling.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    defined = {n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert sorted(defined - set(module.__all__)) == []
