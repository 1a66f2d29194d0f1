"""The benchmark's traced run wraps names of the package; keep them there."""

import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _name(owner, attr):
    return f"{getattr(owner, '__name__', 'chains.tuning view')}.{attr}"


def test_tracer_install_and_uninstall_restore_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()  # AttributeError if a wrapped name is gone
        patched = list(tracer._patches)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, _name(owner, attr)
    finally:
        tracer.uninstall()
    names = {_name(owner, attr) for owner, attr, _ in patched}
    assert {"mhscaling.limits.policy_ell", "mhscaling.limits.ell_star",
            "mhscaling.chains.rwm_step", "mhscaling.chains.tuning",
            "mhscaling.tuning.f_rate", "chains.tuning view.ell_star_ab",
            "chains.tuning view.ell_alpha_ab", "chains.tuning view.ell_ent_gaussian",
            "mhscaling.experiments.run_chain"} <= names
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, _name(owner, attr)


def test_package_runs_under_the_tracer(monkeypatch):
    # The traced run swaps chains.tuning for a view holding only the public
    # solvers, so chain code that reached a private tuning name through it
    # would fail every traced operation; run a five-rule sweep and a tuned
    # ODE under the tracer.
    from mhscaling import chains, experiments, limits

    monkeypatch.syspath_prepend(PERFBENCH)
    tracer = importlib.import_module("tracing").Tracer()
    specs = ("constant:2.38", "star", "alpha:0.27", "alpha-adaptive:0.27", "ent")
    cfg = experiments.ExperimentConfig(
        target="gaussian", n=5, window=5, t0_grid=(0, 5), replicates=2,
        strategies=tuple(chains.strategy_from_label(s) for s in specs))
    tracer.install()
    try:
        rows = experiments.square_bias_sweep(cfg)
        ode = limits.integrate_gaussian_ode(3.0, 13.0, chains.RateOptimal(), dt=0.01,
                                            t_max=0.5)
    finally:
        tracer.uninstall()
    assert len(rows) == len(specs) * len(cfg.t0_grid)
    assert len(ode.t) == 51
    assert tracer.counts["limits.steps"] == 50 and tracer.stats["experiments"][0] == 1
