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
