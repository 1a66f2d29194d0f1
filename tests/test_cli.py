import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mhscaling
from mhscaling import cli, experiments, tuning
from mhscaling.chains import strategy_from_label


def run_cli(argv):
    return cli.main(argv)


def loaded_by_cli_import(module, argv=None):
    # whether a fresh interpreter has ``module`` loaded after importing the
    # CLI and, if ``argv`` is given, running it
    package_root = os.path.dirname(os.path.dirname(mhscaling.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    run = "" if argv is None else f"assert mhscaling.cli.main({argv!r}) == 0; "
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys, mhscaling.cli; {run}print({module!r} in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout.strip() == "True"


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs most of a cold start and only the AR(1) limit uses it
    assert not loaded_by_cli_import("scipy.signal")


def test_cli_import_leaves_scipy_integrate_unloaded():
    # only the quadratures of targets use it; they import it when first run
    assert not loaded_by_cli_import("scipy.integrate")


def test_simulate_ode_leaves_scipy_integrate_unloaded(tmp_path):
    # the moment ODE builds no potential, so it runs no quadrature
    assert not loaded_by_cli_import("scipy.integrate", [
        "simulate", "--kind", "ode", "--strategy", "constant:2.38", "--t-max", "0.01",
        "--out", str(tmp_path)])


def test_cli_import_leaves_scipy_optimize_unloaded():
    # only the tuning solve uses it (for brentq); it imports it when first run
    assert not loaded_by_cli_import("scipy.optimize")


def test_tune_star_reference(capsys):
    assert run_cli(["tune", "--mode", "star", "--s", "1"]) == 0
    out = capsys.readouterr().out
    value = float(out.splitlines()[1].split()[1])
    assert value == pytest.approx(1.85, abs=0.01)


def test_tune_alpha_reference(capsys):
    assert run_cli(["tune", "--mode", "alpha", "--s", "1", "--alpha", "0.234"]) == 0
    value = float(capsys.readouterr().out.splitlines()[1].split()[1])
    assert value == pytest.approx(2.38, abs=0.01)


def test_tune_star_at_zero(capsys):
    assert run_cli(["tune", "--mode", "star", "--s", "0"]) == 0
    value = float(capsys.readouterr().out.splitlines()[1].split()[1])
    assert value == pytest.approx(math.sqrt(2.0), abs=1e-8)


def test_tune_grid_and_output(tmp_path, capsys):
    out = tmp_path / "tuned"
    assert run_cli(["tune", "--mode", "star", "--s-grid", "0:2:5", "--out", str(out)]) == 0
    assert (out / "tune.csv").exists()
    assert (out / "manifest.json").exists()
    assert len((out / "tune.csv").read_text().splitlines()) == 6


def test_tune_ab_and_ent_write_the_rule_they_name(tmp_path, capsys):
    # the --a/--b form and --mode ent, each row against its tuning rule
    for i, (argv, label, res) in enumerate([
        (["--mode", "star", "--a", "4", "--b", "2"], "a=4 b=2", tuning.ell_star_ab(4.0, 2.0)),
        (["--mode", "alpha", "--a", "4", "--b", "2", "--alpha", "0.3"], "a=4 b=2",
         tuning.ell_alpha_ab(4.0, 2.0, 0.3)),
        (["--mode", "ent", "--m", "1", "--s", "6"], "s=6", tuning.ell_ent_gaussian(1.0, 6.0)),
    ]):
        out = tmp_path / str(i)
        assert run_cli(["tune", *argv, "--out", str(out)]) == 0
        assert (out / "tune.csv").read_text().splitlines() == [
            "input,ell,objective,converged",
            f"{label},{res.ell!r},{res.objective_value!r},{res.converged}",
        ]
    capsys.readouterr()
    assert run_cli(["tune", "--mode", "ent", "--a", "1", "--b", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_tune_domain_error_exit_code(capsys):
    assert run_cli(["tune", "--mode", "alpha", "--s", "1", "--alpha", "1.5"]) == 2
    assert "alpha" in capsys.readouterr().err


def test_simulate_ode_reaches_equilibrium(tmp_path):
    out = tmp_path / "ode"
    rc = run_cli([
        "simulate", "--kind", "ode", "--target", "gaussian", "--strategy", "star",
        "--m0", "10", "--s0", "100", "--t-max", "40", "--stop-tol", "1e-6",
        "--out", str(out),
    ])
    assert rc == 0
    data = np.loadtxt(out / "limit.csv", delimiter=",", skiprows=1)
    assert abs(data[-1, 1]) < 1e-6
    assert abs(data[-1, 2] - 1.0) < 1e-6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["outputs"] == ["limit.csv"]


def test_simulate_ode_from_a_tiny_variance(tmp_path):
    # s - m^2 = 1e-17 rounds to -1 as variance - 1; the entropy is still finite
    argv = ["simulate", "--kind", "ode", "--m0", "0", "--s0", "1e-17", "--t-max", "0.01"]
    assert run_cli([*argv, "--out", str(tmp_path)]) == 0
    header, first, *_ = (tmp_path / "limit.csv").read_text().splitlines()
    entropy = float(first.split(",")[header.split(",").index("H")])
    assert entropy == pytest.approx(0.5 * (1e-17 - 1.0 + 17.0 * math.log(10.0)), rel=1e-15)


def test_simulate_ar1_variance(tmp_path):
    out = tmp_path / "ar1"
    rc = run_cli([
        "simulate", "--kind", "ar1", "--ell", "1", "--steps", "300000",
        "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    y = np.loadtxt(out / "ar1.csv", delimiter=",", skiprows=1)[:, 1]
    assert float(np.var(y[1000:])) == pytest.approx(4.0 / 3.0, abs=0.03)


def test_simulate_rwm_and_mala_write_trajectories(tmp_path):
    for kind, extra in (("rwm", ["--strategy", "alpha:0.27"]), ("mala", ["--sigma", "0.3"])):
        out = tmp_path / kind
        rc = run_cli([
            "simulate", "--kind", kind, "--n", "20", "--steps", "50",
            "--init", "gaussian:0,1", "--seed", "1", "--out", str(out), *extra,
        ])
        assert rc == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "k,ell_used,acc_prob,a_hat,b_hat"
        assert len(lines) == 51


def test_simulate_particles(tmp_path):
    out = tmp_path / "pcl"
    rc = run_cli([
        "simulate", "--kind", "particles", "--n", "2000", "--ell", "1.5",
        "--dt", "0.01", "--t-max", "1.0", "--init", "gaussian:0,2",
        "--seed", "0", "--out", str(out),
    ])
    assert rc == 0
    data = np.loadtxt(out / "particles.csv", delimiter=",", skiprows=1)
    assert data.shape[1] == 3
    assert data[0, 2] == pytest.approx(2.0, abs=0.2)


def test_simulate_unknown_target_is_usage_error(tmp_path):
    out = tmp_path / "bad"
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--kind", "rwm", "--target", "banana", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_simulate_bad_strategy_no_partial_files(tmp_path):
    out = tmp_path / "bad2"
    rc = run_cli([
        "simulate", "--kind", "rwm", "--strategy", "bogus", "--out", str(out),
    ])
    assert rc == 2
    assert not out.exists()


def test_experiment_roundtrip_byte_identical(tmp_path):
    cfg = {
        "target": "gaussian", "n": 10, "window": 50, "t0_grid": [0, 25],
        "replicates": 3, "strategies": ["constant:2.38", "star"],
        "init_kind": "point", "init_params": [10.0], "seed": 4,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert run_cli(["experiment", "--config", str(cfg_path), "--out", str(out1)]) == 0
    # re-run from the produced manifest
    assert run_cli(["experiment", "--config", str(out1 / "manifest.json"),
                    "--out", str(out2)]) == 0
    for name in ("bias_constant-2.38.csv", "bias_rate-optimal.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_experiment_manifest_roundtrip_is_lossless(tmp_path):
    # the manifest names strategies by spec, which keeps every digit
    cfg = {
        "target": "gaussian", "n": 10, "window": 40, "t0_grid": [0, 20],
        "replicates": 3, "strategies": ["constant:1.2345678", "alpha:0.2345678"],
        "init_kind": "point", "init_params": [10.0], "seed": 8,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert run_cli(["experiment", "--config", str(cfg_path), "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["tool"] == "mhscaling"
    assert manifest["command"] == "experiment"
    assert manifest["seed"] == 8
    assert manifest["config"]["seed"] == 8
    assert manifest["config"]["strategies"] == cfg["strategies"]
    names = ["bias_acc-0.234568-numeric.csv", "bias_constant-1.23457.csv"]
    assert manifest["outputs"] == names
    assert run_cli(["experiment", "--config", str(out1 / "manifest.json"),
                    "--out", str(out2)]) == 0
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_bias_files_hold_their_own_strategy(tmp_path):
    # each bias_<label>.csv holds the sweep's rows for that label alone
    cfg = {
        "target": "gaussian", "n": 10, "window": 30, "t0_grid": [0, 10],
        "replicates": 3, "strategies": ["constant:2.38", "star", "alpha:0.27"], "seed": 2,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run_cli(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    curves = experiments.square_bias_sweep(experiments.ExperimentConfig.from_dict(cfg))
    for spec in cfg["strategies"]:
        label = strategy_from_label(spec).label()
        rows = np.loadtxt(out / f"bias_{label}.csv", delimiter=",", skiprows=1)
        want = [(c.t0, c.sq_bias_s, c.sq_bias_m, c.stderr_s, c.stderr_m)
                for c in curves if c.strategy == label]
        assert rows.tolist() == [list(map(float, w)) for w in want], label


def test_experiment_manifest_with_labels_is_refused(tmp_path, capsys):
    # manifests of older versions named strategies by label
    cfg = {
        "target": "gaussian", "n": 10, "window": 40, "t0_grid": [0],
        "replicates": 3, "strategies": ["constant-2.38"], "seed": 1,
    }
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps({"config": cfg}))
    out = tmp_path / "out"
    assert run_cli(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "unknown strategy" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--kind", "rwm", "--strategy", "constant:abc"],
    ["simulate", "--kind", "rwm", "--strategy", "star:5"],
    ["simulate", "--kind", "ode", "--strategy", "ent:1"],
    ["simulate", "--kind", "ode", "--strategy", "alpha-adaptive"],
    ["tune", "--mode", "star", "--s-grid", "0:1"],
    ["tune", "--mode", "star", "--s-grid", "0:1:0"],
    ["tune", "--mode", "star", "--s-grid", "0:1:x"],
    ["simulate", "--kind", "ode", "--dt", "0"],
    ["simulate", "--kind", "rwm", "--steps", "-5"],
    ["simulate", "--kind", "ar1", "--steps", "-1"],
    ["simulate", "--kind", "rwm", "--init", "gaussian:1"],
    ["simulate", "--kind", "particles", "--init", "point:abc"],
    ["simulate", "--kind", "mala", "--init", "gaussian:0,-1"],
    ["simulate", "--kind", "rwm", "--init", "uniform"],
    ["simulate", "--kind", "particles", "--n", "-3"],
    ["simulate", "--kind", "particles", "--t-max", "-1"],
    ["simulate", "--kind", "ode", "--t-max", "-5"],
    ["simulate", "--kind", "ode", "--dt", "inf"],
    ["simulate", "--kind", "particles", "--dt", "inf"],
    ["simulate", "--kind", "mala", "--sigma", "inf", "--n", "20", "--steps", "5"],
    ["experiment", "--config", "."],
    ["simulate", "--kind", "mala", "--sigma", "0", "--steps", "0", "--n", "5"],
    ["simulate", "--kind", "mala", "--sigma", "inf", "--steps", "0", "--n", "5"],
    ["simulate", "--kind", "ar1", "--seed", "-1"],
    ["simulate", "--kind", "particles", "--seed", "-1"],
    ["experiment", "--preset", "desk", "--seed", "-1"],
    ["simulate", "--kind", "rwm", "--target", "double-well", "--strategy", "ent",
     "--n", "5", "--steps", "3"],
    ["tune", "--mode", "star", "--s", "1e308"],
    ["simulate", "--kind", "ode", "--dt", "5e-324"],
    ["simulate", "--kind", "particles", "--t-max", "1e308"],
    ["simulate", "--kind", "ar1", "--y0", "nan", "--steps", "5"],
    ["simulate", "--kind", "ar1", "--y0", "inf", "--steps", "5"],
    ["simulate", "--kind", "particles", "--n", "100", "--ell", "1e160", "--t-max", "0.001"],
    ["simulate", "--kind", "ode", "--strategy", "constant:1e200"],
    ["simulate", "--kind", "particles", "--ell", "-1", "--t-max", "0"],
    ["tune", "--mode", "alpha", "--a", "1", "--b", "1e-160"],
    ["tune", "--mode", "star", "--a", "1", "--b", "1e-160"],
    ["simulate", "--kind", "particles", "--n", "5", "--t-max", "0.01", "--dt", "1e-300"],
    ["simulate", "--kind", "ode", "--dt", "1e-300"],
    ["simulate", "--kind", "particles", "--n", "5", "--dt", "0.001", "--t-max", "0.01",
     "--init", "point:1e200"],
    ["simulate", "--kind", "particles", "--n", "5", "--dt", "0.001", "--t-max", "0.01",
     "--init", "gaussian:0,inf"],
    ["simulate", "--kind", "ode", "--target", "double-well", "--t-max", "0.01"],
    ["simulate", "--kind", "ar1", "--target", "double-well", "--steps", "5"],
    ["simulate", "--kind", "rwm", "--n", "1000000000000000"],
    ["simulate", "--kind", "particles", "--n", "1000000000000000"],
    ["simulate", "--kind", "ar1", "--steps", "1000000000000000"],
    ["simulate", "--kind", "rwm", "--n", "5", "--steps", "1000000000000"],
    ["simulate", "--kind", "mala", "--n", "5", "--steps", "100000000"],
])
def test_malformed_input_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run_cli([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, name", [
    (["tune", "--mode", "alpha", "--s", "1e200"], "tune.csv"),
    (["simulate", "--kind", "ode", "--strategy", "alpha", "--m0", "0", "--s0", "1e200",
      "--t-max", "0.05"], "limit.csv"),
    (["simulate", "--kind", "rwm", "--strategy", "alpha", "--init", "point:1e80",
      "--n", "5", "--steps", "3"], "trajectory.csv"),
])
def test_acceptance_matching_solves_at_extreme_moments(tmp_path, argv, name):
    # ell_alpha grows as sqrt s, past any fixed number of bracket doublings
    assert run_cli([*argv, "--out", str(tmp_path)]) == 0
    header, *rows = (tmp_path / name).read_text().splitlines()
    col = header.split(",").index("ell" if name == "tune.csv" else "ell_used")
    assert rows and all(0.0 < float(row.split(",")[col]) < math.inf for row in rows)


@pytest.mark.parametrize("text", [
    '{"n": 10}',
    "[1, 2]",
    '{"config": [1, 2]}',
    "n = 10",
    '{"target": "gaussian", "n": "ten", "window": 40, "t0_grid": [0], '
    '"replicates": 3, "strategies": ["star"]}',
    '{"target": "gaussian", "n": 10, "window": 40, "t0_grid": [0], '
    '"replicates": 3, "strategies": ["star"], "init_kind": "gaussian"}',
    '{"target": "gaussian", "n": 10, "window": 40, "t0_grid": [-100, 0], '
    '"replicates": 3, "strategies": ["star"]}',
    '{"target": "gaussian", "n": 10, "window": 40, "t0_grid": [-20, 30], '
    '"replicates": 3, "strategies": ["star"]}',
    '{"target": "gaussian", "n": 10, "window": 40, "t0_grid": [], '
    '"replicates": 3, "strategies": ["star"]}',
    '{"target": "gaussian", "n": 10, "window": 40, "t0_grid": [0], '
    '"replicates": 3, "strategies": []}',
    '{"target": "gaussian", "n": 10, "window": 40, "t0_grid": [0], '
    '"replicates": 3, "strategies": ["star"], "seed": -1}',
    '{"target": "gaussian", "n": 10.7, "window": 40, "t0_grid": [0], '
    '"replicates": 3, "strategies": ["star"]}',
    '{"target": "gaussian", "n": 10, "window": 20.9, "t0_grid": [0], '
    '"replicates": 3, "strategies": ["star"]}',
    '{"target": "gaussian", "n": 10, "window": 40, "t0_grid": [0, 5.5], '
    '"replicates": 3, "strategies": ["star"]}',
    '{"target": "gaussian", "n": 10, "window": 40, "t0_grid": [0], '
    '"replicates": 2.9, "strategies": ["star"]}',
    '{"target": "gaussian", "n": 10, "window": 40, "t0_grid": [0], '
    '"replicates": 3, "strategies": ["star"], "seed": 1.5}',
    '{"target": "double-well", "n": 10, "window": 40, "t0_grid": [0], '
    '"replicates": 3, "strategies": ["ent"]}',
    '{"target": "gaussian", "n": 1e999, "window": 40, "t0_grid": [0], '
    '"replicates": 3, "strategies": ["star"]}',
    '{"target": ["gaussian"], "n": 10, "window": 40, "t0_grid": [0], '
    '"replicates": 3, "strategies": ["star"]}',
    '{"target": {"a": 1}, "n": 10, "window": 40, "t0_grid": [0], '
    '"replicates": 3, "strategies": ["star"]}',
], ids=["missing-key", "list", "config-list", "not-json", "text-n", "gaussian-init-10",
        "t0-before-start", "t0-negative-inside", "t0-grid-empty", "no-strategies",
        "seed-negative", "n-fractional", "window-fractional", "t0-fractional",
        "replicates-fractional", "seed-fractional", "ent-double-well", "n-infinite",
        "target-list", "target-object"])
def test_malformed_config_exits_2(tmp_path, capsys, text):
    config = tmp_path / "bad.json"
    config.write_text(text)
    out = tmp_path / "out"
    assert run_cli(["experiment", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("kind", ["rwm", "mala", "particles"])
def test_record_every_zero_is_refused(tmp_path, capsys, kind):
    out = tmp_path / kind
    rc = run_cli(["simulate", "--kind", kind, "--n", "20", "--steps", "10",
                  "--t-max", "0.1", "--dt", "0.01", "--record-every", "0",
                  "--out", str(out)])
    assert rc == 2
    assert "record_every" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("init", ["point:1e200", "point:nan"])
def test_non_finite_start_is_refused(tmp_path, capsys, init):
    out = tmp_path / "far"
    rc = run_cli(["simulate", "--kind", "rwm", "--strategy", "star", "--n", "20",
                  "--steps", "10", "--init", init, "--out", str(out)])
    assert rc == 2
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_requires_preset_or_config(tmp_path):
    assert run_cli(["experiment", "--out", str(tmp_path / "x")]) == 2


def test_experiment_loss_surface(tmp_path, capsys):
    out = tmp_path / "loss"
    assert run_cli(["experiment", "--kind", "loss", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "alpha=0.27" in printed
    rows = (out / "relative_loss.csv").read_text().splitlines()
    assert rows[0] == "alpha,b,a,loss"
    losses = [float(r.split(",")[3]) for r in rows[1:]]
    assert all(0.0 <= v < 1.0 for v in losses)


def test_validate_passes(capsys):
    assert run_cli(["validate", "--samples", "2e5", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 8


def test_validate_reports_a_failing_check(monkeypatch, capsys):
    # one registry entry made to fail: one FAIL line, n-1 of n passed, rc 1
    name, value, target, tol = cli.TUNING_CONSTANTS[1]
    monkeypatch.setattr(cli, "TUNING_CONSTANTS", (
        cli.TUNING_CONSTANTS[0], (name, value, target + 1.0, tol), *cli.TUNING_CONSTANTS[2:]))
    assert run_cli(["validate", "--samples", "5e4", "--seed", "9"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        f"FAIL  {name}: {value():.12g}"]
    n = sum(line.startswith(("PASS", "FAIL")) for line in lines)
    assert lines[-1] == f"{n - 1}/{n} checks passed"


@pytest.mark.parametrize("samples", ["0", "1", "nan", "1e9", "1e300"])
def test_validate_refuses_too_few_samples(capsys, samples):
    # empty-sample means are nan, and "nan > 4 se" is False: a vacuous pass
    assert run_cli(["validate", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--samples" in captured.err


def test_validate_refuses_negative_seed(capsys):
    assert run_cli(["validate", "--samples", "100", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed" in captured.err and captured.err.count("\n") == 1


def test_validate_seeded_run_reproducible(capsys):
    assert run_cli(["validate", "--samples", "5e4", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert run_cli(["validate", "--samples", "5e4", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


def test_help_lists_flags(capsys):
    for sub in ("tune", "simulate", "experiment", "validate"):
        with pytest.raises(SystemExit) as exc:
            run_cli([sub, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out


def test_missing_output_dir_created(tmp_path):
    nested = tmp_path / "a" / "b" / "c"
    assert run_cli(["simulate", "--kind", "ar1", "--ell", "0.5", "--steps", "10",
                    "--out", str(nested)]) == 0
    assert (nested / "ar1.csv").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--kind", "rwm", "--n", "5", "--steps", "4", "--seed", "3"],
    ["simulate", "--kind", "mala", "--n", "5", "--steps", "4"],
    ["simulate", "--kind", "ode", "--t-max", "0.01", "--dt", "0.005", "--stop-tol", "1e-3"],
    ["simulate", "--kind", "particles", "--n", "50", "--t-max", "0.01", "--dt", "0.005"],
    ["simulate", "--kind", "ar1", "--steps", "4"],
    ["tune", "--mode", "alpha", "--s-grid", "1:2:2"],
], ids=["rwm", "mala", "ode", "particles", "ar1", "tune"])
def test_manifest_records_every_option(tmp_path, argv):
    # a rerun from the manifest needs every option that shaped the data
    out = tmp_path / "run"
    assert run_cli([*argv, "--out", str(out)]) == 0
    parsed = vars(cli.build_parser().parse_args([*argv, "--out", str(out)]))
    manifest = json.loads((out / "manifest.json").read_text())
    for name in set(parsed) - {"command", "fn", "out", "seed"}:
        assert manifest["config"][name] == parsed[name], name
    assert manifest["seed"] == parsed.get("seed")


def test_loss_manifest_records_its_grid(tmp_path):
    out = tmp_path / "loss"
    assert run_cli(["experiment", "--kind", "loss", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    b_values, a_grid, alphas = experiments.robustness_grid()
    assert manifest["config"]["a_grid"] == list(a_grid)
    assert manifest["config"]["b_values"] == list(b_values)
    assert manifest["config"]["alphas"] == list(alphas)
