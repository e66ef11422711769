import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from splitsim import harness, protection
from splitsim.cli import main


def _write_config(path, **overrides):
    cfg = {
        "dataset": {"kind": "synthetic", "n": 800, "d_in": 8, "pos_frac": 0.2,
                    "separation": 2.0, "test_frac": 0.2},
        "batch_size": 32,
        "iterations": 25,
        "mechanism": {"kind": "none"},
        "seed": 3,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_run_command(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out/run.csv").exists()
    assert (tmp_path / "out/summary.csv").exists()
    out = capsys.readouterr().out
    assert "test_auc" in out


def test_run_requires_out(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


def test_seed_override_changes_csv(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "a"), "--seed", "1"])
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "2"])
    assert (tmp_path / "a/run.csv").read_bytes() != (tmp_path / "b/run.csv").read_bytes()


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ('{"iterations": 5, "bogus": 1}', "unknown config keys: ['bogus']"),
        ("{not json", "invalid JSON in"),
        ("[1, 2]", "config must be a JSON object, got list"),
        (None, "cannot read config"),  # no file at all
    ],
    ids=["unknown_key", "invalid_json", "root_not_object", "missing_file"],
)
def test_bad_config_file_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    ("mechanism", "field"),
    [
        ({"kind": "marvell", "s": float("nan")}, "marvell s"),
        ({"kind": "iso", "t": float("nan")}, "iso t"),
        # the solver's settings are not config keys, so setting one is refused by name
        ({"kind": "marvell", "max_sweeps": 0}, "max_sweeps"),
        ({"kind": "marvell", "tol": -1}, "tol"),
        # a hyperparameter the mechanism does not read is refused, not ignored
        ({"kind": "marvell", "t": 16.0}, "mechanism marvell takes no t, got t=16.0"),
        ({"kind": "iso", "s": 2.0}, "mechanism iso takes no s, got s=2.0"),
        ({"kind": "max_norm", "t": 2.0}, "mechanism max_norm takes no t, got t=2.0"),
    ],
    ids=["marvell_s_nan", "iso_t_nan", "max_sweeps_0", "tol_negative", "marvell_t",
         "iso_s", "max_norm_t"],
)
def test_bad_mechanism_value_exits_2(tmp_path, capsys, mechanism, field):
    # json.dumps writes NaN, which json.load reads back as a float
    cfg = _write_config(tmp_path / "cfg.json", mechanism=mechanism)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    ("overrides", "argv", "field"),
    [
        ({}, ["--seed", "-1"], "seed"),
        ({"out": 5}, [], "out"),  # the output directory is only --out, never a config key
        ({"optimizer": {"lr": float("nan")}}, [], "lr"),
        # Adam is the one optimizer: its kind and constants are not config keys
        ({"optimizer": {"kind": "sgd"}}, [], "unknown optimizer keys: ['kind']"),
        ({"optimizer": {"beta1": 0.9}}, [], "unknown optimizer keys: ['beta1']"),
        ({"optimizer": {"beta2": 0.999}}, [], "unknown optimizer keys: ['beta2']"),
        ({"optimizer": {"eps": 1e-8}}, [], "unknown optimizer keys: ['eps']"),
        ({"dataset": {"test_frac": 0.0}}, [], "test_frac must be in (0, 1)"),
        ({"net": {"hidden_dims": [8, 8, 4], "activations": ["gelu", "relu", "relu"]}}, [],
         "unknown activations ['gelu']"),
        ({"net": {"hidden_dims": [0, 8, 4]}}, [], "hidden_dims must all be >= 1"),
    ],
    ids=["seed_negative", "out_int", "lr_nan", "optimizer_kind", "beta1", "beta2", "eps",
         "test_frac_0", "unknown_activation", "zero_hidden_dim"],
)
def test_bad_config_value_exits_2(tmp_path, capsys, overrides, argv, field):
    cfg = _write_config(tmp_path / "cfg.json", **overrides)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), *argv]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not (tmp_path / "o").exists()


def test_optimizer_lr_alone_trains(tmp_path):
    default = _write_config(tmp_path / "default.json")
    cfg = _write_config(tmp_path / "cfg.json", optimizer={"lr": 0.01})
    assert main(["run", "--config", str(default), "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a/run.csv").read_bytes() != (tmp_path / "b/run.csv").read_bytes()


def test_single_class_test_split_reports_na(tmp_path, capsys):
    # 50 rows at test_frac 0.02 leave one test row, so one class
    cfg = _write_config(
        tmp_path / "cfg.json",
        dataset={"kind": "synthetic", "n": 50, "d_in": 4, "pos_frac": 0.3, "test_frac": 0.02},
        batch_size=8,
        iterations=5,
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert "test_auc: NA" in capsys.readouterr().out.splitlines()
    assert "test_auc,NA" in (tmp_path / "o/summary.csv").read_text().splitlines()


@pytest.mark.parametrize(
    "dataset",
    [{"n": 1}, {"n": 3, "test_frac": 0.9}, {"kind": "toy1d", "n": 1}],
    ids=["n1", "n3_test_frac_0.9", "toy1d_n1"],
)
def test_empty_training_split_exits_2(tmp_path, capsys, dataset):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dataset": dataset}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "0 training" in err
    assert not (tmp_path / "o").exists()


def test_csv_without_training_rows_exits_3(tmp_path, capsys):
    data = tmp_path / "one.csv"
    data.write_text("label,f1\n1,0.5\n")
    cfg = _write_config(tmp_path / "cfg.json", dataset={"kind": "csv", "path": str(data)})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "0 training and 1 test rows" in capsys.readouterr().err


def test_header_only_csv_exits_3(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("label,f1\n")
    cfg = _write_config(tmp_path / "cfg.json", dataset={"kind": "csv", "path": str(data)})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "no data rows" in capsys.readouterr().err


def test_mid_run_value_error_exits_3(tmp_path, monkeypatch, capsys):
    def broken(sol, stats):
        raise ValueError("numeric failure")

    monkeypatch.setattr(protection.marvell, "build_covariances", broken)
    cfg = _write_config(tmp_path / "cfg.json", mechanism={"kind": "marvell", "s": 1.0})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "config error" not in err


def test_missing_dataset_file_exits_3(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "cfg.json",
        dataset={"kind": "csv", "path": str(tmp_path / "absent.csv")},
    )
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 3


def test_sweep_command(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", iterations=20)
    rc = main(
        ["sweep", "--config", str(cfg), "--mechanism", "iso",
         "--grid", "0.5,2", "--out", str(tmp_path / "sw")]
    )
    assert rc == 0
    lines = (tmp_path / "sw/tradeoff.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "iso"


def test_sweep_with_every_point_failed_exits_3(tmp_path, monkeypatch, capsys):
    def failing(config, out_dir):
        raise ValueError("numeric failure")

    monkeypatch.setattr(harness, "run_to_dir", failing)
    cfg = _write_config(tmp_path / "cfg.json")
    rc = main(["sweep", "--config", str(cfg), "--mechanism", "iso",
               "--grid", "0.5,2", "--out", str(tmp_path / "sw")])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines()[:2] == ["iso_0.5: FAILED", "iso_2: FAILED"]
    assert "every sweep point failed" in captured.err
    lines = (tmp_path / "sw/tradeoff.csv").read_text().splitlines()
    assert [line.split(",")[2] for line in lines[1:]] == ["failed", "failed"]


def test_sweep_lines_name_points_as_their_directories(tmp_path, capsys):
    # two values that %g prints alike are two points with two names
    cfg = _write_config(tmp_path / "cfg.json", iterations=5)
    rc = main(["sweep", "--config", str(cfg), "--mechanism", "iso",
               "--grid", "0.5000001,0.5000002", "--out", str(tmp_path / "sw")])
    assert rc == 0
    names = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()[:2]]
    assert names == ["iso_0.5000001", "iso_0.5000002"]
    assert all((tmp_path / "sw" / name / "run.csv").exists() for name in names)


def test_sweep_bad_grid_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    rc = main(["sweep", "--config", str(cfg), "--mechanism", "iso",
               "--grid", "1,zap", "--out", str(tmp_path / "sw")])
    assert rc == 2
    # a parseable but out-of-range value is rejected before any run
    rc = main(["sweep", "--config", str(cfg), "--mechanism", "iso",
               "--grid", "1,-2", "--out", str(tmp_path / "sw2")])
    assert rc == 2
    assert not (tmp_path / "sw2").exists()
    # a mechanism without a hyperparameter takes no grid
    rc = main(["sweep", "--config", str(cfg), "--mechanism", "max_norm",
               "--grid", "1", "--out", str(tmp_path / "sw3")])
    assert rc == 2
    assert "takes no grid" in capsys.readouterr().err
    assert not (tmp_path / "sw3").exists()
    # a value given twice would run the same point twice
    rc = main(["sweep", "--config", str(cfg), "--mechanism", "iso",
               "--grid", "1,0.5,1.0", "--out", str(tmp_path / "sw4")])
    assert rc == 2
    assert "repeats a value" in capsys.readouterr().err
    assert not (tmp_path / "sw4").exists()


def _read_raw_csv(path):
    """(labels, features) of a `label,f1,...,fk` file, as written."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return (np.array([int(r[0]) for r in rows]),
            np.array([[float(v) for v in r[1:]] for r in rows]))


def test_gen_data_synthetic(tmp_path, monkeypatch):
    # gen-data writes, bit for bit, the dataset that run splits for the same config and seed
    cfg = _write_config(tmp_path / "cfg.json", iterations=2)
    split, real_split = [], harness.data_mod.train_test_split

    def recording_split(dataset, *args):
        split.append(dataset)
        return real_split(dataset, *args)

    monkeypatch.setattr(harness.data_mod, "train_test_split", recording_split)
    assert main(["run", "--config", str(cfg), "--seed", "5", "--out", str(tmp_path / "o")]) == 0
    out = tmp_path / "data.csv"
    assert main(["gen-data", "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 0
    y, X = _read_raw_csv(out)
    (run_data,) = split
    assert X.shape == (800, 8)
    assert np.array_equal(y, run_data.y) and np.array_equal(X, run_data.X)
    # the seed picks the data stream, as it does for run
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "seed3.csv")]) == 0
    assert not np.array_equal(_read_raw_csv(tmp_path / "seed3.csv")[1], X)


def test_gen_data_bad_argument_exits_2(tmp_path, capsys):
    # the config's own rules hold for gen-data; json.dumps writes NaN, which json.load reads
    cfg = _write_config(tmp_path / "cfg.json", dataset={"separation": float("nan")})
    out = tmp_path / "data.csv"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "separation" in err
    assert not out.exists()


def test_unwritable_output_exits_3(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", iterations=2)
    out = tmp_path / "absent_dir" / "data.csv"
    assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 3
    assert main(["run", "--config", str(cfg), "--out", str(cfg)]) == 3  # a file, not a directory
    err = capsys.readouterr().err
    assert str(out) in err and str(cfg) in err


def test_gen_data_toy1d_feeds_run(tmp_path):
    gen_cfg = _write_config(tmp_path / "gen.json", dataset={"kind": "toy1d", "n": 600})
    out = tmp_path / "toy.csv"
    assert main(["gen-data", "--config", str(gen_cfg), "--out", str(out)]) == 0
    cfg = _write_config(
        tmp_path / "cfg.json",
        dataset={"kind": "csv", "path": str(out), "test_frac": 0.2},
        iterations=10,
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


def test_module_entry_point(tmp_path, module_env):
    cfg = _write_config(tmp_path / "cfg.json", iterations=5)
    proc = subprocess.run(
        [sys.executable, "-m", "splitsim", "run", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=module_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out/run.csv").exists()


@pytest.mark.parametrize(
    ("iterations", "message"),
    [(20, "training loss is nan at iteration 2"), (1, "test loss is nan")],
    ids=["train_loss", "test_loss"],
)
def test_non_finite_loss_exits_3(tmp_path, module_env, iterations, message):
    # lr 1e30 moves each parameter by about 1e30 in the first Adam step,
    # so the next forward pass, in training or on the test set, overflows
    # to a nan loss.  It runs in a child interpreter because this one
    # turns numpy's overflow warnings into errors.
    cfg = _write_config(tmp_path / "cfg.json", dataset={"n": 400, "d_in": 8},
                        net={"hidden_dims": [8, 8]}, optimizer={"lr": 1e30},
                        iterations=iterations)
    splitsim = [sys.executable, "-m", "splitsim"]
    for argv in (["run", "--config", str(cfg), "--out", str(tmp_path / "run")],
                 ["sweep", "--config", str(cfg), "--mechanism", "none",
                  "--out", str(tmp_path / "sweep")]):
        proc = subprocess.run(splitsim + argv, capture_output=True, text=True, env=module_env)
        assert proc.returncode == 3, proc.stderr
        assert message in proc.stderr
    assert "none: FAILED" in proc.stdout  # the sweep marks its point failed
