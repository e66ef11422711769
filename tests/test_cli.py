import json
import subprocess
import sys

import pytest

from splitsim import protection
from splitsim.cli import main
from splitsim.data import load_csv


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


def test_run_requires_out_somewhere(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json")
    rc = main(["run", "--config", str(cfg)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_run_out_from_config(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", out=str(tmp_path / "fromcfg"))
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "fromcfg/run.csv").exists()


def test_seed_override_changes_csv(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json")
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "a"), "--seed", "1"])
    main(["run", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "2"])
    assert (tmp_path / "a/run.csv").read_bytes() != (tmp_path / "b/run.csv").read_bytes()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"iterations": 5, "bogus": 1}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_unknown_activation_exits_2(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "cfg.json",
        net={"hidden_dims": [8, 8, 4], "activations": ["gelu", "relu", "relu"]},
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "gelu" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_zero_hidden_dim_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", net={"hidden_dims": [0, 8, 4]})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "hidden_dims" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("mechanism", "field"),
    [
        ({"kind": "marvell", "s": float("nan")}, "marvell s"),
        ({"kind": "iso", "t": float("nan")}, "iso t"),
        ({"kind": "marvell", "max_sweeps": 0}, "max_sweeps"),
        ({"kind": "marvell", "tol": -1}, "tol"),
    ],
    ids=["marvell_s_nan", "iso_t_nan", "max_sweeps_0", "tol_negative"],
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
        ({"out": 5}, [], "out"),
        ({"optimizer": {"lr": float("nan")}}, [], "lr"),
    ],
    ids=["seed_negative", "out_int", "lr_nan"],
)
def test_bad_config_value_exits_2(tmp_path, capsys, overrides, argv, field):
    cfg = _write_config(tmp_path / "cfg.json", **overrides)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), *argv]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not (tmp_path / "o").exists()


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


def test_gen_data_synthetic(tmp_path):
    out = tmp_path / "data.csv"
    rc = main(["gen-data", "synthetic", "--n", "200", "--d-in", "5", "--out", str(out)])
    assert rc == 0
    ds = load_csv(out)
    assert ds.n == 200 and ds.d == 5


def test_gen_data_bad_argument_exits_2(tmp_path, capsys):
    out = tmp_path / "data.csv"
    assert main(["gen-data", "synthetic", "--pos-frac", "1.5", "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_toy1d_feeds_run(tmp_path):
    out = tmp_path / "toy.csv"
    assert main(["gen-data", "toy1d", "--n", "600", "--out", str(out)]) == 0
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
