"""The `splitsim` command line's own job: argument parsing, `--seed`,
which exit code each error family gets (2 for a config error, 3 for a
runtime one), what `run` and `sweep` print, and that `gen-data` writes
the dataset a run splits.  The config and sweep rules themselves are
tested in test_harness.py, and determinism by criterion c11 and the
pinned bytes of test_run_bytes.py.
"""

import csv
import json

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
    # one line per summary.csv value, in its order, then the run file
    summary = (tmp_path / "out/summary.csv").read_text().splitlines()[3:]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[0] for line in lines[:-1]] == [v.split(",")[0] for v in summary]
    assert lines[-1] == f"wrote {tmp_path / 'out' / 'run.csv'}"


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


def _exits_2(tmp_path, capsys, text, argv, message, out="o"):
    # a ConfigError exits 2 with its message and writes no output;
    # text is the config file's content, str or bytes, None for no file at all
    path, out = tmp_path / "cfg.json", tmp_path / out
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    assert main([argv[0], "--config", str(path), *argv[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ('{"iterations": 5, "bogus": 1}', "unknown config keys: ['bogus']"),
        ("{not json", "invalid JSON in"),
        ("[1, 2]", "config must be a JSON object, got list"),
        (None, "cannot read config"),
        (b'\xff\xfe{"iterations": 5}', "cfg.json is not UTF-8"),
    ],
    ids=["unknown_key", "invalid_json", "root_not_object", "missing_file", "non_utf8"],
)
def test_bad_config_file_exits_2(tmp_path, capsys, text, message):
    _exits_2(tmp_path, capsys, text, ["run"], message)


@pytest.mark.parametrize(
    ("text", "argv", "message"),
    [
        ("{}", ["run", "--seed", "-1"], "seed must be >= 0, got -1"),
        ('{"dataset": {"kind": "synthetic", "path": "data.csv"}}', ["run"],
         "dataset synthetic takes no path, got path='data.csv'"),
    ],
    ids=["seed_negative", "unread_dataset_key"],
)
def test_bad_config_value_exits_2(tmp_path, capsys, text, argv, message):
    # the --seed option and one config dataclass check; the rules
    # themselves are in test_harness.test_config_rejects_bad_values
    _exits_2(tmp_path, capsys, text, argv, message)


def test_gen_data_bad_argument_exits_2(tmp_path, capsys):
    _exits_2(tmp_path, capsys, '{"dataset": {"separation": NaN}}', ["gen-data"],
             "separation must be finite", out="data.csv")


def test_sweep_bad_grid_exits_2(tmp_path, capsys):
    for mechanism, grid, message in [
        ("iso", "1,zap", "bad --grid value"),
        ("iso", "1,-2", "iso t must be finite and >= 0, got -2.0"),
        ("max_norm", "1", "takes no grid"),
    ]:
        _exits_2(tmp_path, capsys, "{}", ["sweep", "--mechanism", mechanism, "--grid", grid],
                 message)


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


def _run_on_csv(tmp_path, rows):
    # a csv dataset is read only when the run starts, so its faults are runtime errors
    data = tmp_path / "data.csv"
    if rows is not None:
        data.write_text(rows)
    cfg = _write_config(tmp_path / "cfg.json", dataset={"kind": "csv", "path": str(data)})
    return main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])


def test_csv_without_training_rows_exits_3(tmp_path, capsys):
    assert _run_on_csv(tmp_path, "label,f1\n1,0.5\n") == 3
    assert "0 training and 1 test rows" in capsys.readouterr().err


def test_csv_smaller_than_a_batch_exits_3(tmp_path, capsys):
    # 10 rows leave 8 for training, fewer than the batch of 32
    assert _run_on_csv(tmp_path, "label,f1\n" + "1,0.5\n0,0.25\n" * 5) == 3
    assert "batch_size 32 exceeds the 8 training rows" in capsys.readouterr().err


def test_header_only_csv_exits_3(tmp_path, capsys):
    assert _run_on_csv(tmp_path, "label,f1\n") == 3
    assert "no data rows" in capsys.readouterr().err


def test_missing_dataset_file_exits_3(tmp_path, capsys):
    assert _run_on_csv(tmp_path, None) == 3
    assert "cannot read dataset" in capsys.readouterr().err


def test_mid_run_value_error_exits_3(tmp_path, monkeypatch, capsys):
    def broken(sol, stats):
        raise ValueError("numeric failure")

    monkeypatch.setattr(protection.marvell, "build_covariances", broken)
    cfg = _write_config(tmp_path / "cfg.json", mechanism={"kind": "marvell", "s": 1.0})
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "config error" not in err


def test_mid_run_memory_error_exits_3(tmp_path, monkeypatch, capsys):
    # as numpy raises at the first draw of a dataset too large to hold;
    # the raise is simulated, never provoked by allocating
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.45 PiB for an array")

    monkeypatch.setattr(harness.data_mod, "generate_synthetic", too_large)
    cfg = _write_config(tmp_path / "cfg.json")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "Unable to allocate" in err and "config error" not in err


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
    out = capsys.readouterr().out.splitlines()
    names = [line.split(":")[0] for line in out[:2]]
    assert names == ["iso_0.5000001", "iso_0.5000002"]
    assert all((tmp_path / "sw" / name / "run.csv").exists() for name in names)
    assert out[-1] == f"wrote {tmp_path / 'sw' / 'tradeoff.csv'}"
    lines = (tmp_path / "sw/tradeoff.csv").read_text().splitlines()
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["iso", "0.5000001", "ok"], ["iso", "0.5000002", "ok"]]


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    ("iterations", "message"),
    [(20, "training loss is nan at iteration 2"), (1, "test loss is nan")],
    ids=["train_loss", "test_loss"],
)
def test_non_finite_loss_exits_3(tmp_path, capsys, iterations, message):
    # lr 1e30 moves each parameter by about 1e30 in the first Adam step,
    # so the next forward pass, in training or on the test set, overflows
    # to a nan loss.  The suite turns warnings into errors, so this test
    # ignores numpy's overflow warnings, which a plain `splitsim` only prints.
    cfg = _write_config(tmp_path / "cfg.json", dataset={"n": 400, "d_in": 8},
                        net={"hidden_dims": [8, 8]}, optimizer={"lr": 1e30},
                        iterations=iterations)
    for argv in (["run", "--config", str(cfg), "--out", str(tmp_path / "run")],
                 ["sweep", "--config", str(cfg), "--mechanism", "none",
                  "--out", str(tmp_path / "sweep")]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert message in captured.err
    assert "none: FAILED" in captured.out  # the sweep marks its point failed
