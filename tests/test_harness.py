import dataclasses

import pytest

from splitsim import harness
from splitsim.attacks import quantile
from splitsim.harness import (
    RunRecord,
    ConfigError,
    DatasetConfig,
    ExperimentConfig,
    NetConfig,
    OptimizerConfig,
    RUN_CSV_HEADER,
    config_from_dict,
    run_to_dir,
    summarize_rows,
    sweep,
    train_run,
)
from splitsim.protection import MechanismConfig


def _quick_config(**overrides):
    base = dict(
        dataset=DatasetConfig(kind="synthetic", n=1200, d_in=10, pos_frac=0.2,
                              separation=2.0, noise_scale=1.0, test_frac=0.2),
        batch_size=32,
        iterations=60,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config parsing


def test_config_defaults_and_round_trip():
    cfg = config_from_dict({})
    assert cfg.batch_size == 64
    assert cfg.iterations == 200
    assert cfg.mechanism.kind == "none"
    assert cfg.net.hidden_dims == (32, 32, 16)
    assert cfg.net.cut_index == 2
    assert cfg == ExperimentConfig()
    # an integral float is an int; null is an unset optional string
    cfg = config_from_dict({"batch_size": 64.0, "out": None})
    assert cfg == ExperimentConfig() and type(cfg.batch_size) is int
    # activations and cut_index default from the depth of hidden_dims
    net = config_from_dict({"net": {"hidden_dims": [8, 8]}}).net
    assert net.activations == ("relu", "relu")
    assert net.cut_index == 1


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"batchsize": 3})
    with pytest.raises(ConfigError, match="unknown dataset keys"):
        config_from_dict({"dataset": {"kind": "synthetic", "count": 5}})
    with pytest.raises(ConfigError, match="unknown net keys"):
        config_from_dict({"net": {"layers": [3]}})
    with pytest.raises(ConfigError, match="unknown optimizer keys"):
        config_from_dict({"optimizer": {"momentum": 0.9}})
    with pytest.raises(ConfigError, match="unknown mechanism keys"):
        config_from_dict({"mechanism": {"kind": "iso", "sigma": 1.0}})


def test_config_rejects_bad_values():
    nan, inf = float("nan"), float("inf")
    for bad in [
        {"dataset": {"kind": "exotic"}},
        {"dataset": {"kind": "csv"}},  # missing path
        {"net": {"hidden_dims": [8, 8], "cut_index": 3}},
        {"mechanism": {"kind": "marvell", "s": 0.0}},
        {"batch_size": 0},
        {"optimizer": {"kind": "lbfgs"}},
        {"net": {"hidden_dims": [8, 0]}},
        {"net": {"hidden_dims": [8], "activations": ["gelu"]}},
        {"dataset": {"kind": "synthetic", "n": 0}},
        {"dataset": {"kind": "synthetic", "d_in": 0}},
        {"dataset": {"kind": "toy1d", "n": -3}},
        {"batch_size": "many"},
        {"net": [32, 16]},
        # wrong-typed values: no bool or fractional number for an int, no
        # bool for a float, only a string or null for an optional string
        {"out": 5},
        {"dataset": {"kind": "csv", "path": 5}},
        {"batch_size": 16.9},
        {"iterations": True},
        {"net": {"hidden_dims": [8.5]}},
        {"net": {"hidden_dims": [True]}},
        {"optimizer": {"lr": True}},
        {"batch_size": inf},  # int(inf) raises OverflowError
        {"dataset": {"pos_frac": 10**400}},  # too large for a float
        # non-finite or out-of-range settings
        {"seed": -1},
        {"optimizer": {"lr": nan}},
        {"optimizer": {"lr": 0.0}},
        {"optimizer": {"beta1": 1.0}},
        {"optimizer": {"beta2": -0.1}},
        {"optimizer": {"eps": inf}},
        {"dataset": {"separation": nan}},
        {"dataset": {"noise_scale": -inf}},
    ]:
        with pytest.raises(ConfigError):
            config_from_dict(bad)


def test_config_built_in_python_is_checked():
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        ExperimentConfig(batch_size=0)
    with pytest.raises(ValueError, match="iterations must be >= 1"):
        dataclasses.replace(ExperimentConfig(), iterations=0)
    with pytest.raises(ValueError, match="activations must match hidden_dims"):
        NetConfig(hidden_dims=(8,), activations=("relu", "relu"))
    with pytest.raises(ValueError, match="csv dataset requires a path"):
        DatasetConfig(kind="csv")


def test_config_mechanism_parsing():
    cfg = config_from_dict({"mechanism": {"kind": "marvell", "s": 2.5, "tol": 1e-7, "max_sweeps": 50}})
    assert cfg.mechanism.kind == "marvell"
    assert cfg.mechanism.s == 2.5
    assert cfg.mechanism.solver.tol == 1e-7
    assert cfg.mechanism.solver.max_sweeps == 50


# ---------------------------------------------------------------------------
# training runs


def test_train_run_deterministic():
    cfg = _quick_config()
    a = train_run(cfg)
    b = train_run(cfg)
    assert len(a.rows) == len(b.rows) == cfg.iterations
    for ra, rb in zip(a.rows, b.rows):
        assert ra == rb
    assert a.test_loss == b.test_loss
    assert a.test_auc == b.test_auc
    assert a.summary == b.summary


def test_train_run_rejects_unknown_optimizer():
    # OptimizerConfig rejects the kind when it is built, so no config trains with Adam instead
    with pytest.raises(ValueError, match="lbfgs"):
        train_run(_quick_config(optimizer=OptimizerConfig(kind="lbfgs")))


def test_train_run_rejects_unknown_dataset_kind():
    # DatasetConfig rejects the kind when it is built, so no config reaches load_csv
    with pytest.raises(ValueError, match="unknown dataset kind 'bogus'"):
        train_run(ExperimentConfig(dataset=DatasetConfig(kind="bogus")))


def test_train_run_seed_changes_outcome():
    a = train_run(_quick_config(seed=1))
    b = train_run(_quick_config(seed=2))
    assert a.rows[0].train_loss != b.rows[0].train_loss


def test_train_run_learns_and_leaks():
    record = train_run(_quick_config(iterations=150))
    assert record.test_auc is not None and record.test_auc >= 0.85
    assert record.summary["norm_cut_q95"] >= 0.75
    assert record.summary["cos_cut_q95"] >= 0.9
    # losses trend down
    assert record.rows[-1].train_loss < record.rows[0].train_loss


def test_train_run_uninformative_features():
    cfg = _quick_config(
        dataset=DatasetConfig(kind="synthetic", n=6000, d_in=10, pos_frac=0.3,
                              separation=0.0, noise_scale=1.0, test_frac=0.33),
        iterations=80,
    )
    record = train_run(cfg)
    assert record.test_auc is not None and record.test_auc <= 0.55


def test_train_run_single_class_batches_marked_na():
    cfg = _quick_config(
        dataset=DatasetConfig(kind="synthetic", n=400, d_in=6, pos_frac=0.05,
                              separation=1.0, noise_scale=1.0, test_frac=0.2),
        batch_size=4,
        iterations=80,
        mechanism=MechanismConfig(kind="marvell", s=1.0),
    )
    record = train_run(cfg)
    nones = [r for r in record.rows if r.norm_cut is None]
    assert nones, "expected at least one single-class batch at B=4, pos 5%"
    for r in nones:
        assert r.cos_cut is None and r.norm_first is None and r.cos_first is None
        assert r.sum_kl is None and r.auc_bound is None  # marvell fallback
        assert r.noise_power == 0.0
    measured = [r for r in record.rows if r.norm_cut is not None]
    assert measured


def test_marvell_run_records_certificates():
    cfg = _quick_config(mechanism=MechanismConfig(kind="marvell", s=4.0), iterations=40)
    record = train_run(cfg)
    certified = [r for r in record.rows if r.sum_kl is not None]
    assert len(certified) >= 35
    for r in certified:
        assert r.sum_kl >= 0
        assert 0.5 <= r.auc_bound <= 1.0
        assert r.noise_power > 0


def test_toy1d_run_works():
    cfg = _quick_config(
        dataset=DatasetConfig(kind="toy1d", n=2000, test_frac=0.2),
        iterations=60,
    )
    record = train_run(cfg)
    assert record.test_auc is not None and record.test_auc >= 0.8


# ---------------------------------------------------------------------------
# CSV output


def test_run_csv_format_and_summary_reproduction(tmp_path):
    cfg = _quick_config(mechanism=MechanismConfig(kind="marvell", s=2.0), iterations=50)
    record = run_to_dir(cfg, tmp_path)
    run_csv = (tmp_path / "run.csv").read_text().splitlines()
    assert run_csv[0] == RUN_CSV_HEADER
    assert len(run_csv) == 1 + cfg.iterations

    # recompute 95% quantiles from the emitted file; must match exactly
    cols = {name: [] for name in RUN_CSV_HEADER.split(",")}
    for line in run_csv[1:]:
        for name, raw in zip(RUN_CSV_HEADER.split(","), line.split(",")):
            cols[name].append(raw)
    for name in ("norm_cut", "cos_cut", "norm_first", "cos_first"):
        vals = [float(v) for v in cols[name] if v != "NA"]
        for v in vals:
            assert 0.0 <= v <= 1.0
        expected = record.summary[f"{name}_q95"]
        assert quantile(vals, 0.95) == expected

    summary_lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary_lines[0] == "field,value"
    summary = dict(line.split(",", 1) for line in summary_lines[1:])
    assert summary["mechanism"] == "marvell"
    assert float(summary["param"]) == 2.0
    assert float(summary["norm_cut_q95"]) == record.summary["norm_cut_q95"]
    assert float(summary["test_auc"]) == record.test_auc


def test_run_csv_byte_identical_across_calls(tmp_path):
    cfg = _quick_config(iterations=30)
    run_to_dir(cfg, tmp_path / "a")
    run_to_dir(cfg, tmp_path / "b")
    assert (tmp_path / "a/run.csv").read_bytes() == (tmp_path / "b/run.csv").read_bytes()
    assert (tmp_path / "a/summary.csv").read_bytes() == (tmp_path / "b/summary.csv").read_bytes()


def test_summarize_skips_unmeasured():
    from splitsim.harness import IterationRow

    rows = [
        IterationRow(1, 0.5, None, None, None, None, None, None, 0.0),
        IterationRow(2, 0.4, 0.8, 0.9, 0.7, 0.6, None, None, 0.0),
    ]
    s = summarize_rows(rows)
    assert s["norm_cut_q95"] == 0.8
    assert s["train_loss_min"] == 0.4
    empty = summarize_rows([IterationRow(1, 0.5, None, None, None, None, None, None, 0.0)])
    assert empty["norm_cut_q95"] is None


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_none_single_point(tmp_path):
    cfg = _quick_config(iterations=30)
    points = sweep(cfg, "none", [], tmp_path)
    assert len(points) == 1
    assert points[0].mechanism.param is None and points[0].status == "ok"
    tradeoff = (tmp_path / "tradeoff.csv").read_text().splitlines()
    assert len(tradeoff) == 2
    assert tradeoff[1].startswith("none,,ok,")


def test_sweep_iso_monotone_and_sorted(tmp_path):
    cfg = _quick_config(iterations=100)
    points = sweep(cfg, "iso", [4.0, 0.25], tmp_path)
    params = [p.mechanism.param for p in points]
    assert params == [0.25, 4.0]
    assert all(p.status == "ok" for p in points)
    q95 = [p.record.summary["norm_cut_q95"] for p in points]
    assert q95[1] <= q95[0] + 1e-12
    assert (tmp_path / "iso_0.25/run.csv").exists()
    assert (tmp_path / "iso_4/run.csv").exists()


def test_sweep_keeps_base_solver_settings(tmp_path, monkeypatch):
    ran = []

    def fake_run_to_dir(config, out_dir):
        ran.append(config.mechanism)
        return RunRecord(rows=[], test_loss=0.0, test_auc=None, summary=summarize_rows([]))

    monkeypatch.setattr(harness, "run_to_dir", fake_run_to_dir)
    base = config_from_dict({"mechanism": {"kind": "marvell", "max_sweeps": 1}})
    points = sweep(base, "marvell", [4.0, 1.0], tmp_path)
    assert [m.s for m in ran] == [1.0, 4.0]
    assert [m.solver.max_sweeps for m in ran] == [1, 1]
    assert [p.mechanism for p in points] == ran


def test_sweep_requires_grid_for_parametric(tmp_path):
    with pytest.raises(ConfigError):
        sweep(_quick_config(), "iso", [], tmp_path)


def test_sweep_marks_failures(tmp_path):
    cfg = _quick_config(
        dataset=DatasetConfig(kind="csv", path=str(tmp_path / "missing.csv"))
    )
    points = sweep(cfg, "none", [], tmp_path)
    assert points[0].status == "failed"
    tradeoff = (tmp_path / "tradeoff.csv").read_text().splitlines()
    assert "failed" in tradeoff[1]
    assert tradeoff[1] == "none,,failed,,,,,,,"
