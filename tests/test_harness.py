import dataclasses
import os
import re
import threading
import warnings

import numpy as np
import pytest

from oracles import per_matrix_leak_auc
from splitsim import data, harness, model
from splitsim.attacks import ScoreParts, leak_auc, quantile
from splitsim.harness import (
    ConfigError,
    DatasetConfig,
    ExperimentConfig,
    NetConfig,
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
    cfg = config_from_dict({"batch_size": 64.0, "dataset": {"path": None}})
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
    # the solver's settings and the output directory are not config keys
    with pytest.raises(ConfigError, match=r"unknown mechanism keys: \['max_sweeps', 'tol'\]"):
        config_from_dict({"mechanism": {"kind": "marvell", "tol": 1e-7, "max_sweeps": 50}})
    with pytest.raises(ConfigError, match=r"unknown config keys: \['out'\]"):
        config_from_dict({"out": "runs/exp1"})


def _keys(cls) -> list[str]:
    """Every config key under `cls`, each section's keys by path."""
    keys = []
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default_factory):
            keys += [f"{f.name}.{k}" for k in _keys(f.default_factory)]
        else:
            keys.append(f.name)
    return keys


def test_config_has_18_keys():
    assert len(_keys(ExperimentConfig)) == 18
    assert [k for k in _keys(ExperimentConfig) if k.startswith("optimizer.")] == ["optimizer.lr"]


def test_config_rejects_bad_values():
    nan, inf = float("nan"), float("inf")
    for bad in [
        {"dataset": {"kind": "exotic"}},
        {"dataset": {"kind": "csv"}},  # missing path
        {"net": {"hidden_dims": [8, 8], "cut_index": 3}},
        {"mechanism": {"kind": "marvell", "s": 0.0}},
        {"batch_size": 0},
        {"dataset": {"pos_frac": 0.0}},
        {"dataset": {"pos_frac": 1.0}},
        {"dataset": {"kind": "synthetic", "n": 0}},
        {"dataset": {"kind": "synthetic", "d_in": 0}},
        {"dataset": {"kind": "toy1d", "n": -3}},
        {"batch_size": "many"},
        {"net": [32, 16]},
        # wrong-typed values: no bool or fractional number for an int, no
        # bool for a float, only a string or null for an optional string,
        # only a list for a tuple
        {"dataset": {"kind": "csv", "path": 5}},
        {"net": {"hidden_dims": "88"}},
        {"net": {"hidden_dims": {"8": 1, "4": 2}}},
        {"net": {"activations": "relu"}},
        {"batch_size": 16.9},
        {"iterations": True},
        {"net": {"hidden_dims": [8.5]}},
        {"net": {"hidden_dims": [True]}},
        {"optimizer": {"lr": True}},
        {"batch_size": inf},  # int(inf) raises OverflowError
        {"dataset": {"pos_frac": 10**400}},  # too large for a float
        # non-finite or out-of-range settings
        {"seed": -1},
        {"optimizer": {"lr": 0.0}},
        {"optimizer": {"lr": inf}},
        {"dataset": {"separation": nan}},
        {"dataset": {"noise_scale": -inf}},
    ]:
        with pytest.raises(ConfigError):
            config_from_dict(bad)
    for bad, message in [
        ({"net": {"activations": "relu"}}, "expected a list for activations, got 'relu'"),
        ({"dataset": {"test_frac": 0.0}}, "test_frac must be in (0, 1), got 0.0"),
        ({"dataset": {"n": 1}}, "leaves 0 training"),
        ({"dataset": {"n": 3, "test_frac": 0.9}}, "leaves 0 training"),
        ({"dataset": {"kind": "toy1d", "n": 1}}, "leaves 0 training"),
        ({"net": {"hidden_dims": [8], "activations": ["gelu"]}}, "unknown activations ['gelu']"),
        ({"net": {"hidden_dims": [8, 0]}}, "hidden_dims must all be >= 1, got [8, 0]"),
        ({"net": {"hidden_dims": []}}, "hidden_dims must name at least one hidden layer, got []"),
        ({"optimizer": {"lr": nan}}, "lr must be finite and > 0, got nan"),
        # Adam is the one optimizer: its kind and constants are not config keys
        ({"optimizer": {"kind": "sgd"}}, "unknown optimizer keys: ['kind']"),
        ({"optimizer": {"beta1": 0.9}}, "unknown optimizer keys: ['beta1']"),
        ({"mechanism": {"kind": "marvell", "s": nan}}, "marvell s must be finite and > 0"),
        ({"mechanism": {"kind": "iso", "t": nan}}, "iso t must be finite and >= 0"),
        # a field the kind does not read is refused, not ignored
        ({"mechanism": {"kind": "marvell", "t": 2.0}}, "mechanism marvell takes no t, got t=2.0"),
        ({"mechanism": {"kind": "iso", "s": 2.0}}, "mechanism iso takes no s, got s=2.0"),
        ({"mechanism": {"kind": "none", "t": 2.0}}, "mechanism none takes no t, got t=2.0"),
        ({"mechanism": {"kind": "max_norm", "s": 2.0}}, "mechanism max_norm takes no s"),
        ({"dataset": {"kind": "synthetic", "path": "mydata.csv"}},
         "dataset synthetic takes no path, got path='mydata.csv'"),
        ({"dataset": {"kind": "csv", "path": "x.csv", "n": 10}},
         "dataset csv takes no n, got n=10"),
        ({"dataset": {"kind": "toy1d", "d_in": 5}}, "dataset toy1d takes no d_in, got d_in=5"),
        # a batch larger than the training set is refused, not clamped
        ({"dataset": {"n": 100}, "batch_size": 81}, "batch_size 81 exceeds the 80 training rows"),
    ]:
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(bad)


def test_config_built_in_python_is_checked():
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        ExperimentConfig(batch_size=0)
    with pytest.raises(ValueError, match="iterations must be >= 1"):
        dataclasses.replace(ExperimentConfig(), iterations=0)
    with pytest.raises(ValueError, match="activations must match hidden_dims"):
        NetConfig(hidden_dims=(8,), activations=("relu", "relu"))
    # activations and cut_index default from the depth, as in a parsed config
    assert NetConfig(hidden_dims=(8, 8)) == config_from_dict({"net": {"hidden_dims": [8, 8]}}).net
    with pytest.raises(ValueError, match="csv dataset requires a path"):
        DatasetConfig(kind="csv")


def test_config_mechanism_parsing():
    cfg = config_from_dict({"mechanism": {"kind": "marvell", "s": 2.5}})
    assert cfg.mechanism == MechanismConfig(kind="marvell", s=2.5)
    assert cfg.mechanism.param == 2.5


# ---------------------------------------------------------------------------
# training runs


def test_train_run_rejects_unknown_dataset_kind():
    # DatasetConfig rejects the kind when it is built, so no config reaches load_csv
    with pytest.raises(ValueError, match="unknown dataset kind 'bogus'"):
        train_run(ExperimentConfig(dataset=DatasetConfig(kind="bogus")))


def test_train_run_learns_and_leaks():
    record = train_run(_quick_config(iterations=150))
    assert record.summary["test_auc"] is not None and record.summary["test_auc"] >= 0.85
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
    assert record.summary["test_auc"] is not None and record.summary["test_auc"] <= 0.55


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


def test_zero_oracle_rows_keep_norms_and_skip_cosine_quantiles(tmp_path):
    # h is one relu unit before the logit, so a positive row whose unit
    # is dead has a zero clean gradient: drawn as the oracle, it leaves
    # that batch's cosine attack unmeasured (NA) while the norm attack
    # is still measured, and the cos_* quantiles skip the NA rows
    cfg = config_from_dict({
        "dataset": {"n": 400},
        "net": {"hidden_dims": [4, 1], "cut_index": 1},
        "batch_size": 32,
        "iterations": 40,
    })
    record = run_to_dir(cfg, tmp_path)
    measured = [r for r in record.rows if r.norm_cut is not None]
    no_oracle = [r for r in measured if r.cos_cut is None]
    assert (len(measured), len(no_oracle)) == (39, 23)
    assert all(r.norm_first is not None for r in no_oracle)

    lines = (tmp_path / "run.csv").read_text().splitlines()
    columns = dict(zip(lines[0].split(","), zip(*(line.split(",") for line in lines[1:]))))
    summary_lines = (tmp_path / "summary.csv").read_text().splitlines()
    summary = dict(line.split(",", 1) for line in summary_lines)
    assert columns["norm_cut"].count("NA") == len(record.rows) - len(measured)
    for name in ("cos_cut", "cos_first"):
        values = [float(v) for v in columns[name] if v != "NA"]
        assert len(values) < len(measured)
        assert float(summary[f"{name}_q95"]) == quantile(values, 0.95)


def test_marvell_run_records_certificates():
    cfg = _quick_config(mechanism=MechanismConfig(kind="marvell", s=4.0), iterations=40)
    record = train_run(cfg)
    certified = [r for r in record.rows if r.sum_kl is not None]
    assert len(certified) >= 35
    for r in certified:
        assert r.sum_kl >= 0
        assert 0.5 <= r.auc_bound <= 1.0
        assert r.noise_power > 0


def test_run_model_is_run_dtype(monkeypatch):
    # a silent float64 upcast anywhere on the model's path (say, probs - y
    # with a float64 y) would still pass every other test, at half speed
    seen = {name: [] for name in ("coords", "basis", "received", "first", "oracles")}
    seen["params_adam"] = []
    apply_update = harness.apply_update

    def spy_update(net, optimizer):  # no record holds the optimizer
        apply_update(net, optimizer)
        # the net's parameters and, after the step, Adam's two moments
        seen["params_adam"].append(np.concatenate([net.params, optimizer._m, optimizer._v]))

    monkeypatch.setattr(harness, "apply_update", spy_update)
    for mechanism in (MechanismConfig(), MechanismConfig(kind="marvell", s=2.0)):
        for record in harness.iterate_run(_quick_config(mechanism=mechanism, iterations=10)):
            coords, basis = record.factor  # basis is a view of the net's parameters
            seen["coords"].append(coords)
            seen["basis"].append(basis)
            seen["received"].append(record.outcome.perturbed)
            seen["first"].append(record.first)
            seen["oracles"] += [row for _, row in (record.oracles or {}).values()]
    assert all(len(arrays) >= 10 for arrays in seen.values())
    assert {a.dtype for arrays in seen.values() for a in arrays} == {np.dtype(np.float32)}


def test_one_call_per_job(monkeypatch):
    # each iteration: one label-party pass, one mechanism call, one
    # non-label pass and one update; on a mixed batch one first-layer
    # oracle row, and on a single-class batch (common at B=16) no audit
    # at all.  The audit is ranked once per run: right after the last
    # update, one leak_auc call ranks the cut's received matrices of
    # every mixed batch and one the first layer's, and nothing else
    # calls it
    calls = []
    jobs = ("label_party_gradients", "apply_mechanism", "backprop_nonlabel",
            "first_layer_gradient_row", "apply_update", "leak_auc")
    for name in jobs:
        def wrapper(*args, _fn=getattr(harness, name), _name=name):
            result = _fn(*args)
            calls.append((_name, args, result))
            return result
        monkeypatch.setattr(harness, name, wrapper)
    mechanism = MechanismConfig(kind="marvell", s=1.0)
    train_run(_quick_config(mechanism=mechanism, batch_size=16, iterations=60,
                            dataset=DatasetConfig(n=1200, d_in=10)))
    iterations = []
    for call in calls:
        if call[0] == "label_party_gradients":
            iterations.append([])
        iterations[-1].append(call)
    assert len(iterations) == 60
    mixed = []
    for k, it in enumerate(iterations):
        _, [_, _, split, _], outcome = it[1]  # apply_mechanism's call
        first = it[2][2]  # backprop_nonlabel's result
        is_mixed = bool(split[2] and split[3])
        if is_mixed:
            mixed.append((split[0], outcome.perturbed, first))
        assert [name for name, _, _ in it] == (
            ["label_party_gradients", "apply_mechanism", "backprop_nonlabel"]
            + ["first_layer_gradient_row"] * is_mixed + ["apply_update"]
            + ["leak_auc", "leak_auc"] * (k == 59)
        )
    assert 0 < len(mixed) < 60
    # the cut's received matrices, then the first layer's
    for (_, args, _), layer in zip(iterations[-1][-2:], (1, 2)):
        sq_norms, _, _, pos = args
        want = np.array([np.vecdot(b[layer], b[layer]) for b in mixed])
        assert sq_norms.tobytes() == want.tobytes()
        assert pos.tolist() == [b[0].tolist() for b in mixed]


@pytest.mark.parametrize("case", ["marvell_b16", "max_norm_b256"])
def test_run_audit_writes_the_per_batch_audit_bytes(tmp_path, workloads, case):
    # a run's records rebuild its run.csv byte for byte: ranked once over
    # the whole run, as the run ranks them, and ranked per batch by the
    # reference, each received matrix on its own as it came.  The B=16
    # marvell run holds single-class batches; the B=256 max_norm run, on
    # the acceptance task, holds rows whose cosines tie
    if case == "marvell_b16":
        raw = {"batch_size": 16, "iterations": 700, "mechanism": {"kind": "marvell", "s": 1.0}}
    else:
        raw = {**workloads.config_dict("accept_none", 7), "mechanism": {"kind": "max_norm"}}
    config = config_from_dict(raw)
    run_to_dir(config, tmp_path / "run")
    audit = {layer: ScoreParts(config.iterations, config.batch_size, model.RUN_DTYPE)
             for layer in ("cut", "first")}
    rows, audited, per_batch, batches = [], [], [], []
    for record in harness.iterate_run(config):
        rows.append(record.row)
        batches.append(record.idx)
        leaks = dict.fromkeys(harness.LEAK_SERIES)
        split = record.split
        assert (record.oracles is not None) == bool(split[2] and split[3])  # mixed
        if record.oracles is not None:
            audited.append(record.row)
            # each oracle is a positive, and the cut oracle its clean row
            coords, basis = record.factor
            (j_cut, cut_row), (j_first, _) = record.oracles["cut"], record.oracles["first"]
            assert split[0][j_cut] and split[0][j_first]
            assert cut_row.tobytes() == (coords[j_cut] @ basis).tobytes()
            for layer, received in (("cut", record.outcome.perturbed), ("first", record.first)):
                _, oracle = record.oracles[layer]
                audit[layer].add(received, oracle, split[0])
                leaks[f"norm_{layer}"], leaks[f"cos_{layer}"] = per_matrix_leak_auc(
                    received, split, oracle
                )
        per_batch.append(leaks)
    assert audited and (len(audited) == len(rows)) == (case == "max_norm_b256")
    # an epoch's batches draw distinct training rows
    n_train, _ = data.split_sizes(config.dataset.n, config.dataset.test_frac)
    epoch = np.concatenate(batches[: n_train // config.batch_size])
    assert np.unique(epoch).size == epoch.size == n_train // config.batch_size * config.batch_size

    def written(name):
        harness.write_run_csv(harness.RunRecord(rows, {}), tmp_path / name)
        return (tmp_path / name).read_bytes()

    for layer, parts in audit.items():
        norm_aucs, cos_aucs = leak_auc(*parts.filled())
        for row, norm_auc, cos_auc in zip(audited, norm_aucs, cos_aucs, strict=True):
            setattr(row, f"norm_{layer}", norm_auc)
            setattr(row, f"cos_{layer}", cos_auc)
    want = (tmp_path / "run" / "run.csv").read_bytes()
    assert written("ranked.csv") == want
    for row, leaks in zip(rows, per_batch):
        for name, value in leaks.items():
            setattr(row, name, value)
    assert written("per_batch.csv") == want


def test_run_without_mixed_batch_ranks_nothing(monkeypatch, tmp_path):
    # at B=1 every batch holds one class: no leak_auc call, and every
    # leak column and its q95 is NA
    calls = []
    monkeypatch.setattr(harness, "leak_auc", lambda *args: calls.append(args))
    config = config_from_dict({"dataset": {"n": 200}, "batch_size": 1, "iterations": 20,
                               "mechanism": {"kind": "marvell", "s": 1.0}})
    run_to_dir(config, tmp_path)
    assert calls == []
    lines = (tmp_path / "run.csv").read_text().splitlines()
    columns = dict(zip(lines[0].split(","), zip(*(line.split(",") for line in lines[1:]))))
    for name in harness.LEAK_SERIES:
        assert columns[name] == ("NA",) * 20
    summary = dict(line.split(",") for line in (tmp_path / "summary.csv").read_text().splitlines())
    for name in harness.LEAK_SERIES:
        assert summary[f"{name}_q95"] == "NA"


def test_zero_oracle_batches_write_na_without_warnings(tmp_path, workloads):
    # accept_none at seed 7007 draws a zero clean row as the cut oracle in
    # 52 of its 200 batches, all mixed: their cos_cut is NA, their norms
    # are ranked, and the audit raises no warning (a masked divide
    # over a zero oracle would: 0 / 0)
    config = config_from_dict(workloads.config_dict("accept_none", 7007))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_to_dir(config, tmp_path)
    lines = (tmp_path / "run.csv").read_text().splitlines()
    columns = dict(zip(lines[0].split(","), zip(*(line.split(",") for line in lines[1:]))))
    assert columns["cos_cut"].count("NA") == 52
    assert columns["norm_cut"].count("NA") == 0
    # the NA batches are exactly those whose cut oracle row is all zero
    zero = [r.row.iteration for r in harness.iterate_run(config)
            if r.oracles is not None and not r.oracles["cut"][1].any()]
    assert zero == [i for i, v in enumerate(columns["cos_cut"], start=1) if v == "NA"]


# ---------------------------------------------------------------------------
# a run starts no process


def _spy_forks(monkeypatch) -> list[int]:
    forked = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return forked


@pytest.mark.parametrize(
    "workload, mechanism, large_noise",
    [
        ("accept_none", None, False),
        ("accept_none", {"kind": "max_norm"}, False),
        ("small_marvell", None, False),  # a 16x32 cut batch
        ("accept_none", {"kind": "iso", "t": 1.0}, True),
        ("accept_marvell", None, True),
    ],
)
def test_noise_helper_forked_only_for_large_noise(monkeypatch, workloads, workload, mechanism,
                                                   large_noise):
    # a run draws all its noise in process: none forks a helper, not even
    # the two whose Gaussian noise perturbs 256x384 cut batches (2^16
    # values or more), iso's in the cut width and marvell's in the cut
    # gradients' row space
    forked = _spy_forks(monkeypatch)
    perturbed = []
    apply = harness.apply_mechanism

    def spy(config, *args):
        outcome = apply(config, *args)
        perturbed.append((config.kind, outcome.perturbed.size))
        return outcome

    monkeypatch.setattr(harness, "apply_mechanism", spy)
    cfg = {**workloads.config_dict(workload, 7), "iterations": 3}
    if mechanism is not None:
        cfg["mechanism"] = mechanism
    train_run(config_from_dict(cfg))
    assert forked == []
    large = {kind in ("iso", "marvell") and size >= 1 << 16 for kind, size in perturbed}
    assert large == {large_noise}


def _large_noise_config(**overrides):
    # marvell on 128x512 cut batches
    return _quick_config(net=NetConfig(hidden_dims=(512, 8)), batch_size=128,
                         mechanism=MechanismConfig(kind="marvell", s=1.0), **overrides)


def test_noise_helper_reaped_after_a_run(monkeypatch):
    # a run leaves no child process and no thread behind
    forked = _spy_forks(monkeypatch)
    threads = threading.active_count()
    train_run(_large_noise_config(iterations=5))
    assert forked == [] and threading.active_count() == threads
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_noise_helper_reaped_after_a_run_raises(monkeypatch):
    # nor does a run that raises
    forked = _spy_forks(monkeypatch)
    threads = threading.active_count()
    steps = []

    def failing_update(net, optimizer):
        steps.append(None)
        if len(steps) == 3:
            raise RuntimeError("update failed")
        model.apply_update(net, optimizer)

    monkeypatch.setattr(harness, "apply_update", failing_update)
    with pytest.raises(RuntimeError, match="update failed"):
        train_run(_large_noise_config(iterations=5))
    assert forked == [] and threading.active_count() == threads
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_toy1d_run_works():
    cfg = _quick_config(
        dataset=DatasetConfig(kind="toy1d", n=2000, test_frac=0.2),
        iterations=60,
    )
    record = train_run(cfg)
    assert record.summary["test_auc"] is not None and record.summary["test_auc"] >= 0.8


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
    assert float(summary["test_auc"]) == record.summary["test_auc"]


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


def test_sweep_gives_close_values_their_own_directories(tmp_path):
    # both values print as 0.5 under %g; each run keeps its own files
    points = sweep(_quick_config(iterations=5), "iso", [0.5000002, 0.5000001], tmp_path)
    assert [p.mechanism.param for p in points] == [0.5000001, 0.5000002]
    assert [p.status for p in points] == ["ok", "ok"]
    dirs = sorted(p.name for p in tmp_path.iterdir() if p.is_dir())
    assert dirs == ["iso_0.5000001", "iso_0.5000002"]
    for point, sub in zip(points, dirs):
        summary = (tmp_path / sub / "summary.csv").read_text().splitlines()
        assert summary[2] == f"param,{point.mechanism.param!r}"


def test_sweep_rejects_repeated_grid_values(tmp_path):
    with pytest.raises(ConfigError, match="repeats a value"):
        sweep(_quick_config(), "iso", [1.0, 0.5, 1.0], tmp_path / "sw")
    assert not (tmp_path / "sw").exists()


def test_sweep_requires_grid_for_parametric(tmp_path):
    with pytest.raises(ConfigError):
        sweep(_quick_config(), "iso", [], tmp_path)
    with pytest.raises(ConfigError, match="takes no grid"):
        sweep(_quick_config(), "none", [1.0], tmp_path)


def test_sweep_marks_failures(tmp_path):
    cfg = _quick_config(
        dataset=DatasetConfig(kind="csv", path=str(tmp_path / "missing.csv"))
    )
    points = sweep(cfg, "none", [], tmp_path)
    assert points[0].status == "failed"
    tradeoff = (tmp_path / "tradeoff.csv").read_text().splitlines()
    assert "failed" in tradeoff[1]
    assert tradeoff[1] == "none,,failed,,,,,,,"
