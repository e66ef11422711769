"""Experiment orchestration: config parsing, the split-training loop
with per-iteration leak-AUC evaluation at the cut and first layers
(ranked once, at the end of the run), hyperparameter sweeps, and CSV
reporting.  Each config dataclass checks its own values when it is
built, in Python or by `config_from_dict`.

Determinism contract: a run is a pure function of its config (seed
included).  Five independent RNG streams are derived from the seed
(data, init, batching, mechanism noise, attack oracle choice).  The
oracle draws happen only on mixed batches, so they take a stream of
their own: drawn from the noise stream, they would shift every later
batch's noise by a count that depends on the batch composition.

The label party's clean cut gradients stay factored, g = coords @ basis
(`model.label_party_gradients`): the mechanism forms the one B x d
matrix the non-label party receives, and each cosine oracle is one
clean row, coords[j] @ basis.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data as data_mod
from .attacks import ScoreParts, leak_auc, quantile, roc_auc, select_oracle_positive, split_labels
from .model import (
    ACTIVATIONS,
    RUN_DTYPE,
    Adam,
    SplitNet,
    apply_update,
    backprop_nonlabel,
    first_layer_gradient_row,
    forward,
    label_party_gradients,
    logistic_loss,
)
from .numeric import make_rng
from .protection import HYPERPARAMETERS, MechanismConfig, PerturbOutcome, apply_mechanism

LEAK_SERIES = ("norm_cut", "cos_cut", "norm_first", "cos_first")
SUMMARY_QUANTILE = 0.95


class ConfigError(Exception):
    """Invalid experiment configuration."""


# ---------------------------------------------------------------------------
# configuration


# The DatasetConfig fields each kind reads besides test_frac.
_DATASET_READS = {
    "synthetic": ("n", "d_in", "pos_frac", "separation", "noise_scale"),
    "toy1d": ("n",),
    "csv": ("path",),
}


@dataclass(frozen=True)
class DatasetConfig:
    """The dataset and its test fraction.  A field its kind does not read
    must keep its default."""

    kind: str = "synthetic"
    n: int = 4000
    d_in: int = 20
    pos_frac: float = 0.1
    separation: float = 2.0
    noise_scale: float = 1.0
    path: str | None = None
    test_frac: float = 0.2

    def __post_init__(self):
        reads = _DATASET_READS.get(self.kind)
        if reads is None:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name not in ("kind", "test_frac") + reads and value != f.default:
                raise ValueError(f"dataset {self.kind} takes no {f.name}, got {f.name}={value!r}")
        if self.kind == "csv" and not self.path:
            raise ValueError("csv dataset requires a path")
        if not 0.0 < self.test_frac < 1.0:
            raise ValueError(f"test_frac must be in (0, 1), got {self.test_frac}")
        if not 0.0 < self.pos_frac < 1.0:
            raise ValueError(f"pos_frac must be in (0, 1), got {self.pos_frac}")
        if self.n < 1:
            raise ValueError(f"dataset n must be >= 1, got {self.n}")
        if self.kind != "csv":
            data_mod.split_sizes(self.n, self.test_frac)  # at least one training row
        if self.d_in < 1:
            raise ValueError(f"dataset d_in must be >= 1, got {self.d_in}")
        if not math.isfinite(self.separation):
            raise ValueError(f"separation must be finite, got {self.separation!r}")
        if not math.isfinite(self.noise_scale):
            raise ValueError(f"noise_scale must be finite, got {self.noise_scale!r}")


@dataclass(frozen=True)
class NetConfig:
    """The hidden layers and the cut.  `activations` defaults to relu for
    every hidden layer, and `cut_index` to the depth less one (at least 1)."""

    hidden_dims: tuple[int, ...] = (32, 32, 16)
    activations: tuple[str, ...] | None = None
    cut_index: int | None = None

    def __post_init__(self):
        depth = len(self.hidden_dims)
        if depth == 0:
            raise ValueError("hidden_dims must name at least one hidden layer, got []")
        if self.activations is None:
            object.__setattr__(self, "activations", ("relu",) * depth)
        if self.cut_index is None:
            object.__setattr__(self, "cut_index", max(1, depth - 1))
        if len(self.activations) != depth:
            raise ValueError("activations must match hidden_dims in length")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden_dims must all be >= 1, got {list(self.hidden_dims)}")
        unknown = [a for a in self.activations if a not in ACTIVATIONS]
        if unknown:
            raise ValueError(f"unknown activations {unknown}; expected one of {list(ACTIVATIONS)}")
        if not 1 <= self.cut_index <= depth:
            raise ValueError(f"cut_index must be in [1, {depth}], got {self.cut_index}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Adam's step size; Adam is the one optimizer."""

    lr: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    net: NetConfig = field(default_factory=NetConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    batch_size: int = 64
    iterations: int = 200
    mechanism: MechanismConfig = field(default_factory=MechanismConfig)
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.dataset.kind != "csv":  # a csv file's rows are counted when a run reads it
            n_train, _ = data_mod.split_sizes(self.dataset.n, self.dataset.test_frac)
            _check_batch_size(self.batch_size, n_train)


def _check_batch_size(batch_size: int, n_train: int) -> None:
    """Raise ValueError unless a batch fits in the training set."""
    if batch_size > n_train:
        raise ValueError(f"batch_size {batch_size} exceeds the {n_train} training rows")


def _convert(value, default, key: str):
    """`value` as the type of its field's `default`.  An int takes an
    integral number or a numeral, a float any number or numeral, neither a
    bool; a tuple takes a list (or tuple) and converts each element like
    the default's first; a None default takes a string or null; other
    values are kept."""
    typ = type(default)
    if typ is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"expected a list for {key}, got {value!r}")
        return tuple(_convert(x, default[0], key) for x in value)
    if typ not in (int, float):
        if default is None and not (value is None or isinstance(value, str)):
            raise ValueError(f"expected str or null for {key}, got {value!r}")
        return value
    fractional = isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) or typ is int and fractional:
        raise ValueError(f"expected {typ.__name__} for {key}, got {value!r}")
    return typ(value)


def _from_dict(cls, d, where: str):
    """The config dataclass `cls` from the JSON object `d`: absent keys take
    their defaults, given values go through `_convert`, and a section (a
    field defaulting to a config dataclass) is parsed from its own object.
    A value converts to the type of its field in a default-built `cls()`.
    Every rejection, the dataclasses' own checks included, is a ConfigError.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(d).__name__}")
    fields = dataclasses.fields(cls)
    unknown = set(d) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    sections = [f for f in fields if dataclasses.is_dataclass(f.default_factory)]
    base = cls()
    defaults = {f.name: getattr(base, f.name) for f in fields if f not in sections}
    try:
        kwargs = {k: _convert(v, defaults[k], k) for k, v in d.items() if k in defaults}
    except (TypeError, ValueError, OverflowError) as exc:  # a value of the wrong type
        raise ConfigError(f"bad config value: {exc}") from None
    for f in sections:
        kwargs[f.name] = _from_dict(f.default_factory, d.get(f.name, {}), f.name)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from None


def config_from_dict(d: dict) -> ExperimentConfig:
    """Parse and fully validate a config; every rejection is a ConfigError."""
    return _from_dict(ExperimentConfig, d, "config")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# run records


@dataclass
class IterationRow:
    iteration: int
    train_loss: float
    norm_cut: float | None
    cos_cut: float | None
    norm_first: float | None
    cos_first: float | None
    sum_kl: float | None
    auc_bound: float | None
    noise_power: float


# run.csv's columns after `iter`, one per IterationRow field after `iteration`
_RUN_CSV_VALUES = tuple(f.name for f in dataclasses.fields(IterationRow))[1:]
RUN_CSV_HEADER = ",".join(("iter",) + _RUN_CSV_VALUES)


@dataclass
class RunRecord:
    rows: list[IterationRow]
    summary: dict[str, float | None]  # summary.csv's values, in its row order


def summarize_rows(rows: list[IterationRow]) -> dict[str, float | None]:
    """Each leak-AUC series' 95%-quantile over measured iterations, and the least train loss."""
    out: dict[str, float | None] = {}
    for name in LEAK_SERIES:
        values = [getattr(r, name) for r in rows if getattr(r, name) is not None]
        out[f"{name}_q95"] = quantile(values, SUMMARY_QUANTILE) if values else None
    out["train_loss_min"] = min(r.train_loss for r in rows)
    return out


# ---------------------------------------------------------------------------
# training loop


def build_dataset(config: ExperimentConfig) -> data_mod.Dataset:
    """The dataset a run of `config` splits into its train and test sets:
    generated from the run's data stream, or read from the csv file."""
    cfg, seed = config.dataset, _stream_seeds(config.seed)[0]
    if cfg.kind == "synthetic":
        return data_mod.generate_synthetic(
            cfg.n, cfg.d_in, cfg.pos_frac, cfg.separation, cfg.noise_scale, seed=seed
        )
    if cfg.kind == "toy1d":
        return data_mod.generate_toy_1d(cfg.n, seed=seed)
    return data_mod.load_csv(cfg.path)


def _batch_indices(n: int, batch_size: int, iterations: int, rng: np.random.Generator):
    """Plain uniform shuffling per epoch, full batches of `batch_size` <= n only."""
    per_epoch = n // batch_size
    produced = 0
    while produced < iterations:
        perm = rng.permutation(n)
        for k in range(per_epoch):
            if produced >= iterations:
                return
            yield perm[k * batch_size : (k + 1) * batch_size]
            produced += 1


def _stream_seeds(seed: int) -> list[int]:
    state = np.random.SeedSequence(int(seed)).generate_state(5, dtype=np.uint64)
    return [int(x) for x in state]


@dataclass
class IterationRecord:
    """What one iteration of a run formed, by reference (`iterate_run`)."""

    row: IterationRow  # its leak AUCs stay None: train_run ranks them after the run
    idx: np.ndarray  # the batch's rows of the training set
    split: tuple  # the batch's split_labels split
    factor: tuple  # the clean cut gradients as (coords, basis)
    outcome: PerturbOutcome  # its perturbed is the cut matrix the non-label party receives
    first: np.ndarray  # the first-layer gradients that party forms from it
    # "cut" and "first" -> (oracle's batch index, its clean row there); None if single-class
    oracles: dict[str, tuple[int, np.ndarray]] | None
    net: SplitNet  # the run's net, which the update after this record steps in place
    test: data_mod.Dataset  # the run's test set, which no iteration reads


def iterate_run(config: ExperimentConfig):
    """A training run of `config` as a generator of `IterationRecord`s.

    The set-up builds the data, the net and the streams.  Each iteration:
    forward, clean per-example cut gradients, one split of the batch's
    labels, mechanism perturbation, one non-label backward pass on the
    perturbed gradients and, on a mixed batch, one oracle positive per
    layer (cut, then first) and its clean row there.  Its record is
    yielded, then the update steps both parties' parameters.  `basis` is
    a view of h's first weights and `net` the run's net, both of which
    that update steps in place, so read them before asking for the next
    record; after the last record is consumed, `net` is the trained net.
    Every other array is the iteration's own, and nothing writes it
    again.  A non-finite training loss raises FloatingPointError.
    """
    data_seed, init_seed, batch_seed, mech_seed, attack_seed = _stream_seeds(config.seed)

    train, test = data_mod.train_test_split(
        build_dataset(config), config.dataset.test_frac, make_rng(data_seed, 1)
    )
    _check_batch_size(config.batch_size, train.n)
    net = SplitNet.build(
        train.d,
        list(config.net.hidden_dims),
        list(config.net.activations),
        config.net.cut_index,
        make_rng(init_seed),
    )
    train.X, test.X = train.X.astype(RUN_DTYPE), test.X.astype(RUN_DTYPE)
    optimizer = Adam(config.optimizer.lr)
    mech_rng = make_rng(mech_seed)
    attack_rng = make_rng(attack_seed)

    for it, idx in enumerate(
        _batch_indices(train.n, config.batch_size, config.iterations, make_rng(batch_seed)),
        start=1,
    ):
        X_b, y_b = train.X[idx], train.y[idx]
        state = forward(net, X_b)
        train_loss = float(np.add.reduce(logistic_loss(state.logits, y_b)) / y_b.shape[0])
        if not math.isfinite(train_loss):
            raise FloatingPointError(f"training loss is {train_loss} at iteration {it}")

        factor = label_party_gradients(state, y_b)
        split = split_labels(y_b)
        outcome = apply_mechanism(config.mechanism, factor, split, mech_rng)
        pert_first = backprop_nonlabel(net, state, outcome.perturbed)

        oracles = None
        if split[2] and split[3]:  # both classes present
            pos_idx = np.flatnonzero(split[0])
            coords, basis = factor
            j = select_oracle_positive(pos_idx, attack_rng)
            oracles = {"cut": (j, coords[j] @ basis)}
            j = select_oracle_positive(pos_idx, attack_rng)
            oracles["first"] = (j, first_layer_gradient_row(state, j, coords[j] @ basis))
        cert = outcome.certificate
        row = IterationRow(
            iteration=it,
            train_loss=train_loss,
            **dict.fromkeys(LEAK_SERIES),
            sum_kl=cert.sum_kl if cert is not None else None,
            auc_bound=cert.auc_bound if cert is not None else None,
            noise_power=outcome.noise_power,
        )
        yield IterationRecord(row, idx, split, factor, outcome, pert_first, oracles, net, test)
        apply_update(net, optimizer)


def train_run(config: ExperimentConfig) -> RunRecord:
    """One full training run with per-iteration privacy measurement, as a
    reduction over `iterate_run`'s records.

    Each record of a mixed batch adds, for each matrix the non-label
    party actually receives (cut and first layer), its score parts
    against the layer's oracle row to that layer's `ScoreParts`, sized to
    the whole run, before the next record steps `basis`.  After the last
    iteration, one `leak_auc` call per layer ranks all of its parts, and
    the four AUCs (norm/cosine at cut/first layer) go into the mixed
    batches' rows; single-class batches keep None.  Then the trained net
    scores the test set; a non-finite training or test loss raises
    FloatingPointError.
    """
    audit = {
        layer: ScoreParts(config.iterations, config.batch_size, RUN_DTYPE)
        for layer in ("cut", "first")
    }
    rows, audited = [], []  # every row, and the rows of the mixed batches
    for record in iterate_run(config):
        rows.append(record.row)
        if record.oracles is not None:
            received = {"cut": record.outcome.perturbed, "first": record.first}
            for layer, (_, oracle) in record.oracles.items():
                audit[layer].add(received[layer], oracle, record.split[0])
            audited.append(record.row)
    if audited:
        for layer, parts in audit.items():
            norm_aucs, cos_aucs = leak_auc(*parts.filled())
            for row, norm_auc, cos_auc in zip(audited, norm_aucs, cos_aucs, strict=True):
                setattr(row, f"norm_{layer}", norm_auc)
                setattr(row, f"cos_{layer}", cos_auc)

    net, test = record.net, record.test  # past the run's last update: the trained net
    test_state = forward(net, test.X)
    test_loss = float(np.mean(logistic_loss(test_state.logits, test.y)))
    if not math.isfinite(test_loss):
        raise FloatingPointError(f"test loss is {test_loss}")
    test_auc = roc_auc(test_state.logits, test.y)
    summary = {**summarize_rows(rows), "test_loss": test_loss, "test_auc": test_auc}
    return RunRecord(rows=rows, summary=summary)


# ---------------------------------------------------------------------------
# CSV output


def _fmt(value) -> str:
    if value is None:
        return "NA"
    return repr(float(value))


def write_run_csv(record: RunRecord, path) -> None:
    lines = [RUN_CSV_HEADER]
    for r in record.rows:
        values = [_fmt(getattr(r, name)) for name in _RUN_CSV_VALUES]
        lines.append(",".join([str(r.iteration)] + values))
    Path(path).write_text("\n".join(lines) + "\n")


def _fmt_param(mechanism: MechanismConfig) -> str:
    return "" if mechanism.param is None else _fmt(mechanism.param)


def write_summary_csv(record: RunRecord, mechanism: MechanismConfig, path) -> None:
    lines = ["field,value", f"mechanism,{mechanism.kind}", f"param,{_fmt_param(mechanism)}"]
    lines += [f"{name},{_fmt(value)}" for name, value in record.summary.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def run_to_dir(config: ExperimentConfig, out_dir) -> RunRecord:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = train_run(config)
    write_run_csv(record, out_dir / "run.csv")
    write_summary_csv(record, config.mechanism, out_dir / "summary.csv")
    return record


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class TradeoffPoint:
    mechanism: MechanismConfig
    record: RunRecord | None  # None when the run failed

    @property
    def status(self) -> str:
        return "failed" if self.record is None else "ok"


_TRADEOFF_VALUES = ("test_loss", "test_auc", "train_loss_min") + tuple(
    f"{name}_q95" for name in LEAK_SERIES
)
TRADEOFF_CSV_HEADER = ",".join(("mechanism", "param", "status") + _TRADEOFF_VALUES)


def point_name(mechanism: MechanismConfig) -> str:
    """A sweep point's subdirectory and output-line name: the kind, then
    `_` and the hyperparameter as %g unless that would merge distinct values."""
    param = mechanism.param
    if param is None:
        return mechanism.kind
    short = f"{param:g}"
    return f"{mechanism.kind}_{short if float(short) == param else repr(param)}"


def sweep(
    base: ExperimentConfig, kind: str, grid: list[float], out_dir
) -> list[TradeoffPoint]:
    """One train_run per grid value; points sorted by hyperparameter.

    A mechanism without a hyperparameter (none, max_norm) runs once and
    takes no grid; the others need a nonempty one.

    Failures are recorded (status=failed) and the sweep continues.
    Writes each run's run.csv/summary.csv in a subdirectory plus one
    tradeoff.csv at the top.  A grid that repeats a value is a
    ConfigError, and each value names its own subdirectory.
    """
    name = HYPERPARAMETERS.get(kind)
    if name is None and grid:
        raise ConfigError(f"mechanism {kind!r} has no hyperparameter, so it takes no grid")
    if name is not None and not grid:
        raise ConfigError(f"mechanism {kind!r} requires a nonempty grid")
    values = sorted(float(v) for v in grid)
    if len(set(values)) < len(values):
        raise ConfigError(f"grid repeats a value: {values}")
    settings = [{}] if name is None else [{name: value} for value in values]
    mechs = [_from_dict(MechanismConfig, {"kind": kind, **s}, "mechanism") for s in settings]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    points: list[TradeoffPoint] = []
    for mech in mechs:
        sub = point_name(mech)
        try:
            record = run_to_dir(dataclasses.replace(base, mechanism=mech), out_dir / sub)
        except Exception as exc:  # keep sweeping, mark the failure
            print(f"sweep point {sub} failed: {exc}", file=sys.stderr)
            record = None
        points.append(TradeoffPoint(mechanism=mech, record=record))

    write_tradeoff_csv(points, out_dir / "tradeoff.csv")
    return points


def write_tradeoff_csv(points: list[TradeoffPoint], path) -> None:
    lines = [TRADEOFF_CSV_HEADER]
    for p in points:
        values = ["" if p.record is None else _fmt(p.record.summary[name])
                  for name in _TRADEOFF_VALUES]
        lines.append(",".join([p.mechanism.kind, _fmt_param(p.mechanism), p.status] + values))
    Path(path).write_text("\n".join(lines) + "\n")
