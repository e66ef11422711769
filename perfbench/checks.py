"""Correctness checks on the files one training run writes.

A run passes when its ``run.csv`` has one row per iteration, every
value is finite or the literal ``NA`` and inside its range, every
certificate's AUC bound follows from its sum-KL, and ``summary.csv``
agrees with the quantiles recomputed from ``run.csv``.  Determinism
(byte-identical repeats) is checked by the caller, which holds the
bytes of every repeat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

AUC_COLUMNS = ("norm_cut", "cos_cut", "norm_first", "cos_first")
REQUIRED = ("iter", "train_loss", *AUC_COLUMNS, "sum_kl", "auc_bound", "noise_power")
QUANTILE = 0.95
TOL = 1e-12


@dataclass
class RunCheck:
    violations: list[str] = field(default_factory=list)
    summary: dict[str, str] = field(default_factory=dict)
    cert_rows: int = 0  # measured rows that carry a certificate
    cert_violations: int = 0  # of those, cos_cut or norm_cut above auc_bound

    def fail(self, msg: str) -> None:
        if len(self.violations) < 20:
            self.violations.append(msg)


def _value(text: str):
    if text == "NA":
        return None
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {text!r}")
    return x


def auc_bound_of(eps: float) -> float:
    """Worst-case attack AUC for symmetrized KL eps (independent recomputation)."""
    return 1.0 if eps >= 4.0 else 0.5 + math.sqrt(eps) / 2.0 - eps / 8.0


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile, as numpy's default method."""
    xs = sorted(values)
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def _parse(text: str, what: str, check: RunCheck):
    lines = text.splitlines()
    if not lines:
        check.fail(f"{what} is empty")
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_run(run_csv: str, summary_csv: str, config: dict) -> RunCheck:
    check = RunCheck()
    header, raw_rows = _parse(run_csv, "run.csv", check)
    missing = [c for c in REQUIRED if c not in header]
    if missing:
        check.fail(f"run.csv lacks columns {missing}")
        return check
    col = {name: header.index(name) for name in REQUIRED}

    rows = []
    for n, raw in enumerate(raw_rows, start=1):
        if len(raw) != len(header):
            check.fail(f"run.csv row {n}: {len(raw)} fields, header has {len(header)}")
            continue
        try:
            row = {name: _value(raw[i]) for name, i in col.items()}
        except ValueError as exc:
            check.fail(f"run.csv row {n}: {exc}")
            continue
        rows.append(row)
        if row["iter"] != n:
            check.fail(f"run.csv row {n}: iter is {raw[col['iter']]}")
        if row["train_loss"] is None or row["train_loss"] < 0:
            check.fail(f"row {n}: train_loss {row['train_loss']}")
        for name in AUC_COLUMNS:
            if row[name] is not None and not 0.0 <= row[name] <= 1.0:
                check.fail(f"row {n}: {name}={row[name]} outside [0, 1]")
        if row["noise_power"] is None or row["noise_power"] < 0:
            check.fail(f"row {n}: noise_power {row['noise_power']}")
        eps, bound = row["sum_kl"], row["auc_bound"]
        if (eps is None) != (bound is None):
            check.fail(f"row {n}: sum_kl and auc_bound must both be NA or both set")
        elif eps is not None:
            if eps < 0:
                check.fail(f"row {n}: sum_kl {eps} < 0")
            elif not 0.5 <= bound <= 1.0:
                check.fail(f"row {n}: auc_bound {bound} outside [0.5, 1]")
            elif abs(bound - auc_bound_of(eps)) > TOL:
                check.fail(f"row {n}: auc_bound {bound} != bound of sum_kl {eps}")
            attacked = [row[c] for c in ("cos_cut", "norm_cut") if row[c] is not None]
            if attacked:
                check.cert_rows += 1
                check.cert_violations += any(a > bound for a in attacked)
    if len(raw_rows) != config["iterations"]:
        check.fail(f"run.csv has {len(raw_rows)} rows for {config['iterations']} iterations")
    if config["mechanism"]["kind"] == "none":
        if any(r["noise_power"] != 0.0 or r["sum_kl"] is not None for r in rows):
            check.fail("mechanism none added noise or a certificate")

    _, items = _parse(summary_csv, "summary.csv", check)
    check.summary = {item[0]: item[1] for item in items if len(item) == 2}
    expected = {}
    for name in AUC_COLUMNS:
        series = [r[name] for r in rows if r[name] is not None]
        expected[f"{name}_q95"] = quantile(series, QUANTILE) if series else None
    expected["train_loss_min"] = min((r["train_loss"] for r in rows), default=None)
    for key, want in expected.items():
        try:
            got = _value(check.summary[key])
        except (KeyError, ValueError) as exc:
            check.fail(f"summary.csv {key}: {exc!r}")
            continue
        if (got is None) != (want is None) or (got is not None and abs(got - want) > TOL):
            check.fail(f"summary.csv {key}={got}, run.csv gives {want}")
    try:
        test_auc = _value(check.summary["test_auc"])
    except (KeyError, ValueError) as exc:
        check.fail(f"summary.csv test_auc: {exc!r}")
    else:
        # the model must beat chance on held-out data
        if test_auc is None or not 0.5 < test_auc <= 1.0:
            check.fail(f"summary.csv test_auc={test_auc} not in (0.5, 1]")
    return check
