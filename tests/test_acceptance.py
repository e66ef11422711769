"""Acceptance suite: one test per criterion, run at stated tolerances.

Criteria 8-10 share a fixed desk-scale task (imbalanced synthetic,
pos_frac 0.1, 200 iterations) whose mechanism runs are computed once per
session.  The summary hook in conftest prints one PASS/FAIL line per
criterion at the end of the run.
"""

import json
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    brute_force_auc,
    compute_gradients,
    dense_sum_kl,
    finite_difference_gradient,
    grid_search_objective,
    make_stats,
    solution_objective,
)
from splitsim.attacks import leak_auc, roc_auc, split_labels
from splitsim.harness import ExperimentConfig, config_from_dict, train_run
from splitsim.marvell import (
    LambdaSolution,
    build_covariances,
    make_certificate,
    objective,
    power_budget,
    solve,
    sum_kl,
)
from splitsim.model import (
    ACTIVATIONS,
    SplitNet,
    backprop_nonlabel,
    forward,
    label_party_gradients,
    logistic_loss,
)
from splitsim.numeric import StructuredCovariance, make_rng, sample_structured_gaussian_batch
from splitsim.protection import (
    MechanismConfig,
    perturb_iso,
    perturb_marvell,
    perturb_max_norm,
    perturb_none,
)

ISO_GRID = (0.25, 1.0, 4.0, 16.0)
MARVELL_GRID = (0.25, 1.0, 4.0, 16.0)


@pytest.fixture(scope="session")
def acceptance_config(workloads) -> ExperimentConfig:
    """The shared desk-scale task for criteria 8-10: the benchmark's
    accept_none workload at seed 7, which the others vary by mechanism.

    A wide cut layer (384) puts isotropic noise in the regime where its
    per-direction power is diluted 1/d, as in production-scale cut
    tensors; B=256 keeps the per-batch AUC estimator's quantile noise
    well below the thresholds under test.
    """
    return config_from_dict(workloads.config_dict("accept_none", 7))


@pytest.fixture(scope="session")
def unprotected_run(acceptance_config):
    return train_run(acceptance_config)


@pytest.fixture(scope="session")
def marvell_runs(acceptance_config):
    return {
        s: train_run(replace(acceptance_config, mechanism=MechanismConfig(kind="marvell", s=s)))
        for s in MARVELL_GRID
    }


@pytest.fixture(scope="session")
def iso_runs(acceptance_config):
    return {
        t: train_run(replace(acceptance_config, mechanism=MechanismConfig(kind="iso", t=t)))
        for t in ISO_GRID
    }


def test_c01_auc_oracle_equivalence():
    # 1000 random score/label sets, n <= 64: exact match with the
    # O(n^2) pairwise Mann-Whitney count
    rng = make_rng(101)
    start = time.time()
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.standard_normal(n)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)
        assert abs(roc_auc(scores, labels) - brute_force_auc(scores, labels)) <= 1e-12
    assert time.time() - start < 5.0


def _relu_kink_distance(net, X) -> float:
    """Smallest |pre-activation| over relu units; the FD oracle is only
    valid when every relu evaluates well away from its kink."""
    state = forward(net, X)
    inputs = [state.X] + state.f_act + state.h_act[:-1]  # each layer's input
    dist = np.inf
    for layer, a in zip(net.f_layers + net.h_layers, inputs):
        if layer.spec.activation == "relu":
            dist = min(dist, float(np.abs(a @ layer.W + layer.b).min()))
    return dist


def test_c02_gradient_correctness():
    # 50 random small nets: params, cut features, and first-layer
    # activation gradients all match central differences (h=1e-5).
    # Inputs are resampled until no relu sits within 1e-3 of its kink
    # (zero-init biases make exact kinks reachable), where central
    # differences stop being a valid oracle.
    rng = make_rng(102)
    start = time.time()
    for trial in range(50):
        in_dim = int(rng.integers(2, 5))
        hidden = [int(rng.integers(3, 6)) for _ in range(int(rng.integers(2, 4)))]
        acts = [str(rng.choice(["relu", "tanh", "sigmoid"])) for _ in hidden]
        cut = int(rng.integers(1, len(hidden) + 1))
        net = SplitNet.build(in_dim, hidden, acts, cut, rng, dtype=np.float64)
        B = int(rng.integers(2, 5))
        X = rng.standard_normal((B, in_dim))
        y = rng.integers(0, 2, size=B)
        while _relu_kink_distance(net, X) < 1e-3:
            X = rng.standard_normal((B, in_dim))

        state = forward(net, X)
        f_grads, h_grads = compute_gradients(net, state, y)

        # parameters (mean loss over the batch)
        layers = net.f_layers + net.h_layers
        grads = f_grads + h_grads
        flat_got = np.concatenate([np.concatenate([dW.ravel(), db]) for dW, db in grads])
        base = np.concatenate([np.concatenate([l.W.ravel(), l.b]) for l in layers])

        def set_params(flat):
            pos = 0
            for l in layers:
                n_w = l.W.size
                l.W[...] = flat[pos : pos + n_w].reshape(l.W.shape)
                pos += n_w
                l.b[...] = flat[pos : pos + l.b.size]
                pos += l.b.size

        def mean_loss(flat):
            set_params(flat)
            st = forward(net, X)
            return float(np.mean(logistic_loss(st.logits, y)))

        fd = finite_difference_gradient(mean_loss, base, h=1e-5)
        set_params(base)
        rel = np.linalg.norm(flat_got - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel <= 1e-4, f"param gradients off by {rel} on net {trial}"

        # per-example cut-feature gradients
        got_cut = label_party_gradients(state, y)[0]
        j = int(rng.integers(0, B))

        def h_loss(z):
            a = z[None, :]
            for layer in net.h_layers:
                a = ACTIVATIONS[layer.spec.activation][0](a @ layer.W + layer.b)
            return float(logistic_loss(a[0, 0], y[j]))

        fd_cut = finite_difference_gradient(h_loss, state.cut_features[j], h=1e-5)
        rel = np.linalg.norm(got_cut[j] - fd_cut) / max(np.linalg.norm(fd_cut), 1e-12)
        assert rel <= 1e-4, f"cut gradients off by {rel} on net {trial}"

        # per-example first-layer activation gradients
        _, first = backprop_nonlabel(net, state, got_cut)

        def first_layer_loss(a1):
            a = a1[None, :]
            for layer in net.f_layers[1:] + net.h_layers:
                a = ACTIVATIONS[layer.spec.activation][0](a @ layer.W + layer.b)
            return float(logistic_loss(a[0, 0], y[j]))

        fd_first = finite_difference_gradient(first_layer_loss, state.f_act[0][j], h=1e-5)
        rel = np.linalg.norm(first[j] - fd_first) / max(np.linalg.norm(fd_first), 1e-12)
        assert rel <= 1e-4, f"first-layer gradients off by {rel} on net {trial}"
    assert time.time() - start < 30.0


def test_c03_solver_optimality():
    # 50 random instances vs the dense 100^3 hyperplane grid oracle
    rng = make_rng(103)
    start = time.time()
    for trial in range(50):
        d = int(rng.choice([2, 10, 1600]))
        u = float(rng.uniform(0.01, 1.0))
        v = float(rng.uniform(0.01, 1.0))
        dsq = float(rng.uniform(0.01, 100.0))
        p = float(rng.choice([0.1, 0.3, 0.5]))
        s = float(rng.choice([0.1, 1.0, 4.0]))
        stats = make_stats(u=u, v=v, dsq=dsq, p=p, d=d)
        P = power_budget(s, stats)
        sol = solve(stats, P)
        assert sol.converged, f"instance {trial}"

        grid = grid_search_objective(stats, P, n=100)
        assert solution_objective(sol, stats) <= grid * (1 + 1e-3), f"instance {trial}"

        lam = np.array([sol.lam1_pos, sol.lam2_pos, sol.lam1_neg, sol.lam2_neg])
        w = np.array([p, p * (d - 1), 1 - p, (1 - p) * (d - 1)])
        assert lam.min() >= -1e-9
        assert sol.lam2_pos - sol.lam1_pos <= 1e-9
        assert sol.lam2_neg - sol.lam1_neg <= 1e-9
        assert w @ lam <= P + 1e-9
        assert abs(w @ lam - P) <= 1e-6 * max(P, 1e-12)  # constraint active
        if u < v:
            assert sol.lam2_pos == 0.0
        else:
            assert sol.lam2_neg == 0.0
    assert time.time() - start < 60.0


def test_c04_sum_kl_consistency():
    # 100 random instances at d=3 vs the dense closed-form symmetrized
    # Gaussian KL, plus the objective/2 - d identity
    rng = make_rng(104)
    start = time.time()
    for _ in range(100):
        stats = make_stats(
            u=float(rng.uniform(0.05, 2.0)),
            v=float(rng.uniform(0.05, 2.0)),
            dsq=float(rng.uniform(0.1, 20.0)),
            p=float(rng.uniform(0.1, 0.9)),
            d=3,
            rng=rng,
        )
        l11 = float(rng.uniform(0, 3))
        l21 = float(rng.uniform(0, l11))
        l10 = float(rng.uniform(0, 3))
        l20 = float(rng.uniform(0, l10))
        lams = (l11, l21, l10, l20)
        sol = LambdaSolution(*lams, True, 0, 0.0)
        got = sum_kl(sol, stats)
        assert abs(got - dense_sum_kl(lams, stats)) <= 1e-9
        assert abs(got - (objective(lams, stats) / 2.0 - stats.d)) <= 1e-12
    assert time.time() - start < 10.0


def test_c05_theorem1_empirical():
    # 20 solved instances with eps < 4: sampled norm and cosine attacks
    # on the fitted perturbed model stay below the AUC bound + 0.03
    rng = make_rng(105)
    start = time.time()
    n_samples = 10**4
    checked = 0
    while checked < 20:
        d = int(rng.choice([8, 16, 64]))
        stats = make_stats(
            u=float(rng.uniform(0.05, 0.8)),
            v=float(rng.uniform(0.05, 0.8)),
            dsq=float(rng.uniform(0.5, 20.0)),
            p=float(rng.uniform(0.1, 0.5)),
            d=d,
            rng=rng,
        )
        s = float(rng.choice([2.0, 4.0, 8.0]))
        sol = solve(stats, power_budget(s, stats))
        cert = make_certificate(sol, stats)
        if not cert.bound_valid:
            continue
        checked += 1
        pos_cov, neg_cov = build_covariances(sol, stats)
        pos_total = StructuredCovariance(
            pos_cov.direction, pos_cov.along_var, pos_cov.iso_var + stats.v
        )
        neg_total = StructuredCovariance(
            neg_cov.direction, neg_cov.along_var, neg_cov.iso_var + stats.u
        )
        g = np.vstack(
            [
                stats.pos_mean + sample_structured_gaussian_batch(pos_total, rng, n_samples),
                stats.neg_mean + sample_structured_gaussian_batch(neg_total, rng, n_samples),
            ]
        )
        labels = np.array([1] * n_samples + [0] * n_samples)
        g_plus = stats.pos_mean + np.sqrt(stats.v) * rng.standard_normal(d)
        split, norms = split_labels(labels), np.linalg.norm(g, axis=1)
        assert leak_auc(g, split, norms) <= cert.auc_bound + 0.03
        assert leak_auc(g, split, norms, g_plus, np.linalg.norm(g_plus)) <= cert.auc_bound + 0.03
    assert time.time() - start < 120.0


def test_c06_unbiasedness():
    # each mechanism, fixed row g, 1e5 perturbed copies: componentwise
    # mean within 4 std/sqrt(N) of g
    start = time.time()
    rng = make_rng(106)
    d = 6
    g_row = rng.standard_normal(d)
    copies = 10**5
    anchor = 2.0 * np.ones(d)
    batch = np.vstack([np.tile(g_row, (copies, 1)), np.tile(anchor, (copies // 4, 1))])
    labels = np.array([1] * copies + [0] * (copies // 4))

    outcomes = {
        "none": perturb_none(batch),
        "iso": perturb_iso(batch, 1.0, make_rng(107)),
        "max_norm": perturb_max_norm(batch, make_rng(108)),
        "marvell": perturb_marvell(batch, labels, 2.0, make_rng(109)),
    }
    for name, out in outcomes.items():
        pert = out.perturbed[:copies]
        emp_mean = pert.mean(axis=0)
        emp_std = pert.std(axis=0)
        tol = 4.0 * emp_std / np.sqrt(copies) + 1e-10
        assert np.all(np.abs(emp_mean - g_row) <= tol), f"{name} biased"
    assert time.time() - start < 60.0


def test_c07_max_norm_matches_expected_norms():
    # Monte Carlo E||g~_j||^2 within 2% of ||g_max||^2 for every row
    start = time.time()
    rng = make_rng(110)
    d = 5
    rows = rng.standard_normal((6, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    scales = np.array([1.0, 0.9, 0.75, 0.6, 0.45, 0.35])
    rows *= scales[:, None]
    max_sq = float((rows * rows).sum(axis=1).max())
    copies = 10**5
    for j in range(rows.shape[0]):
        batch = np.vstack([np.tile(rows[j], (copies, 1)), rows])
        out = perturb_max_norm(batch, make_rng(111 + j))
        emp = float(((out.perturbed[:copies] ** 2).sum(axis=1)).mean())
        assert abs(emp - max_sq) <= 0.02 * max_sq, f"row {j}: {emp} vs {max_sq}"
    assert time.time() - start < 30.0


def test_c08_leakage_reproduction(unprotected_run):
    # unprotected imbalanced run: high leak at both probe layers
    s = unprotected_run.summary
    assert s["norm_cut_q95"] >= 0.85
    assert s["cos_cut_q95"] >= 0.95
    assert s["norm_first_q95"] >= 0.80
    assert s["cos_first_q95"] >= 0.90


def test_c09_protection_reproduction(unprotected_run, marvell_runs):
    # marvell s=4 on the same task: all four quantiles <= 0.65 with at
    # most 0.10 test-AUC cost
    rec = marvell_runs[4.0]
    assert rec.summary["test_auc"] is not None and unprotected_run.summary["test_auc"] is not None
    assert abs(rec.summary["test_auc"] - unprotected_run.summary["test_auc"]) <= 0.10
    s = rec.summary
    names = ("norm_cut_q95", "cos_cut_q95", "norm_first_q95", "cos_first_q95")
    above = [f"{name} = {s[name]:.3f}" for name in names if s[name] > 0.65]
    assert not above, f"{', '.join(above)} > 0.65"


def test_c10_tradeoff_dominance(marvell_runs, iso_runs):
    # at every matched-or-better test-AUC pairing, marvell's cut-layer
    # cosine leak is lower than iso's; iso stays leaky at its largest t
    # while marvell s=4 is protective
    for s_val, m in marvell_runs.items():
        for t_val, i in iso_runs.items():
            if m.summary["test_auc"] >= i.summary["test_auc"]:
                assert m.summary["cos_cut_q95"] < i.summary["cos_cut_q95"], (
                    f"marvell s={s_val} (auc {m.summary['test_auc']:.3f}, cos "
                    f"{m.summary['cos_cut_q95']:.3f}) not dominated by iso t={t_val} "
                    f"(auc {i.summary['test_auc']:.3f}, cos {i.summary['cos_cut_q95']:.3f})"
                )
    assert iso_runs[max(ISO_GRID)].summary["cos_cut_q95"] >= 0.7
    assert marvell_runs[4.0].summary["cos_cut_q95"] <= 0.65, (
        f"marvell s=4 cos_cut_q95 = {marvell_runs[4.0].summary['cos_cut_q95']:.3f}"
    )


def test_c11_determinism(tmp_path, module_env):
    # identical config+seed produce byte-identical run.csv twice via the CLI
    cfg = {
        "dataset": {"kind": "synthetic", "n": 1500, "d_in": 12, "pos_frac": 0.15,
                    "separation": 2.0, "test_frac": 0.2},
        "net": {"hidden_dims": [24, 24, 12], "activations": ["relu", "relu", "relu"],
                "cut_index": 2},
        "batch_size": 48,
        "iterations": 60,
        "mechanism": {"kind": "marvell", "s": 2.0},
        "seed": 99,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    start = time.time()
    for sub in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "-m", "splitsim", "run", "--config", str(cfg_path),
             "--out", str(tmp_path / sub)],
            capture_output=True,
            text=True,
            env=module_env,
        )
        assert proc.returncode == 0, proc.stderr
    a = (tmp_path / "a/run.csv").read_bytes()
    b = (tmp_path / "b/run.csv").read_bytes()
    assert a == b
    assert (tmp_path / "a/summary.csv").read_bytes() == (tmp_path / "b/summary.csv").read_bytes()
    assert time.time() - start < 120.0
