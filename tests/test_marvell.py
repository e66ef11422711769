import dataclasses
import inspect
import itertools
import sys

import numpy as np
import pytest

from oracles import closure_solve_lambdas, copying_stats, make_stats, solution_objective
from splitsim import marvell
from splitsim.marvell import (
    VARIANCE_FLOOR,
    LambdaSolution,
    SolverSettings,
    auc_upper_bound,
    build_covariances,
    estimate_stats,
    make_certificate,
    noise_power,
    objective,
    power_budget,
    solve,
    sum_kl,
    tv_upper_bound,
)
from splitsim.model import SplitNet, forward, label_party_gradients
from splitsim.numeric import make_rng
from splitsim.protection import row_space


def test_estimate_stats_hand_example():
    g = np.array([[2.0, 0.0], [4.0, 0.0], [0.0, 0.0], [2.0, 0.0]])
    labels = np.array([1, 1, 0, 0])
    stats = estimate_stats(g, labels)
    assert stats.p == 0.5
    assert np.array_equal(stats.delta_g, [2.0, 0.0])
    assert stats.delta_norm_sq == 4.0
    assert stats.v == 0.5
    assert stats.u == 0.5
    assert stats.d == 2


def test_estimate_stats_identical_rows_zero_variance():
    g = np.array([[1.0, 2.0]] * 3 + [[0.0, 0.0], [0.5, 0.2]])
    labels = np.array([1, 1, 1, 0, 0])
    stats = estimate_stats(g, labels)
    assert stats.v == 0.0
    assert stats.u > 0.0


def test_estimate_stats_single_class_errors():
    g = np.ones((3, 2))
    with pytest.raises(ValueError, match="both classes"):
        estimate_stats(g, np.array([1, 1, 1]))
    with pytest.raises(ValueError, match="both classes"):
        estimate_stats(g, np.array([0, 0, 0]))


def test_estimate_stats_bitwise_matches_copying_reference():
    rng = make_rng(17)
    for B, d in ((256, 384), (16, 16), (2, 1), (5, 3)):
        for _ in range(5):
            g = rng.standard_normal((B, d)) * rng.uniform(0.1, 10.0)
            labels = (rng.random(B) < 0.3).astype(np.int64)
            labels[0], labels[-1] = 1, 0
            stats = estimate_stats(g, labels)
            pos_mean, neg_mean, v, u = copying_stats(g, labels)
            assert stats.delta_g.tobytes() == (pos_mean - neg_mean).tobytes()
            assert (stats.v.hex(), stats.u.hex()) == (v.hex(), u.hex())


def _factored_batches():
    """(name, labels, factor) of random float32 nets at every cut, each
    activation, k > d, k = d, k < d, k = 1 (h is the logit layer alone),
    and small_marvell's shapes (B 16, 32-32-16 cut at 32, k 16)."""
    rng = make_rng(31)
    shapes = [(64, 20, (24, 48, 8), cut) for cut in (1, 2, 3)]
    shapes += [(64, 20, (12, 12), 1), (16, 20, (32, 32, 16), 2)]
    for activation in ("relu", "tanh", "sigmoid", "identity"):
        for B, in_dim, hidden, cut in shapes:
            net = SplitNet.build(in_dim, list(hidden), [activation] * len(hidden), cut, rng)
            state = forward(net, rng.standard_normal((B, in_dim)))
            labels = (rng.random(B) < 0.3).astype(np.int64)
            labels[:2] = 1, 0
            factor = label_party_gradients(state, labels)
            yield f"{activation}-{hidden}-cut{cut}-B{B}", labels, factor


def _bits(stats):
    return dataclasses.astuple(dataclasses.replace(stats, delta_g=stats.delta_g.tobytes()))


def test_estimate_stats_from_the_factor():
    # where the factor holds fewer values than the batch (B k + k d < B d),
    # marvell fits the rows' coordinates in the k-dim row space of basis:
    # that fit has the class-mean gap of the d-dim fit of the float64
    # product coords @ basis, to 1e-12, and the same total spread,
    # k v = d v_d and k u = d u_d; mapped back to R^d, its gap is the d-dim
    # one.  Elsewhere (k >= d, and small_marvell's 16x32 batches at k = 16)
    # it is the fit of the float32 rows coords @ basis, bit for bit.
    seen = set()
    for name, labels, (coords, basis) in _factored_batches():
        B, (k, d) = coords.shape[0], basis.shape
        in_row_space = k * (B + d) < B * d
        seen.add((k > d, k == d, 1 < k < d, k == 1, in_row_space))
        rows, back = row_space(coords, basis)
        stats = estimate_stats(rows, labels)
        assert (back is None) != in_row_space and stats.d == (k if in_row_space else d), name
        if not in_row_space:
            assert _bits(stats) == _bits(estimate_stats(coords @ basis, labels)), name
            continue
        basis64 = basis.astype(np.float64)
        exact = estimate_stats(coords.astype(np.float64) @ basis64, labels)
        for got, want in ((stats.delta_norm_sq, exact.delta_norm_sq),
                          (k * stats.v, d * exact.v), (k * stats.u, d * exact.u)):
            assert abs(got - want) <= 1e-12 * want, name
        # the frame's rows L^-1 basis, with L the Cholesky factor of basis basis^T
        frame = np.linalg.solve(np.linalg.cholesky(basis64 @ basis64.T), basis64)
        gap = np.linalg.norm(stats.delta_g @ frame - exact.delta_g)
        assert gap <= 1e-12 * np.linalg.norm(exact.delta_g), name
    # k > d, k = d, k < d in the row space and not (small_marvell), k = 1
    assert seen == {(True, False, False, False, False), (False, True, False, False, False),
                    (False, False, True, False, True), (False, False, True, False, False),
                    (False, False, False, True, True)}


def test_estimate_stats_sampling_consistency():
    rng = make_rng(0)
    d, n = 6, 4000
    pos_mean = np.array([1.0, -2.0, 0.0, 0.5, 3.0, -1.0])
    neg_mean = np.zeros(d)
    v_true, u_true = 0.7, 1.3
    g = np.vstack(
        [
            pos_mean + np.sqrt(v_true) * rng.standard_normal((n, d)),
            neg_mean + np.sqrt(u_true) * rng.standard_normal((n, d)),
        ]
    )
    labels = np.array([1] * n + [0] * n)
    stats = estimate_stats(g, labels)
    se_delta = np.sqrt((v_true + u_true) / n)  # the two class means' errors add
    assert np.all(np.abs(stats.delta_g - (pos_mean - neg_mean)) <= 3 * se_delta)
    se_var = v_true * np.sqrt(2.0 / (d * n))
    assert abs(stats.v - v_true) <= 3 * se_var
    assert abs(stats.u - u_true) <= 3 * u_true * np.sqrt(2.0 / (d * n))


def test_power_budget():
    stats = make_stats(u=1.0, v=1.0, dsq=4.0, p=0.5, d=2)
    assert power_budget(4.0, stats) == 16.0
    zero = make_stats(u=1.0, v=1.0, dsq=0.0, p=0.5, d=2)
    assert power_budget(4.0, zero) == 0.0
    quad = make_stats(u=1.0, v=1.0, dsq=16.0, p=0.5, d=2)  # delta doubled
    assert power_budget(4.0, quad) == 4.0 * power_budget(4.0, stats)
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            power_budget(bad, stats)


def test_solver_settings_validation():
    for bad in ({"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")}, {"tol": float("inf")},
                {"max_sweeps": 0}):
        with pytest.raises(ValueError):
            SolverSettings(**bad)
    assert SolverSettings(tol=1e-4, max_sweeps=1).max_sweeps == 1


def test_objective_hand_values():
    d1 = make_stats(u=1.0, v=1.0, dsq=1.0, p=0.5, d=1)
    assert objective((0, 0, 0, 0), d1) == pytest.approx(4.0, abs=1e-15)
    d2 = make_stats(u=1.0, v=1.0, dsq=0.0, p=0.5, d=2)
    assert objective((0, 0, 0, 0), d2) == pytest.approx(4.0, abs=1e-15)


def test_objective_ratio_structure():
    # scaling every denominator and its numerator together leaves the
    # d-1 block unchanged
    stats = make_stats(u=0.2, v=0.1, dsq=0.0, p=0.5, d=5)
    a = objective((0.0, 0.3, 0.0, 0.5), stats)
    stats2 = make_stats(u=0.4, v=0.2, dsq=0.0, p=0.5, d=5)
    b = objective((0.0, 0.6, 0.0, 1.0), stats2)
    assert a == pytest.approx(b, rel=1e-12)


def test_solve_zero_power():
    stats = make_stats(u=0.5, v=0.25, dsq=3.0, p=0.3, d=8)
    sol = solve(stats, 0.0)
    assert (sol.lam1_pos, sol.lam2_pos, sol.lam1_neg, sol.lam2_neg) == (0, 0, 0, 0)
    assert sol.converged
    assert solution_objective(sol, stats) == pytest.approx(objective((0, 0, 0, 0), stats))


def test_solve_symmetric_instance():
    stats = make_stats(u=0.4, v=0.4, dsq=5.0, p=0.5, d=6)
    sol = solve(stats, power_budget(2.0, stats))
    assert sol.lam1_pos == pytest.approx(sol.lam1_neg, rel=1e-4, abs=1e-7)
    assert sol.lam2_pos == pytest.approx(sol.lam2_neg, rel=1e-4, abs=1e-7)


def test_solve_objective_monotone_in_power():
    stats = make_stats(u=0.3, v=0.05, dsq=10.0, p=0.1, d=12)
    objs = [solution_objective(solve(stats, P), stats) for P in (0.0, 1.0, 5.0, 25.0, 125.0)]
    assert all(objs[i + 1] <= objs[i] + 1e-9 for i in range(len(objs) - 1))


# (u, v, dsq, p, d, s, max_sweeps) with s = 0 meaning P = 0, then the
# exact bits of (lam1_pos, lam2_pos, lam1_neg, lam2_neg, objective),
# converged, sweeps_used (Newton steps), and the objective the
# golden-section coordinate descent reached on the same instance.
# Covers both pin sides, d = 1, P = 0, a one-step cap that stops
# unconverged, and variances below the floor.  The bits were re-pinned
# when the Newton solve replaced the coordinate descent: it stops on a
# KKT residual, not on a sweep's objective decrease, so every lambda
# moved in its last bits (objectives within 2 ulps or lower).
PINNED_SOLVES = [
    ((0.3, 0.7, 12.0, 0.1, 48, 4.0, 200), ("0x1.1630d8534cae0p+5", "0x0.0p+0", "0x1.ee7647fe2f57ep+4", "0x1.947ec1935399ep-2", "0x1.82f784c08f53ep+6"), True, 4, "0x1.82f784c091ee2p+6"),
    ((0.9, 0.2, 0.5, 0.5, 48, 1.0, 200), ("0x1.2f2badb49d980p-4", "0x1.42cb42eb2e80bp-6", "0x0.0p+0", "0x0.0p+0", "0x1.a3f3d4d5a3ed0p+7"), True, 6, "0x1.a3f3d4d5c54afp+7"),
    ((0.05, 0.4, 80.0, 0.3, 384, 1.0, 200), ("0x1.49c06a116cd36p+3", "0x0.0p+0", "0x1.e33bac92f939fp+2", "0x1.1190107e275afp-2", "0x1.936b864221772p+9"), True, 8, "0x1.936b86422178ap+9"),
    ((2.0, 0.6, 3.0, 0.7, 16, 16.0, 200), ("0x1.0cf782dd9c90fp+5", "0x1.6499010b904bap+0", "0x1.0661cad642309p+5", "0x0.0p+0", "0x1.01650ea2b4e9bp+5"), True, 3, "0x1.01650ea2e95bdp+5"),
    ((0.2, 0.5, 2.0, 0.25, 1, 4.0, 200), ("0x1.03a9141b5226ep+3", "0x0.0p+0", "0x1.fd8f47edc93b7p+2", "0x0.0p+0", "0x1.3d74b423b9831p+1"), True, 3, "0x1.3d74b423b9832p+1"),
    ((0.5, 0.2, 2.0, 0.25, 1, 4.0, 200), ("0x1.121427a9b5417p+3", "0x0.0p+0", "0x1.f3f290398729bp+2", "0x0.0p+0", "0x1.3c5e44ab0827ep+1"), True, 3, "0x1.3c5e44ab0827ep+1"),
    ((0.4, 0.1, 5.0, 0.2, 8, 0.0, 200), ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.8200000000000p+6"), True, 0, "0x1.8200000000000p+6"),
    ((0.3, 0.7, 12.0, 0.1, 48, 4.0, 1), ("0x1.1230fd2c3faeep+5", "0x0.0p+0", "0x1.ef3e1a4da32a2p+4", "0x1.94a47a63f95dap-2", "0x1.82f7d248577ebp+6"), False, 1, "0x1.88190d1aa6618p+6"),
    ((0.9, 0.2, 0.5, 0.5, 48, 1.0, 1), ("0x1.ca8a20427a53cp-2", "0x1.80fe8d70b2291p-7", "0x0.0p+0", "0x0.0p+0", "0x1.ac84bbce1cb65p+7"), False, 1, None),
    ((0.0, 0.5, 1.5, 0.1, 32, 4.0, 200), ("0x1.fc432b4198640p-3", "0x0.0p+0", "0x1.be818ffe4566fp-2", "0x1.99cd314772426p-3", "0x1.86723a805b371p+6"), True, 8, "0x1.86723a80ba5ddp+6"),
    ((0.3, 1e-14, 1.5, 0.1, 32, 4.0, 200), ("0x1.757a61091f265p+2", "0x1.32bc0a0d75e57p-2", "0x1.3f22cf7fa4efbp+2", "0x0.0p+0", "0x1.0233d83360c15p+6"), True, 4, "0x1.0233d83360f08p+6"),
    ((0.4, 0.4, 5.0, 0.5, 6, 2.0, 200), ("0x1.4000000000000p+3", "0x0.0p+0", "0x1.4000000000000p+3", "0x0.0p+0", "0x1.9ec4ec4ec4ec4p+3"), True, 0, "0x1.9ec4ec4f801d2p+3"),
    ((0.0, 0.0, 0.7, 0.15, 24, 4.0, 200), ("0x1.7ecb967f74979p+1", "0x0.0p+0", "0x1.62184eda72f45p+1", "0x0.0p+0", "0x1.83f20a842f652p+5"), True, 3, "0x1.3d720b434eb6ep+13"),
]


@pytest.mark.parametrize("case", PINNED_SOLVES, ids=lambda c: "-".join(map(str, c[0])))
def test_solve_bitwise_pinned(case):
    # float.hex tells -0.0 from 0.0, which == does not
    (u, v, dsq, p, d, s, max_sweeps), bits, converged, sweeps, golden = case
    stats = make_stats(u=u, v=v, dsq=dsq, p=p, d=d)
    P = 0.0 if s == 0.0 else power_budget(s, stats)
    settings = SolverSettings(tol=1e-8, max_sweeps=max_sweeps)
    sol = solve(stats, P, settings)
    got = (sol.lam1_pos, sol.lam2_pos, sol.lam1_neg, sol.lam2_neg, solution_objective(sol, stats))
    assert tuple(x.hex() for x in got) == bits
    assert sol.converged is converged is (sol.kkt_residual <= settings.tol)
    assert sol.sweeps_used == sweeps
    if golden is not None:  # one golden-section sweep may beat one Newton step
        assert solution_objective(sol, stats) <= float.fromhex(golden) * (1 + 1e-10)


def _random_solver_args(rng):
    """Solver instances (d, u, v, dsq, p, P) spanning d = 1 to 384,
    variances at and far from the floor, P = 0 and both pin sides
    (u < v pins the positive class)."""
    d = float(rng.choice([1, 2, 3, 16, 384]))
    u = max(10.0 ** rng.uniform(-14.0, 1.0), VARIANCE_FLOOR)
    v = max(10.0 ** rng.uniform(-14.0, 1.0), VARIANCE_FLOOR)
    dsq = 10.0 ** rng.uniform(-4.0, 2.0)
    p = float(rng.uniform(0.02, 0.98))
    P = 0.0 if rng.random() < 0.05 else float(rng.choice([0.01, 0.25, 1.0, 4.0, 64.0])) * dsq
    rng.random()  # unused; dropping it would change every later instance
    return d, u, v, dsq, p, P


def _assert_feasible(lam, d, p, P, pin_pos):
    # c03's feasibility and exact zero rule
    w = np.array([p, p * (d - 1.0), 1.0 - p, (1.0 - p) * (d - 1.0)])
    x = np.array(lam)
    assert x.min() >= -1e-9
    assert lam[1] - lam[0] <= 1e-9 and lam[3] - lam[2] <= 1e-9
    assert w @ x <= P + 1e-9
    assert abs(w @ x - P) <= 1e-6 * max(P, 1e-12)
    assert lam[1 if pin_pos else 3] == 0.0


def _outcome(lam, d, P, pin_pos):
    """Where the solution sits: "P0/d1" for the cases without a triangle,
    else which of the pinned class's along eigenvalue (alpha) and the
    other class's orthogonal one (gamma) are zero."""
    if P == 0.0 or d == 1.0:
        return "P0/d1"
    alpha, beta, gamma = (lam[0], lam[2], lam[3]) if pin_pos else (lam[2], lam[0], lam[1])
    if gamma == 0.0:
        return "vertex beta=gamma=0" if beta == 0.0 else "gamma=0"
    return "alpha=0" if alpha == 0.0 else "interior"


# (d, u, v, dsq, p) at P = 0.01 dsq whose optimum is the vertex
# beta = gamma = 0, two on each pin side: solve's pin rule (u < v) sent
# 8 of 200,000 instances of _random_solver_args(make_rng(99)) there,
# all with u within 10% of v.
VERTEX_INSTANCES = [
    (3.0, 0.00019426846177321045, 0.00018053374483613176, 0.001165916277179293, 0.783539708588376),
    (384.0, 0.005259166472250766, 0.004794392833269427, 0.0022642353379247145, 0.9407501808829362),
    (384.0, 0.008507243790687355, 0.008958706831766309, 0.004889272255379494, 0.2460977021275874),
    (2.0, 5.865355153702746, 6.59363817838552, 5.1015071304757456, 0.08605267599798218),
]


def _solve_checked(d, u, v, dsq, p, P):
    """(stats, (pin side, outcome)) of solve on one instance, which must
    converge, prove it with its KKT residual, be feasible and reach the
    golden-section reference's objective or better."""
    stats = make_stats(u=u, v=v, dsq=dsq, p=p, d=int(d))
    sol = solve(stats, P)
    lam = (sol.lam1_pos, sol.lam2_pos, sol.lam1_neg, sol.lam2_neg)
    _, ref, _, _ = closure_solve_lambdas(d, u, v, dsq, p, P, 1e-8, 200, u < v)
    args = (d, u, v, dsq, p, P)
    assert sol.converged and sol.kkt_residual <= 1e-8 and sol.sweeps_used < 200, args
    assert objective(lam, stats) <= ref * (1 + 1e-10), args
    _assert_feasible(lam, d, p, P, u < v)
    return stats, (u < v, _outcome(lam, d, P, u < v))


def test_solve_no_worse_than_golden_section_reference():
    # every solve passes _solve_checked, and under a step cap it stays
    # feasible.  Every outcome occurs on both pin sides.
    rng = make_rng(23)
    outcomes = set()
    for _ in range(1200):
        d, u, v, dsq, p, P = args = _random_solver_args(rng)
        stats, outcome = _solve_checked(*args)
        outcomes.add(outcome)
        settings = SolverSettings(float(rng.choice([1e-8, 1e-4])), int(rng.choice([1, 2])))
        capped = solve(stats, P, settings)
        assert capped.sweeps_used <= settings.max_sweeps
        lam = (capped.lam1_pos, capped.lam2_pos, capped.lam1_neg, capped.lam2_neg)
        _assert_feasible(lam, d, p, P, u < v)
    for d, u, v, dsq, p in VERTEX_INSTANCES:
        _, outcome = _solve_checked(d, u, v, dsq, p, 0.01 * dsq)
        assert outcome == (u < v, "vertex beta=gamma=0"), (d, u, v, dsq, p)
        outcomes.add(outcome)
    every = {"P0/d1", "interior", "alpha=0", "gamma=0", "vertex beta=gamma=0"}
    assert outcomes == {(side, o) for side in (True, False) for o in every}


def _return_line(after: str) -> int:
    """The line number of `_solve_canonical`'s return statement that
    follows its source line `after` (stripped)."""
    src, first = inspect.getsourcelines(marvell._solve_canonical)
    (i,) = [i for i, line in enumerate(src) if line.strip() == after]
    assert src[i + 1].strip().startswith("return ")
    return first + i + 1


def _solve_exit(stats, P, settings):
    """(solution, line of the return that ended `_solve_canonical`).

    The tracers installed for the solve chain the process's own tracer,
    if one is set (a line-coverage tool's): it keeps receiving every
    event, `_solve_canonical`'s included."""
    code, lines = marvell._solve_canonical.__code__, []
    previous = sys.gettrace()

    def local(chained):
        def trace(frame, event, arg):
            nonlocal chained
            if event == "return":
                lines.append(frame.f_lineno)
            if chained is not None:
                chained = chained(frame, event, arg)
            return trace
        return trace

    def on_call(frame, event, arg):
        chained = None if previous is None else previous(frame, event, arg)
        return local(chained) if frame.f_code is code else chained

    sys.settrace(on_call)
    try:
        sol = solve(stats, P, settings)
    finally:
        sys.settrace(previous)
    return sol, lines[-1]


# (d, u, v, dsq, p, P) and the line before the return that ends the
# solve at an unattainable tol: Armijo's backtracking runs out of
# halvings, or no Newton step descends into the working set.  Found by
# solving 200 instances of _random_solver_args(make_rng(0)) at tol
# 1e-300: 24 ended by the first exit and 8 by the second.
UNCONVERGED_EXITS = [
    ((2, 0.006379232092098339, 1.2679679684327655e-12, 0.014319019024945081,
      0.03285769766493878, 0.014319019024945081), "else:"),
    ((3, 0.6316526061386217, 1e-12, 0.0014418306269513958,
      0.7434863026471923, 0.0014418306269513958), "if best is None:"),
]


@pytest.mark.parametrize("case", UNCONVERGED_EXITS, ids=["armijo_exhausted", "no_descent"])
def test_solve_unconverged_exit_is_feasible(case):
    # each exit stops before the step cap, says it did not converge and
    # leaves a feasible point on the power plane
    (d, u, v, dsq, p, P), after = case
    stats = make_stats(u=u, v=v, dsq=dsq, p=p, d=d)
    settings = SolverSettings(tol=1e-300)
    sol, line = _solve_exit(stats, P, settings)
    assert line == _return_line(after)
    assert sol.converged is False and sol.kkt_residual > settings.tol
    assert 0 < sol.sweeps_used < settings.max_sweeps
    lam = (sol.lam1_pos, sol.lam2_pos, sol.lam1_neg, sol.lam2_neg)
    _assert_feasible(lam, float(d), p, P, stats.u < stats.v)


def test_solve_rejects_non_finite_inputs():
    stats = make_stats(u=0.3, v=0.7, dsq=12.0, p=0.1, d=48)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="P must be finite"):
            solve(stats, bad)
        for name in ("u", "v", "delta_norm_sq"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                solve(dataclasses.replace(stats, **{name: bad}), 1.0)


def test_solve_rejects_negative_power():
    # the Newton solve returns zero noise for any P <= 0, so a negative
    # budget would otherwise pass silently as no noise
    stats = make_stats(u=0.3, v=0.7, dsq=12.0, p=0.1, d=48)
    with pytest.raises(ValueError, match="P must be >= 0"):
        solve(stats, -1.0)


def test_solve_reaches_balanced_orthogonal_noise_at_tiny_variances():
    # with both variances near the floor, the optimum puts exactly v - u
    # of orthogonal noise on the negative class, 1e-13 against along
    # eigenvalues near 60: the golden-section coordinate descent stopped
    # at objective 4.498937932660033 (sum_kl 0.2495) on this instance
    stats = make_stats(u=1e-12, v=1.4875424202658623e-12, dsq=14.98015003189631,
                       p=0.97879269692671, d=2)
    sol = solve(stats, power_budget(4.0, stats))
    better = objective((59.777709111304915, 0.0, 66.51553031311, 4.875424202658621e-13), stats)
    assert solution_objective(sol, stats) <= better * (1 + 1e-12)
    assert sol.converged and sol.kkt_residual <= SolverSettings().tol
    assert sum_kl(sol, stats) < 0.2437


def test_objective_biconvex_in_each_class_pair():
    # Holding one class's (along, orthogonal) pair fixed, the objective
    # is a sum of convex functions of the other class's pair, each of one
    # eigenvalue (c/x or linear), so it is convex there: midpoint
    # convexity holds on every segment of feasible pairs.
    rng = make_rng(2)
    for _ in range(2000):
        d = int(rng.integers(1, 400))
        stats = make_stats(u=float(10.0 ** rng.uniform(-12, 1)),
                           v=float(10.0 ** rng.uniform(-12, 1)),
                           dsq=float(10.0 ** rng.uniform(-3, 2)),
                           p=float(rng.uniform(0.01, 0.99)), d=d)
        scale = float(10.0 ** rng.uniform(-3, 2)) * stats.delta_norm_sq

        def pair():
            along, orth = scale * rng.random(2)
            return [max(along, orth), min(along, orth)]

        fixed, x, y = pair(), pair(), pair()
        mid = [(a + b) / 2.0 for a, b in zip(x, y)]
        if rng.random() < 0.5:  # vary the positive class, then the negative
            f = [objective(lam + fixed, stats) for lam in (x, y, mid)]
        else:
            f = [objective(fixed + lam, stats) for lam in (x, y, mid)]
        assert f[2] <= (f[0] + f[1]) / 2.0 * (1.0 + 1e-12)


def test_objective_not_jointly_convex():
    # The (d-1)(x/y + y/x) orthogonal term is not jointly convex in the
    # two classes' orthogonal eigenvalues, so the objective is not convex
    # on the power hyperplane: at this feasible pair the midpoint lies
    # 0.87 above the chord.
    stats = make_stats(u=0.2, v=0.6, dsq=4.0, p=0.3, d=7)
    w = np.array([0.3, 0.3 * 6, 0.7, 0.7 * 6])
    x = np.array([1.837, 0.7568, 8.583, 0.01869])
    y = np.array([2.071, 2.071, 4.369, 0.1413])
    x, y = x * (8.0 / (w @ x)), y * (8.0 / (w @ y))  # onto P = 8
    chord = (objective(x, stats) + objective(y, stats)) / 2.0
    assert objective((x + y) / 2.0, stats) > chord + 0.8


def test_build_covariances():
    stats = make_stats(u=0.1, v=0.2, dsq=9.0, p=0.4, d=3)
    iso_sol = LambdaSolution(0.7, 0.7, 0.7, 0.7, True, 1, 0.0)
    pos, neg = build_covariances(iso_sol, stats)
    assert pos.along_var == 0.0 and pos.iso_var == 0.7

    rank1 = LambdaSolution(2.0, 0.0, 1.0, 0.0, True, 1, 0.0)
    pos, neg = build_covariances(rank1, stats)
    assert pos.along_var == 2.0 and pos.iso_var == 0.0
    assert np.allclose(pos.direction, stats.delta_g / 3.0)

    # dense eigenvalue oracle at d=3
    sol = LambdaSolution(2.5, 0.5, 1.5, 0.25, True, 1, 0.0)
    pos, neg = build_covariances(sol, stats)
    dense = pos.along_var * np.outer(pos.direction, pos.direction) + pos.iso_var * np.eye(3)
    eigs = np.sort(np.linalg.eigvalsh(dense))
    assert np.allclose(eigs, [0.5, 0.5, 2.5], atol=1e-12)

    # the covariances' invariants are formed here and checked nowhere
    # else: one shared unit direction and variances >= 0, also where
    # lam2 exceeds lam1, and on a mean gap off the axes
    inverted = LambdaSolution(0.5, 1.5, 0.25, 0.75, True, 1, 0.0)
    skewed = make_stats(u=0.1, v=0.2, dsq=9.0, p=0.4, d=3, rng=make_rng(30))
    for s, st in itertools.product((iso_sol, rank1, sol, inverted), (stats, skewed)):
        pos, neg = build_covariances(s, st)
        assert pos.direction is neg.direction
        assert abs(np.linalg.norm(pos.direction) - 1.0) <= 1e-12
        assert min(pos.along_var, pos.iso_var, neg.along_var, neg.iso_var) >= 0.0

    degenerate = make_stats(u=0.1, v=0.2, dsq=0.0, p=0.4, d=3)
    with pytest.raises(ValueError):
        build_covariances(sol, degenerate)


def test_sum_kl_zero_for_identical_distributions():
    stats = make_stats(u=0.3, v=0.3, dsq=0.0, p=0.5, d=4)
    sol = LambdaSolution(0.0, 0.0, 0.0, 0.0, True, 0, 0.0)
    assert sum_kl(sol, stats) == pytest.approx(0.0, abs=1e-12)


def test_sum_kl_d1_closed_form():
    # N(0,1) vs N(1,1): symmetrized KL = 1, objective 4
    stats = make_stats(u=1.0, v=1.0, dsq=1.0, p=0.5, d=1)
    sol = LambdaSolution(0.0, 0.0, 0.0, 0.0, True, 0, 0.0)
    assert objective((0, 0, 0, 0), stats) == pytest.approx(4.0)
    assert sum_kl(sol, stats) == pytest.approx(1.0, abs=1e-12)


def test_auc_upper_bound():
    assert auc_upper_bound(0.0) == 0.5
    assert auc_upper_bound(1.0) == pytest.approx(0.875)
    assert auc_upper_bound(4.0) == 1.0
    assert auc_upper_bound(17.0) == 1.0
    eps = np.linspace(0, 4, 200)
    vals = np.array([auc_upper_bound(e) for e in eps])
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all((vals >= 0.5) & (vals <= 1.0))
    with pytest.raises(ValueError):
        auc_upper_bound(-0.1)


def test_tv_upper_bound():
    assert tv_upper_bound(0.0) == 0.0
    assert tv_upper_bound(4.0) == 1.0
    assert tv_upper_bound(1.0) == 0.5
    assert tv_upper_bound(100.0) == 1.0
    with pytest.raises(ValueError):
        tv_upper_bound(-1.0)


def test_certificate_fields():
    stats = make_stats(u=0.2, v=0.3, dsq=2.0, p=0.25, d=6)
    sol = solve(stats, power_budget(4.0, stats))
    cert = make_certificate(sol, stats)
    assert cert.sum_kl >= 0.0
    assert 0.5 <= cert.auc_bound <= 1.0
    assert cert.auc_bound == auc_upper_bound(cert.sum_kl)
    assert cert.tv_bound == tv_upper_bound(cert.sum_kl)
    assert cert.sum_kl < 4.0  # the AUC bound is not vacuous
    # more power, lower divergence
    cert2 = make_certificate(solve(stats, power_budget(16.0, stats)), stats)
    assert cert2.sum_kl <= cert.sum_kl + 1e-9


def test_noise_power_formula():
    stats = make_stats(u=0.2, v=0.3, dsq=2.0, p=0.25, d=6)
    P = power_budget(2.0, stats)
    sol = solve(stats, P)
    assert noise_power(sol, stats) == pytest.approx(P, rel=1e-9)
