import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import audit_matrix, copying_stats, cut_gradients, gathering_marvell
from splitsim import protection
from splitsim.attacks import split_labels
from splitsim.marvell import estimate_stats, make_certificate, noise_power, power_budget, solve
from splitsim.model import SplitNet, backprop_nonlabel, forward, label_party_gradients
from splitsim.numeric import make_rng
from splitsim.protection import (
    HYPERPARAMETERS,
    MECHANISMS,
    MechanismConfig,
    apply_mechanism,
    perturb_iso,
    perturb_marvell,
    perturb_max_norm,
    perturb_none,
    row_space,
)


def _rows(g):
    """g as the factor (g, I): a basis with k = d, so that marvell works
    on g's own rows."""
    return g, np.eye(g.shape[1], dtype=g.dtype)


def _record_solves(monkeypatch):
    """The list that each `marvell.solve` call of the mechanisms appends
    its solution to."""
    solves = []

    def recording(*args):
        solves.append(solve(*args))
        return solves[-1]

    monkeypatch.setattr(protection.marvell, "solve", recording)
    return solves


def _mixed_batch(rng, B=16, d=8, pos=4):
    g = rng.standard_normal((B, d))
    g[:pos] += 2.0
    labels = np.array([1] * pos + [0] * (B - pos))
    return g, labels


def test_none_is_identity():
    g = make_rng(0).standard_normal((5, 3))
    out = perturb_none(g)
    assert np.array_equal(out.perturbed, g)
    assert out.noise_power == 0.0
    assert out.certificate is None


def _unperturbed_exits(dtype):
    """(name, outcome thunk, batch) for every exit that leaves its batch
    unperturbed, each on a fresh batch of `dtype`; marvell's exits are
    given the batch as the factor (g, I) and return the g they form."""
    g = make_rng(5).standard_normal((6, 3)).astype(dtype)
    flat = np.tile(np.array([1.0, 2.0], dtype=dtype), (4, 1))  # no class-mean gap
    zero = np.zeros((3, 4), dtype=dtype)
    one_class, mixed = split_labels(np.ones(6)), split_labels(np.array([1, 1, 0, 0]))
    return [
        ("none", lambda rng: perturb_none(g), g),
        ("marvell single-class", lambda rng: perturb_marvell(_rows(g), one_class, 1.0, rng), g),
        ("marvell zero-gap", lambda rng: perturb_marvell(_rows(flat), mixed, 1.0, rng), flat),
        ("iso t=0", lambda rng: perturb_iso(g, 0.0, rng), g),
        ("iso all-zero", lambda rng: perturb_iso(zero, 2.0, rng), zero),
        ("max_norm all-zero", lambda rng: perturb_max_norm(zero, rng), zero),
    ]


def test_unperturbed_batch_is_passed_through_and_never_written():
    # every unperturbed exit hands on the caller's batch itself and draws
    # nothing, so the non-label pass and the audit that read it must
    # leave its bytes alone
    for dtype in (np.float32, np.float64):
        for name, perturb, g in _unperturbed_exits(dtype):
            rng, twin = make_rng(6), make_rng(6)
            out = perturb(rng).perturbed
            if name.startswith("marvell"):
                assert out.dtype == g.dtype and out.tobytes() == g.tobytes(), (name, dtype)
            else:
                assert out is g, (name, dtype)
            assert repr(rng.bit_generator.state) == repr(twin.bit_generator.state), (name, dtype)
    rng = make_rng(5)
    # an identity activation at the cut hands the received rows on unmultiplied
    for cut_activation in ("relu", "identity"):
        net = SplitNet.build(4, [8, 6, 3], ["relu", cut_activation, "relu"], 2, make_rng(7))
        X, y = rng.standard_normal((10, 4)), np.array([1, 0] * 5)
        state = forward(net, X)
        received = perturb_none(cut_gradients(state, y)).perturbed
        before = received.tobytes()
        first = backprop_nonlabel(net, state, received)
        for rows in (received, first):
            audit_matrix(rows, y, rows[0])
        assert received.tobytes() == before


def test_iso_zero_scale_is_identity():
    g = make_rng(1).standard_normal((4, 6))
    out = perturb_iso(g, 0.0, make_rng(2))
    assert np.array_equal(out.perturbed, g)


def test_iso_all_zero_batch_stays_zero():
    out = perturb_iso(np.zeros((3, 4)), 2.0, make_rng(3))
    assert np.array_equal(out.perturbed, np.zeros((3, 4)))


def test_iso_per_coordinate_variance():
    # t = d makes the per-coordinate noise variance equal ||g_max||^2
    rng = make_rng(4)
    d = 4
    g_fixed = np.array([0.5, -1.0, 0.25, 0.0])
    g_max = np.array([2.0, 1.0, -1.0, 0.5])
    max_sq = float(g_max @ g_max)
    copies = 10**5
    batch = np.vstack([np.tile(g_fixed, (copies, 1)), g_max[None, :]])
    out = perturb_iso(batch, float(d), rng)
    noise = out.perturbed[:copies] - g_fixed
    emp_var = noise.var(axis=0)
    assert np.all(np.abs(emp_var - max_sq) <= 0.02 * max_sq)
    assert out.noise_power == pytest.approx(d * max_sq)


def test_max_norm_largest_row_unchanged():
    rng = make_rng(5)
    g, _ = _mixed_batch(rng)
    sq = (g * g).sum(axis=1)
    j = int(np.argmax(sq))
    out = perturb_max_norm(g, make_rng(6))
    assert np.array_equal(out.perturbed[j], g[j])


def test_max_norm_sigma_formula():
    # ||g_max||^2 = 4, ||g_j||^2 = 1 -> sigma = sqrt(3), E||g~||^2 = 4;
    # many copies of g_j in one batch all get the same sigma
    copies = 10**5
    batch = np.vstack([np.tile([1.0, 0.0], (copies, 1)), [[2.0, 0.0]]])
    out = perturb_max_norm(batch, make_rng(7))
    sq = (out.perturbed[:copies] ** 2).sum(axis=1)
    assert abs(sq.mean() - 4.0) <= 0.02 * 4.0
    # realized rows stay collinear with g_j (rank-1 noise along g_j)
    assert np.all(out.perturbed[:copies, 1] == 0.0)


def test_max_norm_zero_rows_stay_zero():
    g = np.array([[1.0, 1.0], [0.0, 0.0]])
    out = perturb_max_norm(g, make_rng(11))
    assert np.array_equal(out.perturbed[1], np.zeros(2))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_max_norm_all_zero_batch_is_returned_unchanged(dtype):
    # every row's norm is the batch maximum, 0, so there is nothing to align
    g = np.zeros((3, 4), dtype=dtype)
    out = perturb_max_norm(g, make_rng(12))
    assert out.perturbed.dtype == dtype and np.array_equal(out.perturbed, g)
    assert out.noise_power == 0.0 and out.certificate is None


def test_marvell_tiny_power_is_near_identity():
    rng = make_rng(12)
    g, labels = _mixed_batch(rng)
    out = perturb_marvell(_rows(g), split_labels(labels), 1e-15, make_rng(13))
    assert not out.fallback
    assert np.allclose(out.perturbed, g, atol=1e-5)


def test_marvell_sum_kl_monotone_in_s():
    rng = make_rng(14)
    g, labels = _mixed_batch(rng, B=64, d=8, pos=16)
    kls = []
    for s in (0.1, 1.0, 4.0, 16.0):
        out = perturb_marvell(_rows(g), split_labels(labels), s, make_rng(15))
        kls.append(out.certificate.sum_kl)
    assert all(kls[i + 1] <= kls[i] + 1e-9 for i in range(len(kls) - 1))


def test_marvell_single_class_fallback(monkeypatch):
    # decided from the class count, before any batch statistics are fit
    monkeypatch.setattr(protection.marvell, "estimate_stats", None)
    g = make_rng(16).standard_normal((4, 3))
    for labels in ([1, 1, 1, 1], [0, 0, 0, 0]):
        out = perturb_marvell(_rows(g), split_labels(np.array(labels)), 1.0, make_rng(17))
        assert out.fallback
        assert np.array_equal(out.perturbed, g)
        assert out.certificate is None and out.noise_power == 0.0
    with pytest.raises(ValueError, match="one label per row"):
        perturb_marvell(_rows(g), split_labels(np.array([0, 0])), 1.0, make_rng(17))


def test_marvell_outcome_carries_its_solve(monkeypatch):
    # one converged solve per mixed batch, whose certificate and noise
    # power the outcome carries; no other mechanism solves
    solves = _record_solves(monkeypatch)
    rng = make_rng(20)
    g, labels = _mixed_batch(rng, B=32, d=6, pos=8)
    out = perturb_marvell(_rows(g), split_labels(labels), 2.0, make_rng(21))
    stats = estimate_stats(g, labels)
    sol = solve(stats, power_budget(2.0, stats))
    assert solves == [sol] and sol.converged
    assert out.certificate == make_certificate(sol, stats)
    assert out.noise_power == noise_power(sol, stats)
    for other in (perturb_iso(g, 1.0, make_rng(22)), perturb_max_norm(g, make_rng(23))):
        assert other.certificate is None
    assert perturb_none(g).certificate is None and len(solves) == 1


def test_marvell_zero_gap_fallback():
    g = np.tile(np.array([1.0, 2.0]), (4, 1))
    out = perturb_marvell(_rows(g), split_labels(np.array([1, 1, 0, 0])), 1.0, make_rng(18))
    assert out.fallback
    assert np.array_equal(out.perturbed, g)
    assert out.certificate is None


def test_marvell_power_within_budget():
    rng = make_rng(19)
    g, labels = _mixed_batch(rng, B=32, d=6, pos=8)
    s = 4.0
    out = perturb_marvell(_rows(g), split_labels(labels), s, make_rng(20))
    stats = estimate_stats(g, labels)
    P = power_budget(s, stats)
    assert out.noise_power <= P * (1 + 1e-6)


def test_marvell_positive_noise_spectrum():
    # empirical covariance of the positive-class noise has delta_g as an
    # eigenvector with eigenvalue lam1_pos; orthogonal variance lam2_pos
    rng = make_rng(21)
    d = 6
    base_pos = np.array([1.0, 0.5, -0.2, 0.0, 0.3, -0.1])
    base_neg = -base_pos
    copies = 10**5
    g = np.vstack([np.tile(base_pos, (copies, 1)), np.tile(base_neg, (copies // 2, 1))])
    labels = np.array([1] * copies + [0] * (copies // 2))
    out = perturb_marvell(_rows(g), split_labels(labels), 4.0, make_rng(22))
    assert not out.fallback
    stats = estimate_stats(g, labels)
    sol = solve(stats, power_budget(4.0, stats))
    noise = out.perturbed[:copies] - base_pos
    direction = stats.delta_g / np.sqrt(stats.delta_norm_sq)
    along = noise @ direction
    assert abs(along.var() - sol.lam1_pos) <= 0.05 * max(sol.lam1_pos, 1e-12)
    ortho = noise - along[:, None] * direction[None, :]
    ortho_var = (ortho**2).sum() / (copies * (d - 1))
    assert abs(ortho_var - sol.lam2_pos) <= 0.05 * max(sol.lam2_pos, 1e-9) + 1e-9


def _zero_rule_case(name):
    """(g, labels, s, which orthogonal eigenvalues are zero) for a mixed
    batch that takes one branch of the zero rule or a boundary shape."""
    rng = make_rng(40)
    if name == "B2":  # one row per class: both variances floor, the negative is pinned
        return rng.standard_normal((2, 8)), np.array([1, 0]), 1.0, (True, True)
    if name == "no_iso_block":  # identical rows per class: neither class draws an iso block
        labels = np.array([1] * 4 + [0] * 12)
        return np.where(labels[:, None] == 1, 1.5, -0.5) * np.ones((16, 8)), labels, 4.0, (True, True)
    d = 1 if name == "d1" else 8
    labels = np.array([1] * 4 + [0] * 12)
    scale = {"pos_pinned": (2.0, 0.5), "neg_pinned": (0.5, 2.0), "d1": (1.0, 1.0)}[name]
    g = rng.standard_normal((16, d)) * np.where(labels == 1, *scale)[:, None]
    g[labels == 1] += 1.0
    zero = {"pos_pinned": (True, False), "neg_pinned": (False, True), "d1": (True, True)}[name]
    return g, labels, 4.0, zero


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["pos_pinned", "neg_pinned", "no_iso_block", "d1", "B2"])
def test_marvell_matches_the_gathering_assembly(name, dtype, monkeypatch):
    # the float32 noise is added to the class's rows in the batch's dtype:
    # on a float32 batch, the same bits as the float64 sum rounded once,
    # on every zero-rule branch
    g, labels, s, zero = _zero_rule_case(name)
    g = g.astype(dtype)
    rng, ref_rng = make_rng(41), make_rng(41)
    solves = _record_solves(monkeypatch)
    out = perturb_marvell(_rows(g), split_labels(labels), s, rng)
    monkeypatch.undo()
    perturbed, cert, power, sol = gathering_marvell(_rows(g), labels, s, ref_rng)
    assert (sol.lam2_pos == 0.0, sol.lam2_neg == 0.0) == zero
    assert out.perturbed.dtype == perturbed.dtype and out.perturbed.tobytes() == perturbed.tobytes()
    assert (solves, out.certificate, out.noise_power) == ([sol], cert, power)
    assert repr(rng.bit_generator.state) == repr(ref_rng.bit_generator.state)  # the same draws


def _row_space_residual(rows, basis):
    """Each row's norm outside the row space of basis, in float64."""
    Q, _ = np.linalg.qr(basis.T.astype(np.float64))
    rows = rows.astype(np.float64)
    return np.linalg.norm(rows - (rows @ Q) @ Q.T, axis=1)


def _cut_factor(hidden, activations, cut, B, seed):
    """(factor, labels) of a mixed batch of a random float32 net."""
    rng = make_rng(seed)
    net = SplitNet.build(6, list(hidden), list(activations), cut, rng)
    labels = (rng.random(B) < 0.3).astype(np.int64)
    labels[:2] = 1, 0
    factor = label_party_gradients(forward(net, rng.standard_normal((B, 6))), labels)
    return factor, labels


def test_marvell_fits_the_factor_it_is_given(monkeypatch):
    # a 64x48 cut batch of rank 8 (k = 8 < d = 48): marvell fits, solves
    # and draws in the 8-dim row space.  An oracle that takes a QR frame
    # of that space in place of the Cholesky one, and the same draws,
    # gives the same solve to rounding and the same rows to float32
    # rounding
    (coords, basis), labels = _cut_factor((48, 8), ("relu", "tanh"), 1, 64, 44)
    solves = _record_solves(monkeypatch)
    out = perturb_marvell((coords, basis), split_labels(labels), 4.0, make_rng(46))
    monkeypatch.undo()
    perturbed, cert, power, sol = gathering_marvell((coords, basis), labels, 4.0, make_rng(46))
    assert out.perturbed.dtype == np.float32 and out.perturbed.shape == (64, 48)
    [got_sol] = solves
    got, want = ([x.lam1_pos, x.lam2_pos, x.lam1_neg, x.lam2_neg] for x in (got_sol, sol))
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12 * max(want))
    assert out.certificate.sum_kl == pytest.approx(cert.sum_kl, rel=1e-9)
    assert out.noise_power == pytest.approx(power, rel=1e-9)
    scale = np.abs(perturbed).max()
    assert np.max(np.abs(out.perturbed - perturbed)) <= 1e-5 * scale
    assert got_sol.converged and out.noise_power > 0


_SHAPES = {  # the relation of k to d: (hidden dims, cut index)
    "k<d": ((48, 8), 1),
    "k=1": ((16, 24), 2),  # h is the logit layer alone
    "k=d": ((24, 24, 8), 1),
    "k>d": ((8, 40), 1),
}


@pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_marvell_rows_stay_in_the_row_space(activation, shape):
    # the received rows are (coords + w) @ basis: no component outside the
    # row space of basis beyond float32 rounding (at k >= d that space is
    # all of R^d)
    hidden, cut = _SHAPES[shape]
    (coords, basis), labels = _cut_factor(hidden, [activation] * len(hidden), cut, 64, 47)
    k, d = basis.shape
    assert {"k<d": 1 < k < d, "k=1": k == 1, "k=d": k == d, "k>d": k > d}[shape]
    out = perturb_marvell((coords, basis), split_labels(labels), 4.0, make_rng(48))
    assert not out.fallback and out.noise_power > 0
    clean = coords.astype(np.float64) @ basis.astype(np.float64)
    assert np.abs(out.perturbed - clean).max() > 1e-3 * np.abs(clean).max()  # noise was added
    residual = _row_space_residual(out.perturbed, basis)
    assert residual.max() <= 1e-5 * np.linalg.norm(out.perturbed, axis=1).max()


def test_marvell_singular_basis_raises():
    # a zero column of h's first W is a zero row of basis, so the Gram
    # matrix K = basis basis^T is singular: marvell raises instead of
    # passing the batch through; a single-class batch needs no frame
    (coords, basis), labels = _cut_factor((48, 8), ("relu", "relu"), 1, 64, 49)
    basis = basis.copy()
    basis[3] = 0.0
    with pytest.raises(ValueError, match="linearly dependent"):
        perturb_marvell((coords, basis), split_labels(labels), 4.0, make_rng(50))
    with pytest.raises(ValueError, match="linearly dependent"):
        row_space(coords, basis)
    one_class = perturb_marvell((coords, basis), split_labels(np.ones(64)), 4.0, make_rng(50))
    assert one_class.fallback


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_marvell_never_writes_its_batch(dtype):
    # train_run reads the clean batch again after the mechanism, as the
    # cosine audit's oracle
    g, labels = _mixed_batch(make_rng(42))
    g = g.astype(dtype)
    before = g.tobytes()
    assert not perturb_marvell(_rows(g), split_labels(labels), 4.0, make_rng(43)).fallback
    assert g.tobytes() == before


@pytest.mark.parametrize("kind", MECHANISMS)
@pytest.mark.parametrize("labels", [[1] * 8 + [0] * 24, [0] * 32], ids=["mixed", "one_class"])
def test_float32_batch_is_the_float64_batch_rounded(kind, labels, monkeypatch):
    # a mechanism fits, solves and certifies in float64 and draws the same
    # float32 noise for either dtype: a float32 batch gives the rows of the
    # same batch upcast to float64, rounded to float32, and the same solve
    # and certificate, bit for bit, where the noise goes on g's own rows
    # (the identity basis: marvell's frame at k >= d)
    config = MechanismConfig(kind=kind, **{"iso": {"t": 2.0}, "marvell": {"s": 4.0}}.get(kind, {}))
    labels = np.array(labels)
    g32 = make_rng(27).standard_normal((32, 48)).astype(np.float32)
    g32[labels == 1] += np.float32(0.5)
    solves = _record_solves(monkeypatch)
    out32 = apply_mechanism(config, _rows(g32), split_labels(labels), make_rng(28))
    g64 = g32.astype(np.float64)
    out64 = apply_mechanism(config, _rows(g64), split_labels(labels), make_rng(28))
    assert out32.perturbed.dtype == np.float32 and out64.perturbed.dtype == np.float64
    assert out32.perturbed.tobytes() == out64.perturbed.astype(np.float32).tobytes()
    assert solves[:1] == solves[1:] and out32.certificate == out64.certificate
    assert out32.noise_power == out64.noise_power and out32.fallback == out64.fallback
    assert len(solves) == 2 * (kind == "marvell" and labels.any())


def test_mechanism_config_validation():
    with pytest.raises(ValueError):
        MechanismConfig(kind="nope")
    with pytest.raises(ValueError):
        MechanismConfig(kind="iso", t=-1.0)
    with pytest.raises(ValueError):
        MechanismConfig(kind="marvell", s=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            MechanismConfig(kind="iso", t=bad)
        with pytest.raises(ValueError):
            MechanismConfig(kind="marvell", s=bad)
    g = make_rng(24).standard_normal((4, 3))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            perturb_iso(g, bad, make_rng(25))
        with pytest.raises(ValueError):  # even where the batch would fall back
            perturb_marvell(_rows(g), split_labels(np.ones(4, dtype=np.int64)), bad, make_rng(26))
    assert MechanismConfig(kind="iso", t=2.0).param == 2.0
    assert MechanismConfig(kind="marvell", s=3.0).param == 3.0
    assert MechanismConfig(kind="none").param is None


# ---------------------------------------------------------------------------
# degenerate batches: every mechanism, property-tested


# one of the batches a small or unlucky draw can give a mechanism
_DEGENERATE = ("zero_rows", "single_positive", "single_class", "d=1", "B=1")
# the hyperparameter values each kind is tried at (t=0 is iso's unperturbed exit)
_PARAMS = {"none": [None], "max_norm": [None], "iso": [0.0, 0.25, 4.0], "marvell": [0.25, 1.0, 4.0]}


@st.composite
def _degenerate_batches(draw):
    """(case, factor, labels): a float32 or float64 batch of one
    degenerate case, as its factor (coords, basis): coords itself with
    the identity basis, or, where d > 1, B x k coords of a random k x d
    basis with k < d."""
    case = draw(st.sampled_from(_DEGENERATE))
    B = 1 if case == "B=1" else draw(st.integers(2, 12))
    d = 1 if case == "d=1" else draw(st.integers(1, 6))
    k = draw(st.integers(1, d - 1)) if d > 1 and draw(st.booleans()) else d
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    coords = draw(hnp.arrays(dtype, (B, k), elements=st.floats(-4.0, 4.0, width=32)))
    basis = np.eye(d, dtype=dtype) if k == d else make_rng(k).standard_normal((k, d)).astype(dtype)
    if case == "zero_rows":  # some rows, or all of them, exactly zero
        coords[draw(hnp.arrays(bool, B))] = 0.0
    if case == "single_positive":
        labels = np.zeros(B, dtype=np.int64)
        labels[draw(st.integers(0, B - 1))] = 1
    elif case == "single_class":
        labels = np.full(B, draw(st.integers(0, 1)), dtype=np.int64)
    else:
        labels = draw(hnp.arrays(np.int64, B, elements=st.integers(0, 1)))
    return case, (coords, basis), labels


@pytest.mark.parametrize("kind", MECHANISMS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(batch=_degenerate_batches(), data=st.data())
def test_degenerate_batches(kind, batch, data):
    # no exception, shape, dtype and finiteness kept, `fallback` exactly
    # where protection's docstrings put it, the factor never written, and
    # the clean g = coords @ basis on every unperturbed exit
    case, (coords, basis), labels = batch
    param = data.draw(st.sampled_from(_PARAMS[kind]), label="param")
    config = MechanismConfig(kind, **({} if param is None else {HYPERPARAMETERS[kind]: param}))
    split = split_labels(labels)
    before = coords.tobytes()
    g = coords @ basis
    out = apply_mechanism(config, (coords, basis), split, make_rng(0))
    assert out.perturbed.shape == g.shape and out.perturbed.dtype == g.dtype
    assert np.all(np.isfinite(out.perturbed))
    assert coords.tobytes() == before
    if kind == "marvell":  # a single class, or class means that are equal
        rows = row_space(coords, basis)[0] if split[2] and split[3] else None
        unperturbed = rows is None or np.array_equal(*copying_stats(rows, labels)[:2])
        assert out.fallback == unperturbed, case
    else:
        assert not out.fallback
        unperturbed = kind == "none" or not g.any() or param == 0.0
    if unperturbed:
        assert out.perturbed.tobytes() == g.tobytes(), case
        assert out.noise_power == 0.0 and out.certificate is None
    elif kind != "max_norm":  # max_norm adds no power where every row has the largest norm
        assert out.noise_power > 0.0, case
