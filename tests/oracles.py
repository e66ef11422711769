"""Independent test oracles: brute-force pairwise AUC, dense-grid search
over the solver's feasible hyperplane, the dense closed-form
symmetrized Gaussian KL, central finite differences, and the Bayes
posterior of the toy 1-d mixture.  These deliberately share no code
with the implementations they check.

A second section keeps earlier, plainer forms of hot-path functions
(the np.unique midrank AUC, the per-matrix leak audit that ranked each
received matrix as it came, the out-of-place Adam step, the per-layer
parameter gradients, the batch statistics with their repeated copies,
marvell's assembly with a fresh gather of each class's rows for its
noise, in a QR frame of the row space where the package takes a
Cholesky one).  The package's faster forms must equal them bit for bit,
and marvell's row-space assembly to its rounding.  It also keeps
marvell's earlier solver: a coordinate descent whose golden-section
line searches evaluate the whole objective at every point.  The
package's Newton solve must reach its objective or better.

The last section holds gradient and audit helpers that tests use but
the package does not.  They are built from the package's own backward
passes and audit, so they are conveniences, not independent
oracles.
"""

import math

import numpy as np

from splitsim import marvell
from splitsim.attacks import ScoreParts, leak_auc
from splitsim.marvell import BatchStats, objective
from splitsim.numeric import sample_structured_gaussian_batch
from splitsim.model import (
    ACTIVATIONS,
    _backward_layers,
    backprop_nonlabel,
    label_party_gradients,
)


def brute_force_auc(scores, labels):
    """O(n^2) pairwise count: concordant pairs plus half the ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def make_stats(u, v, dsq, p, d, rng=None):
    """BatchStats with a concrete mean gap of squared norm dsq."""
    if rng is None:
        delta = np.zeros(d)
        delta[0] = np.sqrt(dsq)
    else:
        raw = rng.standard_normal(d)
        delta = raw / np.linalg.norm(raw) * np.sqrt(dsq)
    return BatchStats(
        p=p,
        v=v,
        u=u,
        delta_g=delta,
        delta_norm_sq=float(dsq),
        d=d,
    )


def solution_objective(sol, stats):
    """marvell's objective at a LambdaSolution's four eigenvalues."""
    return objective((sol.lam1_pos, sol.lam2_pos, sol.lam1_neg, sol.lam2_neg), stats)


def grid_search_objective(stats, P, n=100):
    """Dense-grid oracle for the 4-variable problem (d >= 2).

    Distributes the power budget over the three free eigenvalues via a
    barycentric n^3 grid on the active hyperplane, filters the ordering
    constraints, and returns the smallest objective value found.
    """
    d = stats.d
    assert d >= 2
    u = max(stats.u, 1e-12)
    v = max(stats.v, 1e-12)
    dsq = stats.delta_norm_sq
    p = stats.p
    w = np.array([p, p * (d - 1.0), 1.0 - p, (1.0 - p) * (d - 1.0)])
    free = [0, 2, 3] if stats.u < stats.v else [0, 1, 2]

    ax = np.arange(n, dtype=np.float64)
    i, j, k = np.meshgrid(ax, ax, ax, indexing="ij")
    total = i + j + k
    mask = total > 0
    fr = np.stack([i[mask], j[mask], k[mask]]) / total[mask]

    lam = np.zeros((4, fr.shape[1]))
    for axis, idx in enumerate(free):
        lam[idx] = fr[axis] * P / w[idx]

    feas = (lam[1] <= lam[0] * (1 + 1e-12)) & (lam[3] <= lam[2] * (1 + 1e-12))
    l11, l21, l10, l20 = lam[0][feas], lam[1][feas], lam[2][feas], lam[3][feas]
    obj = (
        (d - 1.0) * ((l20 + u) / (l21 + v) + (l21 + v) / (l20 + u))
        + (l10 + u + dsq) / (l11 + v)
        + (l11 + v + dsq) / (l10 + u)
    )
    # the all-zero corner (P unused) is not on the hyperplane, but P=0
    # degenerates to it; include the zero point only when P == 0
    if P == 0.0:
        return (d - 1.0) * (u / v + v / u) + (u + dsq) / v + (v + dsq) / u
    return float(obj.min())


def dense_sum_kl(lams, stats):
    """Symmetrized KL between the two perturbed Gaussians with dense
    d x d covariances (slogdet/solve based), the positive class centred
    at delta_g and the negative class at 0."""
    l11, l21, l10, l20 = lams
    d = stats.d
    dsq = stats.delta_norm_sq
    outer = np.outer(stats.delta_g, stats.delta_g)
    sigma1 = (l11 - l21) / dsq * outer + l21 * np.eye(d)
    sigma0 = (l10 - l20) / dsq * outer + l20 * np.eye(d)
    c1 = sigma1 + max(stats.v, 1e-12) * np.eye(d)
    c0 = sigma0 + max(stats.u, 1e-12) * np.eye(d)
    pos_mean, neg_mean = stats.delta_g, np.zeros(d)

    def kl(m_from, c_from, m_to, c_to):
        sol = np.linalg.solve(c_to, c_from)
        quad = (m_to - m_from) @ np.linalg.solve(c_to, m_to - m_from)
        _, ld_to = np.linalg.slogdet(c_to)
        _, ld_from = np.linalg.slogdet(c_from)
        return 0.5 * (np.trace(sol) + quad - d + ld_to - ld_from)

    return float(kl(pos_mean, c1, neg_mean, c0) + kl(neg_mean, c0, pos_mean, c1))


def finite_difference_gradient(fn, x, h=1e-5):
    """Central-difference gradient of a scalar function of a vector:
    (fn(x + h e_i) - fn(x - h e_i)) / (2h) per coordinate, O(h^2)
    accurate."""
    if h <= 0:
        raise ValueError(f"h must be > 0, got {h!r}")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step.flat[i] = h
        grad.flat[i] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return grad


def bayes_posterior_toy_1d(x):
    """Optimal P(y=1 | x) for the 1-d mixture: 10/11 on [0,1], 0 on (1,2]."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x <= 1.0, 10.0 / 11.0, 0.0)


# ---------------------------------------------------------------------------
# bitwise references: earlier forms of the package's hot-path functions


def midrank_auc(scores, labels):
    """Mann-Whitney U from np.unique midranks, divided by n+ n-."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    n_neg = scores.shape[0] - n_pos
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    cum = np.cumsum(counts)
    midranks = cum - (counts - 1) / 2.0
    ranks = midranks[inverse]
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def per_matrix_leak_auc(received, split, oracle):
    """(norm AUC, cosine AUC) of one received matrix against its batch's
    two-class `split_labels` split, ranked on its own by `midrank_auc`:
    the rows' norms np.sqrt(np.vecdot(R, R)), and their cosines with the
    oracle row, one product and one divide that leaves zero-norm rows at
    0.  A zero oracle has no direction, so its cosine AUC is None."""
    pos = split[0]
    norms = np.sqrt(np.vecdot(received, received))
    norm_auc = midrank_auc(norms, pos)
    oracle_norm = np.sqrt(oracle.dot(oracle))
    if not oracle_norm > 0.0:
        return norm_auc, None
    dots = received @ oracle
    scores = np.divide(dots, norms * oracle_norm, out=np.zeros_like(dots), where=norms > 0.0)
    return norm_auc, midrank_auc(scores, pos)


def masked_cosine_scores(gradients, g_plus):
    """Cosine to g_plus of every nonzero row, from a copy of those rows of
    the whole batch's product with g_plus, over each row's np.linalg.norm;
    zero rows score 0."""
    np_ = np.linalg.norm(g_plus)
    norms = np.array([np.linalg.norm(row) for row in gradients])
    out = np.zeros(gradients.shape[0], dtype=np.result_type(gradients, g_plus))
    nz = norms > 0.0
    out[nz] = (gradients @ g_plus)[nz] / (norms[nz] * np_)
    return out


class OutOfPlaceAdam:
    """Adam (b1 0.9, b2 0.999, eps 1e-8) with each step written as one
    out-of-place expression."""

    def __init__(self, lr):
        self.lr = lr
        self.t = 0
        self._m = {}
        self._v = {}

    def update(self, layers, grads):
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for idx, (layer, (dW, db)) in enumerate(zip(layers, grads)):
            if idx not in self._m:
                self._m[idx] = (np.zeros_like(layer.W), np.zeros_like(layer.b))
                self._v[idx] = (np.zeros_like(layer.W), np.zeros_like(layer.b))
            mW, mb = self._m[idx]
            vW, vb = self._v[idx]
            mW[...] = b1 * mW + (1 - b1) * dW
            mb[...] = b1 * mb + (1 - b1) * db
            vW[...] = b2 * vW + (1 - b2) * dW * dW
            vb[...] = b2 * vb + (1 - b2) * db * db
            layer.W -= self.lr * (mW / c1) / (np.sqrt(vW / c2) + eps)
            layer.b -= self.lr * (mb / c1) / (np.sqrt(vb / c2) + eps)


def per_layer_gradients(net, state, y):
    """[(dW, db)] per layer, f then h, of one clean split backward pass,
    each formed as an array of its own (`prev.T @ dz` and the row sum of
    dz) and then divided by B in place."""
    B = state.X.shape[0]
    delta = (state.probs - np.asarray(y, dtype=state.probs.dtype))[:, None]
    layers = net.f_layers + net.h_layers
    inputs = [state.X] + state.f_act + state.h_act[:-1]
    outputs = state.f_act + state.h_act
    grads = []
    for layer, prev, act in reversed(list(zip(layers, inputs, outputs))):
        deriv = ACTIVATIONS[layer.spec.activation][1]
        dz = delta if deriv is None else delta * deriv(act)
        pair = (prev.T @ dz, np.add.reduce(dz, axis=0))
        for g in pair:
            g /= B
        grads.insert(0, pair)
        delta = dz @ layer.W.T
    return grads


def _objective4(l11, l21, l10, l20, d, u, v, dsq):
    """marvell's ratio objective with floored variances u, v."""
    return (
        (d - 1.0) * ((l20 + u) / (l21 + v) + (l21 + v) / (l20 + u))
        + (l10 + u + dsq) / (l11 + v)
        + (l11 + v + dsq) / (l10 + u)
    )


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0
# rows gamma of the eigenvalue-ordering constraints gamma . lam <= 0,
# i.e. lam[1] <= lam[0] and lam[3] <= lam[2]
_ORDER_ROWS = ((-1.0, 1.0, 0.0, 0.0), (0.0, 0.0, -1.0, 1.0))


def _segment_bounds(lam, i, j, w, R):
    """Feasible t-range for the move lam[i]=t, lam[j]=(R - w[i] t)/w[j].

    Intersects t >= 0, lam[j] >= 0 and the two ordering rows.
    """
    lo = 0.0
    hi = R / w[i]
    for gamma in _ORDER_ROWS:
        gj = gamma[j]
        alpha = gamma[i] - gj * w[i] / w[j]
        beta = gj * R / w[j]
        for k in range(4):
            if k != i and k != j:
                beta += gamma[k] * lam[k]
        if alpha > 1e-300:
            hi = min(hi, -beta / alpha)
        elif alpha < -1e-300:
            lo = max(lo, -beta / alpha)
    return lo, hi


def closure_line_min(lam, i, j, w, R, d, u, v, dsq, tol):
    """Golden-section line search whose objective closure writes lam[i]
    and lam[j] and evaluates every term at each point."""
    lo, hi = _segment_bounds(lam, i, j, w, R)
    wi = w[i]
    wj = w[j]
    if hi <= lo:
        t = max(lo, min(hi, lo))
        lam[i] = t
        lj = (R - wi * t) / wj
        lam[j] = 0.0 if lj < 0.0 else lj
        return
    dm1 = d - 1.0

    def f(t):
        lam[i] = t
        lj = (R - wi * t) / wj
        lam[j] = 0.0 if lj < 0.0 else lj
        l11, l21, l10, l20 = lam
        x = l20 + u
        y = l21 + v
        return dm1 * (x / y + y / x) + (l10 + u + dsq) / (l11 + v) + (l11 + v + dsq) / (l10 + u)

    width = hi - lo
    tol_w = max(tol * width, 1e-10)
    a = lo
    b = hi
    c = a + _INVPHI2 * width
    e = a + _INVPHI * width
    fc = f(c)
    fe = f(e)
    while b - a > tol_w:
        if fc < fe:
            b = e
            e = c
            fe = fc
            c = a + _INVPHI2 * (b - a)
            fc = f(c)
        else:
            a = c
            c = e
            fc = fe
            e = a + _INVPHI * (b - a)
            fe = f(e)
    t = 0.5 * (a + b)
    lam[i] = t
    lj = (R - wi * t) / wj
    lam[j] = 0.0 if lj < 0.0 else lj


def closure_solve_lambdas(d, u, v, dsq, p, P, tol, max_sweeps, pin_pos):
    """marvell's earlier coordinate descent on the power hyperplane with
    golden-section line searches (closure_line_min): lam[1] is pinned at
    zero when pin_pos, else lam[3].  Returns (lam[4], objective,
    converged, sweeps_used)."""
    lam = [0.0, 0.0, 0.0, 0.0]
    w = (p, p * (d - 1.0), 1.0 - p, (1.0 - p) * (d - 1.0))

    if P <= 0.0:
        return lam, _objective4(0.0, 0.0, 0.0, 0.0, d, u, v, dsq), True, 0

    if d == 1.0:
        lam[0] = P / (2.0 * w[0])
        lam[2] = P / (2.0 * w[2])
        closure_line_min(lam, 0, 2, w, P, d, u, v, dsq, tol)
        return lam, _objective4(*lam, d, u, v, dsq), True, 1

    free = (0, 2, 3) if pin_pos else (0, 1, 2)
    moves = tuple((k, *(m for m in free if m != k)) for k in free)
    for k in free:
        lam[k] = (P / 3.0) / w[k]

    prev = _objective4(*lam, d, u, v, dsq)
    converged = False
    sweeps = 0
    for _ in range(max_sweeps):
        sweeps += 1
        for f_idx, i, j in moves:
            R = P - w[f_idx] * lam[f_idx]
            if R < 0.0:
                R = 0.0
            closure_line_min(lam, i, j, w, R, d, u, v, dsq, tol)
        cur = _objective4(*lam, d, u, v, dsq)
        if prev - cur <= tol * max(abs(prev), 1e-300):
            converged = True
            break
        prev = cur

    drift = P - (w[0] * lam[0] + w[1] * lam[1] + w[2] * lam[2] + w[3] * lam[3])
    best = free[0]
    for k in free[1:]:
        if w[k] * lam[k] > w[best] * lam[best]:
            best = k
    lam[best] = max(lam[best] + drift / w[best], 0.0)

    return lam, _objective4(*lam, d, u, v, dsq), converged, sweeps


def copying_stats(g, labels):
    """(pos_mean, neg_mean, v, u) with a fresh class copy per use."""
    g = np.asarray(g, dtype=np.float64)
    pos = np.asarray(labels) == 1
    B, d = g.shape
    n_pos = int(pos.sum())
    n_neg = B - n_pos
    pos_mean = g[pos].mean(axis=0)
    neg_mean = g[~pos].mean(axis=0)
    v = float(((g[pos] - pos_mean) ** 2).sum() / (d * n_pos))
    u = float(((g[~pos] - neg_mean) ** 2).sum() / (d * n_neg))
    return pos_mean, neg_mean, v, u


def gathering_marvell(factor, labels, s, rng):
    """(perturbed, certificate, noise_power, solution) of a mixed batch
    g = coords @ basis, given as factor = (coords, basis), basis k x d.

    Where the factor holds fewer values than g (B k + k d < B d): fit the
    rows' coordinates in an orthonormal frame Q (d x k) of basis's row
    space, taken from a QR of basis^T with R's diagonal made positive,
    so that Q^T = L^-1 basis for L the Cholesky factor of basis basis^T;
    then add each class's noise block in d dimensions, as block @ Q^T,
    to its rows of the float64 product coords @ basis, and round once.
    Elsewhere: fit g's rows, solve, then add each class's noise block to
    its rows of a float64 copy of g and round the sums once to the
    batch's dtype."""
    coords, basis = factor
    B, (k, d) = coords.shape[0], basis.shape
    pos = np.asarray(labels) == 1
    in_row_space = k * (B + d) < B * d
    if not in_row_space:
        rows = g = coords @ basis
    else:
        Q, R = np.linalg.qr(basis.T.astype(np.float64))
        signs = np.sign(np.diag(R))
        Q, R = Q * signs, R * signs[:, None]
        rows = coords.astype(np.float64) @ R.T
        g = coords.astype(np.float64) @ basis.astype(np.float64)
    stats = marvell.estimate_stats(rows, labels)
    sol = marvell.solve(stats, marvell.power_budget(s, stats))
    pos_cov, neg_cov = marvell.build_covariances(sol, stats)
    perturbed = g.astype(np.float64)
    for mask, cov in ((pos, pos_cov), (~pos, neg_cov)):
        block = sample_structured_gaussian_batch(cov, rng, int(mask.sum()))
        perturbed[mask] += block @ Q.T if in_row_space else block
    return (perturbed.astype(coords.dtype), marvell.make_certificate(sol, stats),
            marvell.noise_power(sol, stats), sol)


# ---------------------------------------------------------------------------
# test-only gradient and audit helpers (built from the package's own passes)


def audit_matrix(received, labels, oracle):
    """(norm AUC, cosine AUC) of one received matrix by the package's
    audit: a `ScoreParts` of one batch, one `leak_auc` call."""
    parts = ScoreParts(1, received.shape[0], received.dtype)
    parts.add(received, oracle, np.asarray(labels) == 1)
    norm_aucs, cos_aucs = leak_auc(*parts.filled())
    return norm_aucs[0], cos_aucs[0]


def cut_gradients(state, y):
    """The clean per-example cut gradients, coords @ basis from the
    label party's factor: the product `protection.apply_mechanism`
    forms for an unperturbed batch."""
    coords, basis = label_party_gradients(state, y)
    return coords @ basis


def compute_gradients(net, state, y):
    """A copy of `net.grad` after one clean split backward pass: the
    batch-mean parameter gradients of both parties in `net.params`
    order, which no later pass overwrites."""
    backprop_nonlabel(net, state, cut_gradients(state, y))
    return net.grad.copy()


def h_feature_gradients(net, state):
    """Rows grad_z h(z)|_{z=f(X_j)} (upstream 1 per example)."""
    ones = np.ones((state.logits.shape[0], 1))
    return _backward_layers(net.h_layers, state.h_act, state.cut_features, ones)[0]
