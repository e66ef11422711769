"""Two-party split model: feature network f (non-label party), logit
head h (label party), logistic loss, and the split backward pass: one
pass down h for the label party, one pass down f for the non-label
party.

Every function computes in the dtype of the net's parameters,
`RUN_DTYPE` unless a net is built in float64, so a net's forward pass,
both backward passes and its optimizer state all share one precision.

The cut layer is the boundary between f and h.  Per-example gradients
of the loss with respect to the cut features (the rows the label party
communicates back) are first-class here; batch averaging happens only
at the parameter-gradient level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# The dtype of a run's model: features, parameters, activations, cut and
# first-layer gradients, the received rows the audit scores and the
# optimizer's moments.  The mechanisms fit, solve and certify in float64,
# and draw and add their noise in float32.
RUN_DTYPE = np.float32

# Adam's decay rates b1, b2 and its denominator's eps
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) as 1 / (1 + e) where z >= 0 and e / (1 + e)
    elsewhere, with e = exp(-|z|) <= 1: it cannot overflow at any z,
    float32 included, and is exactly 0.5 at z = 0."""
    e = np.exp(-np.abs(z))
    out = np.maximum(e, z >= 0)  # the numerator: 1 where z >= 0, else e
    e += 1.0
    out /= e
    return out


# name -> (function, derivative in terms of the function's output a):
# no derivative reads the pre-activation, so the forward pass keeps
# only the activations.  A function may overwrite its argument (relu,
# tanh and identity do; the forward pass hands each its fresh matmul
# output).  For relu, a > 0 exactly where z > 0, and the mask is cast to
# a's dtype as exact 1.0/0.0: a float-by-float multiply is faster than
# one that casts a bool operand inside its loop, and gives the same bits.
# Identity's derivative is None, as delta * 1.0 == delta.
ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0, out=z), lambda a: (a > 0.0).astype(a.dtype)),
    "sigmoid": (_sigmoid, lambda a: a * (1.0 - a)),
    "tanh": (lambda z: np.tanh(z, out=z), lambda a: 1.0 - a * a),
    "identity": (lambda z: z, None),
}


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "relu"


@dataclass
class Layer:
    spec: LayerSpec
    W: np.ndarray  # (in_dim, out_dim)
    b: np.ndarray  # (out_dim,)
    dW: np.ndarray = field(default=None, init=False, repr=False)  # views of the net's grad
    db: np.ndarray = field(default=None, init=False, repr=False)


def _init_layer(spec: LayerSpec, rng: np.random.Generator, dtype) -> Layer:
    # uniform(-sqrt(6/(in+out)), +sqrt(6/(in+out))), drawn in float64 and
    # rounded to dtype, so every dtype takes the same draws
    limit = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
    W = rng.uniform(-limit, limit, size=(spec.in_dim, spec.out_dim)).astype(dtype)
    b = np.zeros(spec.out_dim, dtype=dtype)
    return Layer(spec, W, b)


@dataclass
class SplitNet:
    """Composition h(f(x)) split at the cut layer.

    f_layers ends at the cut features; h_layers map the cut features
    to a single logit (last layer is identity, out_dim 1).

    All parameters live in one contiguous vector, `params`: layer by
    layer, f then h, each layer's W (row-major) followed by its b.  Its
    dtype is float32 when every layer array is float32, else float64,
    and every function of this module computes in it.  On construction
    the layers' W and b are copied into it and rebound to views of it,
    so an optimizer steps every parameter at once and writes through
    `layer.W[...]` reach `params`.  Rebinding `layer.W` or `layer.b`
    would detach it from `params`, so a layer belongs to one net: a
    second net built from it takes it over.  `grad` holds the gradients
    likewise, as each layer's `dW` and `db`: each party's backward pass
    overwrites its slice, `f_grad` or `h_grad`.
    """

    f_layers: list[Layer]
    h_layers: list[Layer]
    params: np.ndarray = field(init=False, repr=False, compare=False)
    grad: np.ndarray = field(init=False, repr=False, compare=False)
    f_grad: np.ndarray = field(init=False, repr=False, compare=False)
    h_grad: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        layers = self.f_layers + self.h_layers
        arrays = [a for layer in layers for a in (layer.W, layer.b)]
        self.params = np.empty(sum(a.size for a in arrays), np.result_type(np.float32, *arrays))
        self.grad = np.zeros_like(self.params)
        buffers, pos = (self.params, self.grad), 0
        for layer in layers:
            W, b = layer.W, layer.b
            layer.W, layer.dW = (v[pos : pos + W.size].reshape(W.shape) for v in buffers)
            pos += W.size
            layer.b, layer.db = (v[pos : pos + b.size] for v in buffers)
            pos += b.size
            layer.W[...], layer.b[...] = W, b
            if layer is self.f_layers[-1]:
                self.f_grad, self.h_grad = self.grad[:pos], self.grad[pos:]

    @property
    def in_dim(self) -> int:
        return self.f_layers[0].spec.in_dim

    @staticmethod
    def build(
        in_dim: int,
        hidden_dims: list[int],
        activations: list[str],
        cut_index: int,
        rng: np.random.Generator,
        dtype=RUN_DTYPE,
    ) -> "SplitNet":
        """Stack of hidden layers plus a final linear logit; the first
        cut_index hidden layers belong to f, the rest (possibly none)
        plus the logit layer belong to h.  The parameters are `dtype`."""
        dims = [in_dim] + list(hidden_dims)
        specs = [
            LayerSpec(dims[i], dims[i + 1], activations[i])
            for i in range(len(hidden_dims))
        ]
        specs.append(LayerSpec(dims[-1], 1, "identity"))  # logit layer
        layers = [_init_layer(s, rng, dtype) for s in specs]
        return SplitNet(f_layers=layers[:cut_index], h_layers=layers[cut_index:])


@dataclass
class ForwardState:
    """Cached forward pass for one batch (needed by both backward passes)."""

    net: SplitNet
    X: np.ndarray
    f_act: list[np.ndarray]  # activations a per f layer; f_act[-1] = cut features
    h_act: list[np.ndarray]
    logits: np.ndarray  # (B,)
    probs: np.ndarray  # sigmoid(logits)

    @property
    def cut_features(self) -> np.ndarray:
        return self.f_act[-1]


def _forward_layers(layers: list[Layer], x: np.ndarray) -> list[np.ndarray]:
    acts, a = [], x
    for layer in layers:
        z = a @ layer.W
        z += layer.b
        a = ACTIVATIONS[layer.spec.activation][0](z)
        acts.append(a)
    return acts


def forward(net: SplitNet, X: np.ndarray) -> ForwardState:
    """Full forward pass, caching every intermediate activation; X is
    taken in the net's dtype."""
    X = np.asarray(X, dtype=net.params.dtype)
    if X.ndim != 2 or X.shape[1] != net.in_dim:
        raise ValueError(f"X must be (B, {net.in_dim}), got {X.shape}")
    f_act = _forward_layers(net.f_layers, X)
    h_act = _forward_layers(net.h_layers, f_act[-1])
    logits = h_act[-1][:, 0]
    return ForwardState(net, X, f_act, h_act, logits, _sigmoid(logits))


def logistic_loss(logit, y):
    """Cross-entropy in the stable softplus form log(1+exp(-l)) + (1-y) l.

    Accepts scalars or arrays; safe for |logit| up to ~1e3.
    """
    logit = np.asarray(logit, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = np.logaddexp(0.0, -logit) + (1.0 - y) * logit
    return float(out) if out.ndim == 0 else out


def _backward_layers(layers, acts, input_act, delta, grad=None, to_input=True):
    """Propagate upstream gradient `delta` (w.r.t. the final activation)
    back through `layers`; returns (delta, dz), per example: delta at
    the input of `layers` or, with to_input=False, at the output of
    `layers[0]`, and dz at `layers[0]`'s pre-activation (delta itself
    when `layers` is empty).

    `grad` is the slice of the net's `grad` that holds the layers' `dW`
    and `db` views: each layer's parameter gradient is written into its
    views, then the slice is divided by B once, to batch means.  With
    grad=None no parameter gradient is formed and no `grad` is written.
    """
    dz = delta
    for k in range(len(layers) - 1, -1, -1):
        layer = layers[k]
        deriv = ACTIVATIONS[layer.spec.activation][1]
        dz = delta if deriv is None else delta * deriv(acts[k])
        if grad is not None:
            np.matmul(acts[k - 1].T if k > 0 else input_act.T, dz, out=layer.dW)
            np.add.reduce(dz, axis=0, out=layer.db)
        if k > 0 or to_input:
            delta = dz @ layer.W.T
    if grad is not None:
        grad /= delta.shape[0]
    return delta, dz


def label_party_gradients(state: ForwardState, y: np.ndarray):
    """The per-example cut gradients' factor (coords, basis).  The pass
    also writes h's batch-mean parameter gradients into `net.h_grad`.

    Row j of the cut gradients is the gradient of example j's own loss
    w.r.t. its cut features: (prob_j - y_j) * grad_z h(z)|_{z = f(X_j)}.
    It is row j of coords @ basis: coords (B x k) is the gradient at h's
    first layer's pre-activation, and basis (k x d) that layer's W.T.
    The B x d product is left to the mechanism
    (`protection.apply_mechanism`), which forms the matrix the
    non-label party receives.
    """
    net = state.net
    upstream = (state.probs - np.asarray(y, dtype=state.probs.dtype))[:, None]
    _, coords = _backward_layers(
        net.h_layers, state.h_act, state.cut_features, upstream, net.h_grad, False
    )
    return coords, net.h_layers[0].W.T


def backprop_nonlabel(net: SplitNet, state: ForwardState, received: np.ndarray):
    """Continue backprop from the (possibly perturbed) received cut-layer
    gradient matrix, in one pass down f.

    Returns the per-example gradients at the first hidden layer's
    activation, and writes f's batch-mean parameter gradients into
    `net.f_grad`.  Everything is linear in `received`, so unbiased
    received gradients give unbiased parameter gradients.
    """
    received = np.asarray(received, dtype=net.params.dtype)
    return _backward_layers(net.f_layers, state.f_act, state.X, received, net.f_grad, False)[0]


def first_layer_gradient_row(state: ForwardState, j: int, cut_row: np.ndarray) -> np.ndarray:
    """Example j's gradient at the first hidden layer's activation, given
    its cut-layer gradient row: row j of backprop_nonlabel's first-layer
    gradients, computed by the same pass on row j alone, which forms no
    parameter gradients and leaves `net.grad` as it is."""
    acts = [a[j : j + 1] for a in state.f_act[1:]]
    delta = np.asarray(cut_row, dtype=state.net.params.dtype)[None, :]
    return _backward_layers(state.net.f_layers[1:], acts, None, delta)[0][0]


class Adam:
    """Adam with bias correction; moment state persists across calls.

    One step updates the flat moment vectors and the flat parameter
    vector in place, in the operand order of the textbook expressions
    m = b1 m + (1-b1) g, v = b2 v + ((1-b2) g) g and
    p -= lr (m/c1) / (sqrt(v/c2) + eps).  Every operation is
    elementwise, so stepping all parameters as one vector gives the
    same bits as stepping them one array at a time.
    """

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self._m: np.ndarray | None = None
        self._v: np.ndarray | None = None

    def update(self, params: np.ndarray, grad: np.ndarray) -> None:
        """One in-place step of the flat parameter vector."""
        self.t += 1
        b1, b2, lr, eps = _BETA1, _BETA2, self.lr, _EPS
        c1, c2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        if self._m is None:
            self._m, self._v = np.zeros_like(params), np.zeros_like(params)
        m, v = self._m, self._v
        m *= b1
        m += (1 - b1) * grad
        v *= b2
        gg = (1 - b2) * grad
        gg *= grad
        v += gg
        step = m / c1
        step *= lr
        den = np.divide(v, c2, out=gg)  # gg is spent; reuse its buffer
        np.sqrt(den, out=den)
        den += eps
        step /= den
        params -= step


def apply_update(net: SplitNet, optimizer) -> None:
    """In-place parameter update of both parties: the optimizer steps
    `net.params` with `net.grad`, which this iteration's two backward
    passes wrote."""
    optimizer.update(net.params, net.grad)
