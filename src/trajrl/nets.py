"""Small fully connected networks with exact reverse-mode gradients.

Everything is plain numpy.  The critic loss matches both values and value
gradients, so its parameter gradient needs backprop *through* the network's
input gradient (double backprop); that path is written out explicitly below
and verified against finite differences in the tests.

Each network keeps its parameters in one contiguous vector, layer by layer:
the row-major weight matrix, then the bias.  `weights`/`biases` are views
into it; gradients and Adam moments share the layout.  Parameters are never
mutated in place: an update builds a new vector (`Mlp.with_params`).
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .buffer import SampleBatch
from .envs import CostField, ModelSpec, TimeState, cost_for, system_for
from .ilqr import Trajectory, _roll

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

# -- activations ----------------------------------------------------------------

# Each takes a hidden layer's pre-activation z, writes the activation over it,
# and returns it with its first derivative (order >= 1) and its second
# (order 2), else None.  exp(0) = 1 and expm1(0) = 0 exactly, so the ELU's
# three equal the branchwise formulas (z > 0: z, 1, 0; else expm1(z), exp(z),
# exp(z)) bit for bit.

def _elu(z, order):
    m = np.minimum(z, 0.0)
    below = z <= 0.0 if order == 2 else None
    act = np.maximum(z, 0.0, out=z)
    act += np.expm1(m, out=None if order else m)
    d1 = np.exp(m, out=m) if order else None
    return act, d1, None if below is None else d1 * below


def _tanh(z, order):
    t = np.tanh(z, out=z)
    d1 = 1.0 - t**2 if order else None
    return t, d1, -2.0 * t * d1 if order == 2 else None


_ACTIVATIONS = {"elu": _elu, "tanh": _tanh}
_HEADS = ("linear", "tanh", "std")


@dataclass(frozen=True)
class Mlp:
    """Weights/biases of one fully connected network plus its IO conventions.

    head: 'linear' (critic), 'tanh' (actor squashed to +-out_scale), or
    'std' (softplus plus a positive floor).  Inputs are normalized by
    (in_center, in_half) before the first layer when provided.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    activation: str = "elu"
    head: str = "linear"
    out_scale: Optional[np.ndarray] = None
    sigma_min: float = 1e-3
    in_center: Optional[np.ndarray] = None
    in_half: Optional[np.ndarray] = None

    def __post_init__(self):
        """Reject a malformed network; with_params skips these checks."""
        if self.activation not in _ACTIVATIONS or self.head not in _HEADS:
            raise ValueError(f"unknown activation {self.activation!r} or head {self.head!r}")
        if (self.in_center is None) != (self.in_half is None) or (
                self.head == "tanh" and self.out_scale is None):
            raise ValueError("need in_center with in_half, and out_scale for a tanh head")
        self._bind(np.concatenate([p.reshape(-1) for wb in zip(self.weights, self.biases)
                                   for p in wb], dtype=float))
        for name, size in (("out_scale", self.out_dim), ("in_center", self.in_dim),
                           ("in_half", self.in_dim)):
            if getattr(self, name) is not None:
                vec = np.asarray(getattr(self, name), float)
                object.__setattr__(self, name, vec)
                if vec.shape != (size,) or not np.isfinite(vec).all():
                    raise ValueError(f"{name} must be {size} finite values, got {vec}")
        if not (np.isfinite(self._theta).all() and math.isfinite(self.sigma_min)):
            raise ValueError("weights, biases and sigma_min must be finite")

    def _bind(self, theta: np.ndarray):
        """Own theta as the parameter vector; weights/biases become its views."""
        ws, bs = _layer_views(self, theta)
        object.__setattr__(self, "_theta", theta)
        object.__setattr__(self, "weights", tuple(ws))
        object.__setattr__(self, "biases", tuple(bs))

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def layer_sizes(self) -> list[int]:
        return [self.in_dim] + [w.shape[0] for w in self.weights]

    def flat_params(self) -> np.ndarray:
        return self._theta

    def with_params(self, theta: np.ndarray) -> "Mlp":
        """The same network around a new parameter vector (not copied)."""
        net = copy.copy(self)
        net._bind(theta)
        return net


def _layer_views(mlp: Mlp, vec: np.ndarray):
    """Lists of weight and bias views into a vector in mlp's parameter layout."""
    ws, bs, k = [], [], 0
    for rows, cols in (w.shape for w in mlp.weights):
        ws.append(vec[k:k + rows * cols].reshape(rows, cols))
        k += rows * cols
        bs.append(vec[k:k + rows])
        k += rows
    if vec.shape != (k,):
        raise ValueError(f"parameter vector of shape {vec.shape}, layout needs ({k},)")
    return ws, bs


def init_mlp(sizes, rng: np.random.Generator, activation="elu", head="linear",
             out_scale=None, sigma_min=1e-3, in_center=None, in_half=None) -> Mlp:
    """Glorot-initialized network; the output layer starts small so untrained
    actors behave like the naive zero-control warm start."""
    ws, bs = [], []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        scale = math.sqrt(2.0 / (fan_in + fan_out))
        if i == len(sizes) - 2:
            scale *= 0.1
        ws.append(rng.normal(0.0, scale, size=(fan_out, fan_in)))
        bs.append(np.zeros(fan_out))
    return Mlp(weights=tuple(ws), biases=tuple(bs), activation=activation, head=head,
               out_scale=out_scale, sigma_min=sigma_min, in_center=in_center,
               in_half=in_half)


def _normalize(mlp: Mlp, x):
    if mlp.in_center is None:
        return x
    return (x - mlp.in_center) / mlp.in_half


def _forward_caches(mlp: Mlp, xa, order: int):
    """One forward pass: each layer's input a[i] (a[0] the normalised xa), the
    hidden layers' activation derivatives d1[i] and d2[i] up to order (None
    above it), and the pre-head output o.  Returns (a, d1, d2, o)."""
    act = _ACTIVATIONS[mlp.activation]
    a, d1, d2 = [_normalize(mlp, xa)], [], []
    for w, b in zip(mlp.weights[:-1], mlp.biases[:-1]):
        z = a[-1] @ w.T
        z += b
        for out, x in zip((a, d1, d2), act(z, order)):
            out.append(x)
    o = a[-1] @ mlp.weights[-1].T
    o += mlp.biases[-1]
    return a, d1, d2, o


def _head(mlp: Mlp, o):
    """The output head's value Y and its diagonal derivative dY/dO."""
    if mlp.head == "linear":
        return o, np.ones_like(o)
    if mlp.head == "tanh":
        t = np.tanh(o)
        return mlp.out_scale * t, mlp.out_scale * (1.0 - t**2)
    sp = np.logaddexp(0.0, o)       # "std": softplus, and sigmoid = exp(o - sp)
    return mlp.sigma_min + sp, np.exp(o - sp)


def mlp_forward(mlp: Mlp, xa) -> np.ndarray:
    """Network output for a single input (d,) or a stack (..., d).

    A (B, 1, d) stack rounds each row exactly as a single input does; a
    (B, d) batch runs one matrix product per layer, whose rows may differ
    from it in the last bits.
    """
    xa = np.asarray(xa, dtype=float)
    single = xa.ndim == 1
    if xa.shape[-1] != mlp.in_dim:
        raise ValueError(f"input dim {xa.shape[-1]} != {mlp.in_dim}")
    o = _forward_caches(mlp, xa if not single else xa[None, :], 0)[-1]
    y = _head(mlp, o)[0]
    return y[0] if single else y


def _input_sweep(mlp: Mlp, d1, bsz: int):
    """Sensitivities s[i] of a scalar output to each layer's input, products
    ds[i] = d1[i] * s[i + 1], and the input normalisation's divisor (or ones)."""
    ws = mlp.weights
    last = len(ws) - 1
    s = [None] * len(ws)
    s[last] = np.broadcast_to(ws[last][0], (bsz, ws[last].shape[1]))
    ds = [None] * last
    for i in range(last - 1, -1, -1):
        ds[i] = d1[i] * s[i + 1]
        s[i] = ds[i] @ ws[i]
    return s, ds, mlp.in_half if mlp.in_center is not None else np.ones(mlp.in_dim)


def value_and_state_grad(mlp: Mlp, xa):
    """Scalar-output fast path: (values (B,), d value/d input (B, in))."""
    assert mlp.head == "linear" and mlp.out_dim == 1
    xa = np.asarray(xa, dtype=float)
    _, d1, _, o = _forward_caches(mlp, xa, 1)
    s, _, half = _input_sweep(mlp, d1, xa.shape[0])
    return o[:, 0], s[0] / half


# -- losses -------------------------------------------------------------------

def _backprop_from_output(mlp: Mlp, d1, a, delta, grads, zeta=None):
    """Accumulate into the flat vector grads the parameter gradient, given the
    cotangent on the pre-head output and the activation derivatives d1; zeta
    optionally injects extra per-layer cotangents on the pre-activations (the
    double-backprop path of the gradient-matching term)."""
    gw, gb = _layer_views(mlp, grads)
    last = len(mlp.weights) - 1
    gw[last] += delta.T @ a[last]
    gb[last] += delta.sum(axis=0)
    abar = delta @ mlp.weights[last]
    for i in range(last - 1, -1, -1):
        zbar = np.multiply(d1[i], abar, out=abar)
        if zeta is not None:
            zbar += zeta[i]
        gw[i] += zbar.T @ a[i]
        gb[i] += zbar.sum(axis=0)
        if i:       # no caller reads the input's cotangent
            abar = zbar @ mlp.weights[i]


def critic_loss(critic: Mlp, critic_target: Optional[Mlp], batch: SampleBatch,
                k_s: float):
    """Sobolev regression on values and state gradients.

    Per-sample value target: raw partial cost-to-go, plus the target critic at
    the window-end state when a target critic is given (bootstrapping) and
    that state is not terminal.  The gradient target excludes the partial
    w.r.t. time.  Returns (loss, flat parameter gradient).
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    bsz = len(batch)
    n = batch.n
    xa = batch.xa

    y = batch.v_bar
    if critic_target is not None:
        gate = batch.xa_plus_k[:, -1] < batch.t_max
        v_next = mlp_forward(critic_target, batch.xa_plus_k)[:, 0]
        y = y + np.where(gate, v_next, 0.0)

    a, d1, d2, o = _forward_caches(critic, xa, 2)
    ws = critic.weights
    last = len(ws) - 1

    # the cotangent sweep below reuses the input-gradient sweep's s and ds
    s_list, ds, half = _input_sweep(critic, d1, bsz)
    grad_x = s_list[0] / half

    v = o[:, 0]
    e_v = y - v
    e_g = batch.v_bar_x - grad_x[:, :n]
    loss = float((e_v**2).mean() + k_s * (e_g**2).sum(axis=1).mean())

    grads = np.zeros_like(critic.flat_params())
    gw = _layer_views(critic, grads)[0]

    # cotangent on the input-gradient path
    u = np.zeros((bsz, critic.in_dim))
    u[:, :n] = (-2.0 * k_s / bsz) * e_g / half[:n]
    zeta = [None] * last
    for i in range(last):
        rbar = u @ ws[i].T
        gw[i] += ds[i].T @ u
        zeta[i] = np.multiply(d2[i], s_list[i + 1], out=d2[i])
        zeta[i] *= rbar
        u = np.multiply(d1[i], rbar, out=rbar)
    gw[last] += u.sum(axis=0, keepdims=True)

    # cotangent on the value path plus the injected zeta terms
    delta = (-2.0 / bsz) * e_v[:, None]
    _backprop_from_output(critic, d1, a, delta, grads, zeta=zeta)
    return loss, grads


def actor_loss(actor: Mlp, critic: Mlp, model: ModelSpec, field: CostField,
               xa: np.ndarray):
    """One-step Q objective: mean of l(x, mu(x)) + V(f(x, mu(x)), t+1) over
    the augmented states xa, shape (B, n+1), rows [x, t].

    States already at the horizon are skipped; gradients flow through the
    running cost and through the critic via the control Jacobian of the
    dynamics.
    """
    xa = np.asarray(xa, dtype=float)
    xa = xa[xa[:, -1] < model.t_max]
    if xa.shape[0] == 0:
        raise ValueError("all states are at the horizon")
    bsz = xa.shape[0]
    x = xa[:, :-1]

    system = system_for(model)
    cost = cost_for(model, field)

    a, d1, _, o = _forward_caches(actor, xa, 1)
    u, du_do = _head(actor, o)

    l, lu = cost.stage(x, u), cost.effort_grad(u)
    x_next = system.step_x(x, u)
    _, fu = system.jacobians(x, u)
    xa_next = np.concatenate([x_next, xa[:, -1:] + 1.0], axis=1)
    v_next, g_next = value_and_state_grad(critic, xa_next)

    loss = float((l + v_next).mean())
    dq_du = lu + np.einsum("bnm,bn->bm", fu, g_next[:, :-1])

    grads = np.zeros_like(actor.flat_params())
    delta = (dq_du / bsz) * du_do
    _backprop_from_output(actor, d1, a, delta, grads)
    return loss, grads


def std_critic_loss(std_net: Mlp, err: np.ndarray, xa: np.ndarray):
    """Gaussian negative log-likelihood of the critic's errors err (B,) at the
    augmented states xa (B, n+1); the errors are constant w.r.t. the std
    network's parameters."""
    if len(err) == 0 or len(err) != len(xa):
        raise ValueError(f"{len(err)} errors for {len(xa)} states")
    bsz = len(err)

    a, d1, _, o = _forward_caches(std_net, xa, 1)
    sigma, dsigma_do = (h[:, 0] for h in _head(std_net, o))
    loss = float((np.log(sigma) + 0.5 * err**2 / sigma**2).mean())

    dl_dsigma = (1.0 / sigma - err**2 / sigma**3) / bsz
    grads = np.zeros_like(std_net.flat_params())
    delta = (dl_dsigma * dsigma_do)[:, None]
    _backprop_from_output(std_net, d1, a, delta, grads)
    return loss, grads


# -- optimizer ----------------------------------------------------------------

@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-3

    @classmethod
    def init(cls, params, lr=1e-3):
        return cls(m=np.zeros_like(params), v=np.zeros_like(params), lr=lr)


def adam_step(params: np.ndarray, state: AdamState, grads: np.ndarray):
    """Standard Adam with bias correction on one flat parameter vector;
    returns (new params, new state)."""
    if params.shape != grads.shape:
        raise ValueError(f"grad shape {grads.shape} != param shape {params.shape}")
    t = state.step + 1
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    # new vectors built in place, in the operand order of m = b1 m + (1 - b1) g,
    # v = b2 v + (1 - b2) g^2 and params - lr (m / bc1) / (sqrt(v / bc2) + eps)
    tmp = grads * (1.0 - ADAM_BETA1)
    m = state.m * ADAM_BETA1
    m += tmp
    np.multiply(grads, grads, out=tmp)
    tmp *= 1.0 - ADAM_BETA2
    v = state.v * ADAM_BETA2
    v += tmp
    np.divide(v, bc2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    new = m / bc1
    new *= state.lr
    new /= tmp
    np.subtract(params, new, out=new)
    return new, replace(state, m=m, v=v, step=t)


def polyak(target: Mlp, online: Mlp, tau: float) -> Mlp:
    theta = target.flat_params() * (1.0 - tau)
    theta += tau * online.flat_params()
    return target.with_params(theta)


# -- policy rollout -------------------------------------------------------------

def actor_rollout(actor: Mlp, model: ModelSpec, field: CostField,
                  starts: list[TimeState]) -> list[Trajectory]:
    """Closed-loop rollouts u_k = mu(x_k, t_k) of every start to the horizon.

    All starts roll as one stack through the solver's loop (`ilqr._roll`) from
    the earliest start time, each held until its own, so a rollout that leaves
    the finite numbers is marked with inf step costs and never stepped again.
    The actor sees a (B, 1, d) stack, so each row rolls out as it would alone.
    """
    system, cost = system_for(model), cost_for(model, field)
    t_min = min(s.t for s in starts)
    first = np.array([s.t - t_min for s in starts])

    def policy(k, x):
        xa = np.column_stack([x, np.full(len(x), float(t_min + k))])
        return mlp_forward(actor, xa[:, None])[:, 0]

    X, U, sc = _roll(system, cost, model.u_bound, np.stack([s.x for s in starts]),
                     model.t_max - t_min, policy, first)
    return [Trajectory.row(X, U, sc, r, f, t_min + f) for r, f in enumerate(first)]


# -- checkpoints ----------------------------------------------------------------

def save_checkpoint(path, mlp: Mlp, kind: str, model_name: str, config_hash: str):
    """Write the network to path whole or not at all: through a sibling temp
    file, synced and then renamed over it, so that a save that fails keeps
    the previous checkpoint."""
    doc = {
        "kind": kind,
        "model": model_name,
        "layer_sizes": mlp.layer_sizes,
        "activation": mlp.activation,
        "head": mlp.head,
        "out_scale": None if mlp.out_scale is None else mlp.out_scale.tolist(),
        "sigma_min": mlp.sigma_min,
        "norm_center": None if mlp.in_center is None else mlp.in_center.tolist(),
        "norm_half": None if mlp.in_half is None else mlp.in_half.tolist(),
        "weights": [w.reshape(-1).tolist() for w in mlp.weights],
        "biases": [b.tolist() for b in mlp.biases],
        "config_hash": config_hash,
    }
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> tuple[Mlp, dict]:
    with open(path) as fh:
        doc = json.load(fh)
    # every layer's lists must match layer_sizes before any vector is built; a
    # missing or extra list reads as an empty one
    sizes, ws, bs = doc["layer_sizes"], [], []
    for i in range(max(len(sizes) - 1, len(doc["weights"]), len(doc["biases"]))):
        w, b = (np.asarray(doc[k][i] if i < len(doc[k]) else [], float)
                for k in ("weights", "biases"))
        if (i >= len(sizes) - 1 or w.shape != (sizes[i + 1] * sizes[i],)
                or b.shape != (sizes[i + 1],)):
            raise ValueError(f"layer {i}: weights of shape {w.shape} and biases of "
                             f"shape {b.shape} do not fit layer_sizes {sizes}")
        ws.append(w.reshape(sizes[i + 1], sizes[i]))
        bs.append(b)
    mlp = Mlp(weights=tuple(ws), biases=tuple(bs), activation=doc["activation"],
              head=doc["head"], out_scale=doc["out_scale"], sigma_min=doc["sigma_min"],
              in_center=doc["norm_center"], in_half=doc["norm_half"])
    meta = {k: doc[k] for k in ("kind", "model", "config_hash")}
    return mlp, meta
