"""Small fully connected networks with exact reverse-mode gradients.

Everything is plain numpy.  The critic loss matches both values and value
gradients, so its parameter gradient needs backprop *through* the network's
input gradient (double backprop); that path is written out explicitly below
and verified against finite differences in the tests.

Parameter containers are immutable by convention: updates build new arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .buffer import SampleBatch
from .envs import CostField, ModelSpec, TimeState, cost_for, system_for
from .ilqr import Trajectory, _cost_trajectory


# -- activations (value, first, second derivative) ----------------------------

def _elu(z):
    neg = np.minimum(z, 0.0)
    return np.where(z > 0.0, z, np.expm1(neg))


def _elu_d1(z):
    return np.where(z > 0.0, 1.0, np.exp(np.minimum(z, 0.0)))


def _elu_d2(z):
    return np.where(z > 0.0, 0.0, np.exp(np.minimum(z, 0.0)))


def _tanh_d1(z):
    return 1.0 - np.tanh(z) ** 2


def _tanh_d2(z):
    t = np.tanh(z)
    return -2.0 * t * (1.0 - t**2)


_ACTIVATIONS = {
    "elu": (_elu, _elu_d1, _elu_d2),
    "tanh": (np.tanh, _tanh_d1, _tanh_d2),
}


def _softplus(z):
    return np.logaddexp(0.0, z)


def _sigmoid(z):
    return np.exp(z - np.logaddexp(0.0, z))


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

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def layer_sizes(self) -> list[int]:
        return [self.in_dim] + [w.shape[0] for w in self.weights]

    def flat_params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def with_params(self, params: list[np.ndarray]) -> "Mlp":
        ws = tuple(params[2 * i] for i in range(len(self.weights)))
        bs = tuple(params[2 * i + 1] for i in range(len(self.biases)))
        return replace(self, weights=ws, biases=bs)


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
    return Mlp(weights=tuple(ws), biases=tuple(bs), activation=activation,
               head=head,
               out_scale=None if out_scale is None else np.asarray(out_scale, float),
               sigma_min=sigma_min,
               in_center=None if in_center is None else np.asarray(in_center, float),
               in_half=None if in_half is None else np.asarray(in_half, float))


def _normalize(mlp: Mlp, x):
    if mlp.in_center is None:
        return x
    return (x - mlp.in_center) / mlp.in_half


def _forward_caches(mlp: Mlp, xa):
    act = _ACTIVATIONS[mlp.activation][0]
    a = [_normalize(mlp, xa)]
    zs = []
    for i in range(len(mlp.weights) - 1):
        z = a[-1] @ mlp.weights[i].T + mlp.biases[i]
        zs.append(z)
        a.append(act(z))
    o = a[-1] @ mlp.weights[-1].T + mlp.biases[-1]
    return zs, a, o


def _head_value(mlp: Mlp, o):
    if mlp.head == "linear":
        return o
    if mlp.head == "tanh":
        return mlp.out_scale * np.tanh(o)
    if mlp.head == "std":
        return mlp.sigma_min + _softplus(o)
    raise ValueError(f"unknown head '{mlp.head}'")


def _head_chain(mlp: Mlp, o):
    """Diagonal dY/dO of the output head."""
    if mlp.head == "linear":
        return np.ones_like(o)
    if mlp.head == "tanh":
        return mlp.out_scale * (1.0 - np.tanh(o) ** 2)
    if mlp.head == "std":
        return _sigmoid(o)
    raise ValueError(f"unknown head '{mlp.head}'")


def mlp_forward(mlp: Mlp, xa) -> np.ndarray:
    """Network output for a single input (d,) or a batch (B, d)."""
    xa = np.asarray(xa, dtype=float)
    single = xa.ndim == 1
    if xa.shape[-1] != mlp.in_dim:
        raise ValueError(f"input dim {xa.shape[-1]} != {mlp.in_dim}")
    _, _, o = _forward_caches(mlp, xa if not single else xa[None, :])
    y = _head_value(mlp, o)
    return y[0] if single else y


def value_and_state_grad(mlp: Mlp, xa):
    """Scalar-output fast path: (values (B,), d value/d input (B, in))."""
    assert mlp.head == "linear" and mlp.out_dim == 1
    xa = np.asarray(xa, dtype=float)
    zs, _, o = _forward_caches(mlp, xa)
    d1 = _ACTIVATIONS[mlp.activation][1]
    s = np.broadcast_to(mlp.weights[-1][0], (xa.shape[0], mlp.weights[-1].shape[1]))
    for i in range(len(mlp.weights) - 2, -1, -1):
        s = (d1(zs[i]) * s) @ mlp.weights[i]
    if mlp.in_center is not None:
        s = s / mlp.in_half
    return o[:, 0], s


# -- losses -------------------------------------------------------------------

def _zero_grads(mlp: Mlp):
    return [np.zeros_like(w) for w in mlp.flat_params()]


def _backprop_from_output(mlp: Mlp, zs, a, delta, grads, zeta=None):
    """Accumulate parameter grads given the cotangent on the pre-head output;
    zeta optionally injects extra per-layer cotangents on the pre-activations
    (the double-backprop path of the gradient-matching term)."""
    d1 = _ACTIVATIONS[mlp.activation][1]
    last = len(mlp.weights) - 1
    grads[2 * last] += delta.T @ a[last]
    grads[2 * last + 1] += delta.sum(axis=0)
    abar = delta @ mlp.weights[last]
    for i in range(last - 1, -1, -1):
        zbar = d1(zs[i]) * abar
        if zeta is not None:
            zbar = zbar + zeta[i]
        grads[2 * i] += zbar.T @ a[i]
        grads[2 * i + 1] += zbar.sum(axis=0)
        abar = zbar @ mlp.weights[i]


def critic_loss(critic: Mlp, critic_target: Optional[Mlp], batch: SampleBatch,
                k_s: float, gamma_bootstrap: bool):
    """Sobolev regression on values and state gradients.

    Per-sample value target: raw partial cost-to-go, plus the target critic at
    the window-end state when bootstrapping is on and that state is not
    terminal.  The gradient target excludes the partial w.r.t. time.
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    bsz = len(batch)
    n = batch.n
    xa = batch.xa

    y = batch.v_bar.copy()
    if gamma_bootstrap and critic_target is not None:
        v_next = mlp_forward(critic_target, batch.xa_plus_k)[:, 0]
        gate = batch.xa_plus_k[:, -1] < batch.t_max
        y = y + np.where(gate, v_next, 0.0)

    zs, a, o = _forward_caches(critic, xa)
    d1, d2 = _ACTIVATIONS[critic.activation][1:3]
    nlayers = len(critic.weights)
    last = nlayers - 1

    # input-gradient forward sweep (keep the per-layer sensitivities)
    s_list = [None] * nlayers
    s = np.broadcast_to(critic.weights[last][0], (bsz, critic.weights[last].shape[1]))
    s_list[last] = s
    for i in range(last - 1, -1, -1):
        s = (d1(zs[i]) * s_list[i + 1]) @ critic.weights[i]
        s_list[i] = s
    half = critic.in_half if critic.in_center is not None else np.ones(critic.in_dim)
    grad_x = s_list[0] / half

    v = o[:, 0]
    e_v = y - v
    e_g = batch.v_bar_x - grad_x[:, :n]
    loss = float((e_v**2).mean() + k_s * (e_g**2).sum(axis=1).mean())

    grads = _zero_grads(critic)

    # cotangent on the input-gradient path
    u = np.zeros((bsz, critic.in_dim))
    u[:, :n] = (-2.0 * k_s / bsz) * e_g / half[:n]
    zeta = [None] * max(last, 0)
    for i in range(0, last):
        rbar = u @ critic.weights[i].T
        grads[2 * i] += (d1(zs[i]) * s_list[i + 1]).T @ u
        zeta[i] = d2(zs[i]) * s_list[i + 1] * rbar
        u = d1(zs[i]) * rbar
    grads[2 * last] += u.sum(axis=0, keepdims=True)

    # cotangent on the value path plus the injected zeta terms
    delta = (-2.0 / bsz) * e_v[:, None]
    _backprop_from_output(critic, zs, a, delta, grads,
                          zeta=zeta if last > 0 else None)
    return loss, grads


def actor_loss(actor: Mlp, critic: Mlp, model: ModelSpec, field: CostField,
               xa: np.ndarray):
    """One-step Q objective: mean of l(x, mu(x)) + V(f(x, mu(x)), t+1) over
    the augmented states xa, shape (B, n+1), rows [x, t].

    States already at the horizon are skipped (their count is returned third);
    gradients flow through the running cost and through the critic via the
    control Jacobian of the dynamics.
    """
    xa = np.asarray(xa, dtype=float)
    keep = xa[:, -1] < model.t_max
    skipped = int((~keep).sum())
    xa = xa[keep]
    if xa.shape[0] == 0:
        raise ValueError("all states are at the horizon")
    bsz = xa.shape[0]
    x = xa[:, :-1]

    system = system_for(model)
    cost = cost_for(model, field)

    zs, a, o = _forward_caches(actor, xa)
    u = _head_value(actor, o)

    l, _, lu, _, _, _ = cost.stage_derivs(x, u)
    x_next = system.step_x(x, u)
    _, fu = system.jacobians(x, u)
    xa_next = np.concatenate([x_next, xa[:, -1:] + 1.0], axis=1)
    v_next, g_next = value_and_state_grad(critic, xa_next)

    loss = float((l + v_next).mean())
    dq_du = lu + np.einsum("bnm,bn->bm", fu, g_next[:, :-1])

    grads = _zero_grads(actor)
    delta = (dq_du / bsz) * _head_chain(actor, o)
    _backprop_from_output(actor, zs, a, delta, grads)
    return loss, grads, skipped


def std_critic_loss(std_net: Mlp, critic: Mlp, batch: SampleBatch):
    """Gaussian negative log-likelihood of the critic error; the error is a
    constant w.r.t. the std network's parameters."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    bsz = len(batch)
    err = batch.v_bar - mlp_forward(critic, batch.xa)[:, 0]

    zs, a, o = _forward_caches(std_net, batch.xa)
    sigma = _head_value(std_net, o)[:, 0]
    loss = float((np.log(sigma) + 0.5 * err**2 / sigma**2).mean())

    dl_dsigma = (1.0 / sigma - err**2 / sigma**3) / bsz
    grads = _zero_grads(std_net)
    delta = (dl_dsigma * _sigmoid(o[:, 0]))[:, None]
    _backprop_from_output(std_net, zs, a, delta, grads)
    return loss, grads


# -- optimizer ----------------------------------------------------------------

@dataclass(frozen=True)
class AdamState:
    m: tuple[np.ndarray, ...]
    v: tuple[np.ndarray, ...]
    step: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8

    @classmethod
    def init(cls, params, lr=1e-3, beta1=0.9, beta2=0.999, eps_adam=1e-8):
        return cls(m=tuple(np.zeros_like(p) for p in params),
                   v=tuple(np.zeros_like(p) for p in params),
                   step=0, lr=lr, beta1=beta1, beta2=beta2, eps_adam=eps_adam)


def adam_step(params, state: AdamState, grads):
    """Standard Adam with bias correction; returns (new params, new state)."""
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    t = state.step + 1
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    new_p, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise ValueError(f"grad shape {g.shape} != param shape {p.shape}")
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * (g * g)
        p = p - state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps_adam)
        new_p.append(p)
        new_m.append(m)
        new_v.append(v)
    return new_p, replace(state, m=tuple(new_m), v=tuple(new_v), step=t)


def polyak(target: Mlp, online: Mlp, tau: float) -> Mlp:
    params = [(1.0 - tau) * pt + tau * po
              for pt, po in zip(target.flat_params(), online.flat_params())]
    return target.with_params(params)


# -- policy rollout -------------------------------------------------------------

def actor_rollout(actor: Mlp, model: ModelSpec, x0: TimeState, t_hor: int,
                  field: Optional[CostField] = None) -> Trajectory:
    """Closed-loop rollout u_k = mu(x_k, t_k); bounded by the actor's head.

    Step costs are filled when a cost field is given, else zero.
    """
    if t_hor > model.t_max - x0.t:
        raise ValueError(f"rollout of {t_hor} steps exceeds horizon from t={x0.t}")
    system = system_for(model)
    X = np.empty((t_hor + 1, model.n))
    U = np.empty((t_hor, model.m))
    X[0] = x0.x
    for k in range(t_hor):
        xa = np.concatenate([X[k], [float(x0.t + k)]])
        U[k] = mlp_forward(actor, xa)
        X[k + 1] = system.step_x(X[k], U[k])
    if field is not None:
        sc = _cost_trajectory(cost_for(model, field), X, U)
    else:
        sc = np.zeros(t_hor + 1)
    return Trajectory(X=X, U=U, step_costs=sc, t0=x0.t)


# -- checkpoints ----------------------------------------------------------------

def save_checkpoint(path, mlp: Mlp, kind: str, model_name: str, config_hash: str):
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
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_checkpoint(path) -> tuple[Mlp, dict]:
    with open(path) as fh:
        doc = json.load(fh)
    sizes = doc["layer_sizes"]
    ws = tuple(np.asarray(doc["weights"][i], float).reshape(sizes[i + 1], sizes[i])
               for i in range(len(sizes) - 1))
    bs = tuple(np.asarray(b, float) for b in doc["biases"])
    mlp = Mlp(weights=ws, biases=bs, activation=doc["activation"],
              head=doc["head"],
              out_scale=None if doc["out_scale"] is None
              else np.asarray(doc["out_scale"], float),
              sigma_min=doc["sigma_min"],
              in_center=None if doc["norm_center"] is None
              else np.asarray(doc["norm_center"], float),
              in_half=None if doc["norm_half"] is None
              else np.asarray(doc["norm_half"], float))
    meta = {k: doc[k] for k in ("kind", "model", "config_hash")}
    return mlp, meta
