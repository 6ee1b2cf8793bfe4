"""Six-term asymmetric training loss and its embedding gradients.

Term layout over a batch:

  1. attract source(u) to target(v) for every co-purchase edge (u, v)
  2. repel source(u) from target(z) for each sampled negative z
  3. re-attract source(u) to target(v) for one-way co-purchase edges
  4. repel source(v) from target(u) for one-way co-purchase edges
  5. attract source(u) to source(v) for co-view pairs
  6. attract target(u) to target(v) for co-view pairs

Each attract term is log sigmoid(dot); repel terms use the literal
log sigmoid(1 - dot) form by default (`negative_form="one_minus_dot"`),
with the conventional log sigmoid(-dot) form available as
"negated_dot". The returned
total is the negated sum, so it is always >= 0. One-way edges contribute
to both terms 1 and 3, matching the printed sums.

Training runs one pass per batch, `loss_grad`: `asymmetric_loss`
gathers each row and computes each term's dots once, and keeps each
term's gradient contributions beside the value; then one sparse scatter
per channel sums them into the source and target gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

NEGATIVE_FORMS = ("one_minus_dot", "negated_dot")
NUM_TERMS = 6


@dataclass
class LossBatch:
    """Edge material for one loss evaluation; all ids must be embedded."""

    cp_edges: np.ndarray          # (m, 2) directed co-purchase edges
    one_way: np.ndarray           # (m,) bool, reverse edge absent
    cv_pairs: np.ndarray          # (c, 2) unordered co-view pairs
    negatives: np.ndarray         # (m, n_k) sampled ids per positive

    def __post_init__(self):
        self.cp_edges = np.asarray(self.cp_edges, dtype=np.int64).reshape(-1, 2)
        self.one_way = np.asarray(self.one_way, dtype=bool).reshape(-1)
        self.cv_pairs = np.asarray(self.cv_pairs, dtype=np.int64).reshape(-1, 2)
        m = len(self.cp_edges)
        neg = np.asarray(self.negatives, dtype=np.int64)
        if neg.size == 0:
            neg = neg.reshape(m, 0) if m else neg.reshape(0, 1)
        else:
            neg = neg.reshape(m, -1)
        self.negatives = neg
        if len(self.one_way) != m:
            raise ValueError("one_way flags must align with cp_edges")


@dataclass
class LossValue:
    """Negated total plus the six raw log-likelihood sums (each <= 0).
    `parts` holds what `loss_grad` scatters: per channel (source, target),
    the (rows, coeff, vecs) gradient contributions in term order."""

    total: float
    terms: np.ndarray
    parts: tuple = field(default=((), ()), repr=False, compare=False)

    @property
    def per_term_loss(self) -> np.ndarray:
        return -self.terms


def log_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable log of the logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = -np.log1p(np.exp(-x[pos]))
    out[~pos] = x[~pos] - np.log1p(np.exp(x[~pos]))
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    return np.exp(log_sigmoid(x))


def _attract(dots: np.ndarray, weight: float) -> tuple[float, np.ndarray]:
    """Summed log sigmoid(dot), and `weight` times d/ddot of its negation
    per dot: sigmoid(dot) - 1, sigmoid taken as exp of the log sigmoid."""
    ls = log_sigmoid(dots)
    return ls.sum(), weight * (np.exp(ls) - 1.0)


def _repel(dots: np.ndarray, weight: float,
           negative_form: str) -> tuple[float, np.ndarray]:
    """Summed log sigmoid of the repel argument, and `weight` times
    d/ddot of its negation per dot: 1 - sigmoid(1 - dot) for the literal
    form, sigmoid(dot) for the conventional one."""
    if negative_form == "one_minus_dot":
        ls = log_sigmoid(1.0 - dots)
        return ls.sum(), weight * (1.0 - np.exp(ls))
    return log_sigmoid(-dots).sum(), weight * sigmoid(dots)


def _scatter(like: np.ndarray, parts: list) -> np.ndarray:
    """Sum coeff * vec rows into the rows they name, for (rows, coeff,
    vecs) parts in order. One CSR product of a ones matrix with the
    stacked rows; each output row sums its entries in order of appearance
    from zero, so the result is bit-identical to adding the rows one at a
    time."""
    if not parts:
        return np.zeros_like(like)
    rows = np.concatenate([r for r, _, _ in parts])
    vals = np.empty((len(rows), like.shape[1]))
    at = 0
    for _, coeff, vecs in parts:
        np.multiply(coeff[:, None], vecs, out=vals[at:at + len(vecs)])
        at += len(vecs)
    # COO to CSR is a stable bucket sort by row: each row keeps its order
    ones = sp.csr_matrix((np.ones(len(rows)), (rows, np.arange(len(rows)))),
                         shape=(len(like), len(rows)))
    return ones @ vals


def asymmetric_loss(emb, batch: LossBatch, weights=None,
                    negative_form: str = "one_minus_dot") -> LossValue:
    """Evaluate the loss; `weights` optionally scales the six terms.

    Each row is gathered and each dot computed once. With the value come
    its gradient contributions (`LossValue.parts`): attract terms give
    (sigmoid(dot) - 1) times the opposite row; repel terms give the
    derivative of -log sigmoid(1 - dot), which is 1 - sigmoid(1 - dot),
    times the opposite row (or the mirrored sign for the conventional
    -dot form).
    """
    if negative_form not in NEGATIVE_FORMS:
        raise ValueError(f"negative_form must be one of {NEGATIVE_FORMS}")
    w = np.ones(NUM_TERMS) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (NUM_TERMS,):
        raise ValueError(f"expected {NUM_TERMS} term weights")
    terms = np.zeros(NUM_TERMS)
    s_parts, t_parts = [], []  # (rows, coeff, vecs), in term order
    e, ow, cv = batch.cp_edges, batch.one_way, batch.cv_pairs
    if len(e):
        u_rows = emb.rows_of(e[:, 0])
        v_rows = emb.rows_of(e[:, 1])
        s_u = emb.theta_s[u_rows]
        t_v = emb.theta_t[v_rows]
        d1 = np.sum(s_u * t_v, axis=1)
        terms[0], c1 = _attract(d1, w[0])
        s_parts.append((u_rows, c1, t_v))
        t_parts.append((v_rows, c1, s_u))
        if batch.negatives.size:
            z = batch.negatives
            z_rows = emb.rows_of(z.ravel())
            t_z = emb.theta_t[z_rows]
            s_u_rep = np.repeat(s_u, z.shape[1], axis=0)
            terms[1], c2 = _repel(np.sum(s_u_rep * t_z, axis=1), w[1],
                                  negative_form)
            s_parts.append((np.repeat(u_rows, z.shape[1]), c2, t_z))
            t_parts.append((z_rows, c2, s_u_rep))
        if ow.any():
            uo_rows, vo_rows = u_rows[ow], v_rows[ow]
            terms[2], c3 = _attract(d1[ow], w[2])
            s_parts.append((uo_rows, c3, t_v[ow]))
            t_parts.append((vo_rows, c3, s_u[ow]))
            s_v = emb.theta_s[vo_rows]
            t_u = emb.theta_t[uo_rows]
            terms[3], c4 = _repel(np.sum(s_v * t_u, axis=1), w[3],
                                  negative_form)
            s_parts.append((vo_rows, c4, t_u))
            t_parts.append((uo_rows, c4, s_v))
    if len(cv):
        a_rows = emb.rows_of(cv[:, 0])
        b_rows = emb.rows_of(cv[:, 1])
        s_a, s_b = emb.theta_s[a_rows], emb.theta_s[b_rows]
        t_a, t_b = emb.theta_t[a_rows], emb.theta_t[b_rows]
        terms[4], c5 = _attract(np.sum(s_a * s_b, axis=1), w[4])
        s_parts += [(a_rows, c5, s_b), (b_rows, c5, s_a)]
        terms[5], c6 = _attract(np.sum(t_a * t_b, axis=1), w[5])
        t_parts += [(a_rows, c6, t_b), (b_rows, c6, t_a)]
    return LossValue(total=float(-(w * terms).sum()), terms=terms,
                     parts=(s_parts, t_parts))


def loss_grad(emb, batch: LossBatch, weights=None,
              negative_form: str = "one_minus_dot"):
    """The loss and its gradients w.r.t. the embedding rows, in one pass:
    `asymmetric_loss`, then one scatter per channel. Returns (LossValue,
    grad_s, grad_t), the gradients aligned with the embedding rows."""
    value = asymmetric_loss(emb, batch, weights, negative_form)
    (s_parts, t_parts), value.parts = value.parts, ((), ())  # free them
    return value, _scatter(emb.theta_s, s_parts), _scatter(emb.theta_t, t_parts)
