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
with the conventional log sigmoid(-dot) form available as "negated_dot".
The returned total is the negated sum, so it is always >= 0. One-way
edges contribute to both terms 1 and 3, matching the printed sums.

Training runs one pass per batch, `loss_grad`. `asymmetric_loss`
gathers a term's rows only to compute its dots, and keeps the term's
gradient entries as index arrays, not rows: (rows, coeff, cols), cols
indexing the stacked rows x = [theta_s; theta_t]. Each channel's
gradient is then one CSR matrix of coefficients times x.
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
        elif neg.ndim > 2 or neg.shape[:1] != (m,):
            raise ValueError(f"negatives of shape {neg.shape} for {m} edges")
        else:
            neg = neg.reshape(m, -1)
        self.negatives = neg
        if len(self.one_way) != m:
            raise ValueError("one_way flags must align with cp_edges")


@dataclass
class LossValue:
    """Negated total plus the six raw log-likelihood sums (each <= 0).
    `parts` holds what `loss_grad` sums: per channel (source, target), the
    (rows, coeff, cols) gradient entries in term order, cols indexing the
    stacked rows [theta_s; theta_t]."""

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


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row dots, np.sum(x * y, axis=-1), with the products in x's buffer."""
    x *= y
    return x.sum(axis=-1)


def _csr_sum(x: np.ndarray, n: int, parts: list) -> np.ndarray:
    """Sum coeff * x[cols] into the rows they name, for (rows, coeff, cols)
    parts in order: one CSR matrix of coefficients times x. A stable sort
    by row keeps each row's entries in order of appearance, duplicates
    apart (a COO conversion would sum them first), so each output row sums
    its products from zero in the order `np.add.at` adds them."""
    if not parts:
        return np.zeros((n, x.shape[1]))
    rows, coeff, cols = (np.concatenate(p) for p in zip(*parts))
    order = np.argsort(rows, kind="stable")
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return sp.csr_matrix((coeff[order], cols[order], ptr),
                         shape=(n, len(x))) @ x


def asymmetric_loss(emb, batch: LossBatch, weights=None,
                    negative_form: str = "one_minus_dot") -> LossValue:
    """Evaluate the loss; `weights` optionally scales the six terms.

    With the value come its gradient entries (`LossValue.parts`): attract
    terms give (sigmoid(dot) - 1) times the opposite row; repel terms give
    the derivative of -log sigmoid(1 - dot), 1 - sigmoid(1 - dot), times
    the opposite row (or the mirrored sign for the conventional -dot form).
    """
    if negative_form not in NEGATIVE_FORMS:
        raise ValueError(f"negative_form must be one of {NEGATIVE_FORMS}")
    w = np.ones(NUM_TERMS) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (NUM_TERMS,):
        raise ValueError(f"expected {NUM_TERMS} term weights")
    terms = np.zeros(NUM_TERMS)
    s_parts, t_parts = [], []  # (rows, coeff, cols), cols into [s; t]
    n = len(emb.nodes)
    e, ow, cv = batch.cp_edges, batch.one_way, batch.cv_pairs
    if len(e):
        u, v = emb.rows_of(e[:, 0]), emb.rows_of(e[:, 1])
        s_u = emb.theta_s[u]
        d1 = _dots(emb.theta_t[v], s_u)
        terms[0], c1 = _attract(d1, w[0])
        s_parts.append((u, c1, n + v))
        t_parts.append((v, c1, u))
        if batch.negatives.size:
            z = emb.rows_of(batch.negatives)  # (m, k): one (m, k, d) gather
            d2 = _dots(emb.theta_t[z], s_u[:, None, :]).ravel()
            terms[1], c2 = _repel(d2, w[1], negative_form)
            u_k, z = np.repeat(u, z.shape[1]), z.ravel()
            s_parts.append((u_k, c2, n + z))
            t_parts.append((z, c2, u_k))
        if ow.any():
            uo, vo = u[ow], v[ow]
            terms[2], c3 = _attract(d1[ow], w[2])
            s_parts.append((uo, c3, n + vo))
            t_parts.append((vo, c3, uo))
            terms[3], c4 = _repel(_dots(emb.theta_s[vo], emb.theta_t[uo]),
                                  w[3], negative_form)
            s_parts.append((vo, c4, n + uo))
            t_parts.append((uo, c4, vo))
    if len(cv):
        a, b = emb.rows_of(cv[:, 0]), emb.rows_of(cv[:, 1])
        terms[4], c5 = _attract(_dots(emb.theta_s[a], emb.theta_s[b]), w[4])
        s_parts += [(a, c5, b), (b, c5, a)]
        terms[5], c6 = _attract(_dots(emb.theta_t[a], emb.theta_t[b]), w[5])
        t_parts += [(a, c6, n + b), (b, c6, n + a)]
    return LossValue(total=float(-(w * terms).sum()), terms=terms,
                     parts=(s_parts, t_parts))


def loss_grad(emb, batch: LossBatch, weights=None,
              negative_form: str = "one_minus_dot"):
    """The loss and its gradients w.r.t. the embedding rows, in one pass:
    `asymmetric_loss`, then one CSR product per channel over the stacked
    rows. Returns (LossValue, grad_s, grad_t), aligned with the rows."""
    value = asymmetric_loss(emb, batch, weights, negative_form)
    (s_parts, t_parts), value.parts = value.parts, ((), ())  # free them
    x, n = np.concatenate((emb.theta_s, emb.theta_t)), len(emb.nodes)
    return value, _csr_sum(x, n, s_parts), _csr_sum(x, n, t_parts)
