"""Cold-start embedding: attach a new product to feature-similar warm
products and run the trained model over the augmented neighborhood.

Each request splices the cold product into a private overlay of the base
graph (`attach_node`): the overlay splices co-view rows only, shares the
co-purchase rows read-only, and rebuilds or re-sorts nothing. The base
graph and warm embeddings are never touched, so concurrent cold products
cannot interact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import retrieval
from .graph import DirectedProductGraph, attach_node
from .model import ModelParams, forward
from .sampler import full_blocks


@dataclass
class ColdStartRequest:
    key: str
    features: np.ndarray
    k_sim: int = 5

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64).reshape(-1)
        if self.k_sim < 1:
            raise ValueError("k_sim must be >= 1")
        if not np.isfinite(self.features).all():
            raise ValueError("cold-start feature vector must be finite")
        if not np.any(self.features):
            raise ValueError("cold-start feature vector is all zeros")


def _pow2_scaled(a: np.ndarray) -> np.ndarray:
    """Each row of `a` times the power of two that puts its largest
    magnitude in [0.5, 1); zero and non-finite rows stay as they are."""
    _, e = np.frexp(np.abs(a).max(axis=-1, keepdims=True))
    return np.ldexp(a, -e)


def find_warm_neighbors(features: np.ndarray, vec: np.ndarray, k_sim: int,
                        eligible: np.ndarray | None = None) -> np.ndarray:
    """Top warm products by cosine similarity of input features, ties by id.

    `eligible` optionally restricts the candidate pool (e.g. to train
    nodes when held-out nodes share the feature matrix).
    """
    if vec.shape[0] != features.shape[1]:
        raise ValueError(
            f"feature dim mismatch: cold {vec.shape[0]}, warm {features.shape[1]}")
    # a norm outside [2^-500, 2^500] may come out 0, inexact or inf, as its
    # squares underflow or overflow; scaling by a power of two is exact and
    # keeps the cosines, so the cold vector and any such row are scaled
    vec = _pow2_scaled(vec)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(features, axis=1)
    dots = features @ vec
    odd = np.flatnonzero(~((norms >= 2.0 ** -500) & (norms <= 2.0 ** 500)))
    rows = _pow2_scaled(features[odd])
    norms[odd], dots[odd] = np.linalg.norm(rows, axis=1), rows @ vec
    safe = np.where(norms > 0, norms, 1.0)
    cos = dots / (safe * np.linalg.norm(vec))
    ineligible = np.empty(0, dtype=np.int64)
    if eligible is not None:
        mask = np.ones(len(cos), dtype=bool)
        mask[eligible] = False
        ineligible = np.flatnonzero(mask)
    top = retrieval.top_k_by_score(cos[None, :], k_sim,
                                   np.zeros_like(ineligible), ineligible)[0]
    return np.array([i for i, _ in top], dtype=np.int64)


def attach_and_embed(g: DirectedProductGraph, features: np.ndarray,
                     params: ModelParams, req: ColdStartRequest,
                     eligible: np.ndarray | None = None):
    """Embed one cold product via a temporary edge overlay.

    Returns (theta_s, theta_t, warm_ids). The overlay adds symmetric
    co-view edges from the cold node to its feature-nearest warm
    products, then runs the full-neighborhood forward pass for the cold
    node only.
    """
    warm = find_warm_neighbors(features, req.features, req.k_sim,
                               eligible=eligible)
    if len(warm) == 0:
        raise ValueError("no eligible warm products to attach to")
    cold_id = g.num_nodes
    overlay = attach_node(g, cv_nbrs=warm)
    aug_features = np.vstack([features, req.features[None, :]])
    blocks = full_blocks(overlay, [cold_id], params.num_layers)
    emb, _ = forward(blocks, aug_features, params)
    return emb.theta_s[0], emb.theta_t[0], warm


def recommend_for_cold(theta_s_cold: np.ndarray,
                       index: retrieval.EmbeddingIndex, k: int,
                       exclude=None) -> list[tuple[int, float]]:
    """Rank warm products for a cold query vector, as a 1-row block of
    related-product retrieval, with an optional id exclusion list."""
    excl = np.asarray([] if exclude is None else exclude, dtype=np.int64)
    return retrieval.rank_vectors(index, theta_s_cold[None, :], k,
                                  np.zeros_like(excl), excl)[0]
