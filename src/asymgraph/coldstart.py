"""Cold-start embedding: attach a new product to feature-similar warm
products and run the trained model over the augmented neighborhood.

Each request splices the cold product into a private overlay of the base
graph (`attach_node`): the overlay splices co-view rows only, shares the
co-purchase rows read-only, and rebuilds or re-sorts nothing. The base
graph and warm embeddings are never touched, so concurrent cold products
cannot interact.
"""

from __future__ import annotations

import warnings
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


def find_warm_neighbors(features: np.ndarray, vec: np.ndarray, k_sim: int,
                        eligible: np.ndarray | None = None) -> np.ndarray:
    """Top warm products by cosine similarity of input features, ties by id.

    `eligible` optionally restricts the candidate pool (e.g. to train
    nodes when held-out nodes share the feature matrix).
    """
    if vec.shape[0] != features.shape[1]:
        raise ValueError(
            f"feature dim mismatch: cold {vec.shape[0]}, warm {features.shape[1]}")
    norms = np.linalg.norm(features, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    cos = (features @ vec) / (safe * np.linalg.norm(vec))
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
    if k < 1:
        raise ValueError("k must be >= 1")
    if not np.any(theta_s_cold):
        warnings.warn("cold product has a zero embedding; returning no results",
                      stacklevel=2)
        return []
    excl = np.asarray([] if exclude is None else exclude, dtype=np.int64)
    return retrieval.rank_vectors(index, theta_s_cold[None, :], k,
                                  np.zeros_like(excl), excl)[0]
