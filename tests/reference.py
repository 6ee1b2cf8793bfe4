"""Independent reference implementations used as test oracles.

Everything here is written with plain python loops and dictionaries, or
is the package's earlier, slower code kept verbatim, deliberately sharing
no code with the package's vectorized paths.
"""

import math
from collections import defaultdict

import numpy as np


def naive_dual_embeddings(num_nodes, cp_edges, cv_pairs, features, weights):
    """Whole-graph layered aggregation, one node at a time."""
    cp_out = defaultdict(list)
    cp_in = defaultdict(list)
    cv = defaultdict(list)
    for u, v in cp_edges:
        cp_out[int(u)].append(int(v))
        cp_in[int(v)].append(int(u))
    for u, v in cv_pairs:
        cv[int(u)].append(int(v))
        cv[int(v)].append(int(u))

    def relu(x):
        return np.maximum(x, 0.0)

    def norm(x):
        n = math.sqrt(float(np.dot(x, x)))
        return x / n if n > 0 else x

    hs = {u: features[u].astype(float) for u in range(num_nodes)}
    ht = {u: features[u].astype(float) for u in range(num_nodes)}
    for w in weights:
        new_hs, new_ht = {}, {}
        for u in range(num_nodes):
            s_cp = sum((ht[v] for v in sorted(cp_out[u])),
                       np.zeros(w.shape[0]))
            s_cv = sum((hs[v] for v in sorted(cv[u])), np.zeros(w.shape[0]))
            new_hs[u] = norm(relu(s_cp @ w) + relu(s_cv @ w))
            t_cp = sum((hs[v] for v in sorted(cp_in[u])),
                       np.zeros(w.shape[0]))
            t_cv = sum((ht[v] for v in sorted(cv[u])), np.zeros(w.shape[0]))
            new_ht[u] = norm(relu(t_cp @ w) + relu(t_cv @ w))
        hs, ht = new_hs, new_ht
    theta_s = np.stack([hs[u] for u in range(num_nodes)])
    theta_t = np.stack([ht[u] for u in range(num_nodes)])
    return theta_s, theta_t


def log_sigmoid_scalar(x):
    if x >= 0:
        return -math.log1p(math.exp(-x))
    return x - math.log1p(math.exp(x))


def naive_loss(theta_s, theta_t, cp_edges, one_way, cv_pairs, negatives):
    """Scalar evaluation of the six-term loss, term by term."""
    t = [0.0] * 6
    for i, (u, v) in enumerate(cp_edges):
        dot = float(np.dot(theta_s[u], theta_t[v]))
        t[0] += log_sigmoid_scalar(dot)
        for z in negatives[i]:
            t[1] += log_sigmoid_scalar(1.0 - float(np.dot(theta_s[u], theta_t[z])))
        if one_way[i]:
            t[2] += log_sigmoid_scalar(dot)
            t[3] += log_sigmoid_scalar(
                1.0 - float(np.dot(theta_s[v], theta_t[u])))
    for u, v in cv_pairs:
        t[4] += log_sigmoid_scalar(float(np.dot(theta_s[u], theta_s[v])))
        t[5] += log_sigmoid_scalar(float(np.dot(theta_t[u], theta_t[v])))
    return -sum(t), t


def brute_top_k(scores, k, exclude=()):
    """Full sort by (-score, id) with exclusions, python only."""
    banned = set(int(e) for e in exclude)
    ranked = sorted((( -float(s), i) for i, s in enumerate(scores)
                     if i not in banned))
    return [(i, -negs) for negs, i in ranked[:k]]


def brute_hitrate_mrr(rankings, test_edges, k):
    hits, rrs = [], []
    for u, v in test_edges:
        lst = rankings.get(int(u), [])
        if int(v) in lst[:k]:
            rank = lst.index(int(v)) + 1
            hits.append(1.0)
            rrs.append(1.0 / rank)
        else:
            hits.append(0.0)
            rrs.append(0.0)
    n = len(test_edges)
    return (math.fsum(hits) / n if n else 0.0,
            math.fsum(rrs) / n if n else 0.0)


def brute_auc(pos, neg):
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def loop_sample_rows(adj, nodes, cap, rng):
    """One neighbor list at a time; over-cap rows keep a sorted
    `rng.choice` sample of exactly `cap`. Returns (offsets, flat ids)."""
    ptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    chunks = []
    for i, u in enumerate(nodes):
        nbrs = adj.indices[adj.indptr[u]:adj.indptr[u + 1]]
        if cap is not None and len(nbrs) > cap:
            sel = rng.choice(len(nbrs), size=cap, replace=False)
            nbrs = nbrs[np.sort(sel)]
        ptr[i + 1] = ptr[i] + len(nbrs)
        chunks.append(nbrs)
    flat = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    return ptr, flat.astype(np.int64)


def loop_sample_negatives(g, pos_edges, n_k, rng_seed=0,
                          exclude_positives=True):
    """Per-edge rejection loop: distinct uniform ids other than u and,
    by default, u's co-purchase out-neighbors; with replacement from
    whatever is allowed when fewer than n_k legal ids exist."""
    pos = np.asarray(pos_edges, dtype=np.int64).reshape(-1, 2)
    rng = np.random.default_rng(np.random.SeedSequence([int(rng_seed)]))
    n = g.num_nodes
    out = np.empty((len(pos), n_k), dtype=np.int64)
    for i, (u, _v) in enumerate(pos):
        excl = {int(u)}
        if exclude_positives:
            excl |= set(int(z) for z in
                        g.cp_out.indices[g.cp_out.indptr[u]:g.cp_out.indptr[u + 1]])
        allowed = [z for z in range(n) if z not in excl]
        if len(allowed) < n_k:
            if not allowed:
                allowed = [z for z in range(n) if z != u]
            out[i] = rng.choice(allowed, size=n_k, replace=True)
            continue
        picked, seen = [], set()
        while len(picked) < n_k:
            for z in rng.integers(0, n, size=max(2 * (n_k - len(picked)), 8)):
                z = int(z)
                if z in excl or z in seen:
                    continue
                seen.add(z)
                picked.append(z)
                if len(picked) == n_k:
                    break
        out[i] = picked
    return out


def loop_one_way_mask(g, edges):
    """Per-edge flag from a python set of co-purchase pairs: True iff the
    reverse edge is absent."""
    cp = set((int(u), int(v)) for u, v in g.cp_edges)
    return np.array([(int(v), int(u)) not in cp for u, v in edges], dtype=bool)


def sort_build_graph(cp_pairs, cv_pairs, num_nodes):
    """Graph arrays as build_graph made them with 2-D `np.unique(axis=0)`
    and one lexsort per CSR. Returns {name: array}; each adjacency is
    `<name>_indptr` and `<name>_indices`."""

    def unique_pairs(pairs):
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        arr = arr[arr[:, 0] != arr[:, 1]]
        if len(arr) == 0:
            return np.empty((0, 2), dtype=np.int64)
        return np.unique(arr, axis=0)

    def csr(pairs):
        if len(pairs) == 0:
            return (np.zeros(num_nodes + 1, dtype=np.int64),
                    np.empty(0, dtype=np.int64))
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        counts = np.bincount(pairs[:, 0], minlength=num_nodes)
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return indptr, pairs[:, 1].astype(np.int64)

    cp = unique_pairs(cp_pairs)
    cv_one = unique_pairs(cv_pairs)
    if len(cv_one):
        lo = np.minimum(cv_one[:, 0], cv_one[:, 1])
        hi = np.maximum(cv_one[:, 0], cv_one[:, 1])
        cv = np.unique(np.stack([lo, hi], axis=1), axis=0)
        cv_both = np.concatenate([cv, cv[:, ::-1]], axis=0)
    else:
        cv = cv_both = np.empty((0, 2), dtype=np.int64)
    out = {"cp_edges": cp, "cv_pairs": cv}
    for name, pairs in (("cp_out", cp), ("cp_in", cp[:, ::-1]),
                        ("cv_out", cv_both), ("cv_in", cv_both[:, ::-1])):
        out[name + "_indptr"], out[name + "_indices"] = csr(pairs)
    return out


def lexsort_warm_neighbors(features, vec, k_sim, eligible=None):
    """Warm-neighbour pick by a full lexsort of the catalogue on
    (-cosine, id), dropping ineligible (-inf) rows."""
    norms = np.linalg.norm(features, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    cos = (features @ vec) / (safe * np.linalg.norm(vec))
    if eligible is not None:
        mask = np.zeros(len(cos), dtype=bool)
        mask[eligible] = True
        cos = np.where(mask, cos, -np.inf)
    order = np.lexsort((np.arange(len(cos)), -cos))
    order = order[~np.isneginf(cos[order])]
    return order[: min(k_sim, len(order))].astype(np.int64)


def rebuild_attach_and_embed(g, features, params, req, eligible=None):
    """Cold-start embedding over an overlay rebuilt from every edge by
    `sort_build_graph`, then the package's full-neighbourhood forward.
    Returns (theta_s, theta_t, warm_ids)."""
    from asymgraph.graph import Adjacency, DirectedProductGraph
    from asymgraph.model import forward
    from asymgraph.sampler import full_blocks

    warm = lexsort_warm_neighbors(features, req.features, req.k_sim, eligible)
    cold = g.num_nodes
    extra = np.stack([np.full(len(warm), cold, dtype=np.int64), warm], axis=1)
    if req.relation == "cv":
        arrays = sort_build_graph(g.cp_edges,
                                  np.concatenate([g.cv_pairs, extra]), cold + 1)
    else:
        arrays = sort_build_graph(np.concatenate([g.cp_edges, extra]),
                                  g.cv_pairs, cold + 1)
    adj = {name: Adjacency(arrays[name + "_indptr"], arrays[name + "_indices"])
           for name in ("cp_out", "cp_in", "cv_out")}
    overlay = DirectedProductGraph(num_nodes=cold + 1, cp_edges=arrays["cp_edges"],
                                   cv_pairs=arrays["cv_pairs"], **adj)
    blocks = full_blocks(overlay, [cold], params.num_layers)
    emb, _ = forward(blocks, np.vstack([features, req.features[None, :]]),
                     params)
    return emb.theta_s[0], emb.theta_t[0], warm


def batched_embed_all(g, features, params, batch_size=1024):
    """Whole-catalogue embeddings the way `embed_all` made them before it
    went layer-wise: full-neighbourhood blocks for each batch of seeds,
    each run through the package's `forward`. Returns (theta_s, theta_t)."""
    from asymgraph.model import forward
    from asymgraph.sampler import full_blocks

    n = g.num_nodes
    theta_s = np.zeros((n, params.embed_dim))
    theta_t = np.zeros((n, params.embed_dim))
    for start in range(0, n, batch_size):
        seeds = np.arange(start, min(start + batch_size, n))
        emb, _ = forward(full_blocks(g, seeds, params.num_layers), features,
                         params)
        theta_s[seeds] = emb.theta_s
        theta_t[seeds] = emb.theta_t
    return theta_s, theta_t


def loop_sample_non_edges(g, count, seed=0):
    """One (u, v) draw at a time from the eval stream, rejecting u == v and
    known co-purchase edges; gives up after 1000 * max(count, 1) draws."""
    from asymgraph.util import STREAM_EVAL, derive_rng

    rng = derive_rng(seed, STREAM_EVAL)
    out = []
    guard = 0
    while len(out) < count:
        u = int(rng.integers(0, g.num_nodes))
        v = int(rng.integers(0, g.num_nodes))
        guard += 1
        if guard > 1000 * max(count, 1):
            raise ValueError("graph too dense to sample non-edges")
        if u == v or g.has_cp_edge(u, v):
            continue
        out.append((u, v))
    return np.asarray(out, dtype=np.int64)
