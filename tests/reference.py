"""Independent reference implementations used as test oracles.

Everything here is written with plain python loops and dictionaries, or
is the package's earlier, slower code kept verbatim, deliberately sharing
no code with the package's vectorized paths.
"""

import dataclasses
import math
import struct
import warnings
from collections import defaultdict

import numpy as np

import scipy.sparse as sp
from scipy.stats import rankdata

from asymgraph.errors import DataFormatError, NumericalError
from asymgraph.graph import DirectedProductGraph, KeyMap
from asymgraph.loss import (NEGATIVE_FORMS, NUM_TERMS, LossBatch, LossValue,
                            log_sigmoid, sigmoid)
from asymgraph.model import DualEmbeddings, ModelParams, Tape
from asymgraph.sampler import SOURCE, TARGET, ComputationBlocks
from asymgraph.synth import CLIQUE_OFFSET, SynthConfig, SynthData
from asymgraph.trainer import AdamState, TrainConfig, TrainState
from asymgraph.util import atomic_write


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


def lexsort_top_k(scores, k, exclude):
    """One row's best k by a full lexsort on (-score, id), NaN last;
    excluded ids and -inf scores never appear."""
    live = np.ones(len(scores), dtype=bool)
    live[exclude] = False
    ids = np.flatnonzero(live & ~np.isneginf(scores))
    order = ids[np.lexsort((ids, -scores[ids]))][:k]
    return [(int(i), float(scores[i])) for i in order]


def gemv_rank(index, qs, k, filter, target):
    """Rankings for a block of known query ids, one GEMV per query: the
    package's ranking before it picked candidates by block GEMM and
    returned canonical scores."""
    from asymgraph.retrieval import _exclusions, top_k_by_score

    if k < 1:
        raise ValueError("k must be >= 1")
    exclude_rows, exclude_ids = _exclusions(index, qs, filter)
    scores = np.empty((len(qs), index.num_products))
    for i, q in enumerate(qs):
        # one GEMV per query: a block GEMM rounds differently, and a
        # query's scores must not depend on its block
        scores[i] = target @ index.theta_s[q]
    results = top_k_by_score(scores, k, exclude_rows, exclude_ids)
    for i in np.flatnonzero(~index.theta_s[qs].any(axis=1)):
        warnings.warn(f"query {qs[i]} has a zero embedding; returning no "
                      "results", stacklevel=3)
        results[i] = []
    return results


def _float64_top_k(scores, k, exclude_rows, exclude_ids, delta, rescore):
    """`top_k_by_score` before the flat candidate scan, kept verbatim."""
    b, n = scores.shape
    k = min(k, n)
    if k < 1:
        return [[] for _ in range(b)]
    scores[exclude_rows, exclude_ids] = -np.inf
    kth = np.partition(scores, n - k, axis=1)[:, n - k] - delta
    # `~(<)` keeps NaN, which np.partition places above every number
    rows, ids = np.nonzero(~(scores < kth[:, None]))
    vals = scores[rows, ids] if rescore is None else rescore(rows, ids)
    live = (scores[rows, ids] != -np.inf) & (vals != -np.inf)
    rows, ids, vals = rows[live], ids[live], vals[live]
    # rows stay sorted, as np.nonzero gives them; the sort orders each row
    order = np.lexsort((ids, -vals, rows))
    ids, vals = ids[order].tolist(), vals[order].tolist()
    starts = np.searchsorted(rows, np.arange(b + 1)).tolist()
    return [list(zip(ids[s:min(s + k, e)], vals[s:min(s + k, e)]))
            for s, e in zip(starts, starts[1:])]


def float64_rank_vectors(index, vecs, k, exclude_rows, exclude_ids,
                         related=True):
    """`rank_vectors` before its float32 candidate pass, kept verbatim: one
    float64 GEMM over all rows, candidates within delta = 8 gamma_d |q|
    max|t| of each row's k-th GEMM score, cut by canonical score."""
    from asymgraph.retrieval import canonical_scores

    if k < 1:
        raise ValueError("k must be >= 1")
    target = index.theta_t if related else index.theta_s
    max_norm = float(np.linalg.norm(target, axis=1).max(initial=0.0))
    d, u, tiny = target.shape[1], 2.0 ** -53, 2.0 ** -511
    delta = 8 * d * u / (1 - d * u) * (max_norm + d * tiny) \
        * (math.sqrt((vecs * vecs).sum(axis=1).max(initial=0.0)) + d * tiny) \
        + 4 * d * 2.0 ** -1074
    results = _float64_top_k(
        vecs @ target.T, k, exclude_rows, exclude_ids, delta,
        lambda rows, ids: canonical_scores(target, ids, vecs.take(rows, 0)))
    for i in np.flatnonzero(~vecs.any(axis=1)):
        warnings.warn("a query has a zero embedding; returning no results "
                      "for it", stacklevel=2)
        results[i] = []
    return results


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


def rankdata_auc(scores_pos, scores_neg) -> float:
    """The package's earlier `evaluation.auc_existence`: the Mann-Whitney
    AUC from scipy's average ranks."""
    pos = np.asarray(scores_pos, dtype=np.float64).reshape(-1)
    neg = np.asarray(scores_neg, dtype=np.float64).reshape(-1)
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("AUC needs at least one score on each side")
    ranks = rankdata(np.concatenate([pos, neg]))
    rank_sum = ranks[: len(pos)].sum()
    return float((rank_sum - len(pos) * (len(pos) + 1) / 2.0)
                 / (len(pos) * len(neg)))


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


def loop_sample_negatives(g, pos_edges, n_k, rng_seed=0):
    """Per-edge rejection loop: distinct uniform ids other than u and
    u's co-purchase out-neighbors; with replacement from whatever is
    allowed when fewer than n_k legal ids exist."""
    pos = np.asarray(pos_edges, dtype=np.int64).reshape(-1, 2)
    rng = np.random.default_rng(np.random.SeedSequence([int(rng_seed)]))
    n = g.num_nodes
    out = np.empty((len(pos), n_k), dtype=np.int64)
    for i, (u, _v) in enumerate(pos):
        excl = {int(u)} | set(int(z) for z in g.cp_out.neighbors(u))
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


def loop_selection_bias_split(g, ratios, seed):
    """The selection-bias split with its set loop: (a, c) for each train
    edge (a, b) and co-view partner c of b, unless c == a or a -> c is a
    co-purchase edge; distinct and sorted, then capped at the held-out
    test size by `rng.choice`. Returns (test_edges, synth_test_edges)."""
    from asymgraph.evaluation import make_edge_split
    from asymgraph.util import STREAM_SPLIT, derive_rng

    base = make_edge_split(g, ratios, seed)
    seen = set()
    for a, b in base.train_edges:
        for c in g.cv_out.neighbors(b):
            c = int(c)
            if c == a or c in g.cp_out.neighbors(a):
                continue
            seen.add((int(a), c))
    synth = np.array(sorted(seen), dtype=np.int64).reshape(-1, 2)
    cap = len(base.test_edges)
    if cap > 0 and len(synth) > cap:
        rng = derive_rng(seed, STREAM_SPLIT, 1)
        keep = rng.choice(len(synth), size=cap, replace=False)
        synth = synth[np.sort(keep)]
    test = np.concatenate([base.test_edges, synth]) if len(synth) \
        else base.test_edges
    return test, synth


def loop_transitive_pairs(cp_arr, cv_arr, edges=None):
    """The synthetic generator's transitive ground truth with its set loop:
    (a, c) for each co-purchase pair (a, b), or each of `edges` when given,
    and co-view partner c of b, unless c == a or (a, c) is a co-purchase
    pair; distinct and sorted."""
    cp_set = {(int(u), int(v)) for u, v in cp_arr}
    cv_adj: dict[int, set[int]] = {}
    for u, v in cv_arr:
        cv_adj.setdefault(int(u), set()).add(int(v))
        cv_adj.setdefault(int(v), set()).add(int(u))
    transitive = set()
    for a, b in cp_set if edges is None else {(int(u), int(v))
                                              for u, v in edges}:
        for c in cv_adj.get(b, ()):
            if c != a and (a, c) not in cp_set:
                transitive.add((a, c))
    return np.asarray(sorted(transitive), dtype=np.int64).reshape(-1, 2)


def _loop_groups(members, size, rng):
    order = rng.permutation(members)
    return [order[i:i + size] for i in range(0, len(order), size)]


def loop_generate(cfg: SynthConfig) -> SynthData:
    """The synthetic generator with its per-clique and per-pair loops,
    verbatim: every vectorised draw must land where these loops drew."""
    from asymgraph.graph import build_graph, transitive_pairs
    from asymgraph.util import STREAM_SYNTH, derive_rng

    rng = derive_rng(cfg.seed, STREAM_SYNTH)
    n_acc = int(round(cfg.products_per_category * cfg.accessory_fraction))
    n_main = cfg.products_per_category - n_acc
    num_nodes = cfg.num_categories * cfg.products_per_category

    key_map = KeyMap()
    features = np.empty((num_nodes, cfg.feature_dim))
    cp: list[tuple[int, int]] = []
    cv: list[tuple[int, int]] = []
    direct: list[tuple[int, int]] = []

    for cat in range(cfg.num_categories):
        base = cat * cfg.products_per_category
        mains = np.arange(base, base + n_main)
        accs = np.arange(base + n_main, base + cfg.products_per_category)
        for i in mains:
            key_map.add(f"c{cat:02d}m{i - base:03d}")
        for i in accs:
            key_map.add(f"c{cat:02d}a{i - base - n_main:03d}")
        centroid = rng.normal(size=cfg.feature_dim)
        centroid /= np.linalg.norm(centroid)

        main_groups = _loop_groups(mains, cfg.cv_clique_size, rng)
        acc_groups = _loop_groups(accs, cfg.cv_clique_size, rng)

        for group in main_groups + acc_groups:
            offset = rng.normal(size=cfg.feature_dim)
            offset *= CLIQUE_OFFSET / np.linalg.norm(offset)
            noise = rng.normal(scale=cfg.noise_std,
                               size=(len(group), cfg.feature_dim))
            features[group] = centroid + offset + noise
            if len(group) >= 2:
                srt = np.sort(group)
                for i in range(len(srt)):
                    for j in range(i + 1, len(srt)):
                        cv.append((int(srt[i]), int(srt[j])))

        # Each main clique buys from its paired accessory bundle.
        for gi, group in enumerate(main_groups):
            if not acc_groups:
                break
            bundle = acc_groups[gi % len(acc_groups)]
            for m in group:
                for a in bundle:
                    if rng.random() < cfg.cp_edge_prob:
                        cp.append((int(m), int(a)))
                        direct.append((int(m), int(a)))
                        if rng.random() < cfg.reciprocal_prob:
                            cp.append((int(a), int(m)))

    cp_arr = np.asarray(cp, dtype=np.int64).reshape(-1, 2)
    cv_arr = np.asarray(sorted(set(cv)), dtype=np.int64).reshape(-1, 2)
    direct_arr = np.asarray(direct, dtype=np.int64).reshape(-1, 2)
    trans_arr = transitive_pairs(build_graph(cp_arr, cv_arr, num_nodes),
                                 cp_arr)
    return SynthData(key_map=key_map, features=features,
                     cp_pairs=cp_arr, cv_pairs=cv_arr,
                     direct_truth=direct_arr, transitive_truth=trans_arr)


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


def canonical_warm_neighbors(features, vec, k_sim, eligible=None):
    """Warm-neighbour pick on canonical cosines, one pair at a time: each
    row and `vec` times the power of two that puts its largest magnitude in
    [0.5, 1), each dot and squared norm one `np.add.reduce` (a zero norm
    counts as 1), then a full lexsort on (-cosine, id) of eligible rows."""
    def scaled(x):
        return np.ldexp(x, -math.frexp(float(np.abs(x).max()))[1])

    v = scaled(vec)
    v_norm = math.sqrt(np.add.reduce(v * v))
    cos = np.full(len(features), -np.inf)
    for i in range(len(features)) if eligible is None else set(eligible):
        f = scaled(features[i])
        f_norm = math.sqrt(np.add.reduce(f * f)) or 1.0
        cos[i] = np.add.reduce(f * v) / (f_norm * v_norm)
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
    arrays = sort_build_graph(g.cp_edges, np.concatenate([g.cv_pairs, extra]),
                              cold + 1)
    adj = {name: Adjacency(arrays[name + "_indptr"], arrays[name + "_indices"])
           for name in ("cp_out", "cp_in", "cv_out")}
    overlay = DirectedProductGraph(num_nodes=cold + 1, **adj)
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
        if u == v or v in g.cp_out.neighbors(u):
            continue
        out.append((u, v))
    return np.asarray(out, dtype=np.int64)


# ----------------------------------------------------------------------
# The text readers' line scans, kept verbatim from before the readers
# parsed a whole file at once: `formats.read_rows` and
# `graph.load_edge_file` must give the same keys and bits, or raise the
# same DataFormatError text, on every file.
# ----------------------------------------------------------------------

def _text_lines(path):
    """Yield (line number, line without its newline) from a UTF-8 file."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            for lineno, line in enumerate(f, start=1):
                yield lineno, line.rstrip("\n")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") \
                from None


def line_read_rows(path, prefixes=("",)):
    """Read a text-row file: (keys, one rows x dim matrix per prefix)."""
    lines = _text_lines(path)
    header = next(lines, (1, ""))[1]
    try:
        n, d = map(int, header.split("\t"))
    except ValueError:
        n = d = -1
    if n < 0 or d < 0:
        raise DataFormatError(f"{path}: bad header {header!r} on line 1")
    keys, rows = {}, []
    for lineno, line in lines:
        if not line or line.startswith("#"):
            continue
        if len(rows) == n:
            raise DataFormatError(
                f"{path}: more rows than the {n} the header declares "
                f"on line {lineno}")
        key, *blobs = line.split("\t")
        if not key or len(blobs) != len(prefixes) or not all(
                b.startswith(p) for b, p in zip(blobs, prefixes)):
            raise DataFormatError(f"{path}: bad row on line {lineno}")
        if key in keys:
            raise DataFormatError(
                f"{path}: duplicate key {key!r} on line {lineno}")
        groups = [b[len(p):].split(",") for b, p in zip(blobs, prefixes)]
        try:
            vals = np.array(groups, dtype=np.float64)
        except ValueError:  # ragged groups or not floats
            vals = np.array([math.nan])
        if vals.shape != (len(prefixes), d) or not np.isfinite(vals).all():
            raise DataFormatError(
                f"{path}: line {lineno} does not hold {d} finite floats "
                f"per group")
        keys[key] = None
        rows.append(vals)
    if len(rows) != n:
        raise DataFormatError(
            f"{path}: header declares {n} rows, found {len(rows)}")
    table = np.array(rows, dtype=np.float64).reshape(n, len(prefixes), d)
    return list(keys), [np.ascontiguousarray(table[:, j])
                        for j in range(len(prefixes))]


def line_load_edge_file(path, key_map=None):
    """Read a tab-separated edge file: `<src>\\t<dst>\\t<cp|cv>` per line.
    Returns (cp_pairs, cv_pairs, key_map), the pairs as lists of tuples."""
    grow = key_map is None
    km = KeyMap() if grow else key_map
    cp, cv = [], []
    bad_lines: list[int] = []
    unknown_lines: list[int] = []
    for lineno, line in _text_lines(path):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3 or parts[2] not in ("cp", "cv"):
            bad_lines.append(lineno)
            continue
        src, dst, kind = parts
        if not src or not dst or dst.startswith("#"):  # unwritable keys
            bad_lines.append(lineno)
            continue
        if grow:
            u, v = km.add(src), km.add(dst)
        else:
            if src not in km or dst not in km:
                unknown_lines.append(lineno)
                continue
            u, v = km.id_of(src), km.id_of(dst)
        (cp if kind == "cp" else cv).append((u, v))
    if bad_lines:
        raise DataFormatError(
            f"{path}: malformed edge lines {_fmt_lines(bad_lines)}")
    if unknown_lines:
        raise DataFormatError(
            f"{path}: unknown product keys on lines {_fmt_lines(unknown_lines)}")
    return cp, cv, km


def _fmt_lines(lines, limit=20):
    shown = ", ".join(str(x) for x in lines[:limit])
    if len(lines) > limit:
        shown += f", ... ({len(lines)} total)"
    return shown


# ----------------------------------------------------------------------
# Hand-written loaders as they were before the shared codec in
# `asymgraph.formats`, kept verbatim: the training state at version 1,
# with its writer to make version-1 files.
# ----------------------------------------------------------------------

CHECKPOINT_MAGIC = b"ASYMGEMB"
CHECKPOINT_VERSION = 1
STATE_MAGIC = b"ASYMGTRN"
STATE_VERSION = 1


_TUPLE_FIELDS = {"fanouts", "term_weights"}


def load_config(path) -> TrainConfig:
    """Parse a `key = value` config file mirroring TrainConfig fields."""
    fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
    values = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if not sep or key not in fields:
                raise DataFormatError(
                    f"{path}: bad config line {lineno}: {line!r}")
            try:
                if key in _TUPLE_FIELDS:
                    values[key] = tuple(
                        float(x) if key == "term_weights" else int(x)
                        for x in raw.split(","))
                elif key == "negative_form":
                    values[key] = raw
                elif key in ("batch_size", "max_epochs", "num_layers",
                             "embed_dim", "num_negatives", "root_seed",
                             "patience", "coview_per_batch"):
                    values[key] = int(raw)
                else:
                    values[key] = float(raw)
            except ValueError:
                raise DataFormatError(
                    f"{path}: bad value for {key} on line {lineno}") from None
    try:
        return TrainConfig(**values)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def load_synth_config(path) -> SynthConfig:
    values = {}
    fields = {f.name: f for f in dataclasses.fields(SynthConfig)}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if not sep or key not in fields:
                raise DataFormatError(f"{path}: bad config line {lineno}: {line!r}")
            try:
                caster = int if fields[key].type == "int" else float
                values[key] = caster(raw)
            except ValueError:
                raise DataFormatError(
                    f"{path}: bad value for {key} on line {lineno}") from None
    try:
        return SynthConfig(**values)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def load_feature_file(path):
    """Read the feature file: header `<num_nodes>\\t<dim>`, then
    `<key>\\t<f1>,<f2>,...` per product. Returns (features, key_map)."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        parts = header.split("\t")
        if len(parts) != 2:
            raise DataFormatError(f"{path}: bad feature header {header!r}")
        try:
            n, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataFormatError(
                f"{path}: non-integer feature header {header!r}") from None
        km = KeyMap()
        rows = np.empty((n, dim), dtype=np.float64)
        count = 0
        for lineno, line in enumerate(f, start=2):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if count >= n:
                raise DataFormatError(
                    f"{path}: more rows than header declares on line {lineno}")
            key, _, blob = line.partition("\t")
            try:
                vec = np.array(blob.split(","), dtype=np.float64)
            except ValueError:
                raise DataFormatError(
                    f"{path}: bad floats on line {lineno}") from None
            if len(vec) != dim:
                raise DataFormatError(
                    f"{path}: line {lineno} has {len(vec)} values, expected {dim}")
            if key in km:
                raise DataFormatError(
                    f"{path}: duplicate key {key!r} on line {lineno}")
            km.add(key)
            rows[count] = vec
            count += 1
    if count != n:
        raise DataFormatError(f"{path}: header declares {n} rows, found {count}")
    if not np.isfinite(rows).all():
        raise DataFormatError(f"{path}: non-finite feature values")
    return rows, km


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise DataFormatError(f"{path}: bad checkpoint magic {magic!r}")
        header = f.read(16)
        if len(header) != 16:
            raise DataFormatError(f"{path}: truncated checkpoint header")
        version, L, d_in, d_h = struct.unpack("<IIII", header)
        if version != CHECKPOINT_VERSION:
            raise DataFormatError(
                f"{path}: unsupported checkpoint version {version}")
        weights = []
        for l in range(L):
            rows = d_in if l == 0 else d_h
            raw = f.read(rows * d_h * 8)
            if len(raw) != rows * d_h * 8:
                raise DataFormatError(f"{path}: truncated weight {l}")
            weights.append(np.frombuffer(raw, dtype="<f8").reshape(rows, d_h).copy())
        if f.read(1):
            raise DataFormatError(f"{path}: trailing bytes after weights")
    return ModelParams(weights)


def load_embeddings(path) -> tuple[DualEmbeddings, KeyMap]:
    """Read a `dump_embeddings` file. Malformed input (bad header, ragged
    or non-numeric rows, non-finite values, duplicate keys, a row count
    that disagrees with the header) raises DataFormatError naming the
    line."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split("\t")
        try:
            n, d = map(int, header)
        except ValueError:
            n = d = -1
        if n < 0 or d < 0:
            raise DataFormatError(f"{path}: bad embedding header on line 1")
        km = KeyMap()
        theta_s = np.empty((n, d))
        theta_t = np.empty((n, d))
        count = 0
        for lineno, line in enumerate(f, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 or not parts[1].startswith("S:") \
                    or not parts[2].startswith("T:"):
                raise DataFormatError(f"{path}: bad embedding line {lineno}")
            if count >= n:
                raise DataFormatError(
                    f"{path}: line {lineno} is beyond the {n} rows the "
                    f"header declares")
            if parts[0] in km:
                raise DataFormatError(
                    f"{path}: duplicate key {parts[0]!r} on line {lineno}")
            try:
                s = np.array(parts[1][2:].split(","), dtype=np.float64)
                t = np.array(parts[2][2:].split(","), dtype=np.float64)
            except ValueError:
                raise DataFormatError(
                    f"{path}: bad floats on line {lineno}") from None
            if len(s) != d or len(t) != d:
                raise DataFormatError(
                    f"{path}: line {lineno} has {len(s)} S and {len(t)} T "
                    f"values, expected {d}")
            if not (np.isfinite(s).all() and np.isfinite(t).all()):
                raise DataFormatError(
                    f"{path}: non-finite value on line {lineno}")
            km.add(parts[0])
            theta_s[count] = s
            theta_t[count] = t
            count += 1
        if count != n:
            raise DataFormatError(
                f"{path}: header declares {n} rows, found {count}")
    emb = DualEmbeddings(nodes=np.arange(n), theta_s=theta_s, theta_t=theta_t)
    return emb, km


def _write_matrices(f, mats: list[np.ndarray]) -> None:
    for w in mats:
        f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())


def _read_matrix(f, rows: int, cols: int, path) -> np.ndarray:
    raw = f.read(rows * cols * 8)
    if len(raw) != rows * cols * 8:
        raise DataFormatError(f"{path}: truncated training state")
    return np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()


def save_train_state(state: TrainState, path) -> None:
    """Binary training state, written atomically."""
    p = state.params
    with atomic_write(path, "wb") as f:
        f.write(STATE_MAGIC)
        f.write(struct.pack("<IIII", STATE_VERSION, p.num_layers,
                            p.input_dim, p.embed_dim))
        _write_matrices(f, p.weights)
        _write_matrices(f, state.adam.m)
        _write_matrices(f, state.adam.v)
        best = state.best_params if state.best_params is not None else p
        _write_matrices(f, best.weights)
        f.write(struct.pack("<qqqq", state.adam.t, state.epoch,
                            state.best_epoch, state.epochs_since_best))
        f.write(struct.pack("<d", state.best_metric))


def resume(path) -> TrainState:
    """Load a training state; continuing from it reproduces the exact
    sequence an uninterrupted run would have produced."""
    with open(path, "rb") as f:
        magic = f.read(len(STATE_MAGIC))
        if magic != STATE_MAGIC:
            raise DataFormatError(f"{path}: bad training-state magic {magic!r}")
        header = f.read(16)
        if len(header) != 16:
            raise DataFormatError(f"{path}: truncated training-state header")
        version, L, d_in, d_h = struct.unpack("<IIII", header)
        if version != STATE_VERSION:
            raise DataFormatError(f"{path}: unsupported state version {version}")
        shapes = [((d_in if l == 0 else d_h), d_h) for l in range(L)]
        weights = [_read_matrix(f, r, c, path) for r, c in shapes]
        m = [_read_matrix(f, r, c, path) for r, c in shapes]
        v = [_read_matrix(f, r, c, path) for r, c in shapes]
        best = [_read_matrix(f, r, c, path) for r, c in shapes]
        tail = f.read(40)
        if len(tail) != 40:
            raise DataFormatError(f"{path}: truncated training-state footer")
        adam_t, epoch, best_epoch, since_best = struct.unpack("<qqqq", tail[:32])
        (best_metric,) = struct.unpack("<d", tail[32:])
    return TrainState(params=ModelParams(weights),
                      adam=AdamState(m=m, v=v, t=adam_t),
                      epoch=epoch,
                      best_params=ModelParams(best),
                      best_metric=best_metric,
                      best_epoch=best_epoch,
                      epochs_since_best=since_best)


# ----------------------------------------------------------------------
# The two-pass loss with one np.add.at per contribution: the bitwise
# oracle for the one-pass `loss_grad` and its single sparse scatter.
# ----------------------------------------------------------------------

def _addat_repel_arg(dots: np.ndarray, negative_form: str) -> np.ndarray:
    if negative_form == "one_minus_dot":
        return 1.0 - dots
    return -dots


def _addat_gather(emb, channel: str, nodes: np.ndarray) -> np.ndarray:
    mat = emb.theta_s if channel == "s" else emb.theta_t
    return mat[emb.rows_of(nodes)]


def _addat_term_dots(emb, batch: LossBatch):
    """Dot products feeding each term, in term order."""
    e = batch.cp_edges
    ow = batch.one_way
    cv = batch.cv_pairs
    s_u = _addat_gather(emb, "s", e[:, 0]) if len(e) else np.empty((0, 1))
    t_v = _addat_gather(emb, "t", e[:, 1]) if len(e) else np.empty((0, 1))
    d1 = np.sum(s_u * t_v, axis=1)
    if batch.negatives.size:
        z = batch.negatives
        t_z = _addat_gather(emb, "t", z.ravel()).reshape(z.shape[0], z.shape[1], -1)
        d2 = np.sum(s_u[:, None, :] * t_z, axis=2).ravel()
    else:
        d2 = np.empty(0)
    d3 = d1[ow]
    if ow.any():
        s_v = _addat_gather(emb, "s", e[ow, 1])
        t_u = _addat_gather(emb, "t", e[ow, 0])
        d4 = np.sum(s_v * t_u, axis=1)
    else:
        d4 = np.empty(0)
    if len(cv):
        s_a, s_b = _addat_gather(emb, "s", cv[:, 0]), _addat_gather(emb, "s", cv[:, 1])
        t_a, t_b = _addat_gather(emb, "t", cv[:, 0]), _addat_gather(emb, "t", cv[:, 1])
        d5 = np.sum(s_a * s_b, axis=1)
        d6 = np.sum(t_a * t_b, axis=1)
    else:
        d5 = np.empty(0)
        d6 = np.empty(0)
    return d1, d2, d3, d4, d5, d6


def addat_asymmetric_loss(emb, batch: LossBatch, weights=None,
                          negative_form: str = "one_minus_dot") -> LossValue:
    """Evaluate the loss; `weights` optionally scales the six terms."""
    if negative_form not in NEGATIVE_FORMS:
        raise ValueError(f"negative_form must be one of {NEGATIVE_FORMS}")
    w = np.ones(NUM_TERMS) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != (NUM_TERMS,):
        raise ValueError(f"expected {NUM_TERMS} term weights")
    d1, d2, d3, d4, d5, d6 = _addat_term_dots(emb, batch)
    terms = np.array([
        log_sigmoid(d1).sum(),
        log_sigmoid(_addat_repel_arg(d2, negative_form)).sum(),
        log_sigmoid(d3).sum(),
        log_sigmoid(_addat_repel_arg(d4, negative_form)).sum(),
        log_sigmoid(d5).sum(),
        log_sigmoid(d6).sum(),
    ])
    return LossValue(total=float(-(w * terms).sum()), terms=terms)


def addat_loss_grad(emb, batch: LossBatch, weights=None,
                    negative_form: str = "one_minus_dot"):
    """Gradients of the negated total w.r.t. the embedding rows.

    Attract terms contribute (sigmoid(dot) - 1) times the opposite row;
    repel terms contribute the derivative of -log sigmoid(1 - dot),
    which is 1 - sigmoid(1 - dot), times the opposite row (or the
    mirrored sign for the conventional -dot form). Returns (grad_s,
    grad_t) aligned with the embedding rows.
    """
    if negative_form not in NEGATIVE_FORMS:
        raise ValueError(f"negative_form must be one of {NEGATIVE_FORMS}")
    w = np.ones(NUM_TERMS) if weights is None else np.asarray(weights, dtype=np.float64)
    gs = np.zeros_like(emb.theta_s)
    gt = np.zeros_like(emb.theta_t)
    e = batch.cp_edges
    ow = batch.one_way
    cv = batch.cv_pairs

    def attract_coeff(dots):
        # d/ddot of -log sigmoid(dot)
        return sigmoid(dots) - 1.0

    def repel_coeff(dots):
        # d/ddot of -log sigmoid(repel_arg(dot))
        if negative_form == "one_minus_dot":
            return 1.0 - sigmoid(1.0 - dots)
        return sigmoid(dots)

    def accumulate(grad, rows, coeff, vecs):
        np.add.at(grad, rows, coeff[:, None] * vecs)

    if len(e):
        u_rows = emb.rows_of(e[:, 0])
        v_rows = emb.rows_of(e[:, 1])
        s_u = emb.theta_s[u_rows]
        t_v = emb.theta_t[v_rows]
        d1 = np.sum(s_u * t_v, axis=1)
        c1 = w[0] * attract_coeff(d1)
        accumulate(gs, u_rows, c1, t_v)
        accumulate(gt, v_rows, c1, s_u)
        if batch.negatives.size:
            z = batch.negatives
            z_rows = emb.rows_of(z.ravel())
            t_z = emb.theta_t[z_rows]
            s_u_rep = np.repeat(s_u, z.shape[1], axis=0)
            u_rows_rep = np.repeat(u_rows, z.shape[1])
            d2 = np.sum(s_u_rep * t_z, axis=1)
            c2 = w[1] * repel_coeff(d2)
            accumulate(gs, u_rows_rep, c2, t_z)
            accumulate(gt, z_rows, c2, s_u_rep)
        if ow.any():
            uo_rows, vo_rows = u_rows[ow], v_rows[ow]
            d3 = d1[ow]
            c3 = w[2] * attract_coeff(d3)
            accumulate(gs, uo_rows, c3, emb.theta_t[vo_rows])
            accumulate(gt, vo_rows, c3, emb.theta_s[uo_rows])
            s_v = emb.theta_s[vo_rows]
            t_u = emb.theta_t[uo_rows]
            d4 = np.sum(s_v * t_u, axis=1)
            c4 = w[3] * repel_coeff(d4)
            accumulate(gs, vo_rows, c4, t_u)
            accumulate(gt, uo_rows, c4, s_v)
    if len(cv):
        a_rows = emb.rows_of(cv[:, 0])
        b_rows = emb.rows_of(cv[:, 1])
        s_a, s_b = emb.theta_s[a_rows], emb.theta_s[b_rows]
        t_a, t_b = emb.theta_t[a_rows], emb.theta_t[b_rows]
        c5 = w[4] * attract_coeff(np.sum(s_a * s_b, axis=1))
        accumulate(gs, a_rows, c5, s_b)
        accumulate(gs, b_rows, c5, s_a)
        c6 = w[5] * attract_coeff(np.sum(t_a * t_b, axis=1))
        accumulate(gt, a_rows, c6, t_b)
        accumulate(gt, b_rows, c6, t_a)
    return gs, gt


# ----------------------------------------------------------------------
# The aggregate-then-transform model, relu((A @ H) @ W) with four dense
# products per layer: the oracle for the transform-then-aggregate order,
# which matches it up to reassociation.
# ----------------------------------------------------------------------

def _agg_selection(ptr: np.ndarray, rows: np.ndarray, n_cols: int) -> sp.csr_matrix:
    data = np.ones(len(rows), dtype=np.float64)
    return sp.csr_matrix((data, rows, ptr), shape=(len(ptr) - 1, n_cols))


@dataclasses.dataclass
class AggregateFirstTape:
    """What one forward pass keeps for its backward pass.

    steps[(channel, layer)] holds the selection matrices, the summed
    neighbor inputs, the ReLU masks, the pre-normalization row norms and
    the normalized output of that channel's layer. A tape is only valid
    for the weights it was recorded with.
    """

    num_layers: int
    steps: dict


def aggregate_first_layer(sel_cp, feed_cp, sel_cv, feed_cv, w: np.ndarray,
                          l: int, ch: str) -> tuple:
    """One (layer, channel) step: relu(sel_cp @ feed_cp @ w) +
    relu(sel_cv @ feed_cv @ w), rows normalized. Returns the summed
    neighbor inputs, the ReLU masks, the pre-normalization row norms and
    the normalized output, in that order."""
    sum_cp = sel_cp @ feed_cp
    sum_cv = sel_cv @ feed_cv
    # ReLUs and the sum run in place, so at most one pre-activation
    # matrix is alive; the arithmetic is the same as out of place
    h = sum_cp @ w
    on_cp = h > 0.0
    np.maximum(h, 0.0, out=h)
    pre_cv = sum_cv @ w
    on_cv = pre_cv > 0.0
    h += np.maximum(pre_cv, 0.0, out=pre_cv)
    if not np.isfinite(h).all():
        raise NumericalError(
            f"non-finite activations in layer {l} ({ch} channel)")
    norms = np.linalg.norm(h, axis=1)
    if not np.isfinite(norms).all():
        raise NumericalError(
            f"non-finite row norms in layer {l} ({ch} channel)")
    h /= np.where(norms > 0.0, norms, 1.0)[:, None]
    return sum_cp, sum_cv, on_cp, on_cv, norms, h


def aggregate_first_forward(blocks: ComputationBlocks, features: np.ndarray,
                            params: ModelParams
                            ) -> tuple[DualEmbeddings, AggregateFirstTape]:
    """Embeddings for the block seeds (rows align with blocks.seeds), plus
    the tape that `backward` needs for the same weights."""
    if params.num_layers != blocks.num_layers:
        raise ValueError(
            f"blocks have {blocks.num_layers} layers, params {params.num_layers}")
    if features.shape[1] != params.input_dim:
        raise ValueError(
            f"feature dim {features.shape[1]} != model input dim {params.input_dim}")
    H = {}
    for ch in (SOURCE, TARGET):
        H[(ch, 0)] = features[blocks.levels[0][ch].nodes]
    steps = {}
    for l in range(1, blocks.num_layers + 1):
        w = params.weights[l - 1]
        for ch in (SOURCE, TARGET):
            blk = blocks.levels[l][ch]
            other = TARGET if ch == SOURCE else SOURCE
            feed_cp = H[(other, l - 1)]
            feed_cv = H[(ch, l - 1)]
            sel_cp = _agg_selection(blk.cp_ptr, blk.cp_rows, feed_cp.shape[0])
            sel_cv = _agg_selection(blk.cv_ptr, blk.cv_rows, feed_cv.shape[0])
            step = aggregate_first_layer(sel_cp, feed_cp, sel_cv, feed_cv, w, l, ch)
            H[(ch, l)] = step[-1]
            steps[(ch, l)] = (sel_cp, sel_cv) + step
    L = blocks.num_layers
    emb = DualEmbeddings(nodes=blocks.seeds,
                         theta_s=H[(SOURCE, L)], theta_t=H[(TARGET, L)])
    return emb, AggregateFirstTape(num_layers=L, steps=steps)


def aggregate_first_backward(tape: AggregateFirstTape, params: ModelParams,
                             loss_grad_s: np.ndarray,
                             loss_grad_t: np.ndarray) -> list[np.ndarray]:
    """Gradients of a scalar loss w.r.t. every weight matrix.

    tape comes from `forward` with these same params; loss_grad_s /
    loss_grad_t are the loss gradients w.r.t. its seed output rows.
    Normalization backpropagates through the standard projected Jacobian,
    with zero-norm rows contributing nothing; the ReLU subgradient at 0
    is 0. Shared weights accumulate across channels and relation terms.
    """
    if params.num_layers != tape.num_layers:
        raise ValueError(
            f"tape has {tape.num_layers} layers, params {params.num_layers}")
    L = tape.num_layers
    grads = [np.zeros_like(w) for w in params.weights]
    gH = {(SOURCE, L): np.array(loss_grad_s, dtype=np.float64),
          (TARGET, L): np.array(loss_grad_t, dtype=np.float64)}
    for l in range(L, 0, -1):
        w = params.weights[l - 1]
        for ch in (SOURCE, TARGET):
            g_out = gH.pop((ch, l), None)
            if g_out is None:
                continue
            sel_cp, sel_cv, sum_cp, sum_cv, on_cp, on_cv, norms, y = \
                tape.steps[(ch, l)]
            nz = norms > 0.0
            dot = np.sum(y * g_out, axis=1, keepdims=True)
            g_pre = g_out - y * dot
            g_pre /= np.where(nz, norms, 1.0)[:, None]
            g_pre[~nz] = 0.0
            g_cp = g_pre * on_cp
            g_cv = g_pre * on_cv
            grads[l - 1] += sum_cp.T @ g_cp + sum_cv.T @ g_cv
            if l == 1:
                continue  # input features are constants
            other = TARGET if ch == SOURCE else SOURCE
            for key, sel, g_sum in (((other, l - 1), sel_cp, g_cp @ w.T),
                                    ((ch, l - 1), sel_cv, g_cv @ w.T)):
                contrib = sel.T @ g_sum
                if key in gH:
                    gH[key] = gH[key] + contrib
                else:
                    gH[key] = contrib
    for l, g in enumerate(grads):
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient for weight {l}")
    return grads


def aggregate_first_embed_all(g: DirectedProductGraph, features: np.ndarray,
                              params: ModelParams) -> DualEmbeddings:
    """Embeddings for every product, row order = dense node ids.

    Inference is layer-wise over the whole graph: each layer is computed
    once for every node from the graph's own CSR adjacencies, and only the
    previous layer is kept, so no tape is recorded. Neighborhoods are
    full (unsampled), so the result is deterministic. It equals `forward`
    over full blocks seeded with every node, up to BLAS blocking in the
    last ulp.
    """
    n = g.num_nodes
    if features.shape != (n, params.input_dim):
        raise ValueError(
            f"features have shape {features.shape}, expected "
            f"({n}, {params.input_dim})")
    cp_out = _agg_selection(g.cp_out.indptr, g.cp_out.indices, n)
    cp_in = _agg_selection(g.cp_in.indptr, g.cp_in.indices, n)
    cv = _agg_selection(g.cv_out.indptr, g.cv_out.indices, n)
    S = T = features
    for l, w in enumerate(params.weights, start=1):
        # source pulls cp out-neighbors' targets, target pulls cp
        # in-neighbors' sources; co-view keeps the channel
        S, T = (aggregate_first_layer(cp_out, T, cv, S, w, l, SOURCE)[-1],
                aggregate_first_layer(cp_in, S, cv, T, w, l, TARGET)[-1])
    return DualEmbeddings(nodes=np.arange(n), theta_s=S, theta_t=T)


# ----------------------------------------------------------------------
# The backward pass that reads its tape and leaves it whole: the oracle
# for `model.backward`, which consumes the tape layer by layer with the
# same float operations in the same order, so its grads are bit-equal.
# ----------------------------------------------------------------------

def keeping_backward(tape: Tape, params: ModelParams,
                     loss_grad_s: np.ndarray,
                     loss_grad_t: np.ndarray) -> list[np.ndarray]:
    """Gradients of a scalar loss w.r.t. every weight matrix.

    tape comes from `forward` with these same params; loss_grad_s /
    loss_grad_t are the loss gradients w.r.t. its seed output rows.
    Normalization backpropagates through the standard projected Jacobian,
    with zero-norm rows contributing nothing; the ReLU subgradient at 0
    is 0. Each transformed feed P = H @ W sums the gradients of its two
    consumers; then W gets H.T @ gP and the layer below gP @ W.T.
    """
    if params.num_layers != tape.num_layers:
        raise ValueError(
            f"tape has {tape.num_layers} layers, params {params.num_layers}")
    L = tape.num_layers
    grads = [None] * L
    gH = {SOURCE: np.array(loss_grad_s, dtype=np.float64),
          TARGET: np.array(loss_grad_t, dtype=np.float64)}
    for l in range(L, 0, -1):
        gP = {}
        for ch in (SOURCE, TARGET):
            sel_cp, sel_cv, on_cp, on_cv, norms = tape.steps[(ch, l)]
            y = tape.H[l][ch]
            g = gH.pop(ch)  # owned here, so it becomes g_pre in place
            nz = norms > 0.0
            g -= y * np.einsum("ij,ij->i", y, g)[:, None]
            g /= np.where(nz, norms, 1.0)[:, None]
            if not nz.all():
                g[~nz] = 0.0
            parts = [(TARGET if ch == SOURCE else SOURCE,
                      sel_cp.T @ (g * on_cp))]
            g *= on_cv
            parts.append((ch, sel_cv.T @ g))
            for key, contrib in parts:
                if key in gP:
                    gP[key] += contrib
                else:
                    gP[key] = contrib
        H = tape.H[l - 1]
        grads[l - 1] = H[SOURCE].T @ gP[SOURCE] + H[TARGET].T @ gP[TARGET]
        if l > 1:  # input features are constants
            w = params.weights[l - 1]
            gH = {ch: gP[ch] @ w.T for ch in (SOURCE, TARGET)}
    for l, g in enumerate(grads):
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient for weight {l}")
    return grads
