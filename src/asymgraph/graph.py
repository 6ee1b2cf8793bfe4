"""Directed product graph over co-purchase and co-view relations.

Co-purchase pairs are kept exactly as directed edges; co-view pairs are
symmetric similarity signal and get materialized in both directions.
Self-pairs are dropped and duplicate (u, v, kind) triples deduplicated.
Each relation is stored once, as CSR adjacency (`cp_out`, `cp_in`,
`cv_out`); the edge lists `cp_edges` and `cv_pairs` are derived from it
on first use. The graph is immutable after construction and safe for
concurrent reads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError
from .formats import (read_rows, read_table, text_lines, write_pairs,
                      write_rows)


class KeyMap:
    """Bijection between opaque external keys and dense integer ids.

    Ids are contiguous in first-appearance order, so downstream arrays
    are index-addressable.
    """

    def __init__(self, keys=()):
        self._keys: list[str] = list(dict.fromkeys(keys))
        self._ids: dict[str, int] = {k: i for i, k in enumerate(self._keys)}

    def add(self, key: str) -> int:
        idx = self._ids.get(key)
        if idx is None:
            idx = len(self._keys)
            self._ids[key] = idx
            self._keys.append(key)
        return idx

    def id_of(self, key: str) -> int:
        try:
            return self._ids[key]
        except KeyError:
            raise KeyError(f"unknown product key: {key!r}") from None

    def ids_of(self, keys) -> np.ndarray:
        """Ids of a sequence of keys as int64; KeyError on an unknown key."""
        return np.fromiter(map(self._ids.__getitem__, keys), dtype=np.int64,
                           count=len(keys))

    def key_of(self, idx: int) -> str:
        return self._keys[idx]

    def __contains__(self, key: str) -> bool:
        return key in self._ids

    def __len__(self) -> int:
        return len(self._keys)

    def keys(self) -> list[str]:
        return list(self._keys)


@dataclass(frozen=True)
class Adjacency:
    """CSR neighbor lists; indices sorted within each row."""

    indptr: np.ndarray
    indices: np.ndarray

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def rows(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Degree of each node and their neighbor lists concatenated."""
        starts = self.indptr[nodes]
        deg = self.indptr[nodes + 1] - starts
        first = np.cumsum(deg) - deg    # where each row starts in the output
        pos = np.arange(deg.sum(), dtype=np.int64) \
            + np.repeat(starts - first, deg)
        return deg, self.indices[pos]

    def pairs(self) -> np.ndarray:
        """Every stored (u, v) as an (m, 2) array, sorted by (u, v)."""
        u = np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))
        return np.stack([u, self.indices], axis=1)


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """What `np.unique` gives for a 1-D key array, by a sort and a mask:
    on int64 keys that beats its hash table many times over."""
    keys = np.sort(keys)
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _csr_from_keys(keys: np.ndarray, num_nodes: int) -> Adjacency:
    """CSR from sorted distinct `u * num_nodes + v` keys."""
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // num_nodes, minlength=num_nodes),
              out=indptr[1:])
    return Adjacency(indptr, keys % num_nodes)


def _reversed_keys(keys: np.ndarray, num_nodes: int) -> np.ndarray:
    """Sorted `v * num_nodes + u` keys of the `u * num_nodes + v` keys."""
    return np.sort(keys % num_nodes * num_nodes + keys // num_nodes)


def _checked_pairs(pairs, num_nodes: int, name: str) -> np.ndarray:
    """Pairs as (m, 2) int64 with self-loops dropped and ids range-checked."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    arr = arr[arr[:, 0] != arr[:, 1]]
    if len(arr) and (arr.min() < 0 or arr.max() >= num_nodes):
        raise DataFormatError(
            f"{name} pair references id outside [0, {num_nodes})")
    return arr


@dataclass(frozen=True)
class DirectedProductGraph:
    num_nodes: int
    cp_out: Adjacency
    cp_in: Adjacency
    cv_out: Adjacency

    @property
    def cv_in(self) -> Adjacency:
        """Co-view is symmetric, so in-neighbors are the out-neighbors."""
        return self.cv_out

    @functools.cached_property
    def cp_edges(self) -> np.ndarray:
        """Directed co-purchase edges sorted by (u, v)."""
        return self.cp_out.pairs()

    @functools.cached_property
    def cv_pairs(self) -> np.ndarray:
        """Co-view pairs once per unordered pair, as (u, v) with u < v,
        sorted by (u, v)."""
        pairs = self.cv_out.pairs()
        return pairs[pairs[:, 0] < pairs[:, 1]]

    @property
    def num_cp_edges(self) -> int:
        return len(self.cp_out.indices)

    @property
    def num_cv_edges(self) -> int:
        # directed count; both materialized directions
        return len(self.cv_out.indices)


def build_graph(cp_pairs, cv_pairs, num_nodes: int) -> DirectedProductGraph:
    """Build the graph from dense-id pairs.

    Duplicates and self-pairs are tolerated in the input; cv pairs are
    symmetrized so both traversal directions are materialized. Pairs are
    deduplicated and ordered as sorted `u * num_nodes + v` keys, from
    which every CSR is counted out directly.
    """
    n = num_nodes
    cp = _checked_pairs(cp_pairs, n, "co-purchase")
    cv = _checked_pairs(cv_pairs, n, "co-view")
    cp_keys = _sorted_distinct(cp[:, 0] * n + cp[:, 1])
    cv_keys = _sorted_distinct(cv.min(axis=1) * n + cv.max(axis=1))  # u < v
    return DirectedProductGraph(
        num_nodes=n,
        cp_out=_csr_from_keys(cp_keys, n),
        cp_in=_csr_from_keys(_reversed_keys(cp_keys, n), n),
        cv_out=_csr_from_keys(np.sort(np.concatenate(
            [cv_keys, _reversed_keys(cv_keys, n)])), n),
    )


def has_cp_edges(g: DirectedProductGraph, u, v) -> np.ndarray:
    """Elementwise flag: True iff the co-purchase edge u -> v exists.

    u and v broadcast against each other. cp_edges is sorted by (u, v),
    so its `u * n + v` keys are sorted and one searchsorted answers all.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    keys = g.cp_edges[:, 0] * g.num_nodes + g.cp_edges[:, 1]
    if len(keys) == 0:
        return np.zeros(np.broadcast_shapes(u.shape, v.shape), dtype=bool)
    q = u * g.num_nodes + v
    idx = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    return keys[idx] == q


def transitive_pairs(g: DirectedProductGraph, edges) -> np.ndarray:
    """Distinct (a, c), sorted, for each edge (a, b) and co-view partner
    c of b in `g`, unless c == a or a -> c is a co-purchase edge of `g`."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    deg, c = g.cv_out.rows(edges[:, 1])
    a = np.repeat(edges[:, 0], deg)
    ok = (c != a) & ~has_cp_edges(g, a, c)
    # distinct pairs in (a, c) order, as sorted `a * n + c` keys
    keys = _sorted_distinct(a[ok] * g.num_nodes + c[ok])
    return np.stack([keys // g.num_nodes, keys % g.num_nodes], axis=1)


def one_way_mask(g: DirectedProductGraph, edges: np.ndarray) -> np.ndarray:
    """Per-edge flag: True iff the reverse co-purchase edge is absent."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return ~has_cp_edges(g, edges[:, 1], edges[:, 0])


@dataclass(frozen=True)
class GraphStats:
    num_nodes: int
    num_cp_edges: int
    num_cv_edges: int
    num_cp_pairs: int
    num_one_way_pairs: int
    avg_degree: float
    one_way_pair_share: float


def graph_stats(g: DirectedProductGraph) -> GraphStats:
    """Degree and directedness summary.

    avg_degree counts stored directed edges (cp plus both cv directions)
    per node; one_way_pair_share is the fraction of distinct co-purchase
    pairs connected in exactly one direction.
    """
    one_way = np.count_nonzero(one_way_mask(g, g.cp_edges))
    pairs = one_way + (g.num_cp_edges - one_way) // 2
    total_directed = g.num_cp_edges + g.num_cv_edges
    return GraphStats(
        num_nodes=g.num_nodes,
        num_cp_edges=g.num_cp_edges,
        num_cv_edges=g.num_cv_edges,
        num_cp_pairs=pairs,
        num_one_way_pairs=one_way,
        avg_degree=total_directed / g.num_nodes if g.num_nodes else 0.0,
        one_way_pair_share=one_way / pairs if pairs else 0.0,
    )


# ----------------------------------------------------------------------
# File formats
# ----------------------------------------------------------------------

def load_edge_file(path, key_map: KeyMap | None = None):
    """Read a tab-separated edge file: `<src>\\t<dst>\\t<cp|cv>` per line.

    Lines starting with `#` are ignored; an empty key, or a destination
    key starting with `#` (a comment line once a dump reorders a co-view
    pair), is malformed. With a key map, unknown keys are an error too.
    Both errors report every offending line: a file the whole-file checks
    do not pass is read again line by line to name them.
    Returns (cp_pairs, cv_pairs, key_map), the pairs as (m, 2) int64 ids.
    """
    got = _bulk_edges(path, key_map)
    return got if got is not None else _scan_edges(path, key_map)


def _bulk_edges(path, key_map):
    """`load_edge_file` of a well-formed file, in a few list-wide checks,
    or None for any file it does not accept."""
    table = read_table(path, 2)
    if table is None:
        return None
    fields = table[1]
    kinds = fields[2::3]
    del fields[2::3]                # src, dst, src, dst, ...
    keys = dict.fromkeys(fields)    # in first-appearance order
    if not set(kinds) <= {"cp", "cv"} or "" in keys \
            or any(k.startswith("#") for k in keys):
        return None
    km = KeyMap(keys) if key_map is None else key_map
    try:
        ids = km.ids_of(fields).reshape(-1, 2)
    except KeyError:
        return None
    is_cp = np.fromiter(map("cp".__eq__, kinds), dtype=bool, count=len(kinds))
    return ids[is_cp], ids[~is_cp], km


def _scan_edges(path, key_map):
    """`load_edge_file` one line at a time, collecting every faulty line
    before it raises DataFormatError."""
    grow = key_map is None
    km = KeyMap() if grow else key_map
    cp, cv = [], []
    bad_lines: list[int] = []
    unknown_lines: list[int] = []
    for lineno, line in text_lines(path):
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
    return (np.array(cp, dtype=np.int64).reshape(-1, 2),
            np.array(cv, dtype=np.int64).reshape(-1, 2), km)


def _fmt_lines(lines: list[int], limit: int = 20) -> str:
    shown = ", ".join(str(x) for x in lines[:limit])
    if len(lines) > limit:
        shown += f", ... ({len(lines)} total)"
    return shown


def dump_edge_file(g: DirectedProductGraph, key_map: KeyMap, path) -> None:
    """Write the canonical edge dump: cp edges then cv pairs, sorted by id.

    cv pairs are written once per unordered pair; loading symmetrizes them
    back, so a rebuild from the dump reproduces the graph.
    """
    write_pairs(path, key_map, [(g.cp_edges, "cp"), (g.cv_pairs, "cv")])


def load_feature_file(path):
    """Read the feature file, text rows (see `formats`) of
    `<key>\\t<f1>,<f2>,...`. Returns (features, key_map)."""
    keys, (features,) = read_rows(path)
    return features, KeyMap(keys)


def dump_feature_file(features: np.ndarray, key_map: KeyMap, path) -> None:
    write_rows(path, [key_map.key_of(i) for i in range(len(features))],
               [features])
