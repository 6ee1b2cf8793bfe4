"""Directed product graph over co-purchase and co-view relations.

Co-purchase pairs are kept exactly as directed edges; co-view pairs are
symmetric similarity signal and get materialized in both directions.
Self-pairs are dropped and duplicate (u, v, kind) triples deduplicated.
The graph is immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError


class RelationKind(enum.Enum):
    CO_PURCHASE = "cp"
    CO_VIEW = "cv"


class Direction(enum.Enum):
    OUT = "out"
    IN = "in"


class KeyMap:
    """Bijection between opaque external keys and dense integer ids.

    Ids are contiguous in first-appearance order, so downstream arrays
    are index-addressable.
    """

    def __init__(self, keys=()):
        self._keys: list[str] = []
        self._ids: dict[str, int] = {}
        for k in keys:
            self.add(k)

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

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)


def _csr_from_keys(keys: np.ndarray, num_nodes: int) -> Adjacency:
    """CSR from sorted distinct `u * num_nodes + v` keys."""
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // num_nodes, minlength=num_nodes),
              out=indptr[1:])
    return Adjacency(indptr, keys % num_nodes)


def _pairs_of(keys: np.ndarray, num_nodes: int) -> np.ndarray:
    return np.stack([keys // num_nodes, keys % num_nodes], axis=1)


def _reversed_keys(pairs: np.ndarray, num_nodes: int) -> np.ndarray:
    """Sorted `v * num_nodes + u` keys of the (u, v) pairs."""
    return np.sort(pairs[:, 1] * num_nodes + pairs[:, 0])


def _checked_pairs(pairs, num_nodes: int, name: str) -> np.ndarray:
    """Pairs as (m, 2) int64 with self-loops dropped and ids range-checked."""
    arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                     dtype=np.int64)
    arr = arr.reshape(-1, 2)
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
    # Canonical edge lists: cp directed pairs sorted by (u, v); cv stored
    # once per unordered pair with u < v.
    cp_edges: np.ndarray = field(repr=False)
    cv_pairs: np.ndarray = field(repr=False)

    @property
    def cv_in(self) -> Adjacency:
        """Co-view is symmetric, so in-neighbors are the out-neighbors."""
        return self.cv_out

    @property
    def num_cp_edges(self) -> int:
        return len(self.cp_edges)

    @property
    def num_cv_edges(self) -> int:
        # directed count; both materialized directions
        return 2 * len(self.cv_pairs)

    def neighbors(self, u: int, kind: RelationKind,
                  direction: Direction) -> np.ndarray:
        if not 0 <= u < self.num_nodes:
            raise IndexError(f"node id {u} out of range [0, {self.num_nodes})")
        adj = {
            (RelationKind.CO_PURCHASE, Direction.OUT): self.cp_out,
            (RelationKind.CO_PURCHASE, Direction.IN): self.cp_in,
            (RelationKind.CO_VIEW, Direction.OUT): self.cv_out,
            (RelationKind.CO_VIEW, Direction.IN): self.cv_in,
        }[(kind, direction)]
        return adj.neighbors(u)

    def has_cp_edge(self, u: int, v: int) -> bool:
        return self.cp_out.has_edge(u, v)


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
    cp_keys = np.unique(cp[:, 0] * n + cp[:, 1])
    cv_keys = np.unique(cv.min(axis=1) * n + cv.max(axis=1))  # u < v
    cp_edges, cv_pairs_u = _pairs_of(cp_keys, n), _pairs_of(cv_keys, n)
    return DirectedProductGraph(
        num_nodes=n,
        cp_out=_csr_from_keys(cp_keys, n),
        cp_in=_csr_from_keys(_reversed_keys(cp_edges, n), n),
        cv_out=_csr_from_keys(np.sort(np.concatenate(
            [cv_keys, _reversed_keys(cv_pairs_u, n)])), n),
        cp_edges=cp_edges,
        cv_pairs=cv_pairs_u,
    )


def _read_only(a: np.ndarray) -> np.ndarray:
    v = a.view()
    v.flags.writeable = False
    return v


def _splice(adj: Adjacency, rows: np.ndarray, new_row: np.ndarray) -> Adjacency:
    """Add node n = len(indptr) - 1: append n to each of `rows` (sorted,
    distinct) and append row n holding `new_row` (sorted, distinct).

    n exceeds every stored id, so it belongs at the end of each row it
    joins. An adjacency that gains nothing shares its indices.
    """
    n = len(adj.indptr) - 1
    if len(rows) == 0 and len(new_row) == 0:
        return Adjacency(np.append(adj.indptr, adj.indptr[-1]),
                         _read_only(adj.indices))
    indptr = adj.indptr.copy()
    indptr[1:] += np.cumsum(np.bincount(rows, minlength=n))
    indices = np.insert(adj.indices, adj.indptr[rows + 1], n)
    return Adjacency(np.append(indptr, indptr[-1] + len(new_row)),
                     np.concatenate([indices, new_row]))


def attach_node(g: DirectedProductGraph, cv_nbrs=(),
                cp_targets=()) -> DirectedProductGraph:
    """The graph plus one new node n = g.num_nodes, without a rebuild.

    The new node gets co-view pairs with `cv_nbrs` and co-purchase edges
    n -> w for w in `cp_targets`. Every array equals what `build_graph`
    gives for the extended pair lists; arrays that do not change are
    shared with `g` as read-only views, and `g` itself is untouched.
    """
    n = g.num_nodes
    cv_w = np.unique(np.asarray(cv_nbrs, dtype=np.int64))
    cp_w = np.unique(np.asarray(cp_targets, dtype=np.int64))
    for w, name in ((cv_w, "co-view"), (cp_w, "co-purchase")):
        if len(w) and (w[0] < 0 or w[-1] >= n):
            raise DataFormatError(
                f"{name} neighbor id outside [0, {n})")
    cp_edges = _read_only(g.cp_edges)
    if len(cp_w):
        cp_edges = np.concatenate(
            [g.cp_edges, np.stack([np.full(len(cp_w), n), cp_w], axis=1)])
    cv_pairs = _read_only(g.cv_pairs)
    if len(cv_w):
        at = np.searchsorted(g.cv_pairs[:, 0], cv_w, side="right")
        cv_pairs = np.insert(g.cv_pairs, at,
                             np.stack([cv_w, np.full(len(cv_w), n)], axis=1),
                             axis=0)
    empty = np.empty(0, dtype=np.int64)
    return DirectedProductGraph(
        num_nodes=n + 1,
        cp_out=_splice(g.cp_out, empty, cp_w),
        cp_in=_splice(g.cp_in, cp_w, empty),
        cv_out=_splice(g.cv_out, cv_w, cv_w),
        cp_edges=cp_edges,
        cv_pairs=cv_pairs,
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


def one_way_mask(g: DirectedProductGraph, edges: np.ndarray) -> np.ndarray:
    """Per-edge flag: True iff the reverse co-purchase edge is absent."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return ~has_cp_edges(g, edges[:, 1], edges[:, 0])


def one_way_cp_edges(g: DirectedProductGraph) -> np.ndarray:
    """Co-purchase edges whose reverse is absent, sorted by (u, v)."""
    return g.cp_edges[one_way_mask(g, g.cp_edges)]


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
    one_way = len(one_way_cp_edges(g))
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

    Lines starting with `#` are ignored. When a key map is supplied,
    unknown keys are an ingestion error reporting every offending line.
    Returns (cp_pairs, cv_pairs, key_map) with dense-id pairs.
    """
    grow = key_map is None
    km = KeyMap() if grow else key_map
    cp, cv = [], []
    bad_lines: list[int] = []
    unknown_lines: list[int] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3 or parts[2] not in ("cp", "cv"):
                bad_lines.append(lineno)
                continue
            src, dst, kind = parts
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
    with open(path, "w", encoding="utf-8") as f:
        for u, v in g.cp_edges:
            f.write(f"{key_map.key_of(u)}\t{key_map.key_of(v)}\tcp\n")
        for u, v in g.cv_pairs:
            f.write(f"{key_map.key_of(u)}\t{key_map.key_of(v)}\tcv\n")


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


def dump_feature_file(features: np.ndarray, key_map: KeyMap, path) -> None:
    from .util import fmt_float
    n, dim = features.shape
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{n}\t{dim}\n")
        for i in range(n):
            blob = ",".join(fmt_float(x) for x in features[i])
            f.write(f"{key_map.key_of(i)}\t{blob}\n")
