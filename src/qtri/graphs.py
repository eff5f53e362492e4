"""Bitset graphs, pair sets, and reproducible instance generators.

Vertices are the integers 1..n and unordered pairs are canonicalised to
(min, max).  Each adjacency row is a single Python int used as a bitset, so
a common-neighbor count is one AND plus a popcount.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .rng import substream

GENERATOR_KINDS = (
    "erdos_renyi",
    "planted_triangle",
    "complete",
    "bipartite_blowup",
    "triangle_free_dense",
)


def canon_pair(a: int, b: int) -> tuple[int, int]:
    """Canonical (min, max) form of an unordered pair; loops are rejected."""
    if a == b:
        raise ValueError(f"loops are not allowed: ({a},{b})")
    return (a, b) if a < b else (b, a)


def _check_vertex(v: int, n: int) -> None:
    if not 1 <= v <= n:
        raise ValueError(f"vertex {v} out of range 1..{n}")


def bit_indices(x: int) -> Iterator[int]:
    """Indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def nth_set_bit(x: int, idx: int) -> int:
    """Index of the idx-th (0-based) set bit of x."""
    for _ in range(idx):
        x &= x - 1
    return (x & -x).bit_length() - 1


class Graph:
    """Immutable simple undirected graph on the vertex set {1..n}."""

    __slots__ = ("n", "_rows", "_edge_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        rows = [0] * (n + 1)
        count = 0
        for a, b in edges:
            a, b = canon_pair(a, b)
            _check_vertex(b, n)
            if not (rows[a] >> b) & 1:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
                count += 1
        self._rows = tuple(rows)
        self._edge_count = count

    @classmethod
    def from_adjacency(cls, adj: np.ndarray) -> "Graph":
        """Build from a symmetric boolean matrix indexed 1..n (row/col 0 ignored)."""
        n = adj.shape[0] - 1
        g = cls.__new__(cls)
        g.n = n
        rows = [0]
        for v in range(1, n + 1):
            row = adj[v].copy()
            row[0] = False
            row[v] = False
            packed = np.packbits(row, bitorder="little").tobytes()
            rows.append(int.from_bytes(packed, "little"))
        g._rows = tuple(rows)
        g._edge_count = sum(r.bit_count() for r in rows) // 2
        return g

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def has_edge(self, a: int, b: int) -> bool:
        a, b = canon_pair(a, b)
        _check_vertex(a, self.n)
        _check_vertex(b, self.n)
        return bool((self._rows[a] >> b) & 1)

    def neighbors_bits(self, v: int) -> int:
        _check_vertex(v, self.n)
        return self._rows[v]

    def degree(self, v: int) -> int:
        _check_vertex(v, self.n)
        return self._rows[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for a in range(1, self.n + 1):
            row = self._rows[a] >> (a + 1)
            b = a + 1
            while row:
                if row & 1:
                    yield (a, b)
                row >>= 1
                b += 1

    def row(self, v: int) -> np.ndarray:
        """v's adjacency row as a boolean array indexed 0..n (index 0 unused)."""
        _check_vertex(v, self.n)
        size = self.n + 1
        raw = np.frombuffer(self._rows[v].to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, count=size, bitorder="little").view(bool)

    def adjacency(self) -> np.ndarray:
        """Boolean adjacency matrix indexed 1..n (row/col 0 unused)."""
        size = self.n + 1
        out = np.zeros((size, size), dtype=bool)
        for v in range(1, size):
            out[v] = self.row(v)
        return out

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self._edge_count})"


class EdgeSet:
    """Finite set of unordered vertex pairs over {1..n}; loops forbidden."""

    __slots__ = ("n", "_pairs")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]] = ()) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self._pairs: set[tuple[int, int]] = set()
        for a, b in pairs:
            self.add(a, b)

    def add(self, a: int, b: int) -> None:
        pair = canon_pair(a, b)
        _check_vertex(pair[1], self.n)
        _check_vertex(pair[0], self.n)
        self._pairs.add(pair)

    def discard(self, a: int, b: int) -> None:
        self._pairs.discard(canon_pair(a, b))

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return canon_pair(*pair) in self._pairs

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._pairs))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EdgeSet) and self.n == other.n and self._pairs == other._pairs

    def degree(self, v: int) -> int:
        return sum(1 for p in self._pairs if v in p)

    def incident(self, v: int) -> list[tuple[int, int]]:
        return sorted(p for p in self._pairs if v in p)

    def to_graph(self) -> Graph:
        return Graph(self.n, self._pairs)

    def __repr__(self) -> str:
        return f"EdgeSet(n={self.n}, pairs={len(self._pairs)})"


def as_triangle(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Canonical sorted form of a vertex triple; the three must be distinct."""
    tri = tuple(sorted((a, b, c)))
    if len(set(tri)) != 3:
        raise ValueError(f"not a triangle: {(a, b, c)}")
    return tri  # type: ignore[return-value]


def neighborhood(graph: Graph, v: int) -> set[int]:
    """All vertices adjacent to v."""
    return set(bit_indices(graph.neighbors_bits(v)))


def path2_count(graph: Graph, a: int, b: int) -> int:
    """Number of common neighbors of a and b (paths of length two)."""
    a, b = canon_pair(a, b)
    _check_vertex(b, graph.n)
    return (graph.neighbors_bits(a) & graph.neighbors_bits(b)).bit_count()


def triangle_count(graph: Graph) -> int:
    """Exact triangle count by scanning every edge's upper common neighbors."""
    total = 0
    for a, b in graph.edges():
        above = ~((1 << (b + 1)) - 1)
        total += (graph.neighbors_bits(a) & graph.neighbors_bits(b) & above).bit_count()
    return total


def enumerate_triangles(graph: Graph) -> list[tuple[int, int, int]]:
    """Every triangle once, as sorted triples."""
    out = []
    for a, b in graph.edges():
        above = ~((1 << (b + 1)) - 1)
        common = graph.neighbors_bits(a) & graph.neighbors_bits(b) & above
        for c in bit_indices(common):
            out.append((a, b, c))
    return out


def threshold_graph(graph: Graph, t: int) -> EdgeSet:
    """All unordered pairs (edges or not) with at most t common neighbors."""
    if t < 0:
        raise ValueError("t must be >= 0")
    out = EdgeSet(graph.n)
    for a in range(1, graph.n + 1):
        row_a = graph.neighbors_bits(a)
        for b in range(a + 1, graph.n + 1):
            if (row_a & graph.neighbors_bits(b)).bit_count() <= t:
                out.add(a, b)
    return out


def bipartite_edges(graph: Graph, side_a: Iterable[int], side_b: Iterable[int]) -> EdgeSet:
    """Edges of the graph with one endpoint in side_a and the other in side_b."""
    out = EdgeSet(graph.n)
    set_b = set(side_b)
    bits_b = 0
    for v in set_b:
        _check_vertex(v, graph.n)
        bits_b |= 1 << v
    for a in set(side_a):
        _check_vertex(a, graph.n)
        for b in bit_indices(graph.neighbors_bits(a) & bits_b):
            if a != b:
                out.add(a, b)
    return out


def sample_triangle(graph: Graph, rng: np.random.Generator) -> tuple[int, int, int]:
    """Uniformly random triangle of a graph that has at least one."""
    edges = []
    weights = []
    for a, b in graph.edges():
        above = ~((1 << (b + 1)) - 1)
        w = (graph.neighbors_bits(a) & graph.neighbors_bits(b) & above).bit_count()
        if w:
            edges.append((a, b))
            weights.append(w)
    if not edges:
        raise ValueError("graph has no triangle")
    cum = np.cumsum(weights)
    pick = int(np.searchsorted(cum, rng.integers(cum[-1]), side="right"))
    a, b = edges[pick]
    above = ~((1 << (b + 1)) - 1)
    common = graph.neighbors_bits(a) & graph.neighbors_bits(b) & above
    c = nth_set_bit(common, int(rng.integers(common.bit_count())))
    return (a, b, c)


# ---------------------------------------------------------------------------
# Instance generators


def _empty_adj(n: int) -> np.ndarray:
    return np.zeros((n + 1, n + 1), dtype=bool)


def _blocks(n: int, parts: int) -> list[np.ndarray]:
    sizes = [n // parts + (1 if i < n % parts else 0) for i in range(parts)]
    verts = np.arange(1, n + 1)
    out = []
    start = 0
    for s in sizes:
        out.append(verts[start : start + s])
        start += s
    return out


def generate(kind: str, n: int, seed: int, p: float | None = None) -> Graph:
    """Deterministic test instance of the given kind.

    erdos_renyi(p)       independent edges with probability p
    planted_triangle(p)  erdos_renyi(p) plus one guaranteed random triangle
    complete             every pair
    bipartite_blowup     balanced complete bipartite graph (triangle free)
    triangle_free_dense  balanced 5-cycle blowup (triangle free, dense)
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    if n < 3:
        raise ValueError("n must be >= 3")
    needs_p = kind in ("erdos_renyi", "planted_triangle")
    if needs_p:
        if p is None or not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
    rng = substream(seed, "graph", kind, n, None if p is None else float(p))
    adj = _empty_adj(n)

    if kind in ("erdos_renyi", "planted_triangle"):
        iu = np.triu_indices(n, k=1)
        hits = rng.random(len(iu[0])) < p
        adj[iu[0] + 1, iu[1] + 1] = hits
        adj |= adj.T
        if kind == "planted_triangle":
            a, b, c = (int(v) + 1 for v in rng.choice(n, size=3, replace=False))
            for x, y in ((a, b), (b, c), (a, c)):
                adj[x, y] = adj[y, x] = True
    elif kind == "complete":
        adj[1:, 1:] = True
        np.fill_diagonal(adj, False)
    elif kind == "bipartite_blowup":
        left, right = _blocks(n, 2)
        adj[np.ix_(left, right)] = True
        adj |= adj.T
    else:  # triangle_free_dense: 5-cycle blowup
        blocks = _blocks(n, 5)
        for i in range(5):
            a, b = blocks[i], blocks[(i + 1) % 5]
            if len(a) and len(b):
                adj[np.ix_(a, b)] = True
        adj |= adj.T
    return Graph.from_adjacency(adj)


# ---------------------------------------------------------------------------
# Text format: first line "n", then one "u v" line per edge, 1-based.

# Largest vertex count `load_graph` accepts.  The check runs before any
# per-vertex allocation, so a corrupt or hostile header cannot exhaust memory.
MAX_VERTICES = 1 << 16


def save_graph(graph: Graph, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{graph.n}\n")
        for a, b in graph.edges():
            fh.write(f"{a} {b}\n")


def load_graph(path: str) -> Graph:
    """Parse the text format, rejecting loops, duplicates, bad vertices and a
    vertex count outside 1..MAX_VERTICES."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [(num, ln.strip()) for num, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty graph file")
    try:
        n = int(lines[0][1])
    except ValueError as exc:
        raise ValueError(f"{path}: first line must be the vertex count") from exc
    if n < 1:
        raise ValueError(f"{path}: vertex count must be >= 1")
    if n > MAX_VERTICES:
        raise ValueError(f"{path}: vertex count {n} exceeds the maximum {MAX_VERTICES}")
    seen: set[tuple[int, int]] = set()
    for num, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{num}: malformed edge line {ln!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{num}: edge endpoints must be integers: {ln!r}") from exc
        pair = canon_pair(a, b)
        _check_vertex(pair[0], n)
        _check_vertex(pair[1], n)
        if pair in seen:
            raise ValueError(f"{path}: duplicate edge {pair}")
        seen.add(pair)
    return Graph(n, seen)
