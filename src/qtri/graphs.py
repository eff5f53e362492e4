"""Graphs, triangle counting, reproducible instance generators and a plain
text graph format.

Vertices are the integers 1..n and unordered pairs are canonicalised to
(min, max).  A `Graph` keeps its adjacency as one read-only packed bit
matrix, and this module is the only one that knows that layout: every other
module reads a graph through `has_edge`, `degree`, `edges`, `rows` (with its
wrappers `row` and `adjacency`) and `induced_edge_count`, which return Python
values or boolean numpy arrays.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .rng import substream

GENERATOR_KINDS = (
    "erdos_renyi",
    "planted_triangle",
    "complete",
    "bipartite_blowup",
    "triangle_free_dense",
)
MIN_GRAPH_N = 3  # the smallest vertex count `generate` accepts


def canon_pair(a: int, b: int) -> tuple[int, int]:
    """Canonical (min, max) form of an unordered pair; loops are rejected."""
    if a == b:
        raise ValueError(f"loops are not allowed: ({a},{b})")
    return (a, b) if a < b else (b, a)


def _check_vertex(v: int, n: int) -> None:
    if not 1 <= v <= n:
        raise ValueError(f"vertex {v} out of range 1..{n}")


class Graph:
    """Immutable simple undirected graph on the vertex set {1..n}.

    The adjacency relation is one read-only packed bit matrix of shape
    (n+1, ceil((n+1)/8)), laid out as `np.packbits(adj, axis=1,
    bitorder="little")` lays out the boolean matrix `adj`: bit u of row v is
    bit u & 7 of byte u >> 3.  Row 0, column 0 and the diagonal are clear.
    """

    __slots__ = ("n", "_bits", "_edge_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        pairs = np.fromiter(edges, dtype=np.dtype((np.int64, 2)))
        pairs.sort(axis=1)  # canonical (min, max) rows
        lo, hi = pairs[:, 0], pairs[:, 1]
        loops = lo[lo == hi]
        if len(loops):
            raise ValueError(f"loops are not allowed: ({loops[0]},{loops[0]})")
        if len(pairs):
            _check_vertex(int(lo.min()), n)
            _check_vertex(int(hi.max()), n)
        # bits are set in place: a dense (n+1)^2 matrix would not fit for large sparse n
        bits = np.zeros((n + 1, (n + 8) // 8), dtype=np.uint8)
        for row, col in ((lo, hi), (hi, lo)):
            np.bitwise_or.at(bits, (row, col >> 3), np.left_shift(1, (col & 7).astype(np.uint8)))
        keys = np.sort(lo * (n + 1) + hi)
        self._set(n, bits, len(keys) - int(np.count_nonzero(keys[1:] == keys[:-1])))

    def _set(self, n: int, bits: np.ndarray, edge_count: int) -> None:
        bits.flags.writeable = False
        self.n = n
        self._bits = bits
        self._edge_count = edge_count

    @classmethod
    def from_adjacency(cls, adj: np.ndarray) -> "Graph":
        """Build from a symmetric boolean matrix indexed 1..n (row/col 0 and the
        diagonal ignored)."""
        adj = np.array(adj, dtype=bool)
        adj[0, :] = adj[:, 0] = False
        np.fill_diagonal(adj, False)
        g = cls.__new__(cls)
        g._set(adj.shape[0] - 1, np.packbits(adj, axis=1, bitorder="little"),
               int(np.count_nonzero(adj)) // 2)
        return g

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def has_edge(self, a: int, b: int) -> bool:
        a, b = canon_pair(a, b)
        _check_vertex(a, self.n)
        _check_vertex(b, self.n)
        return bool(self._bits[a, b >> 3] >> (b & 7) & 1)

    def degree(self, v: int) -> int:
        return int(np.count_nonzero(self.row(v)))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every edge once as (a, b) with a < b, in ascending order."""
        rows, byte = np.nonzero(self._bits)  # only nonzero bytes are unpacked
        bits = np.unpackbits(self._bits[rows, byte][:, None], axis=1, bitorder="little")
        hit, shift = np.nonzero(bits)
        a, b = rows[hit], byte[hit] * 8 + shift
        upper = a < b
        return zip(a[upper].tolist(), b[upper].tolist())

    def _vertices(self, vertices: Sequence[int] | np.ndarray) -> np.ndarray:
        """`vertices` as a one-dimensional index array, every entry in 1..n."""
        vertices = np.asarray(vertices, dtype=np.intp)
        if vertices.ndim != 1:
            raise ValueError("vertices must be one-dimensional")
        if vertices.size:
            _check_vertex(int(vertices.min()), self.n)
            _check_vertex(int(vertices.max()), self.n)
        return vertices

    def rows(self, vertices: Sequence[int] | np.ndarray | None = None) -> np.ndarray:
        """The adjacency rows of `vertices`, in order and duplicates included,
        as a boolean matrix with columns indexed 0..n (column 0 unused); with
        no argument, every row 0..n (row 0 unused).  Only the packed rows
        asked for are unpacked."""
        bits = self._bits if vertices is None else self._bits[self._vertices(vertices)]
        return np.unpackbits(bits, axis=1, count=self.n + 1, bitorder="little").view(bool)

    def row(self, v: int) -> np.ndarray:
        """v's adjacency row as a boolean array indexed 0..n (index 0 unused)."""
        return self.rows([v])[0]

    def adjacency(self) -> np.ndarray:
        """Boolean adjacency matrix indexed 1..n (row/col 0 unused)."""
        return self.rows()

    def induced_edge_count(self, vertices: Sequence[int] | np.ndarray) -> int:
        """Number of edges with both ends among the distinct `vertices`.

        Counted on the packed rows of `vertices` alone, each ANDed with a
        packed membership mask, so no other row is read or unpacked.
        """
        vertices = self._vertices(vertices)
        inside = np.zeros(self.n + 1, dtype=bool)
        inside[vertices] = True
        block = self._bits[vertices] & np.packbits(inside, bitorder="little")
        return int(np.count_nonzero(np.unpackbits(block))) // 2

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self._edge_count})"


def common_neighbors(rows: np.ndarray) -> np.ndarray:
    """counts[i, j] = |{k : rows[i, k] and rows[j, k]}| for a boolean matrix,
    as int32.  This is the one place that multiplies adjacency matrices: a
    single float32 product `x @ x.T`, which is exact because every partial
    sum is an integer no larger than the row length, and float32 holds every
    integer below 2**24 (a dense boolean matrix with rows that long would
    need terabytes)."""
    x = rows.astype(np.float32)
    x = x @ x.T  # drops the float copy of `rows` before the cast
    return x.astype(np.int32)


def triangle_count(graph: Graph) -> int:
    """Exact triangle count: summed over the ordered edges (a, b), the common
    neighbor counts count every triangle six times."""
    adj = graph.adjacency()
    return int(np.sum(common_neighbors(adj), where=adj, dtype=np.int64)) // 6


# ---------------------------------------------------------------------------
# Instance generators


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
    if n < MIN_GRAPH_N:
        raise ValueError(f"n must be >= {MIN_GRAPH_N}")
    needs_p = kind in ("erdos_renyi", "planted_triangle")
    if needs_p:
        if p is None or not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
    rng = substream(seed, "graph", kind, n, None if p is None else float(p))
    adj = np.zeros((n + 1, n + 1), dtype=bool)

    if needs_p:
        # one draw per pair i < j, in row-major order over the strict upper triangle
        adj[1:, 1:][np.triu(np.ones((n, n), dtype=bool), 1)] = rng.random(n * (n - 1) // 2) < p
        if kind == "planted_triangle":
            a, b, c = (int(v) + 1 for v in rng.choice(n, size=3, replace=False))
            adj[[a, b, a], [b, c, c]] = True
    elif kind == "complete":
        adj[1:, 1:] = True
    else:  # balanced blowup of a 2-cycle (complete bipartite) or of a 5-cycle
        blocks = np.array_split(np.arange(1, n + 1), 2 if kind == "bipartite_blowup" else 5)
        for a, b in zip(blocks, blocks[1:] + blocks[:1]):
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
        try:
            pair = canon_pair(a, b)
            _check_vertex(pair[0], n)
            _check_vertex(pair[1], n)
        except ValueError as exc:
            raise ValueError(f"{path}:{num}: {exc}") from None
        if pair in seen:
            raise ValueError(f"{path}:{num}: duplicate edge {pair}")
        seen.add(pair)
    return Graph(n, seen)
