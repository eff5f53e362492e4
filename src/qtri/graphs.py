"""Graphs, triangle counting, reproducible instance generators and a plain
text graph format.

Vertices are the integers 1..n and unordered pairs are canonicalised to
(min, max).  A `Graph` keeps its adjacency as one read-only packed bit
matrix whose rows are padded to whole uint64 words, and this module is the
only one that knows that layout: every other module reads a graph through
`has_edge`, `degrees`, `edges`, the index arrays `pairs`, the packed rows of
chosen vertices `rows`, a `Rows` reader with its own `pairs`, `degrees`,
slices, bit reads `at` and boolean form `dense` (`adjacency` is every row's),
the boolean `block` among chosen vertices, the intersection `&` of two graphs
and the difference `graph(*minus)`, each itself a `Graph`, and the packed
counts `common_counts` and `neighbors_in`.  The packed reads AND and popcount
whole uint64 words, and no way into a `Graph` passes through an (n+1)^2
matrix: a `Cover` ORs packed rows into the row of each vertex they hold,
says whether those ORs meet a graph's rows, and hands back its complement,
step 2's G' (`Graph.uncovered` covers every sampled row).  A `PairSet` is
a mutable pair set in the same layout, which clears, moves (a band of a
block at a time) and scans pairs on the packed words and hands them back as
a `Graph`.  `common_bands`, the one matrix product, yields a block's counts
as upper row bands of at most BAND_CELLS cells, which every caller reduces
band by band.  It and `triangle_count` keep a block's float32 copy and its
band of counts in the module's workspace, two float32 buffers of at most
2 * BAND_CELLS cells that stay mapped and are reused from call to call;
qtri uses the workspace from one thread.  `generate` writes every instance
straight into the packed rows; its random kinds draw raw Philox words a
chunk of rows at a time, so the memory stays near the packed graph's up to
MAX_VERTICES.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .rng import substream

GENERATOR_KINDS = (
    "erdos_renyi",
    "planted_triangle",
    "random_bipartite",
    "complete",
    "bipartite_blowup",
    "triangle_free_dense",
)
MIN_GRAPH_N = 3  # the smallest vertex count `generate` accepts
# Largest vertex count `generate` and `load_graph` accept.  Both check it
# before any per-vertex allocation, so a corrupt or hostile header or a
# mistyped size cannot exhaust memory.
MAX_VERTICES = 1 << 16
# Pairs that `Graph.common_counts` gathers at once: its memory stays bounded
# however many pairs it counts.
GATHER_ROWS = 4096
# Cells of the pair block that a random `generate` kind fills at once, each cell
# at most one raw Philox word (a chunk of 8 rows may hold more): its memory
# stays bounded however large n is.
CHUNK_CELLS = 1 << 16
# Float32 cells in one band of `common_bands`' counts, about 1,130 rows of a
# 7,400-vertex block: a caller holds one band of counts, not the whole product.
BAND_CELLS = 1 << 23
# The kernel's workspace: the free float32 buffer of each role, "copy" (a block's
# float32 copy) and "band" (one band of counts).  A taker pops its role's buffer,
# so a caller that starts while another holds it gets a new array.
_SPARE = {role: np.empty(0, dtype=np.float32) for role in ("copy", "band")}
# Bit i of a packed byte holds column 8j + i (little bit order)
_BIT_MASKS = np.array([1 << i for i in range(8)], dtype=np.uint8)


def canon_pair(a: int, b: int) -> tuple[int, int]:
    """Canonical (min, max) form of an unordered pair; loops are rejected."""
    if a == b:
        raise ValueError(f"loops are not allowed: ({a},{b})")
    return (a, b) if a < b else (b, a)


def _check_vertex(v: int, n: int) -> None:
    """Reject a vertex label that is not an integer (bools included) in 1..n."""
    if isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"vertex labels must be integers, got {v!r}")
    if not 1 <= v <= n:
        raise ValueError(f"vertex {v} out of range 1..{n}")


class Graph:
    """Immutable simple undirected graph on the vertex set {1..n}.

    The adjacency relation is one read-only packed bit matrix of shape
    (n+1, 8 * ceil((n+1)/64)) bytes, laid out as `np.packbits(adj, axis=1,
    bitorder="little")` lays out the boolean matrix `adj` and zero-padded to
    whole uint64 words: bit u of row v is bit u & 7 of byte u >> 3.  Row 0,
    column 0, the diagonal and the padding are clear.  `_words` is the same
    memory as uint64 words, which the packed counts AND and popcount.
    """

    __slots__ = ("n", "_bits", "_words", "_edge_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        edges = list(edges)
        # every label is checked here, before the int64 conversion could broadcast or overflow
        for pair in edges:
            if len(pair) != 2:
                raise ValueError(f"an edge must be a pair of vertices, got {pair!r}")
            for v in pair:
                _check_vertex(v, n)
        pairs = np.fromiter(edges, dtype=np.dtype((np.int64, 2)))
        pairs.sort(axis=1)  # canonical (min, max) rows
        lo, hi = pairs[:, 0], pairs[:, 1]
        loops = lo[lo == hi]
        if len(loops):
            raise ValueError(f"loops are not allowed: ({loops[0]},{loops[0]})")
        # bits are set in place: a dense (n+1)^2 matrix would not fit for large sparse n
        bits = np.zeros((n + 1, _row_bytes(n + 1)), dtype=np.uint8)
        for row, col in ((lo, hi), (hi, lo)):
            _set_bits(bits, row, col)
        self._set(n, bits)

    def _set(self, n: int, bits: np.ndarray) -> "Graph":
        """Take `bits` as the read-only adjacency; every edge sets two bits."""
        bits.flags.writeable = False
        self.n = n
        self._bits = bits
        self._words = bits.view(np.uint64)
        # GATHER_ROWS rows of popcounts at a time: a whole uint8 count matrix is an eighth of the bits
        rows = range(0, n + 1, GATHER_ROWS)
        self._edge_count = sum(int(np.bitwise_count(self._words[r : r + GATHER_ROWS]).sum()) for r in rows) // 2
        return self

    @classmethod
    def uncovered(cls, hoods: "Rows") -> "Graph":
        """Step 2's G' from the packed sampled `Rows` `hoods`: the pairs that no
        row holds both ends of, the complement of the `Cover` of every row."""
        cover = Cover(hoods.n)
        cover.add(hoods)
        return cover.uncovered()

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def has_edge(self, a: int, b: int) -> bool:
        _check_vertex(a, self.n)
        _check_vertex(b, self.n)
        a, b = canon_pair(a, b)
        return bool(self._bits[a, b >> 3] >> (b & 7) & 1)

    def degrees(self) -> np.ndarray:
        """Every vertex's int64 degree, indexed 0..n (entry 0 is 0), from the packed rows."""
        return np.bitwise_count(self._words).sum(axis=1, dtype=np.int64)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every edge once as (a, b) with a < b, in ascending order."""
        return zip(*(side.tolist() for side in self.pairs()))

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every edge once as two index arrays (a, b), a < b, in ascending
        row-major order; only the nonzero bytes of the packed rows are unpacked."""
        a, b = self.rows().pairs()
        upper = a < b
        return a[upper], b[upper]

    def __and__(self, other: "Graph") -> "Graph":
        """The edges of both this graph and `other`, as a `Graph` on the AND of
        their packed rows."""
        if other.n != self.n:
            raise ValueError(f"graphs on n={self.n} and n={other.n} share no vertex set")
        return Graph.__new__(Graph)._set(self.n, self._bits & other._bits)

    def _vertices(self, vertices: Sequence[int] | np.ndarray) -> np.ndarray:
        """`vertices` as a one-dimensional index array, every entry an integer
        in 1..n; an empty input may have any dtype."""
        vertices = np.asarray(vertices)
        if vertices.ndim != 1:
            raise ValueError("vertices must be one-dimensional")
        if vertices.size:
            if vertices.dtype.kind not in "iu":
                raise ValueError(f"vertex labels must be integers, got an array of {vertices.dtype}")
            _check_vertex(vertices.min(), self.n)
            _check_vertex(vertices.max(), self.n)
        return vertices.astype(np.intp, copy=False)

    def rows(self, vertices: Sequence[int] | np.ndarray | None = None) -> "Rows":
        """The packed rows of `vertices`, in order and duplicates included, as a
        `Rows` reader; with no argument, every row 0..n (row 0 unused)."""
        return Rows(self.n, self._bits if vertices is None else self._bits[self._vertices(vertices)])

    def block(self, vertices: Sequence[int] | np.ndarray) -> np.ndarray:
        """The boolean block among `vertices`, rows and columns in their order,
        duplicates included: their packed rows, then the byte of each column,
        masked in place to the column's bit.  No row is unpacked."""
        vertices = self._vertices(vertices)
        cells = self._bits[vertices][:, vertices >> 3]
        cells &= _BIT_MASKS[vertices & 7]
        # symmetric, so the transpose of the column-major gather is the block in C order
        return np.not_equal(cells.T, 0)

    def adjacency(self) -> np.ndarray:
        """Boolean adjacency matrix indexed 1..n (row/col 0 unused)."""
        return self.rows().dense()

    def common_counts(self, a: Sequence[int] | np.ndarray, b: Sequence[int] | np.ndarray) -> np.ndarray:
        """int64 counts[i] of the common neighbors of a[i] and b[i], for two
        vertex arrays of one length: their packed rows are ANDed and
        popcounted, GATHER_ROWS pairs at a time."""
        a, b = self._vertices(a), self._vertices(b)
        if len(a) != len(b):
            raise ValueError(f"vertex arrays of lengths {len(a)} and {len(b)} do not pair up")
        return self._and_counts(a, lambda part: np.take(self._words, b[part], axis=0))

    def neighbors_in(self, vertices: Sequence[int] | np.ndarray, row: "Rows") -> np.ndarray:
        """int64 counts[i] of the neighbors of vertices[i] that the one packed
        row of `row` holds, GATHER_ROWS vertices at a time."""
        if len(row) != 1:
            raise ValueError(f"a reader of {len(row)} rows is not one row")
        words = row._bits.view(np.uint64)
        return self._and_counts(self._vertices(vertices), lambda part: words)

    def _and_counts(self, a: np.ndarray, other: Callable[[slice], np.ndarray]) -> np.ndarray:
        """The popcounts of the packed rows of `a` ANDed with the words
        other(part) for each chunk `part` of GATHER_ROWS of them."""
        count = np.empty(len(a), dtype=np.int64)
        for start in range(0, len(a), GATHER_ROWS):
            part = slice(start, start + GATHER_ROWS)
            block = np.take(self._words, a[part], axis=0)
            block &= other(part)
            # a count is at most n - 1, so 16 bits hold it for every n up to MAX_VERTICES;
            # einsum's row sums beat `sum(axis=1)` over the few words of a row
            count[part] = np.einsum("ij->i", np.bitwise_count(block), dtype=np.uint16)
        return count

    def graph(self, *minus: "Graph | PairSet") -> "Graph":
        """The pairs that none of the sets `minus` holds, as a `Graph` on one
        copy of the packed rows."""
        bits = self._bits.copy()
        for other in minus:
            bits &= ~other._bits
        return Graph.__new__(Graph)._set(self.n, bits)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self._edge_count})"


class Rows:
    """The packed adjacency rows of chosen vertices, in `Graph`'s layout."""

    __slots__ = ("n", "_bits")
    _vertices = Graph._vertices

    def __init__(self, n: int, bits: np.ndarray) -> None:
        self.n, self._bits = n, bits

    def __len__(self) -> int:
        return len(self._bits)

    def __getitem__(self, rows: slice) -> "Rows":
        """The reader of a slice of the rows, on the same memory."""
        return Rows(self.n, self._bits[rows])

    def degrees(self) -> np.ndarray:
        """Each row's int64 count of set bits."""
        return np.bitwise_count(self._bits.view(np.uint64)).sum(axis=1, dtype=np.int64)

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """The (row, column) index pairs of the set bits, row-major, unpacking
        only nonzero bytes."""
        rows, byte = np.nonzero(self._bits)
        flat = np.flatnonzero(np.unpackbits(self._bits[rows, byte], bitorder="little"))  # bit 8h + i: bit i of byte h
        hit = flat >> 3
        return rows[hit], byte[hit] * 8 + (flat & 7)

    def at(self, columns: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
        """Row i's bits at row i of the 2-D `columns`, in order and duplicates
        included, as a boolean array; every column must lie in 1..n."""
        columns = np.asarray(columns)
        if columns.ndim != 2 or len(columns) != len(self):
            raise ValueError(f"columns of shape {columns.shape} do not give one row per vertex")
        columns = self._vertices(columns.reshape(-1)).reshape(columns.shape)
        return (self._bits[np.arange(len(self))[:, None], columns >> 3] & _BIT_MASKS[columns & 7]).astype(bool)

    def dense(self) -> np.ndarray:
        """The rows as a boolean matrix with columns 0..n (column 0 unused)."""
        return np.unpackbits(self._bits, axis=1, count=self.n + 1, bitorder="little").view(bool)


class Cover:
    """The pairs that the squares of packed adjacency rows cover, in `Graph`'s
    layout: row u is the OR of the added rows that hold u, so it holds each w
    that shares an added row with u.  The words are allocated at the first
    `add`; `uncovered` is the complement, step 2's G'."""

    __slots__ = ("n", "_words")

    def __init__(self, n: int) -> None:
        self.n, self._words = n, None

    def _cover(self) -> np.ndarray:
        if self._words is None:
            self._words = np.zeros((self.n + 1, _row_bytes(self.n + 1) // 8), dtype=np.uint64)
        return self._words

    def add(self, rows: Rows, hidden: Graph | None = None) -> bool:
        """OR each of `rows` into the row of every vertex that it holds.  Blocks
        of rows of at most GATHER_ROWS << 6 cells are unpacked in turn, and each
        block's (u, row) pairs, u-major, are gathered GATHER_ROWS at a time (a u
        whose pairs span two chunks or blocks ORs into its row again).  Given a
        graph `hidden`, say whether some chunk's OR for a u meets u's row of
        `hidden`: whether a square of `rows` covers an edge of `hidden`, which
        the rows added before do not sway."""
        n, words, added = self.n, self._cover(), rows._bits.view(np.uint64)
        meets = False
        size = max((GATHER_ROWS << 6) // (n + 1), 1)
        for first in range(0, len(rows), size):
            block = added[first : first + size]
            user, owner = np.nonzero(Rows(n, block.view(np.uint8)).dense().T)  # u ascending
            for start in range(0, len(user), GATHER_ROWS):
                part = slice(start, start + GATHER_ROWS)
                heads = np.flatnonzero(np.diff(user[part], prepend=-1))  # each u's first pair in the chunk
                users = user[part][heads]
                ors = np.bitwise_or.reduceat(np.take(block, owner[part], axis=0), heads, axis=0)
                if hidden is not None and not meets:
                    met = np.take(hidden._words, users, axis=0)
                    met &= ors
                    meets = bool(met.any())
                    del met
                words[users] |= ors  # a statement of its own, so the gathered rows are freed first
                del ors  # nor kept alive through the next chunk's gather
        return meets

    def uncovered(self) -> Graph:
        """The pairs that no added row covers, as a `Graph` on the cover's own
        words, inverted in place, less row 0, column 0, the diagonal and the
        padding; the cover is spent."""
        n, words = self.n, self._cover()
        self._words = None
        np.invert(words, out=words)
        words &= _packed(np.arange(n + 1)[None] > 0).view(np.uint64)  # column 0 and the padding
        words[0] = 0
        _clear_diagonal(words.view(np.uint8))
        return Graph.__new__(Graph)._set(n, words.view(np.uint8))


class PairSet:
    """Mutable symmetric pair set on {1..n} in `Graph`'s packed layout, starting
    as a graph's edges; pairs only leave it, except those `move_block` moves in."""

    __slots__ = ("n", "_bits", "_words")

    def __init__(self, graph: Graph) -> None:
        self.n = graph.n
        self._bits = graph._bits.copy()
        self._words = self._bits.view(np.uint64)

    degrees, rows, block, graph = Graph.degrees, Graph.rows, Graph.block, Graph.graph
    _vertices = Graph._vertices

    def upper_rows(self, start: int, limit: int) -> np.ndarray:
        """Up to `limit` rows u from `start` on, ascending, that hold a pair
        (u, w) with w > u, scanned in blocks of `limit` rows, then twice as many."""
        found: list[np.ndarray] = []
        while start <= self.n and sum(map(len, found)) < limit:
            rows = np.arange(start, min(start + (limit << len(found)), self.n + 1))
            # a row's bits above the diagonal: its own word's above its column, then every later word
            above = (np.arange(self._words.shape[1]) > (rows >> 6)[:, None]) * ~np.uint64(0)
            above[np.arange(len(rows)), rows >> 6] = ~np.uint64(1) << (rows & 63).astype(np.uint64)
            found.append(rows[(above & self._words[rows]).any(axis=1)])
            start = rows[-1] + 1
        return np.concatenate(found or [np.empty(0, dtype=np.intp)])[:limit]

    def clear_incident(self, vertices: Sequence[int] | np.ndarray) -> int:
        """Clear every pair at each of the distinct `vertices` in one pass, their
        rows and then the span of byte columns that holds their bits; return how
        many of them held a pair."""
        vertices = self._vertices(vertices)
        held = int(np.count_nonzero(self._words[vertices].any(axis=1)))
        self._bits[vertices] = 0
        mask = np.zeros((1, self.n + 1), dtype=bool)
        mask[0, vertices] = True
        cleared = _packed(mask)[0]
        if held:  # by symmetry no column holds a bit of a vertex whose row was empty
            cols = np.flatnonzero(cleared)
            self._bits[:, cols[0] : cols[-1] + 1] &= ~cleared[cols[0] : cols[-1] + 1]
        return held

    def clear_between(self, a: Sequence[int] | np.ndarray, b: Sequence[int] | np.ndarray) -> bool:
        """Clear every pair (x, y) with x in `a` and y in `b`, two sets of
        distinct vertices that may overlap; say whether one was set."""
        masks = np.zeros((2, self.n + 1), dtype=bool)
        masks[0, a] = masks[1, b] = True
        in_a, in_b = _packed(masks).view(np.uint64)
        had = bool((self._words[a] & in_b).any())
        self._words[a] &= ~in_b
        self._words[b] &= ~in_a
        return had

    def move_block(self, live: np.ndarray, band: np.ndarray, into: "PairSet") -> None:
        """Move the pairs of an upper row band of a symmetric boolean block over
        the ascending vertices `live` to `into`: `band` holds the rows of
        live[:b] over the columns `live`, and its first b columns, the diagonal
        tile, are symmetric.  Its rows move, then its transposed part for the
        later rows, b rows at a time; a band of every row is the whole block."""
        height = len(band)
        self._move(live[:height], live, band, into)
        for start in range(height, len(live), height):
            self._move(live[start : start + height], live[:height], band[:, start : start + height].T, into)

    def _move(self, rows: np.ndarray, columns: np.ndarray, block: np.ndarray, into: "PairSet") -> None:
        """Move the pairs of a boolean `block` over the vertices `rows` by the
        ascending `columns` to `into`, in one packed operation over the rows
        that hold one and the words from the first column's on."""
        hit = np.flatnonzero(block.any(axis=1))
        first = columns[0] >> 6
        bits = np.zeros((len(hit), columns[-1] + 1 - (first << 6)), dtype=bool)
        bits[:, columns - (first << 6)] = block[hit]
        moved = _packed(bits).view(np.uint64)
        span = (rows[hit], slice(first, first + moved.shape[1]))
        self._words[span] &= ~moved
        into._words[span] |= moved


def _row_bytes(columns: int) -> int:
    """Bytes in a packed row of `columns` bits, padded to whole uint64 words."""
    return (columns + 63) // 64 * 8


def _packed(rows: np.ndarray) -> np.ndarray:
    """Boolean rows packed as a `Graph` packs its adjacency, padding included."""
    bits = np.zeros((rows.shape[0], _row_bytes(rows.shape[1])), dtype=np.uint8)
    bits[:, : (rows.shape[1] + 7) // 8] = np.packbits(rows, axis=1, bitorder="little")
    return bits


def _set_bits(bits: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Set bit cols[i] of packed row rows[i] for every i, repeats included."""
    np.bitwise_or.at(bits, (rows, cols >> 3), _BIT_MASKS[cols & 7])


def _clear_diagonal(bits: np.ndarray) -> None:
    """Clear bit v of packed row v for every row v."""
    diagonal = np.arange(len(bits))
    bits[diagonal, diagonal >> 3] &= ~_BIT_MASKS[diagonal & 7]


@contextlib.contextmanager
def _float32(role: str, shape: tuple[int, ...]) -> Iterator[np.ndarray]:
    """A float32 array of `shape` in the workspace's `role` buffer, grown to fit,
    which goes back when the block exits; a new array when the buffer is taken
    or the array has more than BAND_CELLS cells."""
    cells = math.prod(shape)
    spare = _SPARE.pop(role, None) if cells <= BAND_CELLS else None
    if spare is None:
        yield np.empty(shape, dtype=np.float32)
        return
    if len(spare) < cells:
        spare = np.empty(cells, dtype=np.float32)
    try:
        yield spare[:cells].reshape(shape)
    finally:
        _SPARE[role] = spare


def common_bands(rows: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """The common-neighbor counts of the rows of an L x m boolean (or 0/1
    float32, which is not copied) matrix x as upper row bands, (i, x[i:i+b]
    @ x[i:].T) for i = 0, b, 2b, ..., in float32.  The height b is
    BAND_CELLS // L (one row at least); one band of b >= L rows is the whole
    product.  Each band overwrites the last in one buffer, so a caller
    reduces a band before it asks for the next.  The band buffer and the
    float32 copy of a boolean x come from the module's workspace, two
    float32 buffers that stay mapped between calls and hold at most
    2 * BAND_CELLS cells: the generator takes them on its first band and
    hands them back when it finishes or is closed, and one started while
    another holds them allocates its own.  qtri calls it from one thread.
    A copy of more than BAND_CELLS cells is allocated per call and freed
    before the last band is yielded.  This is the one place that
    multiplies adjacency matrices: a band's diagonal tile is a symmetric
    product, which numpy computes with half the work, so the bands cost what
    the whole symmetric product does.  float32 is exact, since every partial
    sum is an integer no larger than m < 2**24."""
    copied = rows.dtype != np.float32
    with _float32("copy", rows.shape) if copied else contextlib.nullcontext(rows) as x:
        if copied:
            x[...] = rows
        height = max(BAND_CELLS // max(len(x), 1), 1)
        with _float32("band", (min(height, len(x)) * len(x),)) as buffer:
            for i in range(0, len(x), height):
                tile = x[i : i + height]
                band = buffer[: len(tile) * (len(x) - i)].reshape(len(tile), len(x) - i)
                np.matmul(tile, tile.T, out=band[:, : len(tile)])
                np.matmul(tile, x[i + len(tile) :].T, out=band[:, len(tile) :])
                if len(band) == band.shape[1]:  # the last band is square: free a per-call copy while it is reduced
                    del x, tile
                yield i, band


def triangle_count(graph: Graph) -> int:
    """Exact triangle count: summed over the ordered edges (a, b), the common
    neighbor counts count every triangle six times.

    Only the vertices with an edge are multiplied.  Their `Graph.block` is read
    only when that drops a vertex: with none isolated the whole adjacency is
    cheaper to unpack, and its (n+1)-wide product is the faster shape.  The
    block's float32 form is written into the workspace's copy buffer (see
    `common_bands`).  Each band of `common_bands` is masked by it in place;
    its diagonal tile holds its pairs in both orders and the rest once, so
    the tile is summed once and the rest twice, in float64.  That is exact:
    every term is an integer no larger than n, so every partial sum is an
    integer no larger than n**3, below 2**53 for every n <= MAX_VERTICES."""
    live = np.flatnonzero(graph._bits.any(axis=1))  # row 0 is always empty
    block = graph.adjacency() if len(live) == graph.n else graph.block(live)
    total = 0.0
    with _float32("copy", block.shape) as x:
        x[...] = block
        for i, band in common_bands(x):
            band *= x[i : i + len(band), i:]
            total += band[:, : len(band)].sum(dtype=np.float64) + 2 * band[:, len(band) :].sum(dtype=np.float64)
    return int(total) // 6


# ---------------------------------------------------------------------------
# Instance generators


def generate(kind: str, n: int, seed: int, p: float | None = None) -> Graph:
    """Deterministic test instance of the given kind.

    erdos_renyi(p)       independent edges with probability p
    planted_triangle(p)  erdos_renyi(p) plus one guaranteed random triangle
    random_bipartite(p)  two balanced sides, chosen by a random permutation, and
                         independent cross edges with probability p (triangle free)
    complete             every pair
    bipartite_blowup     balanced complete bipartite graph (triangle free)
    triangle_free_dense  balanced 5-cycle blowup (triangle free, dense)

    Every kind writes its bits straight into the packed layout: no kind holds
    an (n+1)^2 boolean matrix.  The random kinds draw one raw Philox word per
    candidate pair u < w, in row-major order, a chunk of rows at a time (see
    `_draw_pairs`).  The pair is an edge when `(raw >> 11) < ceil(p * 2**53)`,
    which is exactly `random() < p`: numpy's `random()` is `(raw >> 11) *
    2**-53`, and both that product and `p * 2**53` are exact (a power-of-two
    scaling of a double in [0, 1]), so the two compare alike, p = 0 and p = 1
    included.  So each graph equals, bit for bit, the one drawn by a single
    `rng.random(count) < p` over its candidate pairs in row-major order.
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    if n < MIN_GRAPH_N:
        raise ValueError(f"n must be >= {MIN_GRAPH_N}")
    if n > MAX_VERTICES:
        raise ValueError(f"n must be <= {MAX_VERTICES}")
    needs_p = kind in ("erdos_renyi", "planted_triangle", "random_bipartite")
    if needs_p:
        if p is None or not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
    rng = substream(seed, "graph", kind, n, None if p is None else float(p))
    bits = np.zeros((n + 1, _row_bytes(n + 1)), dtype=np.uint8)

    if kind == "random_bipartite":
        side = np.zeros(n + 1, dtype=bool)
        side[rng.permutation(n)[n // 2 :] + 1] = True
        _draw_pairs(bits, rng, p, side)
    elif needs_p:
        _draw_pairs(bits, rng, p)
        if kind == "planted_triangle":
            a, b, c = (int(v) + 1 for v in rng.choice(n, size=3, replace=False))
            _set_bits(bits, np.array([a, b, a, b, c, c]), np.array([b, a, c, c, a, b]))
    else:  # balanced blowup of a 1-cycle (complete, once its diagonal is cleared), 2-cycle or 5-cycle
        parts = {"complete": 1, "bipartite_blowup": 2, "triangle_free_dense": 5}[kind]
        # the contiguous blocks of np.array_split(range(1, n + 1), parts)
        bounds = [1 + i * (n // parts) + min(i, n % parts) for i in range(parts + 1)]
        member = np.zeros((parts, n + 1), dtype=bool)
        for i in range(parts):
            member[i, bounds[i] : bounds[i + 1]] = True
        own = _packed(member)
        near = np.roll(own, 1, axis=0) | np.roll(own, -1, axis=0)
        for i in range(parts):
            bits[bounds[i] : bounds[i + 1]] = near[i]
        _clear_diagonal(bits)
    return Graph.__new__(Graph)._set(n, bits)


def _draw_pairs(bits: np.ndarray, rng: np.random.Generator, p: float, side: np.ndarray | None = None) -> None:
    """OR into the packed rows `bits` each pair u < w (with side[u] != side[w],
    given a boolean `side`) with probability p, one raw word of `rng` per pair
    in row-major order.

    A chunk is the rows r0..r1-1 from a multiple r0 of 8: as many whole 8-row
    groups as keep its block, those rows over the columns r0..n, within
    CHUNK_CELLS cells (one group at least).  It ORs the block's packed rows into
    its rows and the block's packed transpose into the byte columns of r0..r1-1,
    which no other chunk touches.  Its draw count comes from the rows' pair
    counts, not from counting the block."""
    n = len(bits) - 1
    above = n - np.arange(n + 1)  # the pairs (u, w > u) of row u
    if side is not None:  # those with w on the other side
        ahead = np.cumsum(side[::-1])[::-1] - side  # the side's vertices above u
        above = np.where(side, above - ahead, ahead)
    above[0] = 0
    # draws before each 8-row group, then all of them
    before = [0, *itertools.accumulate(np.add.reduceat(above, np.arange(0, n + 1, 8)).tolist())]
    threshold = np.uint64(math.ceil(p * 2.0**53))
    r0 = 0
    while r0 <= n:
        width = n + 1 - r0
        r1 = min(r0 + 8 * max(1, CHUNK_CELLS // (8 * width)), n + 1)
        height = (r1 - r0 + 7) & ~7  # whole 8-row groups
        # row k of the strict upper block is True from column k + 1 on, so the last
        # chunk's rows past n are clear: one ramp, read a byte further back per row
        ramp = np.arange(height + width - 1) >= height
        block = np.ndarray((height, width), bool, ramp, height - 1, (-1, 1)).copy()
        if r0 == 0:
            block[0] = False  # vertex 0 has no pairs
        if side is not None:
            block[: r1 - r0] &= side[r0:] != side[r0:r1, None]
        raw = rng.bit_generator.random_raw(before[(r0 + height) // 8] - before[r0 // 8])
        raw >>= 11
        block[block] = raw < threshold
        del raw
        byte = r0 >> 3
        rows = np.packbits(block[: r1 - r0], axis=1, bitorder="little")
        bits[r0:r1, byte : byte + rows.shape[1]] |= rows
        # the transpose, packed: byte (g, c) holds block[8g + k, c] at bit k
        cols = np.einsum("gkc,k->gc", block.reshape(-1, 8, width).view(np.uint8), _BIT_MASKS)
        bits[r0:, byte : byte + len(cols)] |= cols.T
        r0 = r1


# ---------------------------------------------------------------------------
# Text format: first line "n", then one "u v" line per edge, 1-based.


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
