"""Graph kernel tests: the worked examples plus randomized invariants."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtri import Graph, generate, load_graph, save_graph, triangle_count
from qtri import graphs
from qtri.graphs import (
    GENERATOR_KINDS,
    MAX_VERTICES,
    PairSet,
    canon_pair,
    common_bands,
)
from qtri.rng import keyed, substream
from qtri.solver import WorkingGraph

K3 = Graph(3, [(1, 2), (2, 3), (1, 3)])
K4 = Graph(4, list(itertools.combinations(range(1, 5), 2)))
# C4 realised as the complete bipartite graph on sides {1,2} and {3,4}
C4 = Graph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])


def brute_triangles(graph):
    out = []
    for a, b, c in itertools.combinations(range(1, graph.n + 1), 3):
        if graph.has_edge(a, b) and graph.has_edge(b, c) and graph.has_edge(a, c):
            out.append((a, b, c))
    return out


def test_triangle_counts():
    assert triangle_count(K3) == 1
    assert triangle_count(K4) == 4
    assert triangle_count(C4) == 0


def test_triangle_enumeration_matches_count():
    for n, seed in [(8, 0), (14, 1), (18, 2), (25, 3), (32, 4), (32, 5)]:
        g = generate("erdos_renyi", n, seed=seed, p=0.35)
        assert triangle_count(g) == len(brute_triangles(g))


# Band cell budgets that split the blocks of small graphs into several bands:
# one-row bands, so a block of 3 or more vertices spans 3 bands or more, and
# bands of 2-5 rows on blocks of 8-20 vertices
SMALL_BANDS = (1, 40)


@pytest.mark.parametrize("n, triangles", [(300, 4_455_100), (335, 6_209_895)])
def test_triangle_count_is_exact_where_a_float32_total_would_round(n, triangles, monkeypatch):
    # the masked sum 6 * C(n, 3) is above 2**24 at both sizes; numpy's pairwise
    # float32 sum of the counts still lands on it at n = 300 but misses it by 2 at
    # n = 335; so does the float64 total of one band, of 3-4 bands or of one-row bands
    assert triangles == math.comb(n, 3) and 6 * triangles > 1 << 24
    graph = generate("complete", n, seed=0)
    for cells in (graphs.BAND_CELLS, (n + 1) * (n // 3), 1):
        monkeypatch.setattr(graphs, "BAND_CELLS", cells)
        assert triangle_count(graph) == triangles


@pytest.mark.parametrize("graph", [
    Graph(1), Graph(9), Graph(9, [(3, 7)]),  # no edges, and one edge that spans no triangle
    K3, K4, C4,  # every vertex live
    Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),  # C5: every vertex live, no triangle
    generate("erdos_renyi", 40, seed=2, p=0.5),
    Graph(12, [(2, 5), (5, 11), (2, 11), (5, 9), (9, 11)]),  # isolated vertices between live ones
    Graph(9, [(7, 8), (8, 9), (7, 9)]),  # vertices 1..6 isolated
])
def test_triangle_count_with_and_without_isolated_vertices(graph, monkeypatch):
    want = len(brute_triangles(graph))
    for cells in (graphs.BAND_CELLS, *SMALL_BANDS):
        monkeypatch.setattr(graphs, "BAND_CELLS", cells)
        assert triangle_count(graph) == want


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_triangle_count_matches_brute_force_with_isolated_vertices(data):
    n = data.draw(st.integers(1, 30), label="n")
    live = sorted(data.draw(st.sets(st.integers(1, n)), label="live"))
    pairs = list(itertools.combinations(live, 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges") if pairs else []
    g = Graph(n, edges)
    want = len(brute_triangles(g))
    for cells in (graphs.BAND_CELLS, *SMALL_BANDS):
        with mock.patch.object(graphs, "BAND_CELLS", cells):
            assert triangle_count(g) == want


@pytest.mark.parametrize("n", [3, 7, 8, 9, 63, 64, 65, 200])
def test_common_edges_match_the_unpacked_listing(n):
    # the common edges of two graphs are their intersection `&`, a Graph;
    # n = 7, 8, 9 (and 63, 64, 65) put column n at the end of a byte, alone in one, and past it
    for seed, (p, q) in enumerate([(0.0, 0.5), (0.3, 0.3), (0.5, 0.8), (1.0, 0.2), (0.9, 1.0)]):
        a = generate("erdos_renyi", n, seed=seed, p=p)
        b = generate("erdos_renyi", n, seed=seed + 100, p=q)
        want = np.nonzero(np.triu(a.adjacency() & b.adjacency(), 1))
        both = a & b
        assert type(both) is Graph and both.n == n and both.edge_count == len(want[0])
        got = both.pairs()
        assert all(x.dtype == np.intp for x in got)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert list(both.edges()) == list(zip(want[0].tolist(), want[1].tolist()))
        assert list((b & a).edges()) == list(both.edges())
    for a, b in ((K3, K4), (K4, K3), (K3, Graph(2))):
        with pytest.raises(ValueError, match="share no vertex set"):
            a & b


@pytest.mark.parametrize("n", [3, 7, 8, 9, 63, 64, 65, 200])
def test_common_block_matches_the_unpacked_and(n):
    # the block of the common edges among the vertices that hold one, read off `&`;
    # p = 1.0 with q = 1.0 leaves every vertex live, p = 0.0 none
    for seed, (p, q) in enumerate([(0.0, 0.5), (0.05, 0.5), (0.3, 0.3), (1.0, 1.0), (0.9, 1.0)]):
        a = generate("erdos_renyi", n, seed=seed, p=p)
        b = generate("erdos_renyi", n, seed=seed + 100, p=q)
        both = a.adjacency() & b.adjacency()
        live = np.flatnonzero(both.any(axis=1))
        common = a & b
        assert np.array_equal(common.adjacency(), both)
        assert np.array_equal(np.flatnonzero(common.degrees()), live)
        assert np.array_equal(common.degrees(), both.sum(axis=1))
        block = common.block(live)
        assert block.dtype == bool and np.array_equal(block, both[np.ix_(live, live)])
    with pytest.raises(ValueError):
        K3 & K4


def test_handshake_identity():
    # summing common-neighbor counts over the edges triple-counts triangles
    for seed in range(10):
        g = generate("erdos_renyi", 24, seed=seed, p=0.3)
        acc = sum(int(np.count_nonzero(np.logical_and(*g.rows([a, b]).dense()))) for a, b in g.edges())
        assert acc == 3 * triangle_count(g) == 3 * len(brute_triangles(g))


edge_lists = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=120),
    )
)


@settings(max_examples=60, deadline=None)
@given(edge_lists, st.data())
def test_graph_agrees_with_a_set_of_pairs(case, data):
    n, edges = case
    edges = [(a, b) for a, b in edges if a != b]
    g = Graph(n, edges)
    ref = {canon_pair(a, b) for a, b in edges}
    adj = g.adjacency()
    assert adj.shape == (n + 1, n + 1) and adj.dtype == bool
    assert g.edge_count == len(ref)
    assert list(g.edges()) == sorted(ref)
    for v in range(1, n + 1):
        hood = {u for u in range(1, n + 1) if u != v and canon_pair(u, v) in ref}
        [row] = g.rows([v]).dense()
        assert set(np.flatnonzero(row).tolist()) == hood
        assert g.degrees()[v] == len(hood)
        assert np.array_equal(adj[v], row)
        for u in range(1, n + 1):
            if u != v:
                assert g.has_edge(u, v) == (canon_pair(u, v) in ref)
    assert not adj[0].any() and not adj[:, 0].any()
    picks = data.draw(st.lists(st.integers(1, n), max_size=2 * n), label="rows")
    rows = g.rows(picks).dense()
    assert rows.shape == (len(picks), n + 1) and rows.dtype == bool
    assert np.array_equal(rows, adj[picks])
    # each neighbor's degree inside v's neighborhood, as steps 2 and 7 weigh it
    v = data.draw(st.integers(1, n), label="owner")
    members = np.flatnonzero(adj[v])
    degrees = g.common_counts(np.full_like(members, v), members)
    assert degrees.tolist() == [sum(canon_pair(a, b) in ref for b in members if b != a) for a in members]
    assert int(degrees.sum()) // 2 == sum(
        canon_pair(a, b) in ref for a, b in itertools.combinations(members.tolist(), 2)
    )
    assert triangle_count(g) == len(brute_triangles(g))
    for rows in (adj, np.triu(adj, 1)):
        brute = (rows[:, None, :] & rows[None, :, :]).sum(axis=2, dtype=np.int64)
        [(start, counts)] = common_bands(rows)  # one band at the default budget
        assert start == 0 and counts.dtype == np.float32 and np.array_equal(counts, brute)


def symmetric_pairs(rng, n, density):
    """A random symmetric boolean matrix indexed 0..n, row/col 0 and diagonal clear."""
    upper = np.triu(rng.random((n + 1, n + 1)) < density, 1)
    upper[0] = False
    return upper | upper.T


def graph_of(adj):
    """The `Graph` of a symmetric boolean matrix indexed 0..n, from the edges of its upper triangle."""
    return Graph(len(adj) - 1, zip(*np.nonzero(np.triu(adj, 1))))


def unique_vertices(data, n, label):
    return np.array(data.draw(st.lists(st.integers(1, n), unique=True), label=label), dtype=np.intp)


PAIR_SET_SIZES = [62, 63, 64, 126, 127, 128]  # n + 1 on and around a uint64 word boundary


@pytest.mark.parametrize("n", PAIR_SET_SIZES)
def test_block_matches_the_unpacked_rows(n):
    # the packed block read against the unpacked rows' columns, on a Graph and on a
    # PairSet with pairs cleared, for vertex arrays unsorted, repeated or empty
    rng = np.random.default_rng(n)
    for density in (0.02, 0.3, 0.9):
        g = graph_of(symmetric_pairs(rng, n, density))
        pairs = PairSet(g)
        pairs.clear_incident([int(rng.integers(1, n + 1))])
        pairs.clear_between(np.arange(1, n // 2), np.arange(n // 3, n + 1))
        picks = (rng.permutation(np.arange(1, n + 1)), rng.integers(1, n + 1, size=2 * n),
                 np.array([n, 1, n, 1]), np.array([], dtype=np.intp), [], [n - 1, 2, n - 1])
        for owner in (g, pairs):
            for vertices in picks:
                block = owner.block(vertices)
                want = owner.rows(vertices).dense()[:, np.asarray(vertices, dtype=np.intp)]
                assert block.dtype == bool and block.shape == want.shape
                # every cell a canonical 0 or 1, not a masked byte read as True
                assert np.array_equal(block.view(np.uint8), want.view(np.uint8))


@pytest.mark.parametrize("n", PAIR_SET_SIZES)
def test_rows_reader_matches_the_unpacked_rows(n):
    # n + 1 just below, on and just above 64 and 128 bits, and k = 0, 1 and more
    # rows, repeats included: the `pairs` of the slice [start:stop] is the
    # row-major nonzero of the unpacked rows start..stop-1 and its `degrees` their
    # sums, and `at` reads row i's bits at row i of a column array, duplicate
    # columns included
    rng = np.random.default_rng(n)
    for density in (0.02, 0.3, 0.9):
        adj = symmetric_pairs(rng, n, density)
        g = graph_of(adj)
        for k in (0, 1, 2, n // 3, 2 * n):
            vertices = rng.integers(1, n + 1, size=k)
            rows = g.rows(vertices)
            dense = rows.dense()
            assert len(rows) == k and dense.dtype == bool and np.array_equal(dense, adj[vertices])
            for start, stop in ((0, None), (0, k), (1, 3), (k // 2, k), (max(k - 1, 0), k + 5), (k + 1, None)):
                got, want = rows[start:stop].pairs(), np.nonzero(dense[start:stop])
                assert len(got) == 2 and all(a.dtype == np.intp for a in got)
                assert all(np.array_equal(a, b) for a, b in zip(got, want)), (k, start, stop)
                degrees = rows[start:stop].degrees()
                assert degrees.dtype == np.int64 and degrees.tolist() == dense[start:stop].sum(axis=1).tolist()
            columns = rng.integers(1, n + 1, size=(k, 2 * n))  # every row repeats columns
            bits = rows.at(columns)
            assert bits.dtype == bool and np.array_equal(bits, adj[vertices[:, None], columns])
            assert rows.at(np.empty((k, 0), dtype=np.intp)).shape == (k, 0)
    assert g.rows([n]).pairs()[1].tolist() == np.flatnonzero(adj[n]).tolist()


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from(PAIR_SET_SIZES), density=st.sampled_from([0.02, 0.3, 0.9]),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_pair_set_matches_a_boolean_reference(n, density, seed, data):
    rng = np.random.default_rng(seed)
    start = symmetric_pairs(rng, n, density)
    ref, ref_into = start.copy(), np.zeros_like(start)
    pairs, into = PairSet(graph_of(start)), PairSet(Graph(n))
    ops = ["incident", "between", "move", "degrees", "upper_rows", "rows"]
    for op in data.draw(st.lists(st.sampled_from(ops), max_size=12), label="ops"):
        if op == "incident":  # distinct vertices, unsorted, possibly none
            vs = unique_vertices(data, n, "vs")
            assert pairs.clear_incident(vs) == int(ref[vs].any(axis=1).sum())
            ref[vs] = False
            ref[:, vs] = False
        elif op == "between":  # two vertex sets that may overlap
            a, b = unique_vertices(data, n, "a"), unique_vertices(data, n, "b")
            rect = np.zeros_like(ref)
            rect[np.ix_(a, b)] = True
            rect |= rect.T
            assert pairs.clear_between(a, b) is bool((ref & rect).any())
            ref &= ~rect
        elif op == "move":  # an upper row band of a symmetric block of pairs among ascending vertices, as a peel moves it
            live = np.sort(unique_vertices(data, n, "live"))
            if not len(live):
                continue
            pick = np.triu(rng.random((len(live), len(live))) < 0.5, 1)
            block = ref[np.ix_(live, live)] & (pick | pick.T)
            first = data.draw(st.integers(0, len(live) - 1), label="band start")
            height = data.draw(st.integers(1, len(live) - first), label="band height")
            band = block[first : first + height, first:]
            pairs.move_block(live[first:], band, into)
            moved = np.zeros_like(ref)
            moved[np.ix_(live[first : first + height], live[first:])] = band
            moved |= moved.T
            ref &= ~moved
            ref_into |= moved
        elif op == "degrees":
            assert pairs.degrees().tolist() == ref.sum(axis=1).tolist()
        elif op == "upper_rows":
            begin = data.draw(st.integers(1, n), label="start")
            limit = data.draw(st.integers(1, n + 1), label="limit")
            upper = np.triu(ref, 1)
            held = [u for u in range(begin, n + 1) if upper[u].any()]
            assert pairs.upper_rows(begin, limit).tolist() == held[:limit]
        else:
            vertices = unique_vertices(data, n, "rows")
            assert np.array_equal(pairs.rows(vertices).dense(), ref[vertices])
    # the packed rows, padding included, hold exactly the reference pairs
    # E's form: a graph less two pair sets, taken on a `Graph` or on a `PairSet`
    rest = start & ~ref & ~ref_into
    for got, want in ((pairs.graph(), ref), (into.graph(), ref_into),
                      (graph_of(start).graph(pairs, into), rest),
                      (PairSet(graph_of(start)).graph(pairs, into), rest)):
        assert np.array_equal(got.adjacency(), want)
        assert got.edge_count == int(want.sum()) // 2


@pytest.mark.parametrize("n", PAIR_SET_SIZES)
@pytest.mark.parametrize("bit", range(8))
def test_first_row_stops_at_a_single_bit_byte(n, bit):
    # a pair (v, u), v < u, leaves row v one set byte, holding the single bit
    # value 1 << (u & 7), near the row's start, middle or end: the first active
    # vertex from each start is the first row that holds a bit
    far = n - (n - bit) % 8  # the largest u <= n with u & 7 == bit
    for v, u in [(v, v + 1 + (bit - v - 1) % 8) for v in (1, n // 2, n - 8)] + [(1, far)]:
        assert u & 7 == bit
        pairs = WorkingGraph(Graph(n, [(v, u)]))
        assert pairs.first_active_vertex() == pairs.first_active_vertex(v) == v
        assert pairs.first_active_vertex(v + 1) == u
        if u < n:
            assert pairs.first_active_vertex(u + 1) is None


@pytest.mark.parametrize("n", PAIR_SET_SIZES + [1000])
def test_upper_rows_find_upper_pairs_across_word_boundaries(n):
    # a pair (v, u), v < u, puts v and not u among the upper rows, wherever the
    # two columns fall against a word boundary; the scan's blocks double from `limit`
    for v, u in [(1, 2), (62, 63), (63, 64), (64, 65), (1, n), (n - 1, n)]:
        if u > n:
            continue
        pairs = PairSet(Graph(n, [(v, u)]))
        for limit in (1, 2, n):
            assert pairs.upper_rows(1, limit).tolist() == [v]
            assert pairs.upper_rows(v, limit).tolist() == [v]
            assert pairs.upper_rows(v + 1, limit).tolist() == []
    chain = PairSet(Graph(n, [(v, v + 1) for v in range(1, n, 3)]))
    assert chain.upper_rows(1, n).tolist() == list(range(1, n, 3))
    assert chain.upper_rows(2, 5).tolist() == list(range(4, n, 3))[:5]


def uncovered_reference(hoods):
    """Step 2's G' by the dense product: the pairs that no sampled row holds
    both ends of, off row 0, column 0 and the diagonal."""
    ints = hoods.dense().T.astype(np.int64)
    free = ints @ ints.T == 0
    free[0] = free[:, 0] = False
    np.fill_diagonal(free, False)
    return free


@pytest.mark.parametrize("n", PAIR_SET_SIZES)
@pytest.mark.parametrize("gather", [1, 7, graphs.GATHER_ROWS])
def test_uncovered_equals_the_product_of_the_sampled_rows(n, gather, monkeypatch):
    # n + 1 just below, on and just above 64 and 128 bits; one (u, row) pair a chunk,
    # chunks of 7 that split most u's pairs, and the default; vertex 1 has no neighbor,
    # so no sampled row covers it, and k = 0 leaves G' complete
    monkeypatch.setattr(graphs, "GATHER_ROWS", gather)
    rng = np.random.default_rng(n)
    for density in (0.02, 0.3, 0.9):
        adj = symmetric_pairs(rng, n, density)
        adj[1] = adj[:, 1] = False
        g = graph_of(adj)
        for k in (0, 1, n // 3, n):
            hoods = g.rows(np.sort(rng.choice(np.arange(1, n + 1), k, replace=False)))
            got, want = Graph.uncovered(hoods), uncovered_reference(hoods)
            assert got.n == n and np.array_equal(got.adjacency(), want), (density, k)
            # the count popcounts every word, so it also sees a stray padding bit
            assert got.edge_count == int(want.sum()) // 2
            assert got.degrees()[1] == n - 1
    assert density == 0.9 and k == n and np.bincount(hoods.pairs()[1]).max() > 7  # a u's pairs span chunks
    empty = Graph.uncovered(g.rows([]))
    assert empty.edge_count == n * (n - 1) // 2


def uncovered_buffers(hoods, starts=(0,)):
    """The bytes of `Cover`'s buffers when the packed sampled rows `hoods` are
    added in the slices of rows that begin at the ascending `starts` (all at
    once by default, as `Graph.uncovered` adds them): the cover, which G' is
    inverted in, one block of rows unpacked and its (u, row) index pairs, and
    one chunk of those pairs' gathered rows and their ORs per u (numpy copies
    an overlapping `out`, so the ORs cannot overwrite the gathered rows; the
    ORs' AND with the hidden rows is taken once the gathered rows are freed);
    the packed sample is the caller's."""
    n, row_bytes = hoods.n, hoods._bits.shape[1]
    block = max((graphs.GATHER_ROWS << 6) // (n + 1), 1)  # rows unpacked at once
    owner, starts = hoods.pairs()[0], np.asarray(starts)
    which = np.searchsorted(starts, owner, side="right") - 1  # the slice of each pair's row
    most = int(np.bincount(which * len(hoods) + (owner - starts[which]) // block).max())  # the fullest block
    chunk = min(most, graphs.GATHER_ROWS) * row_bytes
    return (n + 1) * row_bytes + block * (n + 1) + 16 * most + 2 * chunk


def uncovered_peak_and_bound(g, k):
    """`Graph.uncovered`'s tracemalloc peak on k sampled rows of `g`, as step 1
    reads them, and the bound its buffers give (`uncovered_buffers`)."""
    n = g.n
    hoods = g.rows(np.sort(np.random.default_rng(0).choice(np.arange(1, n + 1), k, replace=False)))
    tracemalloc.start()
    try:
        Graph.uncovered(hoods)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, uncovered_buffers(hoods)


def test_uncovered_memory_stays_within_the_packed_graph_and_one_chunk():
    # a sparse sample as step 1 reads it at n = 4096: 1,176 rows of a mean-degree-3
    # host; a whole 1,176 x 4,097 unpack (4.8 MB) would not fit
    peak, bound = uncovered_peak_and_bound(generate("random_bipartite", 4096, 0, p=3 / 2048), 1176)
    assert peak <= bound, (peak, bound)
    assert bound < 3 << 20  # the (n+1)^2 float32 product alone is 67 MB


def test_uncovered_memory_on_a_dense_sample_stays_within_one_block():
    # 1,176 rows of the blowup at n = 4096 hold 2,408,448 (u, row) pairs, 36.8 MB
    # of index pairs if listed whole, for a 2.1 MB G'
    peak, bound = uncovered_peak_and_bound(generate("bipartite_blowup", 4096, 0), 1176)
    assert peak <= bound, (peak, bound)
    assert bound < 9 << 20


def squares_cover_an_edge(hidden, rows):
    """Whether the square of one of the packed `rows` holds an edge of `hidden`."""
    adj = hidden.adjacency()
    return any(adj[np.ix_(members, members)].any() for members in map(np.flatnonzero, rows.dense()))


COVER_HOSTS = {  # hosts whose squares cover no edge, a few, or every one
    "empty": lambda n, seed: generate("erdos_renyi", n, seed, p=0.0),
    "sparse": lambda n, seed: generate("erdos_renyi", n, seed, p=3 / n),
    "complete": lambda n, seed: generate("erdos_renyi", n, seed, p=1.0),
    "bipartite": lambda n, seed: generate("random_bipartite", n, seed, p=0.4),
    "planted": lambda n, seed: generate("planted_triangle", n, seed, p=1 / n),
}


@settings(max_examples=60, deadline=None)
@given(host=st.sampled_from(sorted(COVER_HOSTS)), n=st.sampled_from(PAIR_SET_SIZES),
       gather=st.sampled_from([2, 7, graphs.GATHER_ROWS]), graph_seed=st.integers(0, 10**6), data=st.data())
def test_a_cover_meets_a_hidden_edge_exactly_when_a_square_holds_one(host, n, gather, graph_seed, data):
    # step 2's marked test: two blocks of rows, each a run of vertices that may
    # straddle a word boundary, added in turn; each answer is its own block's,
    # whatever the first block added, and the complement is the product's G'.
    # Two or seven gathered pairs a chunk split a member's rows across chunks
    # (and two cut blocks of at most 2 << 6 cells, a row or two at these n)
    hidden = COVER_HOSTS[host](n, graph_seed)
    starts = [v for v in (1, 2, 60, 62, 63, 64, 65, 100, 126, 127, 128) if v <= n]
    blocks = []
    for label in ("first", "second"):
        start = data.draw(st.sampled_from(starts), label=f"{label} start")
        size = data.draw(st.integers(1, n + 1 - start), label=f"{label} size")
        blocks.append(np.arange(start, start + size))
    with mock.patch.object(graphs, "GATHER_ROWS", gather):
        cover = graphs.Cover(n)
        for block in blocks:
            assert cover.add(hidden.rows(block), hidden) == squares_cover_an_edge(hidden, hidden.rows(block))
        got, want = cover.uncovered(), uncovered_reference(hidden.rows(np.concatenate(blocks)))
    assert got.n == n and np.array_equal(got.adjacency(), want)
    if host in ("empty", "bipartite"):
        assert not squares_cover_an_edge(hidden, hidden.rows(np.arange(1, n + 1)))


def test_a_cover_answers_for_the_rows_of_its_own_add():
    # vertex 1's row {2, 3} covers the edge (2, 3); vertex 5's row {2} covers no
    # pair, though the cover's row of 2 then holds 3, a neighbor of 2
    hidden = Graph(6, [(1, 2), (1, 3), (2, 3), (2, 5)])
    cover = graphs.Cover(6)
    assert cover.add(hidden.rows([1]), hidden)
    assert not cover.add(hidden.rows([5]), hidden)
    assert cover.add(hidden.rows([5, 1]), hidden)


def test_a_cover_allocates_its_words_at_the_first_add():
    cover = graphs.Cover(8)
    assert cover._words is None
    assert cover.uncovered().edge_count == 28  # nothing added: every pair is uncovered
    cover.add(K3.rows([]))
    assert cover._words is not None


@pytest.mark.parametrize("n", [3, (1 << 15) - 1, 1 << 15, MAX_VERTICES])
def test_common_neighbors_counts_are_exact_float32(n):
    # a count over rows of length n is at most n, reached by two full rows, in
    # one band or in one-row bands
    [(start, counts)] = common_bands(np.ones((2, n), dtype=bool))
    assert start == 0 and counts.dtype == np.float32 and np.array_equal(counts, np.full((2, 2), n))
    with mock.patch.object(graphs, "BAND_CELLS", 1):
        bands = [(start, band.dtype, band.tolist()) for start, band in common_bands(np.ones((2, n), dtype=bool))]
    assert bands == [(0, np.float32, [[n, n]]), (1, np.float32, [[n]])]


@pytest.mark.parametrize("rows", [62, 63, 64, 65, 127, 128, 129])
def test_common_bands_equal_the_whole_product(rows, monkeypatch):
    # L on and around a uint64 word; bands of one row, of a few rows, and of
    # heights whose last band is full, one row short or one row long, up to a
    # single band (height L or more); square blocks and rectangular rows
    # (n+1)-wide, from boolean or float32 input
    rng = np.random.default_rng(rows)
    for width in (rows, 2 * rows + 1):
        x = rng.random((rows, width)) < 0.4
        ints = x.astype(np.int64)
        whole = x.astype(np.float32) @ x.astype(np.float32).T
        assert np.array_equal(whole, ints @ ints.T)  # the whole float32 product is exact
        for height in (1, 2, 3, rows // 3, rows // 2, (rows + 1) // 2, rows - 1, rows, rows + 5):
            monkeypatch.setattr(graphs, "BAND_CELLS", height * rows)
            for given in (x, x.astype(np.float32)):
                starts = []
                for start, band in common_bands(given):  # each band is read before the next overwrites it
                    starts.append(start)
                    assert band.dtype == np.float32 and band.shape == (min(height, rows - start), rows - start)
                    # bit for bit the whole product's upper band
                    want = np.ascontiguousarray(whole[start : start + len(band), start:])
                    assert band.tobytes() == want.tobytes()
                assert starts == list(range(0, rows, height))
    monkeypatch.setattr(graphs, "BAND_CELLS", 0)  # below one row of cells: one-row bands
    assert [len(band) for _, band in common_bands(x)] == [1] * rows
    assert list(common_bands(np.zeros((0, 5), dtype=bool))) == []


@pytest.mark.parametrize("height", [100, 300])
def test_common_bands_free_the_float32_copy_before_the_last_band(height, monkeypatch):
    # a boolean block of 300 x 2,000 cells has a 2.4 MB float32 copy, which
    # every band but the last needs; the caller reduces the last band (a peel
    # moves its pairs) once the copy is freed: three bands, or one
    monkeypatch.setattr(graphs, "BAND_CELLS", height * 300)
    x = np.random.default_rng(0).random((300, 2000)) < 0.5
    copy = x.size * 4
    tracemalloc.start()
    try:
        held = [tracemalloc.get_traced_memory()[0] for _ in common_bands(x)]
    finally:
        tracemalloc.stop()
    assert len(held) == 300 // height
    assert all(bytes_ > copy for bytes_ in held[:-1]) and held[-1] < copy, held


def traced_peak(call):
    """The tracemalloc peak of `call()`, counted from zero."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def drain(bands):
    for _ in bands:
        pass


def test_a_warm_kernel_reuses_its_workspace():
    # after one call, a second triangle count of a 512-vertex graph and a second
    # pass over a 512-row boolean block take their float32 copy and their band
    # from the workspace, which a finished or closed generator hands back: each
    # allocates less than one float32 copy of its block
    graph = generate("erdos_renyi", 512, 0, p=0.5)
    triangle_count(graph)
    assert traced_peak(lambda: triangle_count(graph)) < (graph.n + 1) ** 2 * 4
    x = np.random.default_rng(0).random((512, 512)) < 0.5
    drain(common_bands(x))
    assert traced_peak(lambda: drain(common_bands(x))) < x.size * 4
    bands = common_bands(x)
    next(bands)
    bands.close()
    assert traced_peak(lambda: drain(common_bands(x))) < x.size * 4


def upper_bands(x):
    """The upper row bands that `common_bands(x)` yields, from the whole product."""
    whole = x.astype(np.float32) @ x.astype(np.float32).T
    height = max(graphs.BAND_CELLS // max(len(x), 1), 1)
    return [(i, np.ascontiguousarray(whole[i : i + height, i:])) for i in range(0, len(x), height)]


def assert_same_band(got, want):
    (start, band), (want_start, want_band) = got, want
    assert start == want_start and band.shape == want_band.shape and band.tobytes() == want_band.tobytes()


def test_a_small_block_after_a_large_one_reads_no_stale_cells(monkeypatch):
    # the workspace keeps the large block's copy and bands; the small block's
    # bands, in one band or in several, are its own product bit for bit
    rng = np.random.default_rng(7)
    large, small = rng.random((300, 400)) < 0.5, rng.random((37, 51)) < 0.3
    for cells in (graphs.BAND_CELLS, 37 * 5):
        monkeypatch.setattr(graphs, "BAND_CELLS", cells)
        drain(common_bands(large))
        for given in (small, small.astype(np.float32)):
            got = [(start, band.copy()) for start, band in common_bands(given)]
            want = upper_bands(small)
            assert len(got) == len(want)
            for pair in zip(got, want):
                assert_same_band(*pair)


def test_generators_advanced_in_turn_share_no_buffer(monkeypatch):
    # the second generator starts while the first holds the workspace, so it
    # allocates its own buffers: each band still holds its own counts after the
    # other generator has yielded its next band
    monkeypatch.setattr(graphs, "BAND_CELLS", 600)
    rng = np.random.default_rng(11)
    a, b = rng.random((60, 90)) < 0.4, rng.random((50, 70)) < 0.6
    none = (None, None)
    turns = itertools.zip_longest(common_bands(a), common_bands(b), fillvalue=none)
    wants = itertools.zip_longest(upper_bands(a), upper_bands(b), fillvalue=none)
    count = 0
    for (got_a, got_b), (want_a, want_b) in itertools.zip_longest(turns, wants):
        for got, want in ((got_a, want_a), (got_b, want_b)):
            assert (got is none) == (want is none)
            if got is not none:
                assert_same_band(got, want)
        count += 1
    assert count == 6  # a in six bands of 10 rows, b in five of 12


def test_a_count_inside_a_band_loop_leaves_the_band_intact(monkeypatch):
    # triangle_count takes the copy and band buffers that the outer loop holds;
    # it gets its own, so its count is exact and the outer band is untouched
    graph = generate("erdos_renyi", 40, seed=2, p=0.5)
    fresh = triangle_count(graph)
    assert fresh == len(brute_triangles(graph))
    x = np.random.default_rng(3).random((45, 45)) < 0.5
    for cells in (graphs.BAND_CELLS, 45 * 10):
        monkeypatch.setattr(graphs, "BAND_CELLS", cells)
        for got, want in zip(common_bands(x), upper_bands(x), strict=True):
            assert triangle_count(graph) == fresh
            assert_same_band(got, want)


@pytest.mark.parametrize("kind, n, p", [
    ("erdos_renyi", 3, 0.5), ("erdos_renyi", 9, 0.4), ("erdos_renyi", 64, 0.2),
    ("erdos_renyi", 511, 0.3), ("erdos_renyi", 512, 0.7), ("erdos_renyi", 513, 0.5),
    ("complete", 513, None), ("bipartite_blowup", 513, None),
])
def test_packed_counts_match_the_unpacked_rows(kind, n, p):
    # n = 511, 512, 513 put the last column at the end of a byte, alone in one, and past it
    g = generate(kind, n, seed=n, p=p)
    adj = g.adjacency().astype(np.int64)
    rng = substream(0, "packed counts", kind, n)
    for size in (0, 1, 2, n // 2, n):
        owner = int(rng.integers(1, n + 1))
        members = np.flatnonzero(adj[owner])
        degrees = g.common_counts(np.full_like(members, owner), members)
        assert degrees.dtype == np.int64
        assert np.array_equal(degrees, adj[members][:, members].sum(axis=1))
        a, b = rng.integers(1, n + 1, size=(2, size))  # repeats and a == b included
        counts = g.common_counts(a, b)
        assert counts.dtype == np.int64 and counts.shape == (size,)
        assert np.array_equal(counts, (adj[a] & adj[b]).sum(axis=1))
        for v in (1, n // 2 + 1, n):
            [bits] = g.rows([v]).at([a])
            assert bits.dtype == bool and np.array_equal(bits, adj[v][a] > 0)
        owners, columns = rng.integers(1, n + 1, size=3), rng.integers(1, n + 1, size=(3, size))
        bits = g.rows(owners).at(columns)  # one row of columns per owner
        assert bits.shape == (3, size) and np.array_equal(bits, adj[owners[:, None], columns] > 0)
    assert g.common_counts([], []).tolist() == []


@pytest.mark.parametrize("n", [62, 63, 64, 127, 128])
@pytest.mark.parametrize("gather_rows", [7, graphs.GATHER_ROWS])
def test_mask_degrees_match_the_unpacked_brute_force(n, gather_rows, monkeypatch):
    # each member of a row's mask, here the rows of a few owners, has as many
    # neighbors inside the mask as it has common neighbors with the owner, as
    # step 2 counts them; n + 1 columns end one short of a uint64 word, exactly
    # at one, or past it; seven gathered pairs at a time split the members
    # mid-row, and no pair count below is a multiple of the chunk
    monkeypatch.setattr(graphs, "GATHER_ROWS", gather_rows)
    g = generate("erdos_renyi", n, seed=n, p=0.4)
    rng = substream(0, "mask degrees", n)
    isolated = Graph(n, [(a, b) for a, b in g.edges() if n not in (a, b)])  # vertex n empty
    owners = np.concatenate([rng.integers(1, n + 1, size=8), [n, n // 2, n // 2]])
    for graph in (g, isolated):
        adj = graph.adjacency()
        for block in (owners, owners[3:4], owners[-3:], owners[:0]):
            rows, cols = np.nonzero(adj[block])
            if len(rows) % 7 == 0:
                rows, cols = rows[1:], cols[1:]
            assert len(rows) % 7 or not len(rows)
            count = graph.common_counts(block[rows], cols)
            brute = [int(np.count_nonzero(adj[m] & adj[block[o]])) for o, m in zip(rows, cols)]
            assert count.dtype == np.int64 and count.tolist() == brute
            for owner in block[:2]:  # a one-row block of step 2, whose row is its own cover
                members = np.flatnonzero(adj[owner])
                inside = graph.neighbors_in(members, graph.rows([owner]))
                assert inside.dtype == np.int64 and inside.tolist() == adj[members][:, members].sum(axis=1).tolist()
        # any pairs, repeats and a == b included
        for size in (1, 6, 8, 13, 64, 3 * n + 1, 2 * gather_rows + 5):
            a, b = rng.integers(1, n + 1, size=(2, size))
            counts = graph.common_counts(a, b)
            assert counts.dtype == np.int64 and np.array_equal(counts, (adj[a] & adj[b]).sum(axis=1))


def test_generate_complete_via_p_one():
    g = generate("erdos_renyi", 5, seed=9, p=1.0)
    assert g.edge_count == 10


def test_generate_bipartite_blowup():
    g = generate("bipartite_blowup", 6, seed=0)
    assert g.edge_count == 9
    assert triangle_count(g) == 0


def test_generate_triangle_free_dense():
    g = generate("triangle_free_dense", 40, seed=0)
    assert triangle_count(g) == 0
    assert g.edge_count == 5 * 8 * 8


def test_generate_planted_zero_background():
    g = generate("planted_triangle", 5, seed=4, p=0.0)
    assert triangle_count(g) == 1
    assert g.edge_count == 3


def test_generate_planted_always_has_triangle():
    for seed in range(10):
        g = generate("planted_triangle", 12, seed=seed, p=0.2)
        assert triangle_count(g) >= 1


def test_generate_deterministic():
    a = generate("erdos_renyi", 20, seed=5, p=0.5)
    b = generate("erdos_renyi", 20, seed=5, p=0.5)
    assert list(a.edges()) == list(b.edges())
    c = generate("erdos_renyi", 20, seed=6, p=0.5)
    assert list(a.edges()) != list(c.edges())


RANDOM_KINDS = ("erdos_renyi", "planted_triangle", "random_bipartite")


def reference_adjacency(kind, n, seed, p):
    """The generators as first written, as one dense matrix over `np.triu_indices`
    and explicit vertex blocks, with one `random()` float per candidate pair:
    the reference that `generate` must reproduce."""
    rng = substream(seed, "graph", kind, n, None if p is None else float(p))
    adj = np.zeros((n + 1, n + 1), dtype=bool)

    def blocks(parts):
        sizes = [n // parts + (1 if i < n % parts else 0) for i in range(parts)]
        verts = np.arange(1, n + 1)
        out = []
        start = 0
        for s in sizes:
            out.append(verts[start : start + s])
            start += s
        return out

    if kind in RANDOM_KINDS:
        iu = np.triu_indices(n, k=1)
        if kind == "random_bipartite":
            side = np.zeros(n + 1, dtype=bool)
            side[rng.permutation(n)[n // 2 :] + 1] = True
            cross = side[iu[0] + 1] != side[iu[1] + 1]
            iu = (iu[0][cross], iu[1][cross])
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
        left, right = blocks(2)
        adj[np.ix_(left, right)] = True
        adj |= adj.T
    else:
        parts = blocks(5)
        for i in range(5):
            a, b = parts[i], parts[(i + 1) % 5]
            if len(a) and len(b):
                adj[np.ix_(a, b)] = True
        adj |= adj.T
    return adj


class RawStream:
    """A generator that records the sizes of its raw draws and refuses float
    draws; every other call goes to the generator it wraps."""

    def __init__(self, rng):
        self.rng, self.raw_sizes = rng, []

    @property
    def bit_generator(self):
        return self

    def random_raw(self, size):
        self.raw_sizes.append(size)
        return self.rng.bit_generator.random_raw(size)

    def random(self, *args, **kwargs):
        raise AssertionError("generate drew floats")

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generate_matches_the_reference_generator(kind, monkeypatch):
    random = kind in RANDOM_KINDS
    for n in range(3, 70):
        for seed in range(3):
            p = 0.3 if random else None
            want = reference_adjacency(kind, n, seed, p)
            assert np.array_equal(generate(kind, n, seed, p=p).adjacency(), want), (n, seed)
    # n + 1 just below, on and just above 64 and 128 bits; p at both ends and one
    # double away from them
    for n in (5, 62, 63, 64, 126, 127, 128):
        for seed in range(2):
            for p in (0.0, 2**-60, 0.3, 1 - 2**-53, 1.0) if random else (None,):
                want = reference_adjacency(kind, n, seed, p)
                # chunks of one 8-row group (CHUNK_CELLS = 0, the smallest), chunks
                # that open with 8, 24 and 40 rows (24 and 40 divide none of these
                # n + 1), and the default
                for cells in (0, 8 * (n + 1), 24 * (n + 1), 40 * (n + 1), graphs.CHUNK_CELLS):
                    monkeypatch.setattr(graphs, "CHUNK_CELLS", cells)
                    got = generate(kind, n, seed, p=p)
                    assert np.array_equal(got.adjacency(), want), (n, seed, p, cells)
                monkeypatch.undo()


def test_generate_draws_raw_words_a_chunk_at_a_time(monkeypatch):
    streams = []
    monkeypatch.setattr(graphs, "substream", lambda *path: streams.append(RawStream(substream(*path))) or streams[-1])
    monkeypatch.setattr(graphs, "CHUNK_CELLS", 0)  # one 8-row group per chunk
    n = 128
    pairs = {"erdos_renyi": n * (n - 1) // 2, "planted_triangle": n * (n - 1) // 2,
             "random_bipartite": (n // 2) * (n - n // 2)}
    for kind in GENERATOR_KINDS:
        p = 0.3 if kind in RANDOM_KINDS else None
        got = generate(kind, n, 1, p=p)
        assert np.array_equal(got.adjacency(), reference_adjacency(kind, n, 1, p)), kind
        sizes = streams[-1].raw_sizes
        if kind in RANDOM_KINDS:
            # each chunk draws exactly its block's pairs, so the stream carries over from
            # chunk to chunk, and the planted triangle's choice reads on after all of them
            assert len(sizes) == math.ceil((n + 1) / 8) and sum(sizes) == pairs[kind], kind
        else:
            assert sizes == [], kind


@settings(max_examples=60, deadline=None)
@given(
    p=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 2**-60, 2**-53, 0.5, 1 - 2**-53, 1.0])),
    key=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
)
def test_raw_word_threshold_is_the_float_comparison(p, key):
    """(raw >> 11) < ceil(p * 2**53) exactly when random() < p: numpy's random() is
    (raw >> 11) * 2**-53, and that product and p * 2**53 are both exact."""
    key = np.array(key, dtype=np.uint64)
    floats = keyed(key).random(256)
    raw = keyed(key).bit_generator.random_raw(256) >> 11
    assert np.array_equal(floats, raw * 2.0**-53)
    # p, and each drawn value and the doubles next to it, where the comparison flips
    for q in (p, floats[0], np.nextafter(floats[0], 0.0), np.nextafter(floats[0], 1.0)):
        assert np.array_equal(raw < np.uint64(math.ceil(q * 2.0**53)), floats < q), q


@pytest.mark.parametrize("p", [2**-60, 0.3, 0.5, 1 - 2**-53])
def test_generate_threshold_is_exact_at_the_boundary(p, monkeypatch):
    """Raw words whose top 53 bits sit just below and on ceil(p * 2**53), with
    their low 11 bits set, decide each pair as random() < p does."""
    t = math.ceil(p * 2.0**53)
    values = np.array([0, t - 1, t, 2**53 - 1], dtype=np.uint64)  # of raw >> 11
    words = values << np.uint64(11) | np.uint64(2**11 - 1)

    class Crafted:  # a stream whose raw words cycle through `words`
        drawn = 0
        bit_generator = property(lambda self: self)

        def random_raw(self, size):
            out = words[(self.drawn + np.arange(size)) % len(words)]
            self.drawn += size
            return out

    monkeypatch.setattr(graphs, "substream", lambda *path: Crafted())
    monkeypatch.setattr(graphs, "CHUNK_CELLS", 0)  # several chunks, so the cycle carries over
    n = 40
    iu = np.triu_indices(n, k=1)
    want = values[np.arange(len(iu[0])) % len(values)] * 2.0**-53 < p
    got = generate("erdos_renyi", n, 0, p=p).adjacency()[iu[0] + 1, iu[1] + 1]
    assert np.array_equal(got, want)
    assert want.any() and not want.all()


def test_random_bipartite_host():
    for n in (3, 4, 9, 64, 129):  # at p = 1 it is complete bipartite on sides of n // 2 and the rest
        degrees = generate("random_bipartite", n, 2, p=1.0).degrees()[1:]
        assert sorted(degrees) == sorted([n - n // 2] * (n // 2) + [n // 2] * (n - n // 2)), n
    n, p = 512, 0.01171875  # the host of mean degree 3
    pairs = (n // 2) * (n - n // 2)
    for seed in range(4):
        g = generate("random_bipartite", n, seed, p=p)
        assert triangle_count(g) == 0
        assert abs(g.edge_count - p * pairs) <= 5 * math.sqrt(pairs * p * (1 - p))
        side = np.zeros(n + 1, dtype=bool)
        side[substream(seed, "graph", "random_bipartite", n, p).permutation(n)[n // 2 :] + 1] = True
        a, b = g.pairs()
        assert np.all(side[a] != side[b])


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generate_memory_stays_within_twice_the_packed_graph(kind):
    n = 4096
    tracemalloc.start()
    try:
        graph = generate(kind, n, 0, p=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a chunk's own buffers: per cell of its block 1 byte of block and 1 of side
    # comparison, and per draw (at most one a cell) an 8-byte raw word and 1 byte
    # of comparison; at n = 4096 one 8-row group holds fewer than CHUNK_CELLS cells
    assert 8 * (n + 1) <= graphs.CHUNK_CELLS
    assert peak <= 2 * graph._bits.nbytes + 11 * graphs.CHUNK_CELLS, (peak, graph._bits.nbytes)


def test_generate_validates(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on bad input")

    monkeypatch.setattr("qtri.graphs.substream", no_work)  # drawn before the matrix is allocated
    with pytest.raises(ValueError):
        generate("erdos_renyi", 2, seed=0, p=0.5)
    with pytest.raises(ValueError):
        generate("erdos_renyi", 10, seed=0, p=1.5)
    with pytest.raises(ValueError):
        generate("nonsense", 10, seed=0)
    for kind in GENERATOR_KINDS:
        with pytest.raises(ValueError, match=f"n must be <= {MAX_VERTICES}"):
            generate(kind, MAX_VERTICES + 1, seed=0, p=0.5)


def test_rows_reject_bad_vertices():
    pairs = PairSet(K3)  # borrows Graph.rows and Graph.block and their checks
    for picks in ([0], [4], [1, -2], [[1, 2]], [3, 2, 0]):
        for rows in (K3.rows, pairs.rows, K3.block, pairs.block):
            with pytest.raises(ValueError):
                rows(picks)
    for a, b in (([1], [4]), ([0], [2]), ([[1, 2]], [[2, 3]])):
        with pytest.raises(ValueError):
            K3.common_counts(a, b)
    for a, b in (([1], [2, 3, 4]), ([1], [2, 3, 3]), ([1, 2], []), ([], [3])):
        with pytest.raises(ValueError, match="do not pair up"):  # not broadcast
            K4.common_counts(a, b)
    for vertices, rows in (([4], K3.rows([1])), ([0], K3.rows([1])), ([1], K3.rows([1, 2])), ([1], K3.rows([]))):
        with pytest.raises(ValueError):
            K3.neighbors_in(vertices, rows)
    for v in (0, 4):
        with pytest.raises(ValueError):
            K3.rows([v]).at([[1]])
    for columns in ([0], [4], [2, -1], [[1, 2]]):
        with pytest.raises(ValueError):
            K3.rows([1]).at([columns])
    for vs, columns in (([1, 2], [[2]]), ([1], [2, 3]), ([0], [[1]]), ([1], [[4]]), ([[1]], [[2]])):
        with pytest.raises(ValueError):
            K3.rows(vs).at(columns)
    # a float label must not be truncated to a vertex, nor fail as a bad index
    for read in (K3.rows, pairs.rows, K3.block, pairs.block, lambda v: K3.rows([1]).at([v])[0],
                 lambda v: K3.common_counts([1] * len(v), v)):
        for labels in ([1.7], [2.0, 3.0], np.array([True]), ["1"], [1, None]):
            with pytest.raises(ValueError, match="vertex labels must be integers"):
                read(labels)
        assert len(read(np.array([], dtype=float))) == 0
    for v in (1.5, 2.0, True, np.True_, "1"):
        for read in (lambda v: K3.has_edge(v, 3), lambda v: K3.rows([v]).at([[2]])):
            with pytest.raises(ValueError, match="vertex labels must be integers"):
                read(v)
    assert K3.has_edge(np.int32(1), np.uint64(3))
    assert K3.rows(np.array([3], dtype=np.uint8)).dense().shape == (1, 4)


def test_graph_rejects_loops_and_bad_vertices():
    with pytest.raises(ValueError):
        Graph(4, [(2, 2)])
    with pytest.raises(ValueError):
        Graph(4, [(1, 5)])
    with pytest.raises(ValueError):
        Graph(4, [(0, 2)])
    with pytest.raises(ValueError):
        canon_pair(3, 3)


@pytest.mark.parametrize("label", [1.5, "1", True])
def test_graph_rejects_non_integer_labels(label):
    for pair in ((label, 2), (3, label)):
        with pytest.raises(ValueError, match="vertex labels must be integers"):
            Graph(3, [(1, 3), pair])
    assert Graph(3, [(np.int64(1), np.int32(2)), (2, 3)]).edge_count == 2


@pytest.mark.parametrize("edge", [(1,), (1, 2, 3), ()])
def test_graph_rejects_an_edge_that_is_not_a_pair(edge):
    with pytest.raises(ValueError, match="an edge must be a pair of vertices"):
        Graph(3, [(1, 3), edge])


@pytest.mark.parametrize("label", [2**63, -2**63, 2**64 + 1])
def test_graph_range_checks_labels_beyond_int64(label):
    for pair in ((label, 2), (3, label)):
        with pytest.raises(ValueError, match=f"vertex {label} out of range 1..3"):
            Graph(3, [(1, 3), pair])


def test_text_format_roundtrip(tmp_path):
    g = generate("erdos_renyi", 15, seed=2, p=0.4)
    path = tmp_path / "g.txt"
    save_graph(g, str(path))
    back = load_graph(str(path))
    assert back.n == g.n
    assert list(back.edges()) == list(g.edges())


def test_loader_rejects_bad_files(tmp_path):
    cases = {
        "loop.txt": "3\n1 1\n",
        "dup.txt": "3\n1 2\n2 1\n",
        "range.txt": "3\n1 4\n",
        "malformed.txt": "3\n1 2 3\n",
        "empty.txt": "",
    }
    for name, content in cases.items():
        path = tmp_path / name
        path.write_text(content)
        with pytest.raises(ValueError) as err:
            load_graph(str(path))
        if name == "dup.txt":
            assert str(err.value) == f"{path}:3: duplicate edge (1, 2)"
        if name == "range.txt":
            assert str(err.value) == f"{path}:2: vertex 4 out of range 1..3"


def test_loader_rejects_vertex_count_above_maximum(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("1000000000000\n1 2\n")
    with pytest.raises(ValueError, match="exceeds the maximum"):
        load_graph(str(path))
    path.write_text(f"{MAX_VERTICES + 1}\n")
    with pytest.raises(ValueError, match="exceeds the maximum"):
        load_graph(str(path))
    path.write_text(f"{MAX_VERTICES}\n1 {MAX_VERTICES}\n")
    assert load_graph(str(path)).edge_count == 1


def test_loader_reports_path_and_line_of_non_integer_edges(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("4\n1 2\n\n2 x\n")
    with pytest.raises(ValueError) as err:
        load_graph(str(path))
    assert str(err.value).startswith(f"{path}:4: ")
    assert "'2 x'" in str(err.value)
