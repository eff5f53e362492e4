"""Graph kernel tests: the worked examples plus randomized invariants."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtri import Graph, generate, load_graph, save_graph, triangle_count
from qtri.graphs import GENERATOR_KINDS, MAX_VERTICES, canon_pair, common_neighbors
from qtri.rng import substream

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


def test_handshake_identity():
    # summing common-neighbor counts over the edges triple-counts triangles
    for seed in range(10):
        g = generate("erdos_renyi", 24, seed=seed, p=0.3)
        acc = sum(int(np.count_nonzero(g.row(a) & g.row(b))) for a, b in g.edges())
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
        assert set(np.flatnonzero(g.row(v)).tolist()) == hood
        assert g.degree(v) == len(hood)
        assert np.array_equal(adj[v], g.row(v))
        for u in range(1, n + 1):
            if u != v:
                assert g.has_edge(u, v) == (canon_pair(u, v) in ref)
    assert not adj[0].any() and not adj[:, 0].any()
    picks = data.draw(st.lists(st.integers(1, n), max_size=2 * n), label="rows")
    rows = g.rows(picks)
    assert rows.shape == (len(picks), n + 1) and rows.dtype == bool
    assert np.array_equal(rows, adj[picks])
    members = data.draw(st.permutations(range(1, n + 1)), label="members")[: n // 2 + 1]
    assert g.induced_edge_count(members) == sum(
        canon_pair(a, b) in ref for a, b in itertools.combinations(members, 2)
    )
    back = Graph.from_adjacency(adj)
    assert back.edge_count == g.edge_count
    assert list(back.edges()) == list(g.edges())
    assert np.array_equal(back.adjacency(), adj)
    assert triangle_count(g) == len(brute_triangles(g))
    for rows in (adj, np.triu(adj, 1)):
        brute = (rows[:, None, :] & rows[None, :, :]).sum(axis=2, dtype=np.int64)
        counts = common_neighbors(rows)
        assert counts.dtype == np.int32 and np.array_equal(counts, brute)


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


def reference_adjacency(kind, n, seed, p):
    """The generators as first written, over `np.triu_indices` and explicit
    vertex blocks: the reference that `generate` must reproduce."""
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


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generate_matches_the_reference_generator(kind):
    for n in range(3, 70):
        for seed in range(3):
            p = 0.3 if kind in ("erdos_renyi", "planted_triangle") else None
            want = reference_adjacency(kind, n, seed, p)
            assert np.array_equal(generate(kind, n, seed, p=p).adjacency(), want), (n, seed)


def test_generate_validates():
    with pytest.raises(ValueError):
        generate("erdos_renyi", 2, seed=0, p=0.5)
    with pytest.raises(ValueError):
        generate("erdos_renyi", 10, seed=0, p=1.5)
    with pytest.raises(ValueError):
        generate("nonsense", 10, seed=0)


def test_rows_reject_bad_vertices():
    for picks in ([0], [4], [1, -2], [[1, 2]]):
        with pytest.raises(ValueError):
            K3.rows(picks)
    with pytest.raises(ValueError):
        K3.induced_edge_count([1, 4])
    for v in (0, 4):
        with pytest.raises(ValueError):
            K3.row(v)


def test_graph_rejects_loops_and_bad_vertices():
    with pytest.raises(ValueError):
        Graph(4, [(2, 2)])
    with pytest.raises(ValueError):
        Graph(4, [(1, 5)])
    with pytest.raises(ValueError):
        Graph(4, [(0, 2)])
    with pytest.raises(ValueError):
        canon_pair(3, 3)


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
