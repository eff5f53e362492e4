"""Graph kernel tests: the worked examples plus randomized invariants."""

import itertools

import pytest

from qtri import (
    EdgeSet,
    Graph,
    bipartite_edges,
    enumerate_triangles,
    generate,
    load_graph,
    neighborhood,
    path2_count,
    save_graph,
    threshold_graph,
    triangle_count,
)
from qtri.graphs import MAX_VERTICES, canon_pair
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


def test_neighborhood_complete():
    assert neighborhood(K3, 1) == {2, 3}


def test_neighborhood_empty_graph():
    g = Graph(5)
    for v in range(1, 6):
        assert neighborhood(g, v) == set()


def test_neighborhood_c4_sides():
    assert neighborhood(C4, 1) == {3, 4}


def test_neighborhood_rejects_bad_vertex():
    with pytest.raises(ValueError):
        neighborhood(K3, 4)
    with pytest.raises(ValueError):
        neighborhood(K3, 0)


def test_path2_examples():
    assert path2_count(K3, 1, 2) == 1
    assert path2_count(C4, 1, 2) == 2
    assert path2_count(C4, 1, 3) == 0


def test_path2_rejects_loop():
    with pytest.raises(ValueError):
        path2_count(K3, 2, 2)


def test_triangle_counts():
    assert triangle_count(K3) == 1
    assert triangle_count(K4) == 4
    assert triangle_count(C4) == 0


def test_threshold_graph_examples():
    assert len(threshold_graph(K4, 2)) == 6
    assert len(threshold_graph(K4, 1)) == 0
    g = Graph(5)
    assert len(threshold_graph(g, 0)) == 10


def test_threshold_graph_monotone_and_saturating():
    g = generate("erdos_renyi", 12, seed=3, p=0.4)
    previous = set()
    for t in range(0, 13):
        current = set(threshold_graph(g, t))
        assert previous <= current
        previous = current
    assert len(threshold_graph(g, g.n)) == g.n * (g.n - 1) // 2


def test_bipartite_edges_examples():
    got = bipartite_edges(K3, {1}, {2, 3})
    assert set(got) == {(1, 2), (1, 3)}
    assert len(bipartite_edges(K3, set(), {1, 2, 3})) == 0
    got = bipartite_edges(C4, {1, 2}, {3, 4})
    assert len(got) == 4


def test_triangle_enumeration_matches_count():
    for n, seed in [(8, 0), (14, 1), (18, 2), (25, 3), (32, 4), (32, 5)]:
        g = generate("erdos_renyi", n, seed=seed, p=0.35)
        triangles = enumerate_triangles(g)
        assert len(triangles) == len(set(triangles)) == triangle_count(g)
        assert sorted(triangles) == brute_triangles(g)


def test_handshake_identity():
    # summing common-neighbor counts over the edges triple-counts triangles
    for seed in range(10):
        g = generate("erdos_renyi", 24, seed=seed, p=0.3)
        acc = sum(path2_count(g, a, b) for a, b in g.edges())
        assert acc == 3 * triangle_count(g)


def test_path2_symmetry():
    g = generate("erdos_renyi", 16, seed=1, p=0.5)
    for a in range(1, 17):
        for b in range(a + 1, 17):
            assert path2_count(g, a, b) == path2_count(g, b, a)


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


def test_generate_validates():
    with pytest.raises(ValueError):
        generate("erdos_renyi", 2, seed=0, p=0.5)
    with pytest.raises(ValueError):
        generate("erdos_renyi", 10, seed=0, p=1.5)
    with pytest.raises(ValueError):
        generate("nonsense", 10, seed=0)


def test_graph_rejects_loops_and_bad_vertices():
    with pytest.raises(ValueError):
        Graph(4, [(2, 2)])
    with pytest.raises(ValueError):
        Graph(4, [(1, 5)])
    with pytest.raises(ValueError):
        canon_pair(3, 3)


def test_edge_set_canonicalisation():
    es = EdgeSet(6, [(3, 1), (1, 3), (2, 5)])
    assert len(es) == 2
    assert (1, 3) in es and (3, 1) in es
    es.discard(5, 2)
    assert len(es) == 1
    assert es.to_graph().edge_count == 1


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
        with pytest.raises(ValueError):
            load_graph(str(path))


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


def test_sample_triangle_is_valid():
    from qtri.graphs import sample_triangle

    g = generate("erdos_renyi", 20, seed=7, p=0.5)
    rng = substream(0, "tri")
    for _ in range(50):
        a, b, c = sample_triangle(g, rng)
        assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
