import math
import random
from collections import deque

import pytest

from lrckit import graphs
from lrckit.bounds import moore_bound
from lrckit.field import field_make
from lrckit.code import NotInCatalog, SearchExhausted
from lrckit.graphs import (Graph, GraphError, bipartition,
                           bipartite_regular_girth, check_proper_coloring,
                           complete_bipartite, complete_graph, cycle_graph,
                           edge_color_bipartite, girth, gq_incidence_graph,
                           heawood_graph, hoffman_singleton_graph,
                           hopcroft_karp,
                           incidence_code, moore_catalog, near_regular_graph,
                           petersen_graph, pg_incidence_graph, shortest_cycle,
                           turan_graph, tutte_12_cage)


def girth_by_edge_removal(g: Graph) -> float:
    """Independent oracle: for each edge (u, v), the shortest cycle through
    it is 1 + dist(u, v) in the graph with that edge removed."""
    best = math.inf
    for skip, (u, v) in enumerate(g.edges):
        adj = [[] for _ in range(g.node_count)]
        for idx, (a, b) in enumerate(g.edges):
            if idx == skip:
                continue
            adj[a].append(b)
            adj[b].append(a)
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


def test_graph_validation():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 5)])


def test_generators_refuse_impossible_shapes():
    for degrees in ([3, 1, 1], [0, -1]):  # too few partners; a negative
        with pytest.raises(GraphError, match=r"^sequence \["):
            graphs.graph_from_degree_sequence(degrees)
    for nodes, degree in ((3, 3), (5, 3)):  # too few nodes; odd degree sum
        with pytest.raises(GraphError, match="-regular graph on"):
            graphs.regular_graph(nodes, degree)
    with pytest.raises(GraphError, match="cycle needs"):
        cycle_graph(2)
    with pytest.raises(GraphError, match="LCF length mismatch"):
        graphs.lcf_graph(10, [3], 3)
    for build in (pg_incidence_graph, gq_incidence_graph):
        with pytest.raises(NotInCatalog, match="6 is not a prime power"):
            build(6)
    with pytest.raises(GraphError, match="degree must be >= 2"):
        bipartite_regular_girth(1, 4)


@pytest.mark.parametrize("g,expected", [
    (complete_graph(4), 3),
    (petersen_graph(), 5),
    (heawood_graph(), 6),
    (cycle_graph(9), 9),
    (Graph(3, [(0, 1), (1, 2)]), math.inf),
])
def test_girth_known(g, expected):
    assert girth(g) == expected


def test_girth_against_edge_removal_oracle():
    rng = random.Random(42)
    cases = [petersen_graph(), heawood_graph(), turan_graph(4, 2),
             complete_bipartite(3, 4)]
    for _ in range(10):
        n = rng.randrange(4, 10)
        edges = {tuple(sorted(rng.sample(range(n), 2)))
                 for _ in range(rng.randrange(3, 2 * n))}
        cases.append(Graph(n, sorted(edges)))
    for g in cases:
        assert girth(g) == girth_by_edge_removal(g)


def test_shortest_cycle_is_a_cycle():
    for g in (petersen_graph(), heawood_graph(), turan_graph(4, 2)):
        cyc = shortest_cycle(g)
        assert len(cyc) == girth(g)
        deg = {}
        for e in cyc:
            u, v = g.edges[e]
            deg[u] = deg.get(u, 0) + 1
            deg[v] = deg.get(v, 0) + 1
        assert all(d == 2 for d in deg.values())


def _two_pass_shortest_cycle(g):
    """The two-pass search the one-pass `shortest_cycle` replaced, kept as
    its reference: find the girth first, then the first root (and the first
    non-tree edge in its BFS) that closes a walk of exactly that length."""
    gth = girth_by_edge_removal(g)
    if gth == math.inf:
        return None
    adj = g.adjacency()
    n = g.node_count
    for root in range(n):
        dist = [-1] * n
        parent = [(-1, -1)] * n
        dist[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, e in adj[u]:
                if e == parent[u][1]:
                    continue
                if dist[v] == -1:
                    dist[v] = dist[u] + 1
                    parent[v] = (u, e)
                    queue.append(v)
                elif dist[u] + dist[v] + 1 == gth:
                    paths = []
                    for x in (u, v):
                        path = set()
                        while x != root:
                            path.add(parent[x][1])
                            x = parent[x][0]
                        paths.append(path)
                    return sorted((paths[0] ^ paths[1]) | {e})


def _tree_with_chords(rng, n, chords):
    """A random forest on n nodes (each node joins an earlier one with
    probability 0.9) plus `chords` random extra edges: long girths,
    disconnected graphs and isolated nodes."""
    edges = {(rng.randrange(i), i) for i in range(1, n) if rng.random() < 0.9}
    for _ in range(chords if n > 1 else 0):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph(n, sorted(edges))


def _girth_cases(rng):
    cases = [petersen_graph(), heawood_graph(), turan_graph(4, 2),
             complete_bipartite(3, 4), cycle_graph(9),
             Graph(5, [(0, 1), (1, 2), (3, 4)]), Graph(1, []), Graph(4, []),
             Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])]
    for _ in range(40):
        n = rng.randrange(4, 14)
        edges = {tuple(sorted(rng.sample(range(n), 2)))
                 for _ in range(rng.randrange(2, 2 * n))}
        cases.append(Graph(n, sorted(edges)))
    cases += [_tree_with_chords(rng, rng.randrange(1, 40), rng.randrange(4))
              for _ in range(60)]
    return cases


# the rest of `moore_catalog` is PG(2, q), GQ(q), the cage and
# Hoffman-Singleton, listed once
CATALOG_GRAPHS = ([pg_incidence_graph(q) for q in (2, 3, 4, 5, 7)]
                  + [gq_incidence_graph(2), gq_incidence_graph(3),
                     tutte_12_cage(), hoffman_singleton_graph()]
                  + [moore_catalog(r, t)
                     for r, t in ((1, 5), (3, 2), (3, 3), (2, 4))])


def _assert_girth_kernel(g):
    cycle = shortest_cycle(g)
    assert cycle == _two_pass_shortest_cycle(g)
    gth = math.inf if cycle is None else len(cycle)
    assert girth(g) == gth
    for below in range(1, min(gth, g.node_count) + 3):
        assert shortest_cycle(g, below) == (cycle if gth < below else None)


def test_shortest_cycle_matches_two_pass_reference(monkeypatch):
    """The all-roots bit-parallel pass, and the BFS from its first root,
    return the reference's cycle, also with roots in blocks of a few; the
    pass bounded by `below` finds the girth exactly when it is below."""
    for g in _girth_cases(random.Random(7)) + CATALOG_GRAPHS:
        _assert_girth_kernel(g)
    for block in (1, 3, 8):
        monkeypatch.setattr(graphs, "GIRTH_BLOCK", block)
        for g in _girth_cases(random.Random(block)):
            _assert_girth_kernel(g)


def test_shortest_cycle_over_several_blocks():
    """A graph of more than GIRTH_BLOCK nodes: cycles of 5 to 12 nodes with
    trees hung on them, nodes shuffled so that components span blocks; a
    later block must replace an earlier one's cycle only with a shorter
    one."""
    rng = random.Random(3)
    n, edges = 0, []
    while n <= graphs.GIRTH_BLOCK + 50:
        size = rng.randrange(5, 13)
        edges += [(n + i, n + (i + 1) % size) for i in range(size)]
        edges += [(rng.randrange(n, n + i), n + i)
                  for i in range(size, size + rng.randrange(20))]
        n = max(max(e) for e in edges) + 1
    label = list(range(n))
    rng.shuffle(label)
    shuffled = Graph(n, [(label[u], label[v]) for u, v in edges])
    # girth 3 only on the last nodes, in the last block
    triangle = Graph(n + 3, edges + [(n, n + 1), (n + 1, n + 2), (n, n + 2)])
    for g in (shuffled, triangle):
        _assert_girth_kernel(g)
    assert shortest_cycle(triangle) == [len(edges), len(edges) + 1,
                                        len(edges) + 2]


def test_near_regular():
    g = near_regular_graph(12, 4)
    assert g.node_count == 6 and len(g.edges) == 12
    assert g.degrees() == [4] * 6
    g = near_regular_graph(3, 2)
    assert g.node_count == 3 and len(g.edges) == 3  # a triangle
    g = near_regular_graph(7, 2)
    assert g.node_count == 7 and g.degrees() == [2] * 7
    # 2k = 13*2, b=0 infeasible region: m = 2 < r+1
    with pytest.raises(GraphError):
        near_regular_graph(3, 3)


def test_turan():
    g = turan_graph(2, 1)
    assert g.node_count == 3 and len(g.edges) == 3  # complete graph
    g = turan_graph(6, 3)
    assert g.node_count == 9 and len(g.edges) == 27
    assert g.degrees() == [6] * 9
    g = turan_graph(2, 2)
    assert g.node_count == 4 and len(g.edges) == 4 and girth(g) == 4
    with pytest.raises(GraphError):
        turan_graph(5, 2)


def test_bipartite_regular_girth_catalog():
    g, grown = bipartite_regular_girth(3, 4)
    assert g.node_count == 6 and not grown  # K_{3,3}
    g, grown = bipartite_regular_girth(3, 6)
    assert g.node_count == 14 and girth(g) == 6  # smallest 3-regular girth 6
    g, grown = bipartite_regular_girth(4, 6)
    assert g.node_count == 26 and girth(g) == 6 and not grown
    # no geometry of degree 2 past girth 4: a catalog miss grows from seed 0
    g, grown = bipartite_regular_girth(2, 6)
    assert grown and girth(g) >= 6
    assert g.edges == bipartite_regular_girth(2, 6, catalog=False)[0].edges
    # girth 9 or 10 at degree 3 is the 12-cage, the next polygon up
    g, grown = bipartite_regular_girth(3, 10)
    assert g.edges == tutte_12_cage().edges and not grown


def test_bipartite_regular_girth_gives_up(monkeypatch):
    """Past 64 times the Moore side, edge growth raises SearchExhausted."""
    sides = []
    monkeypatch.setattr(graphs, "_peg",
                        lambda degree, need, side, rng: sides.append(side))
    with pytest.raises(SearchExhausted, match="^no 3-regular bipartite "
                       "graph of girth 6 found by edge growth up to 448 "
                       "nodes a side$"):
        bipartite_regular_girth(3, 6, catalog=False)
    assert sides == [side for side in (14, 28, 56, 112, 224, 448)
                     for _ in range(128)]


def test_bipartite_regular_girth_randomized():
    for degree in (3, 4):
        for seed in range(16):
            g, grown = bipartite_regular_girth(degree, 6, seed=seed,
                                               catalog=False)
            assert grown and girth(g) >= 6
            assert set(g.degrees()) == {degree}
            assert bipartition(g) is not None
            again, _ = bipartite_regular_girth(degree, 6, seed=seed,
                                               catalog=False)
            assert again.edges == g.edges


def test_hopcroft_karp_long_augmenting_path():
    # the first phase matches left i to right i and leaves the last left
    # node free; its one augmenting path visits all 3000 left nodes, deeper
    # than the interpreter's recursion limit
    n = 3000
    adj = {i: [i, i + 1] for i in range(n - 1)}
    adj[n - 1] = [0]
    assert hopcroft_karp(adj) == {**{i: i + 1 for i in range(n - 1)},
                                  n - 1: 0}


def test_edge_coloring():
    for g, d in ((cycle_graph(6), 2), (complete_bipartite(3, 3), 3),
                 (heawood_graph(), 3), (pg_incidence_graph(3), 4)):
        col = edge_color_bipartite(g)
        assert sorted(set(col)) == list(range(d))
        assert check_proper_coloring(g, col)
        assert not check_proper_coloring(g, (0,) * len(g.edges))
        assert all(col.count(c) == g.node_count // 2
                   for c in range(d))
    with pytest.raises(GraphError):
        edge_color_bipartite(petersen_graph())  # odd cycles
    with pytest.raises(GraphError):
        edge_color_bipartite(complete_bipartite(2, 3))  # not regular


def test_hoffman_singleton():
    g = hoffman_singleton_graph()
    assert g.node_count == 50 and g.degrees() == [7] * 50 and girth(g) == 5


def test_tutte_12_cage():
    g = tutte_12_cage()
    assert g.node_count == 126 and girth(g) == 12


def test_gq_incidence():
    for q in (2, 3):
        g = gq_incidence_graph(q)
        assert g.node_count == 2 * (q ** 3 + q ** 2 + q + 1)
        assert girth(g) == 8
        assert set(g.degrees()) == {q + 1}


# every (r, t) with 1 <= r <= 8 and 1 <= t <= 12 that `moore_catalog` serves
MOORE_SERVED = {
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (1, 10),
    (1, 11), (1, 12), (2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (2, 11), (3, 2),
    (3, 3), (3, 5), (3, 7), (4, 2), (4, 3), (4, 5), (4, 7), (5, 2), (5, 3),
    (5, 5), (5, 7), (6, 2), (6, 3), (6, 4), (7, 2), (7, 3), (7, 5), (8, 2),
    (8, 3), (8, 5)}


def test_moore_catalog_serves_exactly_the_pinned_pairs():
    """Each served pair is a Moore graph: moore_bound(r, t) nodes, every
    degree r + 1, girth exactly t + 1; every other pair is refused.  In
    particular (2, 9), girth 10, is not handed the 12-cage."""
    assert len(MOORE_SERVED) == 38
    for r in range(1, 9):
        for t in range(1, 13):
            if (r, t) in MOORE_SERVED:
                g = moore_catalog(r, t)
                assert g.node_count == moore_bound(r, t), (r, t)
                assert set(g.degrees()) == {r + 1}, (r, t)
                assert girth(g) == t + 1, (r, t)
            else:
                with pytest.raises(NotInCatalog, match="^no Moore graph "
                                   f"catalogued for r={r}, t={t}$"):
                    moore_catalog(r, t)


def test_moore_catalog_misses():
    # existence is an open question; (3, 4) and (6, 5) are in the grid above
    with pytest.raises(NotInCatalog, match="^no Moore graph catalogued for "
                       "r=56, t=4$"):
        moore_catalog(56, 4)


def test_incidence_code_cycle_space_dimension():
    gf2 = field_make(2)
    for g in (complete_graph(4), petersen_graph(), heawood_graph(),
              turan_graph(4, 2)):
        c = incidence_code(g, gf2)
        assert c.n == len(g.edges)
        assert c.k == len(g.edges) - g.node_count + 1  # connected graphs
    # trees have full column rank
    path = Graph(3, [(0, 1), (1, 2)])
    assert incidence_code(path, gf2).k == 0


def test_incidence_code_refuses_an_edgeless_graph():
    # no edge, no coordinate: a code of length 0 would pass every check
    for g in (complete_graph(1), complete_graph(0), Graph(3, [])):
        for gf in (field_make(2), field_make(3)):
            with pytest.raises(GraphError, match="no edge"):
                incidence_code(g, gf)


def test_incidence_code_random_coefficients():
    gf = field_make(2, 2)
    c = incidence_code(petersen_graph(), gf, coefficients="random", seed=9)
    assert c.n == 15
    for row, node_deg in zip(c.H.data, petersen_graph().degrees()):
        assert sum(1 for x in row if x) == node_deg
