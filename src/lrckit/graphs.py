"""Simple graphs for code construction.

Girth computation, deterministic near-regular / Turan generation, high-girth
regular bipartite graphs (projective-plane and generalized-quadrangle
incidence graphs, plus a progressive edge-growth fallback), proper edge
coloring of regular bipartite graphs by repeated perfect matchings, the
catalog of Moore graphs, and node-edge incidence codes.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from itertools import combinations, product
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .field import GF, field_of_size, prime_power
from .matrix import Mat
from .code import (CodeParams, ConstructionFailed, LinearCode, NotInCatalog,
                   SearchExhausted)


class GraphError(ValueError):
    """A malformed graph, or one that cannot exist or has the wrong shape."""


class Graph:
    """Undirected simple graph on nodes 0..node_count-1."""

    __slots__ = ("node_count", "edges")

    def __init__(self, node_count: int, edges: Iterable[Tuple[int, int]]):
        es = []
        seen: Set[Tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise GraphError(f"edge ({u},{v}) out of range")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise GraphError(f"parallel edge {e}")
            seen.add(e)
            es.append(e)
        self.node_count = node_count
        self.edges = tuple(es)

    def adjacency(self) -> List[List[Tuple[int, int]]]:
        """adj[u] = list of (neighbor, edge index)."""
        adj: List[List[Tuple[int, int]]] = [[] for _ in range(self.node_count)]
        for idx, (u, v) in enumerate(self.edges):
            adj[u].append((v, idx))
            adj[v].append((u, idx))
        return adj

    def degrees(self) -> List[int]:
        deg = [0] * self.node_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def __repr__(self) -> str:
        return f"Graph(n={self.node_count}, m={len(self.edges)})"


@dataclass(frozen=True)
class EdgeColoring:
    """Proper edge coloring: colors[i] is the color of graph edge i."""
    colors: Tuple[int, ...]
    palette: int


def check_proper_coloring(g: Graph, coloring: EdgeColoring) -> bool:
    adj = g.adjacency()
    for nbrs in adj:
        seen = set()
        for _, e in nbrs:
            c = coloring.colors[e]
            if c in seen:
                return False
            seen.add(c)
    return True


# ---------------------------------------------------------------------------
# girth
# ---------------------------------------------------------------------------

GIRTH_BLOCK = 1024  # roots per bit-parallel pass of `_first_shortest`


def _first_shortest(g: Graph, below: float) -> Tuple[float, int]:
    """(girth, w*) with w* the lowest node on a shortest cycle, when the
    girth is below `below`; else (math.inf, -1).

    A BFS from root w closes a walk of length dist(u) + dist(v) + 1 on each
    non-tree edge (u, v), and the shortest such walk is a cycle through w.
    All roots run at once as bits (multi-source BFS, Then et al., "The More
    the Merrier", VLDB 2014): at level j, cur[x] holds the roots at distance
    exactly j from x.  Folding cur over x's neighbours gives `once` (roots
    at level j next to x) and `twice` (at least two such neighbours).  Then
    once & cur[x] is an edge inside level j, a walk of length 2j + 1, and
    twice & new, with new the roots reaching x first at level j + 1, is a
    node with two parents, a walk of length 2j + 2.  Roots run in blocks of
    GIRTH_BLOCK, about 3 * nodes * GIRTH_BLOCK / 8 bytes of masks, and each
    block stops at the level where it can no longer beat the best so far,
    so a later block only replaces an earlier one with a shorter cycle."""
    n = g.node_count
    nbrs: List[List[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    best, first = below, -1
    for lo in range(0, n, GIRTH_BLOCK):
        cur = [0] * n
        for w in range(lo, min(n, lo + GIRTH_BLOCK)):
            cur[w] = 1 << (w - lo)
        seen = cur[:]
        level = 0
        while 2 * level + 1 < best:
            odd = even = 0
            nxt = [0] * n
            for x, around in enumerate(nbrs):
                once = twice = 0
                for y in around:
                    d = cur[y]
                    twice |= once & d
                    once |= d
                new = once & ~seen[x]
                if new:
                    nxt[x] = new
                    seen[x] |= new
                    even |= twice & new
                odd |= once & cur[x]
            if odd or even and 2 * level + 2 < best:
                best = 2 * level + (1 if odd else 2)
                hits = odd or even
                first = lo + (hits & -hits).bit_length() - 1
                break
            if not any(nxt):
                break
            cur = nxt
            level += 1
    return (best, first) if first >= 0 else (math.inf, -1)


def shortest_cycle(g: Graph) -> Optional[List[int]]:
    """Edge indices of one shortest cycle, sorted, or None for forests.

    `_first_shortest`, one bit-parallel BFS over all roots (in blocks of
    GIRTH_BLOCK, about 3 * nodes * GIRTH_BLOCK / 8 bytes of masks), gives
    the girth g and w*, the lowest node on a g-cycle.  Then one BFS from w*
    returns its first non-tree edge (u, v) that closes a walk of length
    dist(u) + dist(v) + 1 = g, the two tree paths back to w* closing it.
    That is the cycle a BFS from every root in turn returns when it keeps
    the first walk of the least length (Itai & Rodeh, SIAM J. Comput. 7(4),
    1978): every walk from a root before w* is longer than g.
    """
    best, root = _first_shortest(g, math.inf)
    if root < 0:
        return None
    adj = g.adjacency()
    n = g.node_count
    dist = [-1] * n
    via = [-1] * n  # edge index used to reach the node
    dist[root] = 0
    queue = deque([root])
    while True:  # the walk closes before the queue runs out
        u = queue.popleft()
        for v, e in adj[u]:
            if e == via[u]:
                continue
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                via[v] = e
                queue.append(v)
            elif dist[u] + dist[v] + 1 == best:
                # the two tree paths back to the root; at the girth they
                # share only the root, so this is a simple cycle
                cycle = {e}
                for x in (u, v):
                    while x != root:
                        cycle.add(via[x])
                        x = sum(g.edges[via[x]]) - x
                return sorted(cycle)


def girth(g: Graph, below: float = math.inf) -> float:
    """Length of a shortest cycle; math.inf for forests, and for graphs
    with no cycle shorter than `below` (the pass stops there)."""
    return _first_shortest(g, below)[0]


# ---------------------------------------------------------------------------
# deterministic generators
# ---------------------------------------------------------------------------

def graph_from_degree_sequence(degrees: Sequence[int]) -> Graph:
    """Havel-Hakimi with fixed (degree desc, index asc) ordering."""
    n = len(degrees)
    remaining = list(degrees)
    edges = []
    for _ in range(n):
        order = sorted(range(n), key=lambda i: (-remaining[i], i))
        u = order[0]
        d = remaining[u]
        if d == 0:
            break
        targets = [v for v in order[1:] if remaining[v] > 0][:d]
        if len(targets) < d:
            raise GraphError(f"sequence {list(degrees)}")
        remaining[u] = 0
        for v in targets:
            remaining[v] -= 1
            edges.append((u, v))
    if any(remaining):
        raise GraphError(f"sequence {list(degrees)}")
    return Graph(n, edges)


def near_regular_graph(k: int, r: int) -> Graph:
    """Graph with k edges on ceil(2k/r) nodes, degrees (r, ..., r, b).

    Feasible when 2k/r >= r+1 (b = 0) or ceil(2k/r) >= r+2 (b > 0).
    """
    if k < 1 or r < 1:
        raise GraphError("need k, r >= 1")
    a, b = divmod(2 * k, r)
    m = a + (1 if b else 0)
    if (b == 0 and m < r + 1) or (b > 0 and m < r + 2):
        raise GraphError(
            f"no near-regular graph for k={k}, r={r} (m={m})")
    degrees = [r] * a + ([b] if b else [])
    return graph_from_degree_sequence(degrees)


def regular_graph(nodes: int, degree: int) -> Graph:
    if nodes <= degree or (nodes * degree) % 2:
        raise GraphError(
            f"no {degree}-regular graph on {nodes} nodes")
    return graph_from_degree_sequence([degree] * nodes)


def turan_graph(r: int, beta: int) -> Graph:
    """Complete multipartite graph on r + beta nodes in parts of size beta."""
    if not (1 <= beta <= r) or r % beta:
        raise GraphError(f"need beta | r and 1 <= beta <= r, got {beta}, {r}")
    b = r + beta
    part = [i // beta for i in range(b)]
    edges = [(u, v) for u in range(b) for v in range(u + 1, b)
             if part[u] != part[v]]
    return Graph(b, edges)


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs >= 3 nodes")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen_graph() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]        # outer pentagon
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]  # inner pentagram
    edges += [(i, 5 + i) for i in range(5)]             # spokes
    return Graph(10, edges)


def hoffman_singleton_graph() -> Graph:
    """Pentagon/pentagram construction; validated on build.

    Nodes 0..24: pentagons P_h (vertex i of pentagon h = 5h + i);
    nodes 25..49: pentagrams Q_j (vertex k of pentagram j = 25 + 5j + k).
    P_{h,i} is joined to Q_{j,k} iff k = h*j + i (mod 5).
    """
    edges = []
    for h in range(5):
        for i in range(5):
            edges.append((5 * h + i, 5 * h + (i + 1) % 5))
    for j in range(5):
        for k in range(5):
            edges.append((25 + 5 * j + k, 25 + 5 * j + (k + 2) % 5))
    edges += [(5 * h + i, 25 + 5 * j + (h * j + i) % 5)
              for h in range(5) for i in range(5) for j in range(5)]
    g = Graph(50, edges)
    if g.degrees() != [7] * 50 or girth(g) != 5:
        raise ConstructionFailed("Hoffman-Singleton fixture failed checks")
    return g


# -- incidence graphs of classical point-line geometries --

def _projective_points(q: int, dim: int) -> List[Tuple[int, ...]]:
    """Normalized representatives (first nonzero coordinate 1) of the
    one-dimensional subspaces of GF(q)^dim, first coordinate fastest."""
    vectors = (u[::-1] for u in product(range(q), repeat=dim))
    return [v for v in vectors if next(filter(None, v), 0) == 1]


def pg_incidence_graph(q: int) -> Graph:
    """Point-line incidence graph of the projective plane of order q.

    (q+1)-regular bipartite on 2(q^2+q+1) nodes with girth 6; for q a prime
    power this meets the Moore bound for girth 6.
    """
    if prime_power(q) is None:
        raise NotInCatalog(f"{q} is not a prime power")
    gf = field_of_size(q)
    pts = _projective_points(q, 3)
    npts = len(pts)
    index = {p: i for i, p in enumerate(pts)}
    edges = []
    # lines are indexed by their dual points: point p on line l iff p.l = 0
    for li, line in enumerate(pts):
        for p in pts:
            acc = 0
            for a, b in zip(p, line):
                acc = gf.add(acc, gf.mul(a, b))
            if acc == 0:
                edges.append((index[p], npts + li))
    g = Graph(2 * npts, edges)
    if girth(g) != 6:
        raise ConstructionFailed("projective plane incidence girth != 6")
    return g


def heawood_graph() -> Graph:
    return pg_incidence_graph(2)


def gq_incidence_graph(q: int) -> Graph:
    """Incidence graph of the symplectic generalized quadrangle of order q:
    totally isotropic lines of GF(q)^4 under an alternating form.  Gives a
    (q+1)-regular bipartite graph of girth 8 on 2(q^3+q^2+q+1) nodes."""
    if prime_power(q) is None:
        raise NotInCatalog(f"{q} is not a prime power")
    gf = field_of_size(q)
    pts = _projective_points(q, 4)
    index = {p: i for i, p in enumerate(pts)}

    def form(x, y):
        s = gf.sub(gf.mul(x[0], y[1]), gf.mul(x[1], y[0]))
        return gf.add(s, gf.sub(gf.mul(x[2], y[3]), gf.mul(x[3], y[2])))

    def normalize(vec):
        first = next(x for x in vec if x)
        inv = gf.inv(first)
        return tuple(gf.mul(inv, x) for x in vec)

    lines: Set[frozenset] = set()
    for i, u in enumerate(pts):
        for v in pts[i + 1:]:
            if form(u, v):
                continue
            members = {index[u], index[v]}
            for s in gf.nonzero_elements():
                w = normalize(tuple(gf.add(a, gf.mul(s, b))
                                    for a, b in zip(u, v)))
                members.add(index[w])
            lines.add(frozenset(members))
    npts = len(pts)
    edges = []
    for li, line in enumerate(sorted(lines, key=sorted)):
        for p in line:
            edges.append((p, npts + li))
    g = Graph(npts + len(lines), edges)
    if len(lines) != npts or girth(g) != 8:
        raise ConstructionFailed("generalized quadrangle incidence failed")
    return g


def lcf_graph(n: int, shifts: Sequence[int], repeats: int) -> Graph:
    """Cubic graph from LCF notation: a Hamiltonian cycle plus chords
    i -> i + shift[i mod len(shifts)]."""
    if len(shifts) * repeats != n:
        raise GraphError("LCF length mismatch")
    edges = {(i, (i + 1) % n) if i < (i + 1) % n else ((i + 1) % n, i)
             for i in range(n)}
    for i in range(n):
        j = (i + shifts[i % len(shifts)]) % n
        edges.add((min(i, j), max(i, j)))
    return Graph(n, sorted(edges))


def tutte_12_cage() -> Graph:
    """The unique (3, 12)-cage: 126 nodes, 3-regular, girth 12 (the incidence
    graph of the smallest generalized hexagon); validated on build."""
    shifts = [17, 27, -13, -59, -35, 35, -11, 13, -53, 53, -27, 21, 57, 11,
              -21, -57, 59, -17]
    g = lcf_graph(126, shifts, 7)
    if g.degrees() != [3] * 126 or girth(g) != 12:
        raise ConstructionFailed("12-cage fixture failed checks")
    return g


# ---------------------------------------------------------------------------
# bipartite machinery
# ---------------------------------------------------------------------------

def bipartition(g: Graph) -> Optional[Tuple[List[int], List[int]]]:
    color = [-1] * g.node_count
    adj = g.adjacency()
    for start in range(g.node_count):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v, _ in adj[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    return ([i for i, c in enumerate(color) if c == 0],
            [i for i, c in enumerate(color) if c != 0])


def hopcroft_karp(adj: Dict[int, List[int]]) -> Dict[int, int]:
    """Maximum matching of a bipartite graph given as left -> right lists;
    returns the left -> right matching dict."""
    match_l: Dict[int, int] = {}
    match_r: Dict[int, int] = {}
    while True:
        # BFS layers from the free left nodes
        dist = {u: 0 for u in adj if u not in match_l}
        queue = list(dist)
        found = False
        for u in queue:
            for v in adj[u]:
                w = match_r.get(v)
                if w is None:
                    found = True
                elif w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            return match_l
        # layered DFS on a stack of (left node, unvisited neighbours)
        for root in adj:
            if root in match_l:
                continue
            stack = [(root, iter(adj[root]))]
            while stack:
                u, nbrs = stack[-1]
                for v in nbrs:
                    w = match_r.get(v)
                    if w is None:  # each node takes its successor's partner
                        path = [x for x, _ in stack]
                        new = [match_l[x] for x in path[1:]] + [v]
                        for x, y in zip(path, new):
                            match_l[x] = y
                            match_r[y] = x
                        stack = []
                        break
                    if dist.get(w) == dist[u] + 1:
                        stack.append((w, iter(adj[w])))
                        break
                else:
                    dist[u] = math.inf
                    stack.pop()


def edge_color_bipartite(g: Graph) -> EdgeColoring:
    """Proper edge coloring of a d-regular bipartite graph with exactly d
    colors, each color class a perfect matching (repeated Hopcroft-Karp)."""
    parts = bipartition(g)
    if parts is None:
        raise GraphError("graph is not bipartite")
    degs = set(g.degrees())
    if len(degs) != 1:
        raise GraphError(f"degrees {sorted(degs)} not regular")
    d = degs.pop()
    left = set(parts[0])
    # uncoloured edges, (u, v) with u on the left -> edge id; a Graph has no
    # parallel edges, so each pair has one id
    remaining: Dict[Tuple[int, int], int] = {
        (u, v) if u in left else (v, u): idx
        for idx, (u, v) in enumerate(g.edges)}
    colors = [-1] * len(g.edges)
    for color in range(d):
        adj: Dict[int, List[int]] = {}
        for (u, v) in remaining:
            adj.setdefault(u, []).append(v)
        matching = hopcroft_karp(adj)
        if len(matching) != len(parts[0]):
            raise GraphError("no perfect matching found")
        for pair in matching.items():
            colors[remaining.pop(pair)] = color
    coloring = EdgeColoring(tuple(colors), d)
    if not check_proper_coloring(g, coloring):
        raise ConstructionFailed("matchings do not give a proper coloring")
    return coloring


def _peg(degree: int, need: int, side: int,
         rng: random.Random) -> Optional[Graph]:
    """One progressive edge-growth build (Hu, Eleftheriou & Arnold 2005),
    or None once an edge would close a cycle shorter than `need`."""
    adj: List[List[int]] = [[] for _ in range(2 * side)]
    for u in range(side):
        for _ in range(degree):
            # BFS over the partial graph: a new edge u-v closes no cycle
            # shorter than dist(u, v) + 1
            dist = {u: 0}
            queue = [u]
            for x in queue:
                for y in adj[x]:
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        queue.append(y)
            # farthest (unreachable first), then lowest degree
            score = {v: (dist.get(v, math.inf), -len(adj[v]))
                     for v in range(side, 2 * side)
                     if len(adj[v]) < degree and v not in adj[u]}
            best = max(score.values(), default=(-math.inf,))
            if best[0] < need - 1:
                return None
            v = rng.choice([v for v, sc in score.items() if sc == best])
            adj[u].append(v)
            adj[v].append(u)
    return Graph(2 * side, sorted((u, v) for u in range(side) for v in adj[u]))


def bipartite_regular_girth(degree: int, girth_req: int,
                            seed: int = 0,
                            catalog: bool = True) -> Tuple[Graph, bool]:
    """A degree-regular bipartite graph of girth >= girth_req, and whether
    it was grown by progressive edge growth rather than taken from the
    catalog.

    Known incidence geometries cover girth 4, 6, 8 (and 12 for degree 3);
    otherwise (or with catalog=False) progressive edge growth joins each
    left node in turn to farthest right nodes with spare degree, and gives
    up on an edge that would close a shorter cycle, so a finished build has
    girth >= girth_req by construction.  Failed builds are retried from
    `seed`; the side starts at twice the Moore bound and doubles, and past
    64 times it the search gives up with SearchExhausted.
    `girth_req` is rounded up to even (bipartite girths are even).
    """
    if degree < 2:
        raise GraphError("degree must be >= 2")
    need = girth_req + (girth_req % 2)
    if catalog:
        if need <= 4:
            return complete_bipartite(degree, degree), False
        q = degree - 1
        if need <= 6 and prime_power(q):
            return pg_incidence_graph(q), False
        if need <= 8 and prime_power(q) and q <= 5:
            return gq_incidence_graph(q), False
        if need <= 12 and degree == 3:
            return tutte_12_cage(), False
    rng = random.Random(seed)
    moore_side = sum((degree - 1) ** i for i in range(need // 2))
    for double in range(1, 7):
        for _attempt in range(128):
            g = _peg(degree, need, moore_side << double, rng)
            if g is not None:
                return g, True
    raise SearchExhausted(
        f"no {degree}-regular bipartite graph of girth {need} found by "
        f"edge growth up to {moore_side << 6} nodes a side")


# ---------------------------------------------------------------------------
# Moore catalog and incidence codes
# ---------------------------------------------------------------------------

def moore_catalog(r: int, t: int) -> Graph:
    """A concrete (r+1)-regular graph with girth t+1 meeting the Moore bound,
    when one is known to exist.

    Raises NotInCatalog otherwise; in particular the existence of a degree-57
    girth-5 Moore graph is an open question, so (r=56, t=4) is not served.
    """
    from .bounds import moore_bound
    if r < 1 or t < 2:
        raise NotInCatalog(f"no Moore graph catalogued for r={r}, t={t}")
    g: Optional[Graph] = None
    if r == 1:
        g = cycle_graph(t + 1)
    elif t == 2:
        g = complete_graph(r + 2)
    elif t == 3:
        g = complete_bipartite(r + 1, r + 1)
    elif t == 4 and r == 2:
        g = petersen_graph()
    elif t == 4 and r == 6:
        g = hoffman_singleton_graph()
    elif t == 5 and prime_power(r):
        g = pg_incidence_graph(r)
    elif t == 7 and prime_power(r) and r <= 5:
        g = gq_incidence_graph(r)
    elif t == 11 and r == 2:
        g = tutte_12_cage()
    if g is None:
        raise NotInCatalog(f"no Moore graph catalogued for r={r}, t={t}")
    expected = moore_bound(r, t)
    if g.node_count != expected or girth(g) < t + 1:
        raise ConstructionFailed("catalog graph fails Moore checks")
    return g


def incidence_bits(g: Graph) -> List[int]:
    """Rows of the node-edge incidence matrix of g as bit masks (bit e set
    in the rows of both ends of edge e)."""
    rows = [0] * g.node_count
    for idx, (u, v) in enumerate(g.edges):
        rows[u] |= 1 << idx
        rows[v] |= 1 << idx
    return rows


def incidence_code(g: Graph, gf: GF, coefficients: str = "one",
                   seed: int = 0) -> LinearCode:
    """Code whose parity-check matrix is the node-edge incidence matrix of g
    (entries 1 by default; `coefficients="random"` draws nonzero values).
    GraphError if g has no edge: the code would have length 0."""
    if not g.edges:
        raise GraphError(f"{g} has no edge, so its code has no coordinate")
    if gf.q == 2:
        H = Mat.from_bits(gf, incidence_bits(g), len(g.edges))
    else:
        rng = random.Random(seed)
        rows = [[0] * len(g.edges) for _ in range(g.node_count)]
        for idx, edge in enumerate(g.edges):
            for w in edge:
                rows[w][idx] = (rng.randrange(1, gf.q)
                                if coefficients == "random" else 1)
        H = Mat(gf, rows, cols=len(g.edges))
    code = LinearCode(H)
    code.params = CodeParams(n=code.n, k=code.k, q=gf.q)
    return code
