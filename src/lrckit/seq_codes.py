"""Constructions of binary codes with sequential recovery from t erasures.

Covers the two-erasure graph codes (near-regular, Turan, dimension-optimal),
the catalogued three-erasure short codes, Moore-graph codes, and the general
rate-optimal construction for arbitrary t (r >= 3) built by expanding a
layered base graph against a high-girth auxiliary graph.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from .bounds import seq_rate_bound
from .code import (CodeParams, ConstructionFailed, LinearCode, NotInCatalog,
                   checked)
from .field import field_make
from .graphs import (Graph, bipartite_regular_girth, check_proper_coloring,
                     complete_graph, edge_color_bipartite, girth,
                     incidence_bits, moore_catalog, near_regular_graph,
                     regular_graph, turan_graph)
from .matrix import Mat

GF2 = field_make(2)


def _rate_optimal(rows: List[int], cols: int, r: int, t: int,
                  provenance: dict) -> LinearCode:
    """The binary S-LR code with parity-check bit rows `rows` over `cols`
    coordinates, its dimension taken from rank.  Every rate-optimal
    construction ends here: raises ConstructionFailed unless the rate is
    exactly `seq_rate_bound(r, t)`."""
    code = LinearCode(Mat.from_bits(GF2, rows, cols), provenance=provenance)
    code.params = CodeParams(n=code.n, k=code.k, r=r, t=t, q=2, role="S-LR")
    bound = seq_rate_bound(r, t)
    if code.rate() != bound:
        raise ConstructionFailed(f"rate {code.rate()} != bound {bound} "
                                 f"for r={r}, t={t}")
    return code


# ---------------------------------------------------------------------------
# t = 2 constructions
# ---------------------------------------------------------------------------

def _systematic_rows(g: Graph) -> List[int]:
    """Bit rows of H = [I_m | M], M the node-edge incidence matrix of g:
    edges carry information bits, nodes carry explicit parity bits."""
    m = g.node_count
    return [1 << u | edges << m for u, edges in enumerate(incidence_bits(g))]


def t2_near_regular_code(k: int, r: int) -> LinearCode:
    """Block-length-optimal binary two-erasure code: n = k + ceil(2k/r)."""
    g = near_regular_graph(k, r)
    m = g.node_count
    H = Mat.from_bits(GF2, _systematic_rows(g), m + len(g.edges))
    return checked(LinearCode(
        H, params=CodeParams(n=m + k, k=k, r=r, t=2, q=2, role="S-LR"),
        provenance={"construction": "near-regular", "nodes": m}))


def t2_turan_code(r: int, beta: int) -> LinearCode:
    """Rate-optimal binary two-erasure code from a Turan graph."""
    g = turan_graph(r, beta)
    return _rate_optimal(_systematic_rows(g), g.node_count + len(g.edges),
                         r, 2, {"construction": "turan", "beta": beta})


def _cyclic_shift_classes(m: int, weight: int) -> List[List[Tuple[int, ...]]]:
    """Weight-`weight` binary m-vectors grouped by cyclic-shift orbit,
    orbits ordered by their lexicographically smallest member."""
    from itertools import combinations
    seen = set()
    classes = []
    for support in combinations(range(m), weight):
        vec = tuple(1 if i in support else 0 for i in range(m))
        if vec in seen:
            continue
        orbit = []
        cur = vec
        for _ in range(m):
            if cur not in seen:
                seen.add(cur)
                orbit.append(cur)
            cur = cur[-1:] + cur[:-1]
        classes.append(sorted(orbit))
    return classes


def t2_dim_optimal_code(m: int, r: int) -> LinearCode:
    """Binary two-erasure code meeting the dimension bound for a given
    number m of low-weight checks: all parity-check columns distinct,
    every row of weight exactly r + 1.

    Requires the decomposition r = sum_{i=2}^{L} C(m-1, i-1) + J with
    0 <= J < C(m-1, L), gcd(L+1, m) = 1 and (L+1) | J.
    """
    if m < 1 or r < 1:
        raise ValueError("need m, r >= 1")
    L, acc = 1, 0
    while True:
        cap = math.comb(m - 1, L)
        if r - acc < cap:
            break
        acc += cap
        L += 1
        if L > m:
            raise NotInCatalog(
                f"r={r} too large for m={m} distinct columns")
    J = r - acc
    if math.gcd(L + 1, m) != 1:
        raise NotInCatalog(f"gcd(L+1={L+1}, m={m}) != 1")
    if J % (L + 1):
        raise NotInCatalog(f"(L+1)={L+1} does not divide J={J}")
    from itertools import combinations
    cols: List[Tuple[int, ...]] = []
    for u in range(m):
        cols.append(tuple(1 if i == u else 0 for i in range(m)))
    for w in range(2, L + 1):
        for support in combinations(range(m), w):
            cols.append(tuple(1 if i in support else 0 for i in range(m)))
    if J:
        classes = _cyclic_shift_classes(m, L + 1)
        if any(len(c) != m for c in classes):  # gcd(L+1, m) = 1 rules it out
            raise ConstructionFailed("cyclic orbits not all full size")
        for cls in classes[: J // (L + 1)]:
            cols.extend(cls)
    H = Mat(GF2, [[col[i] for col in cols] for i in range(m)],
            cols=len(cols))
    k_expected = (sum(math.comb(m, i) for i in range(2, L + 1))
                  + m * J // (L + 1))
    if any(row.bit_count() != r + 1 for row in H.bits):
        raise ConstructionFailed(f"a check does not have weight r+1 = {r + 1}")
    return checked(LinearCode(
        H, params=CodeParams(n=len(cols), k=k_expected, r=r, t=2, q=2,
                             role="S-LR"),
        provenance={"construction": "dim-optimal", "L": L, "J": J}))


# ---------------------------------------------------------------------------
# t = 3 catalogued short codes
# ---------------------------------------------------------------------------

_T3_EX1 = [
    [1, 0, 0, 0, 1, 0, 0, 0, 1, 1],
    [0, 1, 0, 0, 0, 1, 0, 0, 1, 0],
    [0, 0, 1, 0, 0, 0, 1, 0, 1, 1],
    [0, 0, 0, 1, 0, 0, 0, 1, 0, 1],
    [0, 0, 0, 0, 1, 1, 1, 1, 0, 0],
]

_T3_EX2 = [
    [1, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1],
    [0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0],
    [0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
]


def t3_catalog(which: str) -> LinearCode:
    """Fixture three-erasure codes with the least possible block length:
    `ex1` is a (10, 5, r=3, t=3) code, `ex2` a (14, 8, r=4, t=3) code."""
    if which == "ex1":
        H, r, k = _T3_EX1, 3, 5
    elif which == "ex2":
        H, r, k = _T3_EX2, 4, 8
    else:
        raise ValueError("which must be 'ex1' or 'ex2'")
    mat = Mat(GF2, H)
    return checked(LinearCode(
        mat, params=CodeParams(n=mat.cols, k=k, r=r, t=3, q=2, role="S-LR"),
        provenance={"construction": f"t3-{which}"}))


# ---------------------------------------------------------------------------
# Moore-graph codes (rate- and block-length-optimal)
# ---------------------------------------------------------------------------

def moore_code(r: int, t: int) -> LinearCode:
    """Code from the node-edge incidence matrix of a Moore graph of degree
    r+1 and girth t+1, with one (linearly dependent) node row dropped."""
    g = moore_catalog(r, t)
    return _rate_optimal(incidence_bits(g)[1:], len(g.edges), r, t,
                         {"construction": "moore",
                          "graph_nodes": g.node_count})


# ---------------------------------------------------------------------------
# the general rate-optimal construction
# ---------------------------------------------------------------------------

def _base_graph_odd(r: int, s: int) -> Tuple[Graph, List[List[int]]]:
    """Layered graph for odd t = 2s+1 (s >= 1), including the apex node.

    Node 0 is the apex, joined to the r+1 nodes of layer 0.  Layer i has
    (r+1) r^i nodes for i < s and layer s has r^s nodes.  Layers 0..s-1 fan
    out as a tree (r children per node); layers s-1 and s are joined by
    disjoint complete bipartite blocks K_{r+1, r}, which gives every node
    except the apex degree exactly r+1.
    """
    layer_sizes = ([r + 1] + [(r + 1) * r ** i for i in range(1, s)]
                   + [r ** s])
    layers: List[List[int]] = []
    next_id = 1
    for size in layer_sizes:
        layers.append(list(range(next_id, next_id + size)))
        next_id += size
    edges = [(0, v) for v in layers[0]]
    for i in range(s - 1):  # tree fan-out down to layer s-1
        parents, children = layers[i], layers[i + 1]
        for pi, p in enumerate(parents):
            for c in range(r):
                edges.append((p, children[pi * r + c]))
    groups = r ** (s - 1)
    left, right = layers[s - 1], layers[s]
    for gidx in range(groups):
        lg = left[gidx * (r + 1): (gidx + 1) * (r + 1)]
        rg = right[gidx * r: (gidx + 1) * r]
        for u in lg:
            for v in rg:
                edges.append((u, v))
    return Graph(next_id, edges), layers


def _color_tree_and_gadgets(r: int, s: int):
    """Base graph for even t = 2s+2 (s >= 2) together with a proper
    (r+1)-edge-coloring.

    Four depth-s trees are colored so that no root edge uses the last color;
    the leaves are then wired among themselves by r-regular bipartite gadgets
    grouped by the leaves' parent-edge color, each gadget colored with the
    r colors its leaves still have free.
    """
    roots = list(range(4))
    next_id = 4
    parent_color: Dict[int, int] = {}
    depth_nodes: List[List[int]] = [roots]
    edges: List[Tuple[int, int]] = []
    colors: Dict[Tuple[int, int], int] = {}

    def add_edge(u, v, c):
        e = (min(u, v), max(u, v))
        edges.append(e)
        colors[e] = c

    for root in roots:
        parent_color[root] = r  # pretend the (absent) upward edge is color r
    for depth in range(s):
        new_level = []
        for p in depth_nodes[depth]:
            free = [c for c in range(r + 1) if c != parent_color[p]]
            for c in free:
                child = next_id
                next_id += 1
                add_edge(p, child, c)
                parent_color[child] = c
                new_level.append(child)
        depth_nodes.append(new_level)
    # wire the leaves among themselves, grouped by parent-edge color
    leaves = depth_nodes[s]
    by_color: Dict[int, List[int]] = {c: [] for c in range(r + 1)}
    for leaf in leaves:
        by_color[parent_color[leaf]].append(leaf)
    for c, members in by_color.items():
        count = len(members)
        if count % 4:
            raise ConstructionFailed(f"{count} leaves of color {c}, not a "
                                     "multiple of 4")
        half = count // 2
        gadget = regular_graph(half, r)
        dbl = _double_cover(gadget)  # r-regular bipartite on `count` nodes
        allowed = sorted(set(range(r + 1)) - {c})
        gcolors = edge_color_bipartite(dbl)
        for eidx, (u, v) in enumerate(dbl.edges):
            # dbl nodes 0..half-1 take the first half of `members`,
            # half..count-1 the second half
            add_edge(members[u], members[v], allowed[gcolors[eidx]])
    g = Graph(next_id, edges)
    return g, depth_nodes, [colors[e] for e in g.edges]


def _double_cover(g: Graph) -> Graph:
    """Bipartite double cover: nodes duplicated left/right, every original
    edge {u, v} becomes (u_L, v_R) and (v_L, u_R)."""
    n = g.node_count
    edges = []
    for u, v in g.edges:
        edges.append((u, n + v))
        edges.append((v, n + u))
    return Graph(2 * n, edges)


def seq_general_code(r: int, t: int, aux: str = "catalog",
                     seed: int = 0) -> LinearCode:
    """Rate-optimal binary sequential-recovery code for locality r >= 3 and
    any t except 4 (t = 4 is available through `moore_code` for r in {2, 6}).

    Builds the layered base graph, properly colors it with r+1 colors,
    expands it against a degree-(r+1) bipartite auxiliary graph of girth
    >= t+1 so that the product inherits the auxiliary girth, reattaches the
    apex node, and takes the node-edge incidence matrix (apex row dropped)
    as the parity-check matrix.
    """
    if t < 2:
        raise ValueError("need t >= 2")
    if t == 4:
        raise NotInCatalog("t = 4 is served by moore_code only")
    if r < 3 and t >= 4:
        raise NotInCatalog("the general construction needs r >= 3")
    if t in (2, 3):
        g = complete_graph(r + 2) if t == 2 else _base_graph_odd(r, 1)[0]
        return _rate_optimal(incidence_bits(g)[1:], len(g.edges), r, t,
                             {"construction": "seq-general", "t": t,
                              "base": "complete" if t == 2 else "bipartite"})
    s = (t - 1) // 2

    # ---- step 1: base graph plus proper (r+1)-edge-coloring ----
    if t % 2:
        g0, layers = _base_graph_odd(r, s)
        coloring = edge_color_bipartite(g0)  # apex included: still bipartite
        base_edges = []
        base_colors = []
        for eidx, (u, v) in enumerate(g0.edges):
            if u == 0 or v == 0:
                continue
            base_edges.append((u - 1, v - 1))
            base_colors.append(coloring[eidx])
        base = Graph(g0.node_count - 1, base_edges)
        layer0 = [v - 1 for v in layers[0]]
    else:
        base, depth_nodes, base_colors = _color_tree_and_gadgets(r, s)
        layer0 = depth_nodes[0]
        if not check_proper_coloring(base, base_colors):
            raise ConstructionFailed("base graph coloring is not proper")

    # ---- step 2: auxiliary graph with girth >= t+1, colored by matchings --
    if aux not in ("catalog", "random"):
        raise ValueError("aux must be 'catalog' or 'random'")
    aux_graph, peg = bipartite_regular_girth(r + 1, t + 1, seed=seed,
                                             catalog=aux == "catalog")
    if girth(aux_graph) < t + 1:
        raise ConstructionFailed("auxiliary girth insufficient")
    aux_col = edge_color_bipartite(aux_graph)
    n_aux = aux_graph.node_count
    # per color: matching as a partner array
    partner = [[-1] * n_aux for _ in range(r + 1)]
    for eidx, (u, v) in enumerate(aux_graph.edges):
        c = aux_col[eidx]
        partner[c][u] = v
        partner[c][v] = u
    if any(-1 in pc for pc in partner):
        raise ConstructionFailed("auxiliary coloring is not perfect")

    # ---- step 3: expand the base graph against the auxiliary graph ----
    nb = base.node_count
    def node_id(v: int, u: int) -> int:
        return v * n_aux + u
    exp_edges = []
    for (v, x), c in zip(base.edges, base_colors):
        for u in range(n_aux):
            w = partner[c][u]
            if u < w:
                exp_edges.append((node_id(v, u), node_id(x, w)))
                exp_edges.append((node_id(v, w), node_id(x, u)))
    apex = nb * n_aux
    for v in layer0:
        for u in range(n_aux):
            exp_edges.append((node_id(v, u), apex))
    expanded = Graph(nb * n_aux + 1, exp_edges)
    got_girth = girth(expanded)
    if got_girth < t + 1:
        raise ConstructionFailed(f"expanded graph girth {got_girth} < {t+1}")

    # incidence matrix with the apex row (the last node) dropped
    return _rate_optimal(incidence_bits(expanded)[:-1], len(expanded.edges),
                         r, t, {"construction": "seq-general", "t": t,
                                "base_nodes": base.node_count,
                                "aux_nodes": n_aux, "aux": aux, "seed": seed,
                                "colors": r + 1, "girth": got_girth,
                                **({"aux_algorithm": "peg"} if peg else {})})
