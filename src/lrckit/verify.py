"""Property verifiers: sequential recovery, availability, strict-availability
shape, partial-MDS/MR/PMR erasure correction, staircase parity-check
structure, and classification of rate-optimal two-erasure codes.

Each verifier returns a VerifyReport carrying the verdict, the mode it ran
in (exhaustive / sampled / certificate), a witness on failure, and the
budgets it worked under.  Sampled runs record their seed.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field as dc_field
from itertools import accumulate, combinations, filterfalse, islice
from typing import (Dict, FrozenSet, Iterator, List, Optional, Sequence,
                    Tuple)

from .bounds import lr_singleton_bound
from .code import BudgetExceeded, LinearCode, is_mds, min_distance
# `mat_rank` is not called here; perfbench's tracer self-test patches it
from .matrix import (Echelon, Mat, columns_independent, first_dependent,
                     mat_rank, rref, subspaces)
from .mr_codes import LocalStructure

SEQ_EXHAUSTIVE_BUDGET = 10 ** 6
PMDS_EXHAUSTIVE_BUDGET = 10 ** 7
DEFAULT_SAMPLES = 10 ** 5
DUAL_ENUM_MAX_WORDS = 2 ** 20


@dataclass
class VerifyReport:
    property_name: str
    verdict: bool
    mode: str  # exhaustive | sampled | certificate
    witness: Optional[object] = None
    budgets: Dict[str, object] = dc_field(default_factory=dict)
    detail: Dict[str, object] = dc_field(default_factory=dict)

    def __post_init__(self):
        if not self.verdict and self.witness is None:
            self.witness = "unspecified failure"
        if self.mode == "sampled" and "seed" not in self.budgets:
            raise ValueError("sampled reports must record their seed")
        if self.mode == "sampled" and self.verdict and not self.budgets.get(
                "checked", self.budgets.get("samples")):  # pmds, seq
            raise ValueError("a sampled PASS must replay at least one pattern")

    def as_dict(self) -> dict:
        return {"property": self.property_name, "verdict": self.verdict,
                "mode": self.mode, "witness": self.witness,
                "budgets": dict(self.budgets),
                "detail": {k: v for k, v in self.detail.items()}}


def declared(code: LinearCode, **given) -> list:
    """The values of `given` (r, t, structure) in order, each None taken
    from what `code` declares: r and t in its params, the local structure
    in its provenance.  Raises ValueError where neither gives a value."""
    structure = code.provenance.get("local_structure")
    out = [value if value is not None else structure if name == "structure"
           else getattr(code.params, name, None)
           for name, value in given.items()]
    if None in out:
        raise ValueError(f"no {list(given)[out.index(None)]} given and the "
                         "code declares none")
    return out


# ---------------------------------------------------------------------------
# low-weight dual words
# ---------------------------------------------------------------------------

def _low_weight_words(code: LinearCode, wmax: int) -> Tuple[Mat, bool]:
    """The dual words of weight 1 to wmax as the rows of a Mat, and whether
    they are all of them.  When q^(n-k) <= DUAL_ENUM_MAX_WORDS they are: one
    word per line of the dual, kept on its packed form, in the order in
    which a count over the coefficients of the RREF dual basis, the first
    row's digit fastest, first reaches a multiple of each.  Otherwise they
    are the stored rows of H, which may miss some: a verdict on them is
    conservative, never falsely positive."""
    gf, n, H = code.gf, code.n, code.H
    if gf.q ** (n - code.k) > DUAL_ENUM_MAX_WORDS:  # no RREF, no unpacking
        if H.bits is None:
            return Mat(gf, [w for w in H.data if 0 < n - w.count(0) <= wmax],
                       cols=n), False
        return Mat.from_bits(gf, [v for v in H.bits
                                  if 0 < v.bit_count() <= wmax], n), False
    basis, pivots = rref(H)
    walk = (w for (w,) in subspaces(basis, 1))
    if basis.bits is not None:  # the count is the word on the pivots
        mask = sum(1 << p for p in pivots)
        return Mat.from_bits(gf, sorted((w for w in walk
                                         if w.bit_count() <= wmax),
                                        key=mask.__and__), n), True
    exp, pivots = gf._exp, pivots[::-1]

    def count(w):  # as digits, the most significant first and scaled to 1
        c = [w[p] for p in pivots]
        lead = next(x for x in c if x >= 0)
        return [exp[x - lead] if x >= 0 else 0 for x in c]  # exp wraps

    words = sorted((w[:] for w in walk if n - w.count(-1) <= wmax), key=count)
    entry = exp + [0]  # a log of -1 reads the 0
    return Mat(gf, [[entry[x] for x in w] for w in words], cols=n), True


def low_weight_dual_supports(code: LinearCode, wmax: int) -> List[FrozenSet[int]]:
    """The supports of the words of `_low_weight_words`, each once, by size
    and then in order; peeling on those of stored rows is conservative."""
    words, _ = _low_weight_words(code, wmax)
    return sorted(set(map(frozenset, words.row_supports())),
                  key=lambda s: (len(s), sorted(s)))


def _supports_by_coord(n: int, supports: Sequence[FrozenSet[int]]
                       ) -> List[List[int]]:
    """For each coordinate, the indices of the supports that hold it."""
    by_coord: List[List[int]] = [[] for _ in range(n)]
    for idx, s in enumerate(supports):
        for c in s:
            by_coord[c].append(idx)
    return by_coord


class _Peeler:
    """Greedy peeling against an indexed list of low-weight dual supports.
    Peeling is confluent, so greedy order cannot miss a recoverable
    pattern.

    Most patterns peel in one round: when no support through an erased
    coordinate meets another erased one, every erasure is recovered at once.
    `recovers` checks that first, against each coordinate's neighbours (the
    other coordinates of its supports; None when it has no support).  Other
    patterns are peeled on w-bit masks: bit i stands for the i-th erased
    coordinate, each support that meets the pattern becomes the mask of the
    erased coordinates it covers, and a support recovers a symbol when
    exactly one of its bits is still erased.
    """

    def __init__(self, n: int, supports: Sequence[FrozenSet[int]]):
        self.by_coord = _supports_by_coord(n, supports)
        self.neighbours: List[Optional[FrozenSet[int]]] = [
            frozenset(c for idx in ids for c in supports[idx]) - {j}
            if ids else None
            for j, ids in enumerate(self.by_coord)]

    def recovers(self, erased: Sequence[int]) -> bool:
        neighbours = self.neighbours
        for c in erased:
            nb = neighbours[c]
            if nb is None or not nb.isdisjoint(erased):
                break
        else:
            return True  # every erasure is recovered in the first round
        by_coord = self.by_coord
        cover: Dict[int, int] = {}  # support index -> erased bits it covers
        bit = 1
        for c in dict.fromkeys(erased):
            for idx in by_coord[c]:
                cover[idx] = cover.get(idx, 0) | bit
            bit <<= 1
        remaining = bit - 1
        while remaining:
            for h in cover.values():
                h &= remaining
                if h and not h & (h - 1):
                    remaining ^= h
                    break
            else:
                return False
        return True


def _draws(rng: random.Random, n: int, k: int) -> Iterator[List[int]]:
    """The successive draws of `rng.sample(range(n), k)`, taken from
    `rng.getrandbits` alone: a seed replays the same patterns whatever
    `sample` does in a later Python.

    The standard library's algorithm, with what is fixed per (n, k) set up
    once: its branch, a pool of n candidates when that is smaller than a
    set of k (`setsize`), else rejection of repeats; and each index's range
    m and bit count, for its `_randbelow` loop (`getrandbits(bits)` until
    below m).  A draw consumes nothing until it is asked for, so generators
    over one `rng` interleave exactly as calls of `sample` would."""
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    getrandbits = rng.getrandbits
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:  # index i is drawn below n - i, then swapped out
        steps = [(m, m.bit_length(), m - 1) for m in range(n, n - k, -1)]

        def pooled():
            start = list(range(n))
            while True:
                pool, out = start[:], []
                for m, bits, last in steps:
                    j = getrandbits(bits)
                    while j >= m:
                        j = getrandbits(bits)
                    out.append(pool[j])
                    pool[j] = pool[last]
                yield out
        return pooled()
    bits, indices = n.bit_length(), range(k)

    def rejected():  # k < n / 3 here, so a repeat is rare
        while True:
            out = []
            for _ in indices:
                j = getrandbits(bits)
                while j >= n or j in out:
                    j = getrandbits(bits)
                out.append(j)
            yield out
    return rejected()


def _non_edge_column(col_sup: Sequence[Tuple[int, ...]]) -> Optional[dict]:
    """The first column whose weight is not 1 or 2, as a failure witness:
    the incidence graph, the staircase and the t = 2 classification need
    every column to be an edge or a half-edge."""
    return next(({"column": j, "weight": len(sup)}
                 for j, sup in enumerate(col_sup) if not 1 <= len(sup) <= 2),
                None)


def _incidence_graph(code: LinearCode):
    """If every column of H has (nonzero-pattern) weight <= 2, interpret H
    as a node-edge incidence matrix with a virtual node absorbing the
    weight-1 columns; returns (Graph, None) or (None, reason)."""
    from .graphs import Graph, GraphError
    m = code.H.rows
    col_sup = code.H.column_supports()
    if non_edge := _non_edge_column(col_sup):
        return None, "column {column} has weight {weight}".format(**non_edge)
    try:  # a weight-1 column ends at the virtual apex node m
        return Graph(m + 1, [sup if len(sup) == 2 else (sup[0], m)
                             for sup in col_sup]), None
    except GraphError as e:
        return None, str(e)


def _stopping_set(n: int, supports: Sequence[FrozenSet[int]], t: int,
                  budget: int) -> Tuple[Optional[List[int]], int]:
    """A stopping set of at most t coordinates (no support meets it exactly
    once; a pattern fails to peel iff it holds one), or None, and the node
    count.  A set branches on the open coordinates of the support meeting it
    once with the fewest, each branch (root too) excluding earlier siblings:
    each node is a distinct pattern.  Over `budget` nodes: BudgetExceeded."""
    by_coord = _supports_by_coord(n, supports)
    meets = [0] * len(supports)  # how many coordinates of the set it holds
    blocked = [False] * n  # in the set, or excluded by an earlier sibling
    chosen: List[int] = []
    levels = [(range(n), iter(range(n)))]  # each branch, and what is left
    nodes = 0
    while levels:  # a loop, not recursion: t may pass the recursion limit
        branch, rest = levels[-1]
        c = next(rest, None)
        if c is None:  # the branch is done: free it, and drop its parent
            levels.pop()
            for j in branch:
                blocked[j] = False
            for i in by_coord[chosen.pop()] if chosen else ():
                meets[i] -= 1
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"search over its {budget}-node budget")
        blocked[c] = True  # it stays so for its later siblings
        chosen.append(c)
        for i in by_coord[c]:
            meets[i] += 1
        once = [i for j in chosen for i in by_coord[j] if meets[i] == 1]
        if not once:
            return sorted(chosen), nodes
        branch = [] if len(chosen) == t else min(
            ([j for j in supports[i] if not blocked[j]] for i in once),
            key=len)
        levels.append((branch, iter(branch)))
    return None, nodes


def seq_recovery_check(code: LinearCode, r: Optional[int] = None,
                       t: Optional[int] = None, mode: str = "auto",
                       samples: int = DEFAULT_SAMPLES, seed: int = 0,
                       jobs: int = 1) -> VerifyReport:
    """Can every erasure pattern of size <= t be recovered one symbol at a
    time, each from at most r unerased symbols?  `r` and `t` default to the
    code's declared ones.

    Modes: `exhaustive` searches for a stopping set (`_stopping_set`),
    `sampled` peels random min(t, n)-subsets, `certificate`
    (incidence-structured parity checks only) passes when the underlying
    graph has girth >= t+1 and every check (row of H) has weight <= r+1:
    then any <= t erased edges form a forest, whose leaf at a real node is
    recovered by that node's check.  Over GF(2) a short cycle, which meets
    every dual word an even number of times, is a failure witness whatever r
    is; a certificate that does not decide leaves the run to the search.
    `sampled` tries the certificate's PASS half first (`_girth_certifies`)
    when its girth pass, bounded at cycles of length t + 1, costs no more
    than the draws (ceil((t + 1) / 2) levels over the edges and degrees per
    block of roots, against samples * min(t, n)): where it holds every draw
    would peel, so the run returns, byte for byte, the PASS its draws would
    give, and draws nothing and starts no process.  Otherwise it draws, so
    a sampled FAIL is always its first failing draw.
    `auto` searches first when C(n, <= t) fits SEQ_EXHAUSTIVE_BUDGET.  Else
    it tries the certificate, then availability's own test (`_unavailable`):
    t pairwise-disjoint recovery sets at every coordinate leave each erasure
    of a <= t pattern one set clear of the others, a `certificate` PASS.
    Then it searches, and samples once the search passes that many nodes,
    recording the nodes it spent (`exhaustive` raises BudgetExceeded);
    `jobs` > 1 samples in that many processes.
    """
    r, t = declared(code, r=r, t=t)
    if min(r, t, samples) < 1:
        raise ValueError(f"need r, t, samples >= 1, got {r}, {t}, {samples}")
    if not 1 <= jobs <= (samples if mode == "sampled" else 1):
        raise ValueError(f"need 1 <= jobs <= samples, and mode 'sampled' "
                         f"for jobs > 1; got jobs={jobs}, mode={mode!r}")
    n, budget = code.n, SEQ_EXHAUSTIVE_BUDGET
    total = sum(math.comb(n, j) for j in range(1, t + 1))
    if mode == "auto" and total <= budget:
        mode = "exhaustive"
    if mode in ("auto", "certificate"):
        graph, graph_reason = _incidence_graph(code)
        if graph is not None:
            from .graphs import shortest_cycle
            cycle = shortest_cycle(graph)  # one pass gives girth and witness
            g = math.inf if cycle is None else len(cycle)
            local = max(graph.degrees()[:-1], default=0) <= r + 1
            if g > t and local or g <= t and code.gf.q == 2:
                return VerifyReport("seq-recovery", g > t, "certificate",
                                    witness=None if g > t else cycle,
                                    detail={"girth": g, "required": t + 1})
        elif mode == "certificate":
            raise ValueError(f"certificate unavailable: {graph_reason}")
    elif mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and _girth_certifies(code, r, t, samples):
        return VerifyReport("seq-recovery", True, "sampled",
                            budgets=_sampled_budgets(samples, seed, jobs))
    supports = low_weight_dual_supports(code, r + 1)
    if mode == "auto" and _unavailable(n, supports, t) is None:
        return VerifyReport("seq-recovery", True, "certificate",
                            detail={"recovery_sets": t})
    if mode != "sampled":
        try:
            witness, nodes = _stopping_set(n, supports, t, budget)
            return VerifyReport("seq-recovery", witness is None, "exhaustive",
                                witness=witness,
                                budgets={"patterns": total, "budget": budget,
                                         "nodes": nodes})
        except BudgetExceeded:
            if mode == "exhaustive":
                raise
    report = _sampled_peel(n, supports, t, samples, seed, jobs)
    if mode == "auto":  # the search ran first, and stopped at its budget
        report.budgets["nodes"] = budget
    return report


def _girth_certifies(code: LinearCode, r: int, t: int, samples: int) -> bool:
    """Does the girth certificate show that every min(t, n)-subset peels on
    the supports `_sampled_peel` would use?  It does when H is incidence
    shaped, every real node has degree <= r + 1 and the graph has no cycle
    of length <= t: the supports hold every row of weight <= r + 1, and each
    erased forest has a leaf at a real node.  Tried only when the girth
    pass, ceil((t + 1) / 2) levels over the edges and degrees per block of
    GIRTH_BLOCK roots, costs no more than the draws, samples * min(t, n)."""
    from .graphs import GIRTH_BLOCK, girth
    n, blocks = code.n, -(-(code.H.rows + 1) // GIRTH_BLOCK)
    if -(-(t + 1) // 2) * 3 * n * blocks > samples * min(t, n):
        return False
    graph, _ = _incidence_graph(code)
    return (graph is not None
            and max(graph.degrees()[:-1], default=0) <= r + 1
            and girth(graph, t + 1) > t)


def _sampled_budgets(samples: int, seed: int, jobs: int) -> dict:
    """The budgets of a sampled seq report: with `jobs` > 1, also the
    chunks, chunk i drawing its share of the samples from seed + i."""
    budgets = {"samples": samples, "seed": seed}
    if jobs > 1:
        per, extra = divmod(samples, jobs)
        budgets.update(jobs=jobs,
                       chunks=[{"seed": seed + i, "samples": per + (i < extra)}
                               for i in range(jobs)])
    return budgets


def _sampled_peel(n: int, supports: Sequence[FrozenSet[int]], t: int,
                  samples: int, seed: int, jobs: int = 1) -> VerifyReport:
    """Peel `samples` random min(t, n)-subsets of range(n), drawn from
    `seed`, against the low-weight dual supports: the sampled verdict of
    `seq_recovery_check`.  With `jobs` > 1 the samples split into that many
    chunks, one process each: chunk i draws its share from seed + i, and
    the report lists every chunk's seed and count, so any chunk replays on
    its own."""
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        from itertools import repeat
        budgets = _sampled_budgets(samples, seed, jobs)
        chunks = budgets["chunks"]
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            results = list(ex.map(
                _sampled_peel, repeat(n), repeat(supports), repeat(t),
                [c["samples"] for c in chunks], [c["seed"] for c in chunks]))
        failed = next((i for i, x in enumerate(results) if not x.verdict),
                      None)
        if failed is not None:
            budgets.update(failed_chunk=failed,
                           failed_at=results[failed].budgets["failed_at"])
        return VerifyReport(
            "seq-recovery", failed is None, "sampled", budgets=budgets,
            witness=None if failed is None else results[failed].witness)
    peeler = _Peeler(n, supports)
    # every subset of a pattern that peels peels: past n, test the largest
    draws = _draws(random.Random(seed), n, min(t, n))
    for i, pattern in enumerate(islice(draws, samples)):
        if not peeler.recovers(pattern):
            return VerifyReport("seq-recovery", False, "sampled",
                                witness=sorted(pattern),
                                budgets={"samples": samples, "seed": seed,
                                         "failed_at": i})
    return VerifyReport("seq-recovery", True, "sampled",
                        budgets={"samples": samples, "seed": seed})


# ---------------------------------------------------------------------------
# availability
# ---------------------------------------------------------------------------

def _disjoint_packing(cands: List[FrozenSet[int]], t: int,
                      chosen: List[FrozenSet[int]]) -> bool:
    if len(chosen) == t:
        return True
    for i, c in enumerate(cands):
        if all(not (c & d) for d in chosen):
            chosen.append(c)
            if _disjoint_packing(cands[i + 1:], t, chosen):
                return True
            chosen.pop()
    return False


def _unavailable(n: int, supports: Sequence[FrozenSet[int]],
                 t: int) -> Optional[dict]:
    """The first coordinate without t pairwise-disjoint recovery sets, the
    supports through it with it removed, as a witness; None when every
    coordinate has them."""
    # removing the coordinate from the supports through it keeps them
    # distinct, of size <= r, and in their order
    for i, ids in enumerate(_supports_by_coord(n, supports)):
        cands = [supports[j] - {i} for j in ids]
        if not _disjoint_packing(cands, t, []):
            return {"coordinate": i, "candidates": len(cands)}
    return None


def availability_check(code: LinearCode, r: Optional[int] = None,
                       t: Optional[int] = None) -> VerifyReport:
    """Does every coordinate have t pairwise-disjoint recovery sets of size
    <= r?  Candidate recovery sets are supports of weight <= r+1 dual words
    with the coordinate removed; packing is decided exactly by
    backtracking.  `r` and `t` default to the code's declared ones."""
    r, t = declared(code, r=r, t=t)
    if min(r, t) < 1:
        raise ValueError(f"need r, t >= 1, got {r}, {t}")
    witness = _unavailable(code.n, low_weight_dual_supports(code, r + 1), t)
    return VerifyReport("availability", witness is None, "exhaustive",
                        witness=witness, detail={"r": r, "t": t})


def sa_check(H: Mat, r: int, t: int) -> VerifyReport:
    """Strict-availability shape: every row of weight r+1, every column of
    weight t, and the rows through any coordinate meet pairwise exactly in
    that coordinate."""
    if min(r, t) < 1:
        raise ValueError(f"need r, t >= 1, got {r}, {t}")
    rows = [frozenset(sup) for sup in H.row_supports()]
    for i, sup in enumerate(rows):
        if len(sup) != r + 1:
            return VerifyReport("strict-availability", False, "exhaustive",
                                witness={"row": i, "weight": len(sup)})
    for j, through in enumerate(H.column_supports()):
        if len(through) != t:
            return VerifyReport("strict-availability", False, "exhaustive",
                                witness={"column": j,
                                         "weight": len(through)})
        for a, b in combinations(through, 2):
            if rows[a] & rows[b] != {j}:
                return VerifyReport(
                    "strict-availability", False, "exhaustive",
                    witness={"column": j, "rows": [a, b],
                             "overlap": sorted(rows[a] & rows[b])})
    counting_ok = H.rows * (r + 1) == H.cols * t
    return VerifyReport("strict-availability", counting_ok, "exhaustive",
                        witness=None if counting_ok else "m(r+1) != nt",
                        detail={"m": H.rows, "n": H.cols})


# ---------------------------------------------------------------------------
# maximal recoverability
# ---------------------------------------------------------------------------

def _locally_mds(code: LinearCode, groups: Sequence[Sequence[int]],
                 delta: int) -> bool:
    """Is every delta-subset of every group independent in the group's
    local dual (`LinearCode.local_dual`)?  Then a codeword that a pattern
    erases is zero on each group where the pattern holds exactly delta
    coordinates: its part there lies in the local code, whose nonzero words
    have weight above delta.  False too when the subsets pass the budget."""
    if sum(math.comb(len(g), delta) for g in groups) > PMDS_EXHAUSTIVE_BUDGET:
        return False
    return all(first_dependent(code.local_dual(g), [(None, delta)])[1] is None
               for g in groups)


def _spreads(rooms: Sequence[int], s: int):
    """Each way to spread s extra erasures over groups with the given room:
    the groups that take some, each with how many (at least 1, at most its
    room), as a list of (group index, count); s = 0 spreads once, to no
    group.  A spread grows one group at a time, trying a group only while
    the rooms from it on can take what is left, so every partial spread
    completes: at most s steps per spread, however many groups have none."""
    held = [i for i, room in enumerate(rooms) if room]
    after = list(accumulate(rooms[i] for i in reversed(held)))[::-1] + [0]
    stack = [(0, s, [])]
    while stack:
        start, left, spread = stack.pop()
        if not left:
            yield spread
            continue
        for at in range(start, len(held)):
            if after[at] < left:
                break
            i = held[at]
            for e in range(max(1, left - after[at + 1]),
                           min(rooms[i], left) + 1):
                stack.append((at + 1, left - e, spread + [(i, e)]))


def _reduced_patterns(sizes: Sequence[int], delta: int, s: int) -> int:
    """How many column sets the reduction ranks: delta + e_i coordinates of
    each group i that takes e_i >= 1 extras, summed over the spreads.  The
    coefficient of x^s in the product over the groups of
    1 + sum_e C(size, delta + e) x^e."""
    poly = [1] + [0] * s
    for size in sizes:
        ways = [math.comb(size, delta + e) for e in range(s + 1)]
        poly = [poly[j] + sum(ways[e] * poly[j - e] for e in range(1, j + 1))
                for j in range(s + 1)]
    return poly[s]


def _reduced_witness(H: Mat, groups: List[List[int]], delta: int, s: int
                     ) -> Tuple[int, Optional[List[int]]]:
    """The reduced patterns ranked, and the first whose columns of H are
    dependent, or None.  One `first_dependent` walk per spread, each taking
    delta + e_i columns of every group i that holds extras."""
    rooms = [len(g) - delta for g in groups]
    ranked = 0
    for spread in _spreads(rooms, s):
        done, witness = first_dependent(
            H, [(groups[i], delta + e) for i, e in spread])
        ranked += done
        if witness is not None:
            return ranked, witness
    return ranked, None


def pmds_check(code: LinearCode, structure: Optional[LocalStructure],
               delta: int, s_extra: int, mode: str = "auto",
               samples: int = DEFAULT_SAMPLES, seed: int = 0) -> VerifyReport:
    """Partial-MDS property: delta erasures in every group plus s_extra
    arbitrary further erasures always leave independent parity-check
    columns.  A `structure` of None is the code's declared one.

    When every group is locally MDS (`_locally_mds`), a pattern is
    dependent exactly when its part on the groups that hold extras is.  The
    reduced patterns are then ranked, one `first_dependent` walk per spread
    of the extras, if there are at most PMDS_EXHAUSTIVE_BUDGET of them, or
    in a sampled run at most `samples`: no more ranks than it has draws.
    If all pass, so does every pattern: the exhaustive modes count every
    pattern as checked, and a sampled run draws nothing and reports the
    PASS its draws would give, since each draw's verdict is its reduced
    pattern's.  Past the budget, a dependent reduced pattern plus delta
    coordinates of each group without extras is an exhaustive witness;
    within it the full walk gives the witness and the count, and a sampled
    run draws until a pattern fails, as it does when a group is not locally
    MDS.  `auto` is exact when the patterns, or the reduced patterns of
    locally MDS groups, fit PMDS_EXHAUSTIVE_BUDGET, else samples;
    `exhaustive` raises BudgetExceeded where `auto` would sample."""
    [structure] = declared(code, structure=structure)
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if not structure.covers(code.n):
        raise ValueError("local structure does not cover the coordinates")
    groups = [list(g) for g in structure.groups]
    per_group = [math.comb(len(g), delta) for g in groups]
    rest = code.n - delta * len(groups)
    total = math.prod(per_group) * math.comb(rest, s_extra)
    if min(total, samples) < 1:
        raise ValueError(f"need patterns, samples >= 1: {total}, {samples}")
    Hfull = code.full_rank_checks()
    budget = PMDS_EXHAUSTIVE_BUDGET
    local = _locally_mds(code, groups, delta)
    ranked, found = 0, None  # reduced patterns ranked; the first dependent
    if local and _reduced_patterns(map(len, groups), delta, s_extra) <= (
            samples if mode == "sampled" else budget):
        ranked, found = _reduced_witness(Hfull, groups, delta, s_extra)

    checked, witness = 0, None
    if ranked and found is None:  # every pattern is independent
        mode, checked = (mode, samples) if mode == "sampled" \
            else ("exhaustive", total)
    elif ranked and mode != "sampled" and total > budget:
        hit = set(found)  # a superset of a dependent set is dependent
        mode, checked, witness = "exhaustive", ranked, found + [
            c for g in groups if hit.isdisjoint(g) for c in g[:delta]]
    elif mode == "exhaustive" or mode == "auto" and total <= budget:
        if total > budget:
            raise BudgetExceeded(f"{total} patterns > budget {budget}, and "
                                 "the local reduction does not decide them")
        mode = "exhaustive"
        checked, witness = first_dependent(
            Hfull, [(g, delta) for g in groups] + [(None, s_extra)])
    else:
        mode = "sampled"
        rng = random.Random(seed)
        # what no sample changes: each group's picker and draws, the range
        picks = [(g.__getitem__, _draws(rng, len(g), delta)) for g in groups]
        extra_draws = _draws(rng, rest, s_extra)
        everyone = range(code.n)
        group_of = {c: i for i, g in enumerate(groups) for c in g}
        base = delta * len(groups)
        reduced: Dict[Tuple[int, ...], bool] = {}  # sorted set -> verdict
        for _ in range(samples):
            pattern = []
            for pick, draws in picks:
                pattern += map(pick, next(draws))
            others = list(filterfalse(set(pattern).__contains__, everyone))
            pattern += map(others.__getitem__, next(extra_draws))
            checked += 1
            if local:  # group i's picks are pattern[i * delta:][:delta]
                extras = pattern[base:]
                key = tuple(sorted(extras + [
                    c for i in {group_of[c] for c in extras}
                    for c in pattern[i * delta:(i + 1) * delta]]))
                ok = reduced.get(key)
                if ok is None:
                    ok = reduced[key] = columns_independent(Hfull, key)
            else:
                ok = columns_independent(Hfull, pattern)
            if not ok:
                witness = pattern
                break
    budgets = {"patterns": total, "budget": budget, "checked": checked}
    if mode == "sampled":
        budgets.update({"seed": seed, "samples": samples})
    if witness is not None:
        return VerifyReport("partial-mds", False, mode,
                            witness=sorted(witness), budgets=budgets)
    return VerifyReport("partial-mds", True, mode, budgets=budgets,
                        detail={"delta": delta, "s_extra": s_extra})


def pmr_check(code: LinearCode,
              structure: Optional[LocalStructure] = None) -> VerifyReport:
    """Partial-MR property: puncturing the canonical admissible pattern
    (one private coordinate per group) leaves an MDS code, and the minimum
    distance meets (n-k+1) - (ceil(k/r) - 1) with equality."""
    from .code import puncture
    [structure] = declared(code, structure=structure)
    pattern = structure.admissible_pattern()
    punctured = puncture(code, list(pattern))
    mds_ok = is_mds(punctured)
    r = getattr(code.params, "r", None) or (
        max(len(g) for g in structure.groups) - 1)
    target = lr_singleton_bound(code.n, code.k, r)
    d = min_distance(code)
    d_ok = d == target
    ok = mds_ok and d_ok
    witness = None
    if not ok:
        witness = {"punctured_mds": mds_ok, "d_min": d, "target": target}
    return VerifyReport("partial-mr", ok, "exhaustive", witness=witness,
                        detail={"pattern": list(pattern), "d_min": d,
                                "d_target": target})


def mr_shape_check(code: LinearCode) -> VerifyReport:
    """Canonical-form shape of an MR/PMR parity-check matrix under its
    declared groups: every group owns at least one row supported inside it,
    and every other row stays off the private (one-per-group) coordinates."""
    [structure] = declared(code, structure=None)
    if not structure.covers(code.n):
        return VerifyReport("mr-shape", False, "exhaustive",
                            witness="groups do not cover the coordinates")
    private = set(structure.admissible_pattern())
    groups = [set(g) for g in structure.groups]
    local_rows = [False] * len(groups)
    for ri, row_sup in enumerate(code.H.row_supports()):
        sup = set(row_sup)
        if not sup:
            return VerifyReport("mr-shape", False, "exhaustive",
                                witness={"row": ri, "reason": "zero row"})
        inside = [gi for gi, g in enumerate(groups) if sup <= g]
        if inside:
            local_rows[inside[0]] = True
        elif sup & private:
            return VerifyReport("mr-shape", False, "exhaustive",
                                witness={"row": ri,
                                         "reason": "row straddles a private "
                                                   "coordinate"})
    missing = [gi for gi, ok in enumerate(local_rows) if not ok]
    if missing:
        return VerifyReport("mr-shape", False, "exhaustive",
                            witness={"groups_without_local_row": missing})
    return VerifyReport("mr-shape", True, "exhaustive")


# ---------------------------------------------------------------------------
# staircase structure
# ---------------------------------------------------------------------------

def staircase_check(H: Mat, r: int, t: int) -> VerifyReport:
    """Try to layer the rows of H so that it matches the staircase template
    of a rate-optimal sequential-recovery parity-check matrix: weight-1
    columns pair off with layer-0 rows, every deeper layer joins the
    previous one through single-parent weight-2 columns, and the final
    block is intra-layer (t even) or a multi-edge fan-in (t odd).

    One pass over the column supports per level finds the level's new rows,
    each with its parent columns (the weight-2 columns from a row of the
    previous layer to it).  Every row must then have weight r + 1.

    Returns the block profile (column group sizes a_i, row layer sizes
    rho_i) as the structural witness on success.
    """
    if min(r, t) < 1:
        raise ValueError(f"need r, t >= 1, got {r}, {t}")

    def fail(witness):
        return VerifyReport("staircase", False, "exhaustive", witness=witness)

    s = (t - 1) // 2
    col_sup = H.column_supports()
    if non_edge := _non_edge_column(col_sup):
        return fail(non_edge)
    layer_of = [-1] * H.rows
    ones = [j for j, sup in enumerate(col_sup) if len(sup) == 1]
    for j in ones:
        row = col_sup[j][0]
        if layer_of[row] == 0:
            return fail({"row": row, "reason": "two weight-1 columns"})
        layer_of[row] = 0
    if not ones:
        return fail("no weight-1 columns")
    a, rho = [len(ones)], [len(ones)]
    taken = set(ones)
    deepest_single = s if t % 2 == 0 else s - 1
    for level in range(1, s + 1):
        parents: Dict[int, List[int]] = {}  # new row -> its parent columns
        for j, sup in enumerate(col_sup):
            ends = [layer_of[i] for i in sup]
            if sorted(ends) == [-1, level - 1]:
                parents.setdefault(sup[ends.index(-1)], []).append(j)
        bad = [row for row, cols in parents.items() if len(cols) > 1]
        if level <= deepest_single and bad:
            return fail({"row": bad[0], "level": level,
                         "reason": "multiple parent columns"})
        if not parents:
            return fail({"level": level, "reason": "empty layer"})
        for row, cols in parents.items():
            layer_of[row] = level
            taken.update(cols)
        a.append(sum(map(len, parents.values())))
        rho.append(len(parents))
    leftovers = [j for j in range(H.cols) if j not in taken]  # weight 2
    if t % 2 == 0:
        for j in leftovers:
            if any(layer_of[i] != s for i in col_sup[j]):
                return fail({"column": j, "reason": "not intra-final-layer"})
        a.append(len(leftovers))
    elif leftovers:
        return fail({"columns": leftovers[:5],
                     "reason": "columns outside template"})
    if -1 in layer_of:
        return fail({"rows": [i for i, l in enumerate(layer_of) if l == -1],
                     "reason": "rows outside template"})
    for i, sup in enumerate(H.row_supports()):
        if len(sup) != r + 1:
            return fail({"row": i, "weight": len(sup)})
    return VerifyReport("staircase", True, "exhaustive",
                        detail={"profile": {"s": s, "a": a, "rho": rho}})


# ---------------------------------------------------------------------------
# classification of rate-optimal two-erasure codes
# ---------------------------------------------------------------------------

def _greedy_low_weight_basis(code: LinearCode, wmax: int) -> Optional[Mat]:
    """A full dual basis chosen greedily, lightest first, from the words of
    `_low_weight_words`: words of one weight come in its order, so the
    basis is drawn from every low-weight word when the dual has at most
    2^20 words, else from the stored rows of H."""
    words, _ = _low_weight_words(code, wmax)
    m = code.n - code.k
    chosen: List[Tuple[int, ...]] = []
    span = Echelon(code.gf)
    for w in sorted(words.data, key=lambda w: len(w) - w.count(0)):
        if len(chosen) == m:
            break
        if span.insert_row(w):
            chosen.append(w)
    return Mat(code.gf, chosen, cols=code.n) if len(chosen) == m else None


def classify_rate_optimal_t2(code: LinearCode,
                             r: Optional[int] = None) -> VerifyReport:
    """Decompose a rate-optimal two-erasure code into its canonical parts:
    [r+2, r] MDS blocks (two checks sharing r weight-2 columns) and at most
    one component per connected piece that is a code on an r-regular graph
    with explicit node parities.

    The rows of a greedy low-weight dual basis are the nodes, its weight-2
    columns the edges: one pass over the column supports joins the rows
    into components, and a second puts each column in the component of its
    first row."""
    from fractions import Fraction
    from .code import puncture
    [r] = declared(code, r=r)
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    if code.rate() != Fraction(r, r + 2):
        raise ValueError(f"rate {code.rate()} != {Fraction(r, r + 2)}")

    def fail(witness):
        return VerifyReport("classify-t2", False, "exhaustive",
                            witness=witness)

    B = _greedy_low_weight_basis(code, r + 1)
    if B is None:
        return fail("low-weight words do not span the dual")
    col_sup = B.column_supports()
    if non_edge := _non_edge_column(col_sup):
        return fail(non_edge)
    parent = list(range(B.rows))  # union-find over the rows

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for sup in col_sup:  # a weight-1 column joins its row to itself
        parent[find(sup[0])] = find(sup[-1])
    components: Dict[int, Tuple[List[int], List[int]]] = {}  # rows, coords
    for i in range(B.rows):
        components.setdefault(find(i), ([], []))[0].append(i)
    for j, sup in enumerate(col_sup):
        components[find(sup[0])][1].append(j)
    parts, graph_coords = [], []
    for rows, coords in components.values():
        singles = [col_sup[j][0] for j in coords if len(col_sup[j]) == 1]
        edges = Counter(col_sup[j] for j in coords if len(col_sup[j]) == 2)
        if sorted(singles) != rows:
            return fail({"rows": rows, "reason": "node parities missing"})
        if len(rows) == 2 and list(edges.values()) == [r]:
            sub = puncture(code, sorted(set(range(code.n)).difference(coords)))
            if sub.k == r and is_mds(sub):
                parts.append({"type": "mds_block", "coords": coords})
                continue
            return fail({"coords": coords, "reason": "block not MDS"})
        if any(count > 1 for count in edges.values()):
            return fail({"rows": rows,
                         "reason": "parallel edges outside an MDS block"})
        degree = Counter(i for edge in edges for i in edge)
        if any(degree[i] != r for i in rows):
            return fail({"rows": rows,
                         "reason": f"graph part not {r}-regular"})
        graph_coords += coords
    # several graph pieces just make one (disconnected) r-regular graph code
    if graph_coords:
        parts.append({"type": "regular_graph", "coords": sorted(graph_coords)})
    return VerifyReport("classify-t2", True, "exhaustive",
                        detail={"parts": parts})
