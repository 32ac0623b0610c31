import json
import math
import random
import sys
import time
from collections import Counter
from itertools import combinations, permutations

import pytest

from lrckit import graphs, verify
from lrckit import io as lio
from lrckit.cli import main
from lrckit.code import BudgetExceeded, LinearCode
from lrckit.field import field_make
from lrckit.graphs import girth, shortest_cycle
from lrckit.lr_codes import pg_plane_sa_code, product_avail_code, \
    steiner_sa_code, wang_avail_code
from lrckit.matrix import Mat
from lrckit.mr_codes import (LocalStructure, mr_r12, mr_rdelta2,
                              pmr_parity_split)
from lrckit.seq_codes import (moore_code, seq_general_code,
                              t2_near_regular_code, t2_turan_code,
                              t3_catalog)
from lrckit.verify import (VerifyReport, availability_check,
                           classify_rate_optimal_t2, low_weight_dual_supports,
                           mr_shape_check, pmds_check, pmr_check, sa_check,
                           seq_recovery_check, staircase_check,
                           _draws, _incidence_graph, _Peeler, _sampled_peel,
                           _Supports)

GF2 = field_make(2)


def ordering_brute_force(code, r, t, pattern):
    """Independent oracle for sequential recovery: try every recovery order
    outright, using the full list of low-weight dual supports."""
    supports = low_weight_dual_supports(code, r + 1)

    def recoverable(order):
        remaining = set(order)
        for idx in order:
            if not any(s & remaining == {idx} for s in supports):
                return False
            remaining.discard(idx)
        return True

    return any(recoverable(order) for order in permutations(pattern))


FIXTURES_SMALL = [
    ("triangle", t2_near_regular_code(3, 2), 2, 2),
    ("turan", t2_turan_code(2, 2), 2, 2),
    ("t3-ex1", t3_catalog("ex1"), 3, 3),
    ("fano", steiner_sa_code(3), 2, 3),
    ("product", product_avail_code(2, 2), 2, 2),
    ("wang", wang_avail_code(2, 2), 2, 2),
]


@pytest.mark.parametrize("name,code,r,t",
                         FIXTURES_SMALL, ids=[f[0] for f in FIXTURES_SMALL])
def test_peeling_agrees_with_ordering_brute_force(name, code, r, t):
    if code.n > 12:
        pytest.skip("oracle is factorial; fixtures stay at n <= 12")
    from lrckit.verify import _Peeler
    peeler = _Peeler(_Supports(code.n, low_weight_dual_supports(code, r + 1)))
    for size in range(1, t + 1):
        for pattern in combinations(range(code.n), size):
            via_orders = ordering_brute_force(code, r, t, pattern)
            assert peeler.recovers(pattern) == via_orders
    # all fixtures are genuine codes for their declared t
    assert seq_recovery_check(code, r, t, mode="exhaustive").verdict


def _search_matches_peeling(code, r, t):
    """Pin `_stopping_set` to brute-force peeling of every pattern of at
    most t coordinates; returns whether every pattern peels."""
    view = _Supports(code.n, low_weight_dual_supports(code, r + 1))
    peeler = _Peeler(view)
    total = sum(math.comb(code.n, j) for j in range(1, t + 1))
    witness, nodes = verify._stopping_set(view, t, total)
    peels = all(peeler.recovers(p) for size in range(1, t + 1)
                for p in combinations(range(code.n), size))
    assert (witness is None) == peels, (code.H.data, r, t)
    assert 1 <= nodes <= total  # every node is a distinct pattern
    if witness is not None:
        assert witness == sorted(set(witness)) and len(witness) <= t
        assert not peeler.recovers(witness)
    return peels


def _incidence(graph, q, coefficients="one"):
    return graphs.incidence_code(graph, field_make(q),
                                 coefficients=coefficients)


# (name, code, r, t) beyond FIXTURES_SMALL: Petersen (girth 5) and Heawood
# (girth 6) at t = girth - 1 and t = girth, Petersen with too small a
# locality, and Petersen over GF(3), where the certificate does not decide
SEARCH_CASES = FIXTURES_SMALL + [
    ("t3-ex2", t3_catalog("ex2"), 4, 3),
    ("petersen-t4", moore_code(2, 4), 2, 4),
    ("petersen-t5", moore_code(2, 4), 2, 5),
    ("petersen-r1", moore_code(2, 4), 1, 4),
    ("heawood-t5", moore_code(2, 5), 2, 5),
    ("heawood-t6", moore_code(2, 5), 2, 6),
    ("petersen-gf3-t4", _incidence(graphs.petersen_graph(), 3), 2, 4),
    ("petersen-gf3-t5", _incidence(graphs.petersen_graph(), 3), 2, 5),
    ("petersen-gf3-random-t5",
     _incidence(graphs.petersen_graph(), 3, "random"), 2, 5),
]


@pytest.mark.parametrize("name,code,r,t", SEARCH_CASES,
                         ids=[c[0] for c in SEARCH_CASES])
def test_stopping_set_search_matches_peeling(name, code, r, t):
    _search_matches_peeling(code, r, t)


def _random_codes():
    """240 seeded random codes over GF(2) and GF(3), n <= 12, each with an
    r and a t <= 4: (code, r, t)."""
    rng = random.Random(20261019)
    for i in range(240):
        gf = field_make((2, 3)[i % 2])
        n, m = rng.randint(3, 12), rng.randint(1, 5)
        density = rng.choice((0.25, 0.4, 0.6))
        rows = [[rng.randrange(1, gf.q) if rng.random() < density else 0
                 for _ in range(n)] for _ in range(m)]
        code = LinearCode(Mat(gf, rows, cols=n))
        yield code, rng.randint(1, 4), rng.randint(1, 4)


def test_stopping_set_search_matches_peeling_on_random_codes():
    """The codes of `_random_codes`; both verdicts occur."""
    verdicts = [_search_matches_peeling(*case) for case in _random_codes()]
    assert 20 <= sum(verdicts) <= 220, sum(verdicts)


def test_availability_certificate_implies_peeling(monkeypatch):
    """Where every coordinate has t pairwise-disjoint recovery sets, every
    pattern of at most t erasures peels: checked against brute-force
    peeling on the codes of `_random_codes`.  With the search budget at 0,
    `auto` returns the certificate exactly where the test holds, and
    samples otherwise."""
    certified = 0
    for code, r, t in _random_codes():
        view = _Supports(code.n, low_weight_dual_supports(code, r + 1))
        if verify._unavailable(view, t) is None:
            certified += 1
            peeler = _Peeler(view)
            assert all(peeler.recovers(p) for size in range(1, t + 1)
                       for p in combinations(range(code.n), size))
            assert availability_check(code, r, t).verdict
        with monkeypatch.context() as m:
            m.setattr(verify, "SEQ_EXHAUSTIVE_BUDGET", 0)
            rep = seq_recovery_check(code, r, t, samples=50)
        assert rep.mode == ("certificate" if verify._unavailable(
            view, t) is None else "sampled")
    assert 10 <= certified <= 200, certified


def test_availability_certificate_decides_the_pg_plane():
    """PG(2, 8) at r = 8, t = 9: C(73, <= 9) patterns are past the budget,
    its columns are not edges, and the stopping-set search runs out of
    nodes; each point lies on 9 lines that meet only there, so `auto`
    passes by the availability certificate."""
    rep = seq_recovery_check(pg_plane_sa_code(3), 8, 9, samples=1000)
    assert (rep.verdict, rep.mode) == (True, "certificate")
    assert rep.detail == {"recovery_sets": 9}


STRICT_AVAILABILITY_CODES = {
    "fano": lambda: steiner_sa_code(3),
    "wang-4-3": lambda: wang_avail_code(4, 3),
    "product-3-3": lambda: product_avail_code(3, 3),
    "pg-plane-2": lambda: pg_plane_sa_code(2),
}


@pytest.mark.parametrize("make", STRICT_AVAILABILITY_CODES.values(),
                         ids=list(STRICT_AVAILABILITY_CODES))
def test_availability_certificate_agrees_with_the_search(make):
    """At its declared r, t each code has t pairwise-disjoint recovery sets
    at every coordinate, and the search, with no node budget, finds no
    stopping set of at most t coordinates (under 700 nodes each)."""
    code = make()
    r, t = code.params.r, code.params.t
    view = _Supports(code.n, low_weight_dual_supports(code, r + 1))
    assert verify._unavailable(view, t) is None
    assert verify._stopping_set(view, t, math.inf)[0] is None


def _frozenset_packing(cands, t, chosen):
    """The packing on frozensets that the bit-mask `_disjoint_packing`
    replaced, kept as its reference: can `chosen` grow to t pairwise
    disjoint sets with sets of `cands`?"""
    if len(chosen) == t:
        return True
    for i, c in enumerate(cands):
        if all(not (c & d) for d in chosen):
            chosen.append(c)
            if _frozenset_packing(cands[i + 1:], t, chosen):
                return True
            chosen.pop()
    return False


def _frozenset_unavailable(n, supports, t):
    """`_unavailable` on frozensets: each coordinate's candidates are the
    supports through it, in their order, with it removed."""
    for i in range(n):
        cands = [s - {i} for s in supports if i in s]
        if not _frozenset_packing(cands, t, []):
            return {"coordinate": i, "candidates": len(cands)}
    return None


def _dense_gf2_codes():
    """Seeded dense GF(2) codes: H of m rows and 2m columns, m = 4..10,
    entries drawn row by row, each at r = n - 1 and t = 2, 3, 4."""
    for m in range(4, 11):
        rng = random.Random(m)
        rows = [[rng.randrange(2) for _ in range(2 * m)] for _ in range(m)]
        code = LinearCode(Mat(GF2, rows, cols=2 * m))
        for t in (2, 3, 4):
            yield code, 2 * m - 1, t


def _repetition_code(n):
    """The length-n GF(2) repetition code, with H rows e_0 + e_j."""
    return LinearCode(Mat(GF2, [[int(c in (0, j)) for c in range(n)]
                                for j in range(1, n)], cols=n))


def test_mask_packing_matches_frozenset_packing():
    """`_unavailable` packs bit masks, and stops a branch once fewer
    candidates are left to it than sets still wanted.  On the codes of
    `_random_codes`, the dense codes of `_dense_gf2_codes`, the repetition
    codes of length 6..12 at r = 1, t = n - 1 and n, and the strict
    availability codes it gives the verdict and witness of the frozenset
    packing it replaced; both verdicts occur."""
    strict = [make() for make in STRICT_AVAILABILITY_CODES.values()]
    cases = [*_random_codes(), *_dense_gf2_codes(),
             *((_repetition_code(n), 1, t)
               for n in range(6, 13) for t in (n - 1, n)),
             *((code, code.params.r, code.params.t) for code in strict)]
    witnesses = []
    for code, r, t in cases:
        supports = low_weight_dual_supports(code, r + 1)
        got = verify._unavailable(_Supports(code.n, supports), t)
        assert got == _frozenset_unavailable(code.n, supports, t), (
            code.H.data, r, t)
        witnesses.append(got)
    assert witnesses[-len(strict):] == [None] * len(strict)
    assert 10 <= witnesses.count(None) <= len(witnesses) - 10


def test_packing_stops_where_too_few_candidates_are_left(monkeypatch):
    """On the length-40 repetition code at r = 1, coordinate 0 has 39
    pairwise-disjoint singleton candidates.  At t = 40 the packing fails
    there at once instead of walking their 2^39 subsets; at t = 39 it packs
    them in one chain and fails at coordinate 1, which has one.  Each run
    makes at most n packing calls."""
    code, calls = _repetition_code(40), []
    pack = verify._disjoint_packing
    monkeypatch.setattr(verify, "_disjoint_packing",
                        lambda *a: calls.append(a) or pack(*a))
    start = time.perf_counter()
    for t, witness in ((39, {"coordinate": 1, "candidates": 1}),
                       (40, {"coordinate": 0, "candidates": 39})):
        calls.clear()
        assert availability_check(code, 1, t).witness == witness
        assert len(calls) <= code.n, t
    assert time.perf_counter() - start < 1


def test_each_check_builds_its_support_view_once(monkeypatch):
    """`availability_check` builds one support view, of the dual supports.
    So does a `seq` `auto` run that goes on to the availability test, the
    search and the draws, each reading that one view, and a sampled run
    with jobs = 2, counted in this process: its workers are sent the view.
    Each seq run also builds exactly one view of H, which it reads as a
    graph."""
    built, read = [], []
    init = verify._Supports.__init__
    monkeypatch.setattr(verify._Supports, "__init__", lambda self, *args:
                        built.append(self) or init(self, *args))
    for name in ("_unavailable", "_stopping_set", "_Peeler"):
        monkeypatch.setattr(verify, name, lambda view, *args,
                            f=getattr(verify, name), name=name:
                            read.append((name, view)) or f(view, *args))
    code = _incidence(graphs.petersen_graph(), 3)  # GF(3): no cycle witness
    rows = code.H.row_supports()

    def split(views):  # (the views of H, the views of dual supports)
        return ([v for v in views if v.sets == rows],
                [v for v in views if v.sets != rows])

    assert not availability_check(code, 2, 5).verdict
    of_h, dual = split(built)
    assert of_h == [] and len(dual) == 1
    assert read == [("_unavailable", dual[0])]
    monkeypatch.setattr(verify, "SEQ_EXHAUSTIVE_BUDGET", 10)
    rep = seq_recovery_check(code, 2, 5, samples=300, seed=5)
    assert (rep.mode, rep.budgets["nodes"]) == ("sampled", 10)
    of_h, dual = split(built[1:])
    assert len(of_h) == len(dual) == 1 and read[1:] == [
        (name, dual[0]) for name in ("_unavailable", "_stopping_set",
                                     "_Peeler")]
    rep = seq_recovery_check(code, 2, 5, mode="sampled", samples=300,
                             seed=5, jobs=2)
    of_h, dual = split(built[3:])
    assert rep.budgets["jobs"] == 2 and len(of_h) == len(dual) == 1
    assert read[4:] == []  # the workers peel in their own processes


def test_sa_and_staircase_read_the_row_supports_once(monkeypatch):
    """`sa_check` and `staircase_check` read H's row supports once, into
    one support view, on a PASS and on a FAIL that reads every row."""
    fano, k5 = steiner_sa_code(3), moore_code(3, 2)
    short = Mat(GF2, [[1, 0, 0, 1, 1], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1]])
    calls = []
    row_supports = Mat.row_supports
    monkeypatch.setattr(Mat, "row_supports",
                        lambda M: calls.append(M) or row_supports(M))
    for check, H, r, t, verdict in ((sa_check, fano.H, 2, 3, True),
                                    (sa_check, fano.H, 2, 4, False),
                                    (staircase_check, k5.H, 3, 2, True),
                                    (staircase_check, short, 2, 2, False)):
        calls.clear()
        assert check(H, r, t).verdict is verdict
        assert len(calls) == 1 and calls[0] is H


@pytest.mark.parametrize("platform", ["this", "without forkserver"])
def test_parallel_chunks_never_fork(platform, monkeypatch):
    """With `jobs` > 1 the chunks run in processes started by forkserver, or
    by spawn where the platform has none, never by a fork of this process,
    which here runs a second thread: from Python 3.12 such a fork warns
    that it can deadlock in the child.  The report is the one threads
    give."""
    import concurrent.futures
    import multiprocessing
    import threading
    import warnings
    methods = multiprocessing.get_all_start_methods()
    if platform != "this":
        methods = [m for m in methods if m != "forkserver"]
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: methods)
    code = moore_code(2, 2)  # K4: seed 9 fails in its last chunk
    view = _Supports(code.n, low_weight_dual_supports(code, 3))
    started, pool = [], concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers, mp_context=None:
                        started.append(mp_context) or
                        pool(max_workers, mp_context=mp_context))
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = _sampled_peel(view, 3, 10, 9, jobs=3)
    finally:
        stop.set()
        waiter.join()
    assert [str(w.message) for w in caught if "fork()" in str(w.message)] \
        == []
    assert [c.get_start_method() for c in started] == \
        ["forkserver" if "forkserver" in methods else "spawn"]
    assert not rep.verdict and rep.budgets["failed_chunk"] == 2
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers, mp_context:
                        concurrent.futures.ThreadPoolExecutor(max_workers))
    assert _sampled_peel(view, 3, 10, 9, jobs=3).as_dict() == rep.as_dict()


def _row_mixed(code, rng):
    """`code` with an H of the same row space: each step scales a row or
    adds a multiple of one row to another, and the rows are then shuffled.
    The params and provenance carry over."""
    gf, rows = code.gf, [list(row) for row in code.H.data]
    for _ in range(3 * len(rows)):
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        c = rng.randrange(1, gf.q)
        rows[i] = [gf.mul(c, x) if i == j else gf.add(x, gf.mul(c, y))
                   for x, y in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return LinearCode(Mat(gf, rows, cols=code.n), params=code.params,
                      provenance=code.provenance)


def _column_copied(code, src, dst):
    """`code` with column dst of H made a copy of column src."""
    rows = [list(row) for row in code.H.data]
    for row in rows:
        row[dst] = row[src]
    return LinearCode(Mat(code.gf, rows, cols=code.n),
                      provenance=code.provenance)


def test_reports_depend_on_the_code_not_on_its_h():
    """Row operations and a row shuffle keep the code, and so every report,
    byte for byte: `seq` in each of exhaustive, auto and sampled mode and
    `avail` on 150 seeded random codes each over GF(2), GF(3) and GF(4),
    and `pmds` (exact and sampled) and `pmr` on MR and PMR codes, with and
    without a duplicated column; PASS and FAIL both occur.  Each dual here
    has at most DUAL_ENUM_MAX_WORDS words and is walked in full.  Past that
    bound the supports are the stored rows of H, and one row addition is
    known to move verdicts over GF(2^8); such codes join once the dual's
    circuits are walked instead."""
    rng = random.Random(20261020)
    reports = Counter()
    for i in range(450):
        gf = field_make(*((2, 1), (3, 1), (2, 2))[i % 3])
        n, m = rng.randint(4, 10), rng.randint(2, 5)
        rows = [[rng.randrange(1, gf.q) if rng.random() < 0.5 else 0
                 for _ in range(n)] for _ in range(m)]
        code = LinearCode(Mat(gf, rows, cols=n))
        r, t = rng.randint(1, 4), rng.randint(1, 4)
        mixed = _row_mixed(code, rng)
        checks = [lambda c: availability_check(c, r, t)] + [
            lambda c, mode=mode: seq_recovery_check(c, r, t, mode=mode,
                                                    samples=100, seed=i)
            for mode in ("exhaustive", "auto", "sampled")]
        for check in checks:
            rep = check(code).as_dict()
            assert check(mixed).as_dict() == rep, (code.H.data, r, t)
            reports[rep["property"], rep["verdict"]] += 1
    for code, delta, s_extra in ((mr_r12(3, 2), 1, 2),
                                 (mr_rdelta2(2, 2, 2, 4), 2, 2),
                                 (pmr_parity_split(2, 3, 2, field_make(7)),
                                  1, 1)):
        st = code.provenance["local_structure"]
        for variant in (code, _column_copied(code, 0, code.n - 1)):
            mixed = _row_mixed(variant, rng)
            for check in (lambda c: pmds_check(c, st, delta, s_extra),
                          lambda c: pmds_check(c, st, delta, s_extra,
                                               mode="sampled", samples=200,
                                               seed=1),
                          lambda c: pmr_check(c, st)):
                rep = check(variant).as_dict()
                assert check(mixed).as_dict() == rep, (variant.H.data,
                                                       rep["property"])
                reports[rep["property"], rep["verdict"]] += 1
    assert min(reports.values()) >= 3 and len(reports) == 8, reports


def test_stopping_set_search_deeper_than_the_recursion_limit():
    """On a path of weight-2 checks the only stopping set is every
    coordinate, so the search goes n levels deep: root 0 grows one path,
    and every later root stops at once, since its check to the left holds
    no open coordinate."""
    n = sys.getrecursionlimit() + 100
    path = Mat.from_bits(GF2, [3 << i for i in range(n - 1)], n)
    code = LinearCode(path)
    rep = seq_recovery_check(code, 1, n - 1, mode="exhaustive")
    assert rep.verdict and rep.budgets["nodes"] == (n - 1) + (n - 1)
    rep = seq_recovery_check(code, 1, n, mode="exhaustive")
    assert rep.witness == list(range(n)) and rep.budgets["nodes"] == n


def test_girth_certificate_iff_exhaustive_binary():
    # over GF(2) with incidence-shaped H, checks of weight <= r + 1 and the
    # girth condition together are equivalent
    pet, heawood = moore_code(2, 4), moore_code(2, 5)
    cases = [(pet, 2, 4, True), (heawood, 2, 5, True),
             (t2_turan_code(2, 1), 2, 2, True),
             # Petersen asked for more erasures than its girth - 1
             (pet, 2, 5, False),
             # girth enough, but every check has weight 3 > r + 1
             (pet, 1, 4, False), (heawood, 1, 5, False)]
    for code, r, t, verdict in cases:
        cert = seq_recovery_check(code, r, t, mode="certificate")
        exh = seq_recovery_check(code, r, t, mode="exhaustive")
        assert cert.verdict == exh.verdict is verdict, (code, r, t)
        assert verdict or cert.witness


def test_certificate_witness_is_a_short_cycle(monkeypatch):
    pet = moore_code(2, 4)
    graph, reason = _incidence_graph(pet)
    assert reason is None and girth(graph) == 5
    calls = []
    for name in ("girth", "shortest_cycle"):
        search = getattr(graphs, name)
        monkeypatch.setattr(graphs, name, lambda *a, search=search, name=name:
                            calls.append(name) or search(*a))
    rep = seq_recovery_check(pet, 2, 5, mode="certificate")
    assert not rep.verdict
    # erasures along a shortest cycle, the same witness as when the girth
    # and the cycle took one all-roots search each
    assert rep.witness == [0, 1, 2, 3, 4]
    assert calls == ["shortest_cycle"]  # one search gives both
    rep = seq_recovery_check(moore_code(2, 5), 2, 6, mode="certificate")
    assert rep.witness == [0, 1, 3, 4, 9, 10]


def _record_girth_passes(monkeypatch):
    """The `below` of every `shortest_cycle` pass; a `girth` call fails."""
    passes, search = [], graphs.shortest_cycle

    def girth_call(*a):
        raise AssertionError("the certificate called girth")
    monkeypatch.setattr(graphs, "shortest_cycle", lambda g, below=math.inf:
                        passes.append(below) or search(g, below))
    monkeypatch.setattr(graphs, "girth", girth_call)
    return passes


def test_certificate_skips_a_pass_that_cannot_decide(monkeypatch):
    """Over GF(3) a short cycle is no witness, and checks heavier than
    r + 1 rule out a PASS: the Petersen incidence code at r = 1 (degree 3)
    runs no girth pass, and certificate mode searches, as it did after an
    unbounded pass."""
    code, _, _ = _incidence_catalog("petersen", 3)
    passes = _record_girth_passes(monkeypatch)
    for t in (4, 5):
        rep = seq_recovery_check(code, 1, t, mode="certificate")
        assert rep.as_dict() == seq_recovery_check(
            code, 1, t, mode="exhaustive").as_dict()
        assert (rep.mode, rep.witness) == ("exhaustive", [0, 9])
    assert passes == []


def test_certificate_bounds_a_pass_that_can_only_fail(monkeypatch):
    """Over GF(2) with checks heavier than r + 1 only a FAIL can come of
    the certificate, so its pass stops at cycles of length t + 1: on the
    Petersen code at r = 1 the witness is still the 5-cycle, with girth 5,
    and at t = 4 the run searches.  A certificate PASS is possible at
    r = 2, and that pass runs unbounded; a sampled run's stops at t + 1."""
    pet = moore_code(2, 4)
    passes = _record_girth_passes(monkeypatch)
    for t in (5, 6):
        rep = seq_recovery_check(pet, 1, t, mode="certificate")
        assert rep.as_dict() == {
            "property": "seq-recovery", "verdict": False,
            "mode": "certificate", "witness": [0, 1, 2, 3, 4], "budgets": {},
            "detail": {"girth": 5, "required": t + 1}}
    rep = seq_recovery_check(pet, 1, 4, mode="certificate")
    assert (rep.mode, rep.witness) == ("exhaustive", [0])
    assert seq_recovery_check(pet, 2, 4, mode="certificate").detail == {
        "girth": 5, "required": 5}
    assert seq_recovery_check(pet, 2, 4, mode="sampled").verdict
    assert passes == [6, 7, 5, math.inf, 5]


def test_incidence_graph_only_for_certificates(monkeypatch):
    """Within the search budget `auto` searches and builds no graph.  A
    sampled run builds it for the girth certificate, and where that holds
    returns the PASS its draws give without drawing."""
    def unused(code):
        raise AssertionError("incidence graph built outside certificate mode")

    pet = moore_code(2, 4)
    with monkeypatch.context() as m:
        m.setattr(verify, "_incidence_graph", unused)
        assert seq_recovery_check(pet, 2, 4).mode == "exhaustive"
    drawn = _sampled_peel(_Supports(pet.n, low_weight_dual_supports(pet, 3)),
                          4, 50, 0)
    monkeypatch.setattr(verify, "_draws", _no_draws)
    rep = seq_recovery_check(pet, 2, 4, mode="sampled", samples=50)
    assert rep.verdict and rep.as_dict() == drawn.as_dict()


def _no_draws(*args):
    raise AssertionError("a sampled run drew where the girth decides")


def _no_pool(*args, **kwargs):
    raise AssertionError("a sampled run started processes")


def _counted_draws(calls):
    """`_draws`, recording the (n, k) of each sampler it builds."""
    return lambda rng, n, k: calls.append((n, k)) or _draws(rng, n, k)


def _incidence_catalog(name, q):
    """The `construct incidence --graph name` code over GF(q), at r one less
    than its largest degree and t one less than its girth."""
    from lrckit.cli import graph
    g = graph(name)
    code = graphs.incidence_code(g, field_make(q), "random")
    return code, max(g.degrees()) - 1, girth(g) - 1


SHORTCUT_CODES = {
    **{f"seq-{r}-{t}": (lambda r=r, t=t: (seq_general_code(r, t), r, t))
       for r, t in ((2, 3), (3, 5), (3, 6))},
    **{f"moore-{r}-{t}": (lambda r=r, t=t: (moore_code(r, t), r, t))
       for r, t in ((1, 5), (3, 2), (3, 3), (2, 4), (6, 4), (2, 5), (3, 5),
                    (2, 7), (2, 11))},
    **{f"incidence-{name}-gf{q}":
       (lambda name=name, q=q: _incidence_catalog(name, q))
       for name in ("k4", "petersen", "heawood", "hoffman-singleton")
       for q in (2, 3)},
}


@pytest.mark.parametrize("name", SHORTCUT_CODES)
def test_sampled_pass_by_the_girth_draws_nothing(name, monkeypatch):
    """At its declared (r, t) and at t - 1, a catalog code's sampled run,
    given just enough samples for the girth pass to cost no more than the
    draws, returns exactly the report of `_sampled_peel` on the same
    supports, with jobs 1 and 2, and draws nothing and starts no process;
    with one sample fewer it draws."""
    code, r, top = SHORTCUT_CODES[name]()
    blocks = -(-(code.H.rows + 1) // graphs.GIRTH_BLOCK)
    view = _Supports(code.n, low_weight_dual_supports(code, r + 1))
    for t in (top, top - 1) if top > 1 else (top,):
        cost = -(-(t + 1) // 2) * 3 * code.n * blocks
        least = -(-cost // min(t, code.n))
        for jobs in (1, 2):
            samples = max(least, jobs)
            drawn = _sampled_peel(view, t, samples, 3, jobs)
            with monkeypatch.context() as m:
                m.setattr(verify, "_draws", _no_draws)
                m.setattr("concurrent.futures.ProcessPoolExecutor", _no_pool)
                rep = seq_recovery_check(code, r, t, mode="sampled",
                                         samples=samples, seed=3, jobs=jobs)
            assert rep.as_dict() == drawn.as_dict(), (t, jobs)
        if least > 1:
            calls = []
            with monkeypatch.context() as m:
                m.setattr(verify, "_draws", _counted_draws(calls))
                rep = seq_recovery_check(code, r, t, mode="sampled",
                                         samples=least - 1, seed=3)
            assert calls == [(code.n, min(t, code.n))] and rep.verdict


def test_sampled_seq_draws_where_the_girth_does_not_decide(monkeypatch):
    """A cycle of length <= t over GF(2), a check heavier than r + 1, and an
    H that is not incidence-shaped each leave the run to its draws: the
    witness and `failed_at` are those of the first failing draw."""
    chord = graphs.incidence_code(
        graphs.Graph(20, list(graphs.cycle_graph(20).edges) + [(0, 10)]),
        GF2)
    cases = [(moore_code(2, 4), 2, 5, [0, 1, 2, 3, 4], 117),
             (chord, 1, 2, [0, 20], 22),
             (pg_plane_sa_code(3), 8, 9, None, None)]
    for code, r, t, witness, failed_at in cases:
        calls = []
        with monkeypatch.context() as m:
            m.setattr(verify, "_draws", _counted_draws(calls))
            rep = seq_recovery_check(code, r, t, mode="sampled",
                                     samples=2000, seed=0)
        assert calls == [(code.n, t)]
        assert (rep.witness, rep.budgets.get("failed_at")) == (witness,
                                                               failed_at)
        assert rep.as_dict() == _sampled_peel(
            _Supports(code.n, low_weight_dual_supports(code, r + 1)), t,
            2000, 0).as_dict()
        two = seq_recovery_check(code, r, t, mode="sampled", samples=2000,
                                 seed=0, jobs=2)
        assert (two.witness, two.budgets.get("failed_at")) == (witness,
                                                               failed_at)


class _FrozensetPeeler:
    """The peeler on frozensets that the bitmask `_Peeler` replaced, kept as
    its reference: peel any support that meets the erased set once."""

    def __init__(self, n, supports):
        self.supports = list(supports)
        self.by_coord = [[] for _ in range(n)]
        for idx, s in enumerate(self.supports):
            for c in s:
                self.by_coord[c].append(idx)

    def recovers(self, erased):
        remaining = set(erased)
        cand_ids = sorted({i for c in remaining for i in self.by_coord[c]})
        cands = [self.supports[i] for i in cand_ids]
        while remaining:
            for s in cands:
                hit = s & remaining
                if len(hit) == 1:
                    remaining.discard(next(iter(hit)))
                    break
            else:
                return False
        return True


# every code this file verifies, with the (r, t) it is checked at
PEEL_FIXTURES = FIXTURES_SMALL + [
    ("petersen", moore_code(2, 4), 2, 4),
    ("heawood", moore_code(2, 5), 2, 5),
    ("k4", t2_turan_code(2, 1), 2, 2),
    ("k5", moore_code(3, 2), 3, 2),
    ("near-regular", t2_near_regular_code(12, 4), 4, 2),
    ("t3-ex2", t3_catalog("ex2"), 4, 3),
    ("sa-product", product_avail_code(2, 2), 2, 2),
    ("spc", LinearCode(Mat(GF2, [[1, 1, 1, 1]])), 3, 2),
]


@pytest.mark.parametrize("name,code,r,t", PEEL_FIXTURES,
                         ids=[f[0] for f in PEEL_FIXTURES])
def test_bitmask_peeler_matches_frozenset_peeler(name, code, r, t):
    supports = low_weight_dual_supports(code, r + 1)
    peeler = _Peeler(_Supports(code.n, supports))
    ref = _FrozensetPeeler(code.n, supports)
    verdicts = set()
    size = 0
    while False not in verdicts:  # up to the first size that can fail
        size += 1
        for pattern in combinations(range(code.n), size):
            got = peeler.recovers(pattern)
            assert got == ref.recovers(pattern), pattern
            verdicts.add(got)
    assert verdicts == {True, False}


@pytest.fixture(scope="module")
def seq_1352():
    return seq_general_code(3, 5)


def test_bitmask_peeler_matches_frozenset_peeler_n1352(seq_1352):
    code = seq_1352
    supports = low_weight_dual_supports(code, 4)
    peeler = _Peeler(_Supports(code.n, supports))
    ref = _FrozensetPeeler(code.n, supports)
    rng = random.Random(2024)
    for size in (5, 6):
        for _ in range(10 ** 4):
            pattern = rng.sample(range(code.n), size)
            assert peeler.recovers(pattern) == ref.recovers(pattern)
    graph, _ = _incidence_graph(code)
    cycle = shortest_cycle(graph)
    assert len(cycle) == 6
    assert not peeler.recovers(cycle) and not ref.recovers(cycle)
    assert peeler.recovers(cycle[1:]) and ref.recovers(cycle[1:])


def _mask_peel_only(view):
    """The same peeler with the round-one filter switched off: every
    coordinate looks support-less to it, so each pattern takes the w-bit
    mask peel."""
    peeler = _Peeler(view)
    peeler.neighbours = [None] * view.n
    return peeler


@pytest.mark.parametrize("name,code,r,t", PEEL_FIXTURES,
                         ids=[f[0] for f in PEEL_FIXTURES])
def test_round_one_filter_keeps_every_verdict(name, code, r, t):
    view = _Supports(code.n, low_weight_dual_supports(code, r + 1))
    peeler = _Peeler(view)
    ref = _mask_peel_only(view)
    verdicts = set()
    size = 0
    while False not in verdicts:  # up to the first size that can fail
        size += 1
        for pattern in combinations(range(code.n), size):
            got = peeler.recovers(pattern)
            assert got == ref.recovers(pattern), pattern
            verdicts.add(got)


def test_round_one_filter_keeps_every_verdict_n1352(seq_1352):
    code = seq_1352
    supports = low_weight_dual_supports(code, 4)
    view = _Supports(code.n, supports)
    peeler = _Peeler(view)
    ref = _mask_peel_only(view)
    rng = random.Random(4242)
    round_one = 0
    for size in (5, 6):
        for _ in range(10 ** 4):
            pattern = rng.sample(range(code.n), size)
            assert peeler.recovers(pattern) == ref.recovers(pattern)
            round_one += all(peeler.neighbours[c].isdisjoint(pattern)
                             for c in pattern)
    # the filter settles most patterns of this code on its own
    assert round_one > 0.9 * 2 * 10 ** 4
    assert peeler.neighbours[0] == frozenset(
        c for s in supports if 0 in s for c in s) - {0}


def test_round_one_filter_on_coordinates_without_support():
    spc = LinearCode(Mat(GF2, [[1, 1, 1, 0]]))
    peeler = _Peeler(_Supports(spc.n, low_weight_dual_supports(spc, 3)))
    assert peeler.neighbours == [frozenset({1, 2}), frozenset({0, 2}),
                                 frozenset({0, 1}), None]
    assert peeler.recovers([0]) and peeler.recovers([2])
    assert not peeler.recovers([3]) and not peeler.recovers([0, 1])


def _dual_words_brute_force(gf, rows):
    """Every word of the row space of `rows`, grown one row at a time over
    every coefficient: no echelon form, no walk."""
    words = {(0,) * len(rows[0])}
    for row in rows:
        words = {tuple(gf.add(x, gf.mul(c, y)) for x, y in zip(w, row))
                 for w in words for c in range(gf.q)}
    return words


def test_low_weight_dual_supports_are_every_light_dual_word():
    """At n from 15 to 18, as at any n while q^(n-k) <= 2^20, the supports
    are those of every dual word of weight <= wmax, one walked word per
    line, whatever rows hold the code: here light rows mixed into heavy
    ones."""
    rng = random.Random(20261020)
    for i in range(9):
        gf = field_make(*((2, 1), (3, 1), (2, 2))[i % 3])
        n = rng.randint(15, 18)
        m = rng.randint(2, int(math.log(2 ** 12, gf.q)))
        rows = [[rng.randrange(1, gf.q) if rng.random() < 0.2 else 0
                 for _ in range(n)] for _ in range(m)]
        for _ in range(2 * m):  # add a multiple of one row to another
            a, b = rng.sample(range(m), 2)
            c = rng.randrange(1, gf.q)
            rows[a] = [gf.add(x, gf.mul(c, y))
                       for x, y in zip(rows[a], rows[b])]
        code = LinearCode(Mat(gf, rows, cols=n))
        wmax = rng.randint(2, 6)
        light = [w for w in _dual_words_brute_force(gf, rows)
                 if 0 < n - w.count(0) <= wmax]
        assert low_weight_dual_supports(code, wmax) == sorted(
            {frozenset(j for j, x in enumerate(w) if x) for w in light},
            key=lambda s: (len(s), sorted(s)))
        words = verify._low_weight_words(code, wmax)  # all of them
        assert words.rows * (gf.q - 1) == len(light)
        assert set(words.data) <= set(light)


def test_stored_rows_take_no_dual_work(seq_1352, monkeypatch):
    """A dual of 2^(n-k) > 2^20 words is not walked: no RREF, no walk and
    no unpacked row; the supports are those of the 650 rows of H."""
    def no_dual_work(*args):
        raise AssertionError("dual work on the stored-rows branch")

    for name in ("rref", "subspaces"):
        monkeypatch.setattr(verify, name, no_dual_work)
    monkeypatch.setattr(LinearCode, "full_rank_checks", no_dual_work)
    monkeypatch.setattr(Mat, "data", property(no_dual_work))
    code = seq_1352
    supports = low_weight_dual_supports(code, 4)
    assert len(supports) == code.H.rows == 650
    assert set(supports) == set(map(frozenset, code.H.row_supports()))
    assert verify._low_weight_words(code, 4).bits == code.H.bits


# n = 1 .. 99 crosses `Random.sample`'s switch from its pool branch to its
# rejection branch at n = 21 (k <= 5) and at n = 85 (6 <= k <= 12)
@pytest.mark.parametrize("n", list(range(1, 100)) + [1352, 8480])
def test_draw_is_random_sample(n):
    for seed in (0, 1, 5, 77, 2 ** 40 + 3):
        for k in range(min(n, 12) + 1):
            mine, stdlib = random.Random(seed), random.Random(seed)
            draws = _draws(mine, n, k)
            for _ in range(20):
                assert next(draws) == stdlib.sample(range(n), k)
            # the same bits were consumed, so later draws stay in step
            assert mine.getstate() == stdlib.getstate()


def test_draw_rejects_sizes_outside_the_population():
    for n, k in ((3, 4), (0, 1), (5, -1)):
        with pytest.raises(ValueError):
            _draws(random.Random(0), n, k)


def test_draws_over_one_generator_interleave_as_sample_calls():
    """Draws of a pool-branch and a rejection-branch sampler, each set up
    once, taking turns over one `Random`, equal the `sample` calls made in
    the same turns.  At n = 22, k = 5 (just past the pool) about 40 % of
    the draws reject a repeated index, and at n = 4, k = 2 a quarter take
    their second index from a swapped pool slot."""
    for seed in (0, 3, 2 ** 33 + 1):
        mine, stdlib = random.Random(seed), random.Random(seed)
        turns = [(4, 2), (22, 5), (22, 5), (0, 0), (1352, 5), (4, 2)]
        draws = {nk: _draws(mine, *nk) for nk in set(turns)}
        for _ in range(200):
            for n, k in turns:
                assert next(draws[n, k]) == stdlib.sample(range(n), k)
        assert mine.getstate() == stdlib.getstate()


def _peels_everything(n, supports):
    """Brute force: does erasing every coordinate peel to nothing, one
    support meeting the erased set once at a time?"""
    erased = set(range(n))
    while erased:
        s = next((s for s in supports if len(s & erased) == 1), None)
        if s is None:
            return False
        erased -= s
    return True


def test_sampled_seq_past_n_draws_every_coordinate(monkeypatch, tmp_path,
                                                    capsys):
    """With t > n there is no t-subset to draw, so a sampled run draws
    n-subsets, that is every coordinate: a pattern that peels peels with any
    subset of it, so the largest patterns are the strictest test.  With the
    search budget at 0, `auto` samples on random codes with n >= 20 (the
    codes of `_random_codes`, made longer) and on lower-triangular ones,
    which peel from their first coordinate on; the verdict is a
    brute-force peel of range(n), and the CLI exits 0 or 1 by it."""
    rng = random.Random(20261020)
    monkeypatch.setattr(verify, "SEQ_EXHAUSTIVE_BUDGET", 0)
    verdicts = []
    for i in range(6):
        gf = field_make((2, 3)[i % 2])
        n = rng.randint(20, 24)
        if i < 3:
            density = rng.choice((0.25, 0.4, 0.6))
            rows = [[rng.randrange(1, gf.q) if rng.random() < density else 0
                     for _ in range(n)] for _ in range(rng.randint(1, 8))]
        else:  # row j holds coordinate j and some before it: k = 0
            rows = [[rng.randrange(1, gf.q) if c == j or c < j and
                     rng.random() < 0.3 else 0 for c in range(n)]
                    for j in range(n)]
        code = LinearCode(Mat(gf, rows, cols=n))
        r, t = n, n + rng.randint(1, 5)
        expected = _peels_everything(
            n, low_weight_dual_supports(code, r + 1))
        rep = seq_recovery_check(code, r, t, samples=20, seed=i)
        assert (rep.mode, rep.verdict) == ("sampled", expected), i
        if not expected:
            assert rep.witness == list(range(n))
        path = tmp_path / f"code{i}.json"
        path.write_text(lio.dumps(lio.code_to_json(code)))
        argv = ["verify", "seq", "--code", str(path), "--r", str(r),
                "--t", str(t), "--samples", "20"]
        assert main(argv) == (0 if expected else 1), i
        assert json.loads(capsys.readouterr().out)["mode"] == "sampled"
        verdicts.append(expected)
    assert verdicts == [False] * 3 + [True] * 3


def test_sampled_mode_records_seed():
    pet = moore_code(2, 4)
    rep = seq_recovery_check(pet, 2, 4, mode="sampled", samples=500, seed=77)
    assert rep.verdict and rep.budgets["seed"] == 77
    with pytest.raises(ValueError):
        VerifyReport("x", True, "sampled")
    # a sampled PASS must have replayed a pattern; a FAIL carries a witness
    for budgets in ({"seed": 0}, {"seed": 0, "samples": 0},
                    {"seed": 0, "samples": 10, "checked": 0}):
        with pytest.raises(ValueError):
            VerifyReport("x", True, "sampled", budgets=budgets)
    assert not VerifyReport("x", False, "sampled", budgets={"seed": 0},
                            witness=[0]).verdict


@pytest.mark.parametrize("r,t,samples", [(2, 0, 10), (2, -2, 10), (0, 4, 10),
                                         (2, 4, 0), (2, 4, -3)])
def test_verifiers_reject_empty_budgets(r, t, samples):
    pet = moore_code(2, 4)
    with pytest.raises(ValueError):
        seq_recovery_check(pet, r, t, samples=samples)
    if samples < 1:
        with pytest.raises(ValueError):
            _sampled_peel(_Supports(pet.n, []), t, samples, 0)
    else:
        with pytest.raises(ValueError):
            availability_check(pet, r, t)
        # the shape verifiers refuse the same r, t (the Fano code is SA)
        for check, H in ((staircase_check, pet.H),
                         (sa_check, steiner_sa_code(3).H)):
            with pytest.raises(ValueError, match="need r, t >= 1"):
                check(H, r, t)


def test_explicit_exhaustive_over_budget_raises(monkeypatch):
    """Only `auto` may fall back from the search; an explicit `exhaustive`
    whose search passes the budget is an error, never a sampled verdict."""
    pet = moore_code(2, 4)  # 15 coordinates: 1940 patterns of size <= 4
    rep = seq_recovery_check(pet, mode="exhaustive")
    assert rep.verdict and rep.mode == "exhaustive"
    assert rep.budgets["nodes"] <= rep.budgets["patterns"] == 1940
    monkeypatch.setattr(verify, "SEQ_EXHAUSTIVE_BUDGET",
                        rep.budgets["nodes"] - 1)
    with pytest.raises(BudgetExceeded):
        seq_recovery_check(pet, 2, 4, mode="exhaustive")
    assert seq_recovery_check(pet, 2, 4).mode == "certificate"


def test_sampled_after_the_search_records_its_nodes(monkeypatch):
    """When `auto` samples because the search passed its budget, the report
    records the nodes the search spent; a plain sampled run records none,
    and both replay the same patterns."""
    code = _incidence(graphs.petersen_graph(), 3)  # GF(3): no cycle witness
    full = seq_recovery_check(code, 2, 5, mode="exhaustive")
    budget = full.budgets["nodes"] - 1
    monkeypatch.setattr(verify, "SEQ_EXHAUSTIVE_BUDGET", budget)
    with pytest.raises(BudgetExceeded):
        verify._stopping_set(
            _Supports(code.n, low_weight_dual_supports(code, 3)), 5, budget)
    rep = seq_recovery_check(code, 2, 5, samples=300, seed=5)
    plain = seq_recovery_check(code, 2, 5, mode="sampled", samples=300,
                               seed=5)
    assert rep.mode == plain.mode == "sampled"
    assert rep.budgets == dict(plain.budgets, nodes=budget)
    assert "nodes" not in plain.budgets
    assert (rep.verdict, rep.witness) == (plain.verdict, plain.witness)


def test_parallel_sample_needs_sampled_mode():
    pet = moore_code(2, 4)
    for mode in ("auto", "exhaustive", "certificate"):
        with pytest.raises(ValueError):
            seq_recovery_check(pet, 2, 4, mode=mode, jobs=2)
    with pytest.raises(ValueError):
        seq_recovery_check(pet, 2, 4, mode="sampled", samples=3, jobs=4)


@pytest.mark.parametrize("check", [availability_check, seq_recovery_check,
                                   classify_rate_optimal_t2])
def test_undeclared_locality_raises(check):
    bare = LinearCode(moore_code(2, 4).H)  # no declared params
    with pytest.raises(ValueError, match="declares none"):
        check(bare)


def test_availability_spc_fails():
    spc = LinearCode(Mat(GF2, [[1, 1, 1, 1]]))
    rep = availability_check(spc, 3, 2)
    assert not rep.verdict
    assert rep.witness["coordinate"] == 0


def test_sa_check_shape_violations():
    fano = steiner_sa_code(3)
    assert sa_check(fano.H, 2, 3).verdict
    assert not sa_check(fano.H, 3, 3).verdict   # wrong row weight
    assert not sa_check(fano.H, 2, 4).verdict   # wrong column weight
    # two checks meeting in two coordinates break orthogonality
    H = Mat(GF2, [[1, 1, 1, 0], [1, 1, 0, 1]])
    assert not sa_check(H, 2, 1).verdict

    # every row and column has its weight, but the rows through column 0
    # meet in all three coordinates
    rep = sa_check(Mat(GF2, [[1, 1, 1], [1, 1, 1]]), 2, 2)
    assert rep.as_dict() == {
        "property": "strict-availability", "verdict": False,
        "mode": "exhaustive", "budgets": {}, "detail": {},
        "witness": {"column": 0, "rows": [0, 1], "overlap": [0, 1, 2]}}


def _grouped(rows, groups):
    """The GF(2) code of H = rows, declaring the local groups `groups`."""
    return LinearCode(Mat(GF2, rows), provenance={
        "local_structure": LocalStructure(groups)})


# (H over GF(2), groups, witness): each way mr-shape fails
MR_SHAPE_FAILURES = [
    # row 2 meets the private coordinates 0 and 2, inside no group
    ([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0]], ((0, 1), (2, 3)),
     {"row": 2, "reason": "row straddles a private coordinate"}),
    ([[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1]], ((0, 1), (2, 3)),
     {"row": 1, "reason": "zero row"}),
    # row 1 stays off the private coordinates 0 and 2, inside no group
    ([[1, 1, 0, 0], [0, 1, 0, 1]], ((0, 1), (2, 3)),
     {"groups_without_local_row": [1]}),
]


@pytest.mark.parametrize("rows, groups, witness", MR_SHAPE_FAILURES)
def test_mr_shape_failures(rows, groups, witness):
    assert mr_shape_check(_grouped(rows, groups)).as_dict() == {
        "property": "mr-shape", "verdict": False, "mode": "exhaustive",
        "witness": witness, "budgets": {}, "detail": {}}


def test_a_structure_that_does_not_cover_the_code_is_refused(tmp_path,
                                                           capsys):
    """pmds, pmr and mr-shape refuse a local structure that leaves some
    coordinate out, as given and as the code file declares it: exit 2."""
    full = mr_r12(4, 3)
    part = LocalStructure(full.provenance["local_structure"].groups[:3])
    code = LinearCode(full.H, params=full.params,
                      provenance={"local_structure": part})
    message = "local structure does not cover the coordinates"
    for check in (lambda: pmds_check(code, None, 1, 1),
                  lambda: pmds_check(full, part, 1, 1),
                  lambda: pmr_check(code), lambda: pmr_check(full, part),
                  lambda: mr_shape_check(code)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check()
    path = tmp_path / "part.json"
    path.write_text(lio.dumps(lio.code_to_json(code)))
    for argv in (["pmds", "--delta", "1", "--s-extra", "1"], ["pmr"],
                 ["mr-shape"]):
        assert main(["verify", argv[0], "--code", str(path)] + argv[1:]) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err) == {"error": "ValueError",
                                                 "message": message}


def test_checks_refuse_a_mode_or_structure_they_cannot_run():
    with pytest.raises(ValueError, match="^unknown mode 'nonsense'$"):
        seq_recovery_check(moore_code(2, 4), 2, 2, mode="nonsense")
    with pytest.raises(ValueError, match="^local structure does not cover "
                                         "the coordinates$"):
        pmds_check(_grouped([[1, 1, 0, 0], [0, 0, 1, 1]], ((0, 1),)), None,
                   1, 0)


def test_pmds_samples_every_pattern_past_the_local_budget(monkeypatch):
    """Past PMDS_EXHAUSTIVE_BUDGET local subsets, `_locally_mds` says no, so
    pmds ranks each draw's whole pattern where it would rank the reduced
    patterns instead; the report is the one the reduction gives, but for
    the budget it records."""
    code = mr_r12(3, 2)
    st = code.provenance["local_structure"]
    reduced = pmds_check(code, st, 1, 2, mode="sampled", samples=200, seed=5)
    budget = verify.PMDS_EXHAUSTIVE_BUDGET
    ranks = []
    independent = verify.columns_independent
    monkeypatch.setattr(verify, "columns_independent",
                        lambda M, cols: ranks.append(cols) or
                        independent(M, cols))
    monkeypatch.setattr(verify, "PMDS_EXHAUSTIVE_BUDGET", 5)  # 9 subsets
    assert not verify._locally_mds(code, st.groups, 1)
    expected = {
        "property": "partial-mds", "verdict": True, "mode": "sampled",
        "witness": None, "detail": {"delta": 1, "s_extra": 2},
        "budgets": {"patterns": 405, "budget": 5, "checked": 200, "seed": 5,
                    "samples": 200}}
    for mode in ("auto", "sampled"):
        ranks.clear()
        rep = pmds_check(code, st, 1, 2, mode=mode, samples=200, seed=5)
        assert rep.as_dict() == expected
        assert len(ranks) == 200 and all(len(p) == 5 for p in ranks)
    assert reduced.as_dict() == dict(expected, budgets=dict(
        expected["budgets"], budget=budget))


# (H over GF(2), t, witness): one input per way the staircase template fails
STAIRCASE_FAILURES = [
    ([[0]], 1, {"column": 0, "weight": 0}),
    ([[1], [1], [1]], 3, {"column": 0, "weight": 3}),
    ([[0, 0], [1, 1]], 7, {"row": 1, "reason": "two weight-1 columns"}),
    ([[1], [1]], 7, "no weight-1 columns"),
    ([[1, 1], [0, 1]], 7, {"level": 2, "reason": "empty layer"}),
    ([[1, 0, 0, 1], [0, 1, 1, 1], [0, 1, 1, 0]], 6,
     {"row": 2, "level": 2, "reason": "multiple parent columns"}),
    # rows 3 and 2 both take two parents; row 3's come first, by column
    ([[1, 0, 1, 0, 1, 0], [0, 1, 0, 1, 0, 1], [0, 0, 0, 0, 1, 1],
      [0, 0, 1, 1, 0, 0]], 4,
     {"row": 3, "level": 1, "reason": "multiple parent columns"}),
    ([[0, 0, 1], [1, 1, 0], [0, 1, 1]], 4,
     {"column": 2, "reason": "not intra-final-layer"}),
    ([[1, 1, 1, 1, 1, 1, 1], [0, 1, 1, 1, 1, 1, 1]], 1,
     {"columns": [1, 2, 3, 4, 5], "reason": "columns outside template"}),
    ([[0, 0], [1, 1], [0, 0], [0, 1]], 3,
     {"rows": [0, 2], "reason": "rows outside template"}),
    # the template holds, but row 1 has weight 2, not r + 1 = 3
    ([[1, 0, 0, 1, 1], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1]], 2,
     {"row": 1, "weight": 2}),
]


def test_staircase_random_fails():
    """A random matrix fails, and so does each input of STAIRCASE_FAILURES,
    with exactly its witness."""
    rng = random.Random(2)
    H = Mat(GF2, [[rng.randrange(2) for _ in range(12)] for _ in range(5)])
    assert not staircase_check(H, 2, 4).verdict
    for rows, t, witness in STAIRCASE_FAILURES:
        assert staircase_check(Mat(GF2, rows), 2, t).as_dict() == {
            "property": "staircase", "verdict": False, "mode": "exhaustive",
            "witness": witness, "budgets": {}, "detail": {}}


def test_staircase_t2_complete_graph_code():
    code = moore_code(3, 2)  # complete graph on r+2 nodes, one row dropped
    rep = staircase_check(code.H, 3, 2)
    assert rep.verdict
    prof = rep.detail["profile"]
    assert prof["a"][0] == 4  # apex edges become weight-1 columns


def test_classify_regular_graph_code():
    c = t2_near_regular_code(12, 4)
    rep = classify_rate_optimal_t2(c)
    assert rep.verdict
    assert rep.detail["parts"] == [
        {"type": "regular_graph", "coords": list(range(18))}]


def test_classify_complete_graph_code():
    c = t2_turan_code(2, 1)
    rep = classify_rate_optimal_t2(c, r=2)
    assert rep.verdict
    assert rep.detail["parts"][0]["type"] == "regular_graph"


def test_classify_mds_product():
    from lrckit.matrix import vandermonde
    g4 = field_make(2, 2)
    V = vandermonde(g4, [0, 1, 2, 3], 2)
    rows = [list(r) + [0] * 4 for r in V.data]
    rows += [[0] * 4 + list(r) for r in V.data]
    c = LinearCode(Mat(g4, rows))
    rep = classify_rate_optimal_t2(c, r=2)
    assert rep.verdict
    assert [p["type"] for p in rep.detail["parts"]] == \
        ["mds_block", "mds_block"]


# (field, H, r, witness): one input per way a rate-r/(r+2) code fails to
# classify.  GF(2^8) duals of n - k >= 3 are too big to walk, so there the
# basis is taken from the rows of H.
CLASSIFY_FAILURES = [
    ((2, 1), [[1, 0, 1, 0, 1, 1], [0, 0, 1, 1, 0, 0], [1, 1, 0, 0, 1, 1]], 2,
     "low-weight words do not span the dual"),
    ((2, 1), [[0, 0, 1, 0, 1, 0], [0, 1, 0, 1, 1, 0], [1, 1, 0, 1, 0, 1]], 2,
     {"column": 4, "weight": 3}),
    ((2, 8), [[1, 1, 1, 0, 0, 0], [1, 0, 0, 1, 1, 0], [1, 0, 0, 0, 1, 1]], 2,
     {"column": 0, "weight": 3}),
    ((3, 1), [[0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 1, 0],
              [0, 1, 1, 0, 0, 0, 0, 0, 0, 2, 0, 0],
              [0, 0, 0, 2, 0, 2, 0, 0, 1, 0, 2, 0],
              [2, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 0],
              [0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0, 2],
              [0, 2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2]], 2,
     {"rows": [2, 3, 4], "reason": "node parities missing"}),
    # the first block is MDS, the second has two equal columns
    ((2, 8), [[1, 0, 1, 1, 0, 0, 0, 0], [0, 1, 1, 2, 0, 0, 0, 0],
              [0, 0, 0, 0, 1, 0, 1, 1], [0, 0, 0, 0, 0, 1, 1, 1]], 2,
     {"coords": [4, 5, 6, 7], "reason": "block not MDS"}),
    # a 3-regular multigraph on 4 nodes, two of its edges doubled
    ((2, 8), [[1, 0, 0, 0, 1, 1, 0, 0, 1, 0], [0, 1, 0, 0, 1, 1, 0, 0, 0, 1],
              [0, 0, 1, 0, 0, 0, 1, 1, 1, 0], [0, 0, 0, 1, 0, 0, 1, 1, 0, 1]],
     3, {"rows": [0, 1, 2, 3],
         "reason": "parallel edges outside an MDS block"}),
    ((2, 1), [[1, 0, 1], [0, 1, 0]], 1,
     {"rows": [0], "reason": "graph part not 1-regular"}),
]


def test_classify_rejects_wrong_rate():
    """A code of another rate is refused; each code of CLASSIFY_FAILURES
    has the rate and fails with exactly its witness."""
    c = t3_catalog("ex1")
    with pytest.raises(ValueError, match="rate"):
        classify_rate_optimal_t2(c, r=3)
    for (p, m), rows, r, witness in CLASSIFY_FAILURES:
        code = LinearCode(Mat(field_make(p, m), rows))
        assert classify_rate_optimal_t2(code, r).as_dict() == {
            "property": "classify-t2", "verdict": False, "mode": "exhaustive",
            "witness": witness, "budgets": {}, "detail": {}}


def test_mixed_product_and_graph_classification():
    # [4,2,3] MDS block alongside a complete-graph code, over GF(4)
    from lrckit.matrix import vandermonde
    g4 = field_make(2, 2)
    V = vandermonde(g4, [0, 1, 2, 3], 2)
    k4 = t2_turan_code(2, 1)  # binary block, lift entries to GF(4)
    rows = [list(r) + [0] * 6 for r in V.data]
    rows += [[0] * 4 + [int(x) for x in hr] for hr in k4.H.data]
    c = LinearCode(Mat(g4, rows))
    rep = classify_rate_optimal_t2(c, r=2)
    assert rep.verdict
    kinds = sorted(p["type"] for p in rep.detail["parts"])
    assert kinds == ["mds_block", "regular_graph"]


def test_product_code_rows_satisfy_sa_shape():
    c = product_avail_code(2, 2)
    assert sa_check(c.H, 2, 2).verdict
