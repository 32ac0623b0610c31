"""Command-line front end: construct codes, evaluate bounds, verify
properties, and reproduce the bound-comparison tables and figure data as
CSV.  Every output embeds a run manifest (command line, version, seeds,
output digests) so randomized runs can be replayed exactly.

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage or input errors, or an internal error (machine-readable JSON on
stderr in both cases).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction
from typing import Dict, List, Optional

from . import bounds as B
from . import io as lio
from . import lr_codes, mr_codes, seq_codes, verify
from .field import GF, field_make, prime_power
from .version import __version__


def _manifest(args: List[str], seed: Optional[int] = None) -> dict:
    out = {"tool": "lrckit", "version": __version__,
           "command": list(args), "timestamp": int(time.time())}
    if seed is not None:
        out["seed"] = seed
    return out


def _write(text: str, out: Optional[str]) -> None:
    """`text` to stdout, or to the file `out` with its name and SHA-256
    echoed on stdout."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        print(json.dumps({"written": out, "sha256": digest}))
    else:
        sys.stdout.write(text)


def _emit(payload: dict, out: Optional[str], argv: List[str],
          seed: Optional[int] = None) -> None:
    payload = dict(payload)
    payload["manifest"] = _manifest(argv, seed)
    _write(lio.dumps(payload) + "\n", out)


def _fail(kind: str, message: str, **extra) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message,
                                 **extra}) + "\n")
    return 2


def _field_from_args(args) -> GF:
    modulus = json.loads(args.modulus) if getattr(args, "modulus", None) \
        else None
    if getattr(args, "q", None):
        pm = prime_power(args.q)
        if pm is None:
            raise ValueError(f"{args.q} is not a prime power")
        return field_make(*pm, modulus=modulus) if modulus else \
            field_make(*pm)
    if getattr(args, "p", None) is None:
        raise ValueError("specify the field via --q or --p/--mdeg")
    return field_make(args.p, args.mdeg or 1, modulus)


def _enc(v):
    if isinstance(v, Fraction):
        return {"num": v.numerator, "den": v.denominator, "float": float(v)}
    if isinstance(v, dict):
        return {k: _enc(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_enc(x) for x in v]
    return v


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def cmd_construct(args, argv) -> int:
    fam = args.family
    seed = getattr(args, "seed", 0)
    if fam == "moore":
        code = seq_codes.moore_code(args.r, args.t)
    elif fam == "seq":
        code = seq_codes.seq_general_code(args.r, args.t, aux=args.aux,
                                          seed=seed)
    elif fam == "near-regular":
        code = seq_codes.t2_near_regular_code(args.k, args.r)
    elif fam == "turan":
        code = seq_codes.t2_turan_code(args.r, args.beta)
    elif fam == "dim-optimal":
        code = seq_codes.t2_dim_optimal_code(args.m, args.r)
    elif fam == "t3":
        code = seq_codes.t3_catalog(args.which)
    elif fam == "pyramid":
        code = lr_codes.pyramid_code(args.n, args.k, args.r,
                                     _field_from_args(args))
    elif fam == "tamobarg":
        code = lr_codes.tamo_barg_code(args.n, args.k, args.r,
                                       _field_from_args(args))
    elif fam == "product":
        code = lr_codes.product_avail_code(args.r, args.t)
    elif fam == "wang":
        code = lr_codes.wang_avail_code(args.r, args.t)
    elif fam == "pgplane":
        code = lr_codes.pg_plane_sa_code(args.s)
    elif fam == "steiner":
        code = lr_codes.steiner_sa_code(args.s)
    elif fam == "pmr-split":
        code = mr_codes.pmr_parity_split(args.m, args.r, args.delta,
                                         _field_from_args(args))
    elif fam == "pmr-a1":
        code, report = mr_codes.pmr_general_a1(args.m, args.r, args.delta,
                                               args.base_q, seed=seed)
        payload = lio.code_to_json(code)
        payload["verdict"] = report.as_dict()
        _emit(payload, args.out, argv, seed)
        return 0 if report.verdict else 1
    elif fam == "mr-r12":
        code = mr_codes.mr_r12(args.m, args.r)
    elif fam == "mr-rd2":
        code = mr_codes.mr_rdelta2(args.m, args.r, args.delta, args.psi)
    elif fam == "mr-coset":
        code = mr_codes.mr_r2_coset_search(args.n, args.d_param,
                                           _field_from_args(args))
    elif fam == "incidence":
        from . import graphs
        named = {"k4": lambda: graphs.complete_graph(4),
                 "petersen": graphs.petersen_graph,
                 "heawood": graphs.heawood_graph,
                 "hoffman-singleton": graphs.hoffman_singleton_graph}
        if args.graph in named:
            g = named[args.graph]()
        elif args.graph and args.graph.startswith("cycle:"):
            g = graphs.cycle_graph(int(args.graph.split(":")[1]))
        elif args.graph and args.graph.startswith("complete:"):
            g = graphs.complete_graph(int(args.graph.split(":")[1]))
        else:
            return _fail("usage", f"unknown graph {args.graph!r}")
        gf = _field_from_args(args) if (args.q or args.p) else field_make(2)
        code = graphs.incidence_code(g, gf, coefficients=args.coeffs,
                                     seed=seed)
    else:  # pragma: no cover
        return _fail("usage", f"unknown family {fam}")
    _emit(lio.code_to_json(code), args.out, argv, seed)
    return 0


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def cmd_bound(args, argv) -> int:
    name = args.name
    val: object
    detail: Dict[str, object] = {}
    if name == "lr-singleton":
        val = B.lr_singleton_bound(args.n, args.k, args.r)
    elif name == "msw":
        val = list(B.msw_sequence(args.n, args.b1, args.r).e)
    elif name == "hamming-type":
        val = B.hamming_type_bound(args.n, args.r)
    elif name == "lr-dim":
        oracle = B.ClassicalOracle(args.oracle.split(",")) \
            if args.oracle else B.DEFAULT_ORACLE
        rep = B.lr_alphabet_dim_bound(args.n, args.d, args.r, args.q, oracle)
        val, detail = rep.value, rep.detail
    elif name == "lr-dmin":
        oracle = B.ClassicalOracle(args.oracle.split(",")) \
            if args.oracle else B.DEFAULT_ORACLE
        rep = B.lr_alphabet_dmin_bound(args.n, args.k, args.r, args.q, oracle)
        val, detail = rep.value, rep.detail
    elif name == "seq-rate":
        val = B.seq_rate_bound(args.r, args.t)
    elif name == "seq-blocklength":
        val = B.seq_blocklength_bounds(args.k, args.r, args.t).value
    elif name == "seq-dim-t2":
        val = B.seq_dim_bound_t2(args.m, args.r)
    elif name == "avail-rate":
        val = B.avail_rate_bounds(args.r, args.t)
    elif name == "avail-dmin":
        val = B.avail_dmin_bounds(args.n, args.k, args.r, args.t)
    elif name == "avail-tradeoff":
        val = B.avail_product_tradeoff(args.n, args.k, args.nc,
                                       Fraction(args.rc), Fraction(args.rmax))
    elif name == "sa-blocklength":
        val = B.sa_blocklength_bound(args.r, args.t)
    elif name == "moore":
        val = B.moore_bound(args.r, args.t)
    elif name == "msr-subpkt":
        val = B.msr_subpkt_bounds(args.n, args.k, args.d, args.w, args.mode)
    elif name == "cutset":
        val = B.cutset_bound(B.RgParams(n=args.n, k=args.k, d=args.d,
                                        alpha=args.alpha, beta=args.beta))
    elif name == "msr-point":
        val = B.msr_point(args.n, args.k, args.d)
    elif name == "mbr-point":
        val = B.mbr_point(args.k, args.d, args.beta)
    else:  # pragma: no cover
        return _fail("usage", f"unknown bound {name}")
    rep = {"bound": name,
           "inputs": {k: v for k, v in vars(args).items()
                      if k not in ("func", "name", "out", "oracle") and
                      v is not None},
           "value": _enc(val)}
    if detail:
        rep["detail"] = _enc(detail)
    _emit(rep, args.out, argv)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args, argv) -> int:
    if not 1 <= args.jobs <= max(args.samples, 1):  # >= 1 sample a job
        return _fail("usage", f"--jobs {args.jobs} is not in 1..--samples")
    if args.jobs > 1 and (args.property, args.mode) != ("seq", "sampled"):
        return _fail("usage", "--jobs > 1 needs verify seq --mode sampled")
    code = lio.code_from_json(lio.load(args.code))
    prop = args.property
    structure = code.provenance.get("local_structure")
    r = args.r if args.r is not None else (code.params.r if code.params
                                           else None)
    t = args.t if args.t is not None else (code.params.t if code.params
                                           else None)
    if prop in ("seq", "avail", "sa", "staircase") and (r is None or
                                                        t is None):
        return _fail("usage", f"property {prop} needs --r and --t (the code "
                              "file declares neither)")
    if prop == "seq":
        if args.jobs > 1:
            from concurrent.futures import ProcessPoolExecutor
            from itertools import repeat
            # chunk i runs seed + i; the samples split exactly, and each
            # chunk's seed and count are reported so any chunk replays
            per, extra = divmod(args.samples, args.jobs)
            chunks = [{"seed": args.seed + i, "samples": per + (i < extra)}
                      for i in range(args.jobs)]
            supports = verify.low_weight_dual_supports(code, r + 1)
            with ProcessPoolExecutor(max_workers=args.jobs) as ex:
                results = list(ex.map(
                    verify._sampled_peel, repeat(code.n), repeat(supports),
                    repeat(t), [c["samples"] for c in chunks],
                    [c["seed"] for c in chunks]))
            budgets = {"samples": args.samples, "seed": args.seed,
                       "jobs": args.jobs, "chunks": chunks}
            failed = next((i for i, x in enumerate(results)
                           if not x.verdict), None)
            if failed is not None:
                budgets.update(failed_chunk=failed,
                               failed_at=results[failed].budgets["failed_at"])
            rep = verify.VerifyReport(
                "seq-recovery", failed is None, "sampled", budgets=budgets,
                witness=None if failed is None else results[failed].witness)
        else:
            rep = verify.seq_recovery_check(code, r, t, mode=args.mode,
                                            samples=args.samples,
                                            seed=args.seed)
    elif prop == "avail":
        rep = verify.availability_check(code, r, t)
    elif prop == "sa":
        rep = verify.sa_check(code.H, r, t)
    elif prop == "pmds":
        if structure is None:
            return _fail("input", "code file carries no local structure")
        if args.mode == "certificate":
            return _fail("usage", "pmds has no certificate mode")
        rep = verify.pmds_check(code, structure, args.delta, args.s_extra,
                                mode=args.mode,
                                samples=args.samples, seed=args.seed)
    elif prop == "pmr":
        rep = verify.pmr_check(code, structure)
    elif prop == "mr-shape":
        rep = verify.mr_shape_check(code, structure)
    elif prop == "staircase":
        rep = verify.staircase_check(code.H, r, t)
    elif prop == "classify-t2":
        rep = verify.classify_rate_optimal_t2(code, r=r)
    else:  # pragma: no cover
        return _fail("usage", f"unknown property {prop}")
    _emit(rep.as_dict(), args.out, argv, args.seed)
    return 0 if rep.verdict else 1


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(args, argv) -> int:
    name = args.name
    if name == "t3-blocklength":
        rows = []
        for (k, r, n) in ((5, 3, 10), (8, 4, 14)):
            rep = B.seq_blocklength_bounds(k, r, 3)
            rows.append({"k": k, "r": r, "prior_bound": rep.value["prior"],
                         "new_bound": rep.value["new"],
                         "catalog_code_n": n})
        _emit({"report": name, "rows": rows}, args.out, argv)
        return 0
    if name == "dim-bounds":
        n, d, q = args.n, args.d, args.q
        rows = []
        for r in range(2, args.rmax + 1):
            row: Dict[str, object] = {"r": r}
            try:
                row["packing_closed_form"] = B.hamming_type_bound(n, r)
            except B.OutOfRegime:
                row["packing_closed_form"] = None
            rep = B.lr_alphabet_dim_bound(n, d, r, q)
            row["msw_shortening"] = rep.value
            row["msw_shortening_note"] = (
                "oracle-dependent: uses closed-form classical bounds, not "
                "best-known-code tables")
            rows.append(row)
        _emit({"report": name, "inputs": {"n": n, "d": d, "q": q},
               "rows": rows}, args.out, argv)
        return 0
    if name == "rate-curve":
        lines = ["r,product_form_bound,transpose_bound"]
        for r in range(1, args.rmax + 1):
            v = B.avail_rate_bounds(r, args.t)
            tr = v["transpose"]
            lines.append(f"{r},{float(v['tamo_barg']):.10f},"
                         f"{float(tr) if tr is not None else ''}")
    elif name == "dmin-curve":
        lines = ["r,n,k,wang,tamo_barg,kruglik_frolov,msw_new"]
        from math import comb
        for r in range(3, args.rmax + 1):
            n = comb(r + 3, 3)
            k = n * r // (r + 3)
            v = B.avail_dmin_bounds(n, k, r, 3)
            lines.append(f"{r},{n},{k},{v['wang']},{v['tamo_barg']},"
                         f"{v['kruglik_frolov']},{v['msw_new']}")
    elif name == "minlen-curve":
        lines = ["r,prior_bound,new_bound"]
        for r in range(2, args.rmax + 1):
            rep = B.seq_blocklength_bounds(args.k, r, 3)
            lines.append(f"{r},{rep.value['prior']},{rep.value['new']}")
    else:
        return _fail("usage", f"unknown report {name}")
    _write("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises `_UsageError` where argparse would print usage and exit 2, so
    that `main` reports bad flags as JSON on stderr.  Subcommand parsers
    are made with the class of their parent, so they raise too."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _int(p, *names, **kw):
    for n in names:
        p.add_argument(n, type=int, **kw)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="lrckit",
        description="erasure-code workbench: constructions, bounds, "
                    "verifiers")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct", help="build a code and emit code JSON")
    c.add_argument("family", choices=[
        "moore", "seq", "near-regular", "turan", "dim-optimal", "t3",
        "pyramid", "tamobarg", "product", "wang", "pgplane", "steiner",
        "pmr-split", "pmr-a1", "mr-r12", "mr-rd2", "mr-coset", "incidence"])
    _int(c, "--r", "--t", "--k", "--n", "--m", "--s", "--beta", "--delta",
         "--psi", "--base-q", "--d-param", "--p", "--mdeg", "--q")
    c.add_argument("--which", choices=["ex1", "ex2"])
    c.add_argument("--aux", choices=["catalog", "random"], default="catalog")
    c.add_argument("--graph", help="named graph for family=incidence")
    c.add_argument("--coeffs", choices=["one", "random"], default="one")
    c.add_argument("--modulus", help="JSON list of modulus coefficients")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out")
    c.set_defaults(func=cmd_construct)

    b = sub.add_parser("bound", help="evaluate a bound formula")
    b.add_argument("name", choices=[
        "lr-singleton", "msw", "hamming-type", "lr-dim", "lr-dmin",
        "seq-rate", "seq-blocklength", "seq-dim-t2", "avail-rate",
        "avail-dmin", "avail-tradeoff", "sa-blocklength", "moore",
        "msr-subpkt", "cutset", "msr-point", "mbr-point"])
    _int(b, "--n", "--k", "--r", "--t", "--d", "--m", "--b1", "--q", "--w",
         "--alpha", "--beta", "--nc")
    b.add_argument("--rc")
    b.add_argument("--rmax")
    b.add_argument("--mode", choices=list(B.MSR_SUBPKT_MODES))
    b.add_argument("--oracle", help="comma list: singleton,hamming,"
                                    "plotkin,griesmer")
    b.add_argument("--out")
    b.set_defaults(func=cmd_bound)

    v = sub.add_parser("verify", help="verify a property of a code file")
    v.add_argument("property", choices=["seq", "avail", "sa", "pmds", "pmr",
                                        "mr-shape", "staircase",
                                        "classify-t2"])
    v.add_argument("--code", required=True)
    _int(v, "--r", "--t", "--delta", "--s-extra")
    v.add_argument("--mode", default="auto",
                   choices=["auto", "exhaustive", "sampled", "certificate"])
    v.add_argument("--samples", type=int, default=verify.DEFAULT_SAMPLES)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--out")
    v.set_defaults(func=cmd_verify)

    rp = sub.add_parser("report", help="bound-comparison tables / CSV data")
    rp.add_argument("name", choices=["t3-blocklength", "dim-bounds",
                                     "rate-curve", "dmin-curve",
                                     "minlen-curve"])
    rp.add_argument("--n", type=int, default=31)
    rp.add_argument("--d", type=int, default=5)
    rp.add_argument("--q", type=int, default=2)
    rp.add_argument("--k", type=int, default=20)
    rp.add_argument("--t", type=int, default=4)
    rp.add_argument("--rmax", type=int, default=20)
    rp.add_argument("--out")
    rp.set_defaults(func=cmd_report)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except _UsageError as e:
        return _fail("usage", str(e))
    except SystemExit as e:  # --help printed its text
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args, argv)
    except (ValueError, LookupError, RuntimeError) as e:
        return _fail(type(e).__name__, str(e))
    except TypeError as e:
        # almost always a missing required flag reaching arithmetic as None
        return _fail("usage", f"missing or malformed flags: {e}")
    except OSError as e:
        return _fail("io", str(e))
    except Exception as e:  # a defect: still JSON on stderr, never exit 1
        import traceback  # only here: importing it costs every start 3 ms
        return _fail("internal", f"{type(e).__name__}: {e}",
                     traceback=traceback.format_exc())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
