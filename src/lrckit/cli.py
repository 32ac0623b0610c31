"""Command-line front end: construct codes, evaluate bounds, verify
properties, and reproduce the bound-comparison tables and figure data as
CSV.  Every output embeds a run manifest (command line, version, seeds,
Python version and platform, and for `verify` the SHA-256 of the code file
read) so randomized runs can be replayed exactly.  Every JSON output,
Fractions included, is written by `lrckit.io.dump` and streamed as it is
made, a code's matrix straight from its rows.

Each subcommand is a row of a table (`FAMILIES`, `BOUNDS`, `PROPERTIES`,
`REPORTS`): the flags it reads and the library call it makes.  Only the row
run gets a parser, so a missing or foreign flag is a usage error naming it.

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage or input errors, or an internal error (machine-readable JSON on
stderr in both cases).  The JSON's `error` is one of a closed set: `usage`,
`io`, `internal`, `ValueError`, or the name of one of the `ERRORS` classes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from typing import List, Optional

from . import bounds as B
from . import graphs
from . import io as lio
from . import lr_codes, mr_codes, seq_codes, verify
from .code import (BudgetExceeded, ConstructionFailed, NotInCatalog,
                   SearchExhausted)
from .field import GF, DivideByZero, FieldError, field_make, field_of_size
from .matrix import MatrixError
from .version import __version__

#: lrckit's failure kinds, one class each; exit 2 reports the class name
ERRORS = (FieldError, DivideByZero, MatrixError, graphs.GraphError,
          lio.SchemaError, B.BoundError, NotInCatalog, SearchExhausted,
          BudgetExceeded, ConstructionFailed)


def _manifest(args: List[str], seed: Optional[int] = None,
              **extra) -> dict:
    out = {"tool": "lrckit", "version": __version__,
           "command": list(args), "timestamp": int(time.time()),
           "python": sys.version.split()[0], "platform": sys.platform,
           **extra}
    if seed is not None:
        out["seed"] = seed
    return out


@contextmanager
def _output(out: Optional[str]):
    """A `put` for ASCII bytes, to stdout or to the file `out` as they are
    made; a file's name and SHA-256 are echoed on stdout at the end."""
    if not out:
        yield lambda chunk: sys.stdout.write(chunk.decode())
        return
    digest = hashlib.sha256()
    with open(out, "wb") as fh:
        def put(chunk: bytes) -> None:
            fh.write(chunk)
            digest.update(chunk)
        yield put
    print(json.dumps({"written": out, "sha256": digest.hexdigest()}))


def _emit(payload: dict, out: Optional[str], argv: List[str],
          seed: Optional[int] = None, **manifest) -> None:
    payload = dict(payload)
    payload["manifest"] = _manifest(argv, seed, **manifest)
    with _output(out) as put:
        lio.dump(payload, put)
        put(b"\n")


def _fail(kind: str, message: str, **extra) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message,
                                 **extra}) + "\n")
    return 2


def _field(q=None, p=None, mdeg=None, modulus=None) -> GF:
    """GF(q), or GF(p^mdeg); `modulus` is a JSON list of coefficients."""
    try:
        modulus = json.loads(modulus) if modulus else None
    except json.JSONDecodeError:
        raise FieldError(f"--modulus {modulus!r} is not JSON") from None
    if q:
        return field_of_size(q, modulus)
    if p is None:
        raise ValueError("specify the field via --q or --p/--mdeg")
    return field_make(p, mdeg or 1, modulus)


def graph(name: str) -> graphs.Graph:
    """The graph `--graph` names: k4, petersen, heawood, hoffman-singleton,
    cycle:N or complete:N."""
    kind, _, size = {"k4": "complete:4"}.get(name, name).partition(":")
    if kind in ("cycle", "complete") and size:
        return getattr(graphs, kind + "_graph")(int(size))
    if kind not in ("petersen", "heawood", "hoffman-singleton") or size:
        raise ValueError(f"unknown graph {name!r}")
    return getattr(graphs, kind.replace("-", "_") + "_graph")()


def _oracle(oracle: Optional[str]) -> B.ClassicalOracle:
    return B.ClassicalOracle(oracle.split(",")) if oracle else \
        B.DEFAULT_ORACLE


# ---------------------------------------------------------------------------
# the rows: name -> (flags read, call).  A call looks its library function
# up when it runs, so that wrappers put on the modules see every call.
# ---------------------------------------------------------------------------

_FIELD = " q p mdeg modulus"  # the flags `_field` reads

FAMILIES = {
    "moore": ("r t", lambda r, t: seq_codes.moore_code(r, t)),
    "seq": ("r t aux seed", lambda r, t, aux, seed:
            seq_codes.seq_general_code(r, t, aux=aux, seed=seed)),
    "near-regular": ("k r", lambda k, r: seq_codes.t2_near_regular_code(k, r)),
    "turan": ("r beta", lambda r, beta: seq_codes.t2_turan_code(r, beta)),
    "dim-optimal": ("m r", lambda m, r: seq_codes.t2_dim_optimal_code(m, r)),
    "t3": ("which", lambda which: seq_codes.t3_catalog(which)),
    "pyramid": ("n k r" + _FIELD, lambda n, k, r, **f:
                lr_codes.pyramid_code(n, k, r, _field(**f))),
    "tamobarg": ("n k r" + _FIELD, lambda n, k, r, **f:
                 lr_codes.tamo_barg_code(n, k, r, _field(**f))),
    "product": ("r t", lambda r, t: lr_codes.product_avail_code(r, t)),
    "wang": ("r t", lambda r, t: lr_codes.wang_avail_code(r, t)),
    "pgplane": ("s", lambda s: lr_codes.pg_plane_sa_code(s)),
    "steiner": ("s", lambda s: lr_codes.steiner_sa_code(s)),
    "pmr-split": ("m r delta" + _FIELD, lambda m, r, delta, **f:
                  mr_codes.pmr_parity_split(m, r, delta, _field(**f))),
    # returns (code, report): the code JSON carries the verdict
    "pmr-a1": ("m r delta base-q seed", lambda m, r, delta, base_q, seed:
               mr_codes.pmr_general_a1(m, r, delta, base_q, seed=seed)),
    "mr-r12": ("m r", lambda m, r: mr_codes.mr_r12(m, r)),
    "mr-rd2": ("m r delta psi", lambda m, r, delta, psi:
               mr_codes.mr_rdelta2(m, r, delta, psi)),
    "mr-coset": ("n d-param" + _FIELD, lambda n, d_param, **f:
                 mr_codes.mr_r2_coset_search(n, d_param, _field(**f))),
    "incidence": ("graph coeffs seed" + _FIELD, lambda graph, coeffs, seed,
                  **f: graphs.incidence_code(
                      graph, _field(**f) if f["q"] or f["p"] else
                      field_make(2), coefficients=coeffs, seed=seed)),
}

# A call that returns a BoundReport has its `detail` emitted too.
BOUNDS = {
    "lr-singleton": ("n k r", lambda n, k, r: B.lr_singleton_bound(n, k, r)),
    "msw": ("n b1 r", lambda n, b1, r: list(B.msw_sequence(n, b1, r))),
    "hamming-type": ("n r", lambda n, r: B.hamming_type_bound(n, r)),
    "lr-dim": ("n d r q oracle", lambda n, d, r, q, oracle:
               B.lr_alphabet_dim_bound(n, d, r, q, _oracle(oracle))),
    "lr-dmin": ("n k r q oracle", lambda n, k, r, q, oracle:
                B.lr_alphabet_dmin_bound(n, k, r, q, _oracle(oracle))),
    "seq-rate": ("r t", lambda r, t: B.seq_rate_bound(r, t)),
    "seq-blocklength": ("k r t", lambda k, r, t:
                        B.seq_blocklength_bounds(k, r, t).value),
    "seq-dim-t2": ("m r", lambda m, r: B.seq_dim_bound_t2(m, r)),
    "avail-rate": ("r t", lambda r, t: B.avail_rate_bounds(r, t)),
    "avail-dmin": ("n k r t", lambda n, k, r, t:
                   B.avail_dmin_bounds(n, k, r, t)),
    "avail-tradeoff": ("n k nc rc rmax", lambda n, k, nc, rc, rmax:
                       B.avail_product_tradeoff(n, k, nc, rc, rmax)),
    "sa-blocklength": ("r t", lambda r, t: B.sa_blocklength_bound(r, t)),
    "moore": ("r t", lambda r, t: B.moore_bound(r, t)),
    "msr-subpkt": ("n k d w mode", lambda n, k, d, w, mode:
                   B.msr_subpkt_bounds(n, k, d, w, mode)),
    "cutset": ("n k d alpha beta", lambda n, k, d, alpha, beta:
               B.cutset_bound(n, k, d, alpha, beta)),
    "msr-point": ("n k d", lambda n, k, d: B.msr_point(n, k, d)),
    "mbr-point": ("k d beta", lambda k, d, beta: B.mbr_point(k, d, beta)),
}

# `code` is the loaded code file; r, t and the local structure default to
# what it declares.
PROPERTIES = {
    "seq": ("code r t mode samples seed jobs",
            lambda code, r, t, mode, samples, seed, jobs:
            verify.seq_recovery_check(code, r, t, mode, samples, seed,
                                      jobs=jobs)),
    "avail": ("code r t", lambda code, r, t:
              verify.availability_check(code, r, t)),
    "sa": ("code r t", lambda code, r, t:
           verify.sa_check(code.H, *verify.declared(code, r=r, t=t))),
    "pmds": ("code delta s-extra mode samples seed",
             lambda code, delta, s_extra, mode, samples, seed:
             verify.pmds_check(code, None, delta, s_extra, mode,
                               samples=samples, seed=seed)),
    "pmr": ("code", lambda code: verify.pmr_check(code)),
    "mr-shape": ("code", lambda code: verify.mr_shape_check(code)),
    "staircase": ("code r t", lambda code, r, t:
                  verify.staircase_check(code.H,
                                         *verify.declared(code, r=r, t=t))),
    "classify-t2": ("code r", lambda code, r:
                    verify.classify_rate_optimal_t2(code, r)),
}


def _t3_blocklength() -> dict:
    rows = []
    for (k, r, n) in ((5, 3, 10), (8, 4, 14)):
        rep = B.seq_blocklength_bounds(k, r, 3)
        rows.append({"k": k, "r": r, "prior_bound": rep.value["prior"],
                     "new_bound": rep.value["new"], "catalog_code_n": n})
    return {"rows": rows}


def _dim_bounds(n: int, d: int, q: int, rmax: int) -> dict:
    note = ("oracle-dependent: uses closed-form classical bounds, not "
            "best-known-code tables")
    rows = []
    for r in range(2, rmax + 1):
        try:
            packing = B.hamming_type_bound(n, r)
        except B.BoundError:
            packing = None
        rows.append({"r": r, "packing_closed_form": packing,
                     "msw_shortening": B.lr_alphabet_dim_bound(n, d, r, q)
                     .value, "msw_shortening_note": note})
    return {"inputs": {"n": n, "d": d, "q": q}, "rows": rows}


def _rate_curve(t: int, rmax: int) -> List[str]:
    lines = ["r,product_form_bound,transpose_bound"]
    for r in range(1, rmax + 1):
        v = B.avail_rate_bounds(r, t)
        tr = v["transpose"]
        lines.append(f"{r},{float(v['tamo_barg']):.10f},"
                     f"{float(tr) if tr is not None else ''}")
    return lines


def _dmin_curve(rmax: int) -> List[str]:
    from math import comb
    lines = ["r,n,k,wang,tamo_barg,kruglik_frolov,msw_new"]
    for r in range(3, rmax + 1):
        n = comb(r + 3, 3)
        k = n * r // (r + 3)
        v = B.avail_dmin_bounds(n, k, r, 3)
        lines.append(f"{r},{n},{k},{v['wang']},{v['tamo_barg']},"
                     f"{v['kruglik_frolov']},{v['msw_new']}")
    return lines


def _minlen_curve(k: int, rmax: int) -> List[str]:
    lines = ["r,prior_bound,new_bound"]
    for r in range(2, rmax + 1):
        rep = B.seq_blocklength_bounds(k, r, 3)
        lines.append(f"{r},{rep.value['prior']},{rep.value['new']}")
    return lines


# A report is a JSON table (a dict) or CSV lines.
REPORTS = {"t3-blocklength": ("", _t3_blocklength),
           "dim-bounds": ("n d q rmax", _dim_bounds),
           "rate-curve": ("t rmax", _rate_curve),
           "dmin-curve": ("rmax", _dmin_curve),
           "minlen-curve": ("k rmax", _minlen_curve)}

TABLES = {"construct": FAMILIES, "bound": BOUNDS, "verify": PROPERTIES,
          "report": REPORTS}
HELP = {"construct": "build a code and emit code JSON",
        "bound": "evaluate a bound formula",
        "verify": "verify a property of a code file",
        "report": "bound-comparison tables / CSV data"}

# argparse keywords of each command's flags; a flag not listed is a
# required integer.
_OPT_INT = {"type": int}
_SEED = {"type": int, "default": 0}
FLAGS = {
    "construct": {
        "which": {"choices": ["ex1", "ex2"], "required": True},
        "aux": {"choices": ["catalog", "random"], "default": "catalog"},
        "graph": {"type": graph, "required": True, "help": "k4, petersen, "
                  "heawood, hoffman-singleton, cycle:N or complete:N"},
        "coeffs": {"choices": ["one", "random"], "default": "one"},
        "seed": _SEED, "q": _OPT_INT, "p": _OPT_INT, "mdeg": _OPT_INT,
        "modulus": {"help": "JSON list of modulus coefficients"}},
    "bound": {
        "w": _OPT_INT, "rc": {"required": True}, "rmax": {"required": True},
        "mode": {"choices": list(B.MSR_SUBPKT_MODES), "required": True},
        "oracle": {"help": "comma list: singleton,hamming,plotkin,griesmer"}},
    "verify": {
        "code": {"required": True, "help": "code JSON file"},
        "r": _OPT_INT, "t": _OPT_INT, "seed": _SEED,
        "mode": {"choices": ["auto", "exhaustive", "sampled", "certificate"],
                 "default": "auto"},
        "samples": {"type": int, "default": verify.DEFAULT_SAMPLES},
        "jobs": {"type": int, "default": 1}},
    "report": {flag: {"type": int, "default": value} for flag, value in
               dict(n=31, d=5, q=2, k=20, t=4, rmax=20).items()},
}


def _call(args, **given):
    """The row's call on its parsed flags, `given` overriding them."""
    flags = {k: v for k, v in vars(args).items()
             if k not in ("cmd", "name", "out")}
    return TABLES[args.cmd][args.name][1](**{**flags, **given})


def cmd_construct(args, argv) -> int:
    made = _call(args)
    code, report = made if isinstance(made, tuple) else (made, None)
    payload = lio.code_to_json(code)
    if report is not None:
        payload["verdict"] = report.as_dict()
    _emit(payload, args.out, argv, getattr(args, "seed", 0))
    return 0 if report is None or report.verdict else 1


def cmd_bound(args, argv) -> int:
    val = _call(args)
    rep = {"bound": args.name,
           "inputs": {k: v for k, v in vars(args).items()
                      if k not in ("cmd", "name", "out") and
                      v is not None}}
    if isinstance(val, B.BoundReport):
        val, rep["detail"] = val.value, val.detail
    rep["value"] = val
    _emit(rep, args.out, argv)
    return 0


def cmd_verify(args, argv) -> int:
    code, digest = lio.load_code(args.code)
    rep = _call(args, code=code)
    _emit(rep.as_dict(), args.out, argv, getattr(args, "seed", 0),
          input_sha256=digest)
    return 0 if rep.verdict else 1


def cmd_report(args, argv) -> int:
    out = _call(args)
    if isinstance(out, dict):
        _emit({"report": args.name, **out}, args.out, argv)
    else:
        with _output(args.out) as put:
            put(("\n".join(out) + "\n").encode())
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises `_UsageError` where argparse would print usage and exit 2, so
    that `main` reports bad flags as JSON on stderr; so do its subparsers."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """`lrckit COMMAND NAME ...`: the flags after NAME go to its row.  Built
    once per process and shared by every call: do not change it."""
    ap = _Parser(prog="lrckit", description="erasure-code workbench: "
                 "constructions, bounds, verifiers")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for cmd, table in TABLES.items():
        p = sub.add_parser(cmd, help=HELP[cmd])
        p.add_argument("name", choices=list(table))
        p.add_argument("flags", nargs=argparse.REMAINDER,
                       help=f"see lrckit {cmd} NAME --help")
    return ap


@functools.cache
def row_parser(cmd: str, name: str) -> argparse.ArgumentParser:
    """The parser of one row: the flags its call reads, and --out.  Built
    once per process and row, and shared: do not change it."""
    p = _Parser(prog=f"lrckit {cmd} {name}")
    for flag in TABLES[cmd][name][0].split():
        p.add_argument("--" + flag, **FLAGS[cmd].get(
            flag, {"type": int, "required": True}))
    p.add_argument("--out", help="write here instead of to stdout")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command line; its exit code.  The parsers are built once per
    process and shared by every call, which leaves nothing in them."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        top = build_parser().parse_args(argv)
        args = row_parser(top.cmd, top.name).parse_args(
            top.flags, argparse.Namespace(cmd=top.cmd, name=top.name))
        run = {"construct": cmd_construct, "bound": cmd_bound,
               "verify": cmd_verify, "report": cmd_report}[args.cmd]
        return run(args, argv)
    except _UsageError as e:
        return _fail("usage", str(e))
    except SystemExit as e:  # --help printed its text
        return 2 if e.code not in (0, None) else 0
    except ERRORS as e:
        return _fail(type(e).__name__, str(e))
    except ValueError as e:  # an argument outside its domain
        return _fail("ValueError", str(e))
    except OSError as e:
        return _fail("io", str(e))
    except Exception as e:  # a defect: still JSON on stderr, never exit 1
        # the frames read by hand: importing `traceback` costs every start
        # 3 ms, and after a MemoryError the import can raise another
        lines, tb = ["Traceback (most recent call last):"], e.__traceback__
        while tb is not None:
            code = tb.tb_frame.f_code
            lines.append(f'  File "{code.co_filename}", line {tb.tb_lineno},'
                         f' in {code.co_name}')
            tb = tb.tb_next
        message = f"{type(e).__name__}: {e}"
        return _fail("internal", message,
                     traceback="\n".join(lines + [message]))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
