"""Spans around lrckit's public functions, installed from outside the package.

`Tracer.install` replaces every public function of the traced modules by a
wrapper that records a span, in every lrckit namespace that holds it: modules
import names directly (`verify` does `from .matrix import mat_rank`), so
patching the defining module alone would miss those calls.  A few methods get
spans too (the `Mat`, `LinearCode` and `Graph` constructors and
`LinearCode.full_rank_checks`).  `GF.add`, `GF.mul` and `GF.inv` take about
100 ns each, so timing every call would measure the wrapper: they are only
counted, by field kind.  `Tracer.uninstall` puts every original back and
fails if any wrapper is left.

A span is `[name, start, end, parent index, job index, outer]`; `outer` is
false for a span nested in another span of the same name, so that summed
durations do not count recursion twice.  A span's self time is its duration
minus that of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from collections import defaultdict

# Layer names are lrckit's module names.
TRACED_MODULES = ("cli", "io", "matrix", "code", "graphs", "field", "verify",
                  "seq_codes", "mr_codes", "lr_codes", "bounds")
SPANNED_METHODS = (("matrix", "Mat", "__init__", "matrix.Mat"),
                   ("code", "LinearCode", "__init__", "code.LinearCode"),
                   ("code", "LinearCode", "full_rank_checks",
                    "code.full_rank_checks"),
                   ("graphs", "Graph", "__init__", "graphs.Graph"))
FIELD_KINDS = ("gf2m", "prime", "oddext")
COUNTED_FIELD_OPS = ("add", "mul", "inv")
# Spans that replay erasure patterns, used for verify.us_per_pattern, and
# the spans of their per-job setup: the dual supports for peeling, the
# full-rank H for pmds.  Replay time is a replay span's end minus the end of
# the last setup span inside it, so the incidence-graph read, the certificate
# and the setup do not count as replay.
REPLAY_SPANS = ("verify.seq_recovery_check", "verify.pmds_check")
REPLAY_SETUP_SPANS = ("verify.low_weight_dual_supports",
                      "code.full_rank_checks")
_MARK = "__perfbench_wrapper__"


def _namespaces(pkg_name: str) -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == pkg_name or
                                  name.startswith(pkg_name + "."))]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.job = None
        self.entries_built = 0
        self.field_calls = [0] * (len(COUNTED_FIELD_OPS) * len(FIELD_KINDS))
        self._stack: list = []
        self._active: dict = defaultdict(int)
        self._patches: list = []
        self._pkg = None

    # -- wrappers --

    def _span(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job,
                   not active[name]]
            active[name] += 1
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                active[name] -= 1

        setattr(wrapper, _MARK, True)
        return wrapper

    def _rank_wrapper(self, fn):
        gf2 = self._span("matrix.mat_rank.gf2", fn)
        gfq = self._span("matrix.mat_rank.gfq", fn)

        @functools.wraps(fn)
        def mat_rank(M):
            return (gf2 if M.gf.q == 2 else gfq)(M)

        setattr(mat_rank, _MARK, True)
        return mat_rank

    def _mat_init_wrapper(self, fn):
        span = self._span("matrix.Mat", fn)

        @functools.wraps(fn)
        def __init__(mat, *args, **kwargs):
            span(mat, *args, **kwargs)
            self.entries_built += mat.rows * mat.cols

        setattr(__init__, _MARK, True)
        return __init__

    def _field_counter(self, op, fn):
        calls = self.field_calls
        base = COUNTED_FIELD_OPS.index(op) * len(FIELD_KINDS)
        # The kind index follows FIELD_KINDS; GF(2) counts as gf2m.

        if op == "inv":
            def counted(gf, a):
                calls[base + (0 if gf.p == 2 else
                              1 if gf.m == 1 else 2)] += 1
                return fn(gf, a)
        else:
            def counted(gf, a, b):
                calls[base + (0 if gf.p == 2 else
                              1 if gf.m == 1 else 2)] += 1
                return fn(gf, a, b)
        functools.update_wrapper(counted, fn)
        setattr(counted, _MARK, True)
        return counted

    # -- install / uninstall --

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self, pkg) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._pkg = pkg
        mods = {layer: sys.modules[f"{pkg.__name__}.{layer}"]
                for layer in TRACED_MODULES}
        wrappers = {}
        for layer, mod in mods.items():
            for name, fn in vars(mod).items():
                if (name.startswith("_")
                        or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                if (layer, name) == ("matrix", "mat_rank"):
                    wrappers[fn] = self._rank_wrapper(fn)
                else:
                    wrappers[fn] = self._span(f"{layer}.{name}", fn)
        for ns in _namespaces(pkg.__name__):
            for attr, val in list(vars(ns).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._patch(ns, attr, wrappers[val])
        for layer, cls_name, attr, span_name in SPANNED_METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = vars(cls)[attr]
            new = (self._mat_init_wrapper(fn) if span_name == "matrix.Mat"
                   else self._span(span_name, fn))
            self._patch(cls, attr, new)
        gf_cls = mods["field"].GF
        for op in COUNTED_FIELD_OPS:
            self._patch(gf_cls, op, self._field_counter(op, vars(gf_cls)[op]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        left = leftover_wrappers(self._pkg.__name__)
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")

    # -- results --

    def summary(self) -> dict:
        """Per-layer metrics over every recorded span, plus the replay time
        of each job (for verify.us_per_pattern)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        count = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        setup_end = {}
        for name, _start, end, parent, _job, _outer in spans:
            if name in REPLAY_SETUP_SPANS:
                while parent >= 0:
                    if spans[parent][0] in REPLAY_SPANS and spans[parent][5]:
                        setup_end[parent] = max(setup_end.get(parent, end),
                                                end)
                    parent = spans[parent][3]
        replay_by_job = defaultdict(float)
        for i, (name, start, end, _parent, job, outer) in enumerate(spans):
            dur = end - start
            own = dur - child[i]
            count[name] += 1
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
            if outer:
                total[name] += dur
                if name in REPLAY_SPANS:
                    replay_by_job[job] += end - setup_end.get(i, start)
        m = {
            "cli.self_s": layer_self["cli"],
            "io.load_s": total["io.load"],
            "io.code_from_json_s": total["io.code_from_json"],
            "io.code_to_json_s": total["io.code_to_json"],
            "matrix.mat_builds": count["matrix.Mat"],
            "matrix.mat_build_s": total["matrix.Mat"],
            "matrix.entries_built": self.entries_built,
            "matrix.rank_gf2_calls": count["matrix.mat_rank.gf2"],
            "matrix.rank_gf2_s": total["matrix.mat_rank.gf2"],
            "matrix.rank_gfq_calls": count["matrix.mat_rank.gfq"],
            "matrix.rank_gfq_s": total["matrix.mat_rank.gfq"],
            "matrix.rref_s": total["matrix.rref"],
            "matrix.nullspace_s": total["matrix.mat_nullspace"],
            "code.linear_code_builds": count["code.LinearCode"],
            "code.linear_code_build_s": total["code.LinearCode"],
            "code.full_rank_checks_calls": count["code.full_rank_checks"],
            "code.full_rank_checks_s": total["code.full_rank_checks"],
            "code.min_distance_s": total["code.min_distance"],
            "code.is_mds_s": total["code.is_mds"],
            "code.puncture_s": total["code.puncture"],
            "graphs.graph_builds": count["graphs.Graph"],
            "graphs.graph_build_s": total["graphs.Graph"],
            "graphs.girth_calls": count["graphs.girth"],
            "graphs.girth_s": total["graphs.girth"],
            "graphs.shortest_cycle_calls": count["graphs.shortest_cycle"],
            "graphs.shortest_cycle_s": total["graphs.shortest_cycle"],
            "graphs.edge_color_s": total["graphs.edge_color_bipartite"],
            "graphs.regular_girth_self_s":
                self_s["graphs.bipartite_regular_girth"],
            "verify.seq_self_s": self_s["verify.seq_recovery_check"],
            "verify.dual_supports_s":
                total["verify.low_weight_dual_supports"],
            "verify.pmds_self_s": self_s["verify.pmds_check"],
            "verify.pmr_self_s": self_s["verify.pmr_check"],
            "seq_codes.self_s": layer_self["seq_codes"],
            "mr_codes.self_s": layer_self["mr_codes"],
        }
        for oi, op in enumerate(COUNTED_FIELD_OPS):
            for ki, kind in enumerate(FIELD_KINDS):
                m[f"field.{op}_calls.{kind}"] = \
                    self.field_calls[oi * len(FIELD_KINDS) + ki]
        return {"metrics": m,
                "layer_self_s": dict(layer_self),
                "replay_s_by_job": {str(k): v
                                    for k, v in replay_by_job.items()}}

    def write_spans(self, path) -> None:
        """One JSON object per line; `trace` is the job index, shared by all
        spans of one job."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, job, _outer) in \
                    enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "trace": job,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


def leftover_wrappers(pkg_name: str) -> list:
    """Names in any lrckit namespace or class that still hold a wrapper."""
    left = []
    for ns in _namespaces(pkg_name):
        for attr, val in vars(ns).items():
            if getattr(val, _MARK, False):
                left.append(f"{ns.__name__}.{attr}")
            elif isinstance(val, type):
                left += [f"{ns.__name__}.{attr}.{a}"
                         for a, v in vars(val).items()
                         if getattr(v, _MARK, False)]
    return left
