"""Field probe: the cost of one public `GF.add` / `GF.mul` call, per field
kind, on a fixed seeded operand stream.

A traced run only counts field operations (a wrapper per ~100 ns call would
measure the wrapper); this probe supplies their times.  Each figure is the
median over repeats of a plain Python loop of calls, divided by the number of
calls, so it includes the call and loop overhead a caller pays.  The `oddext`
figure averages the two odd-characteristic extensions.
"""

from __future__ import annotations

import random
import statistics
import time

PROBE_FIELDS = {"gf2m": ((2, 6),), "prime": ((17, 1),),
                "oddext": ((5, 2), (13, 3))}
OPS = 20000
REPEATS = 5


def field_probe(field_make, seed: int) -> dict:
    rng = random.Random(seed)
    out = {}
    for kind, fields in PROBE_FIELDS.items():
        ns = {"add": [], "mul": []}
        for p, m in fields:
            gf = field_make(p, m)
            pairs = [(rng.randrange(gf.q), rng.randrange(gf.q))
                     for _ in range(OPS)]
            for op in ns:
                f = getattr(gf, op)
                times = []
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    for a, b in pairs:
                        f(a, b)
                    times.append(time.perf_counter() - t0)
                ns[op].append(statistics.median(times) / OPS * 1e9)
        for op, values in ns.items():
            out[f"field.{op}_ns.{kind}"] = statistics.fmean(values)
    return out
