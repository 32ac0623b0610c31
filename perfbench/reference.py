"""Reference kernel that calibrates wall times against the host's speed.

On a shared 2-core host the speed of one pure-Python process drifts by up
to 2x, in phases of ten seconds to minutes, with no steal time visible in
the guest; the same `pmds_check` took 0.9 s to 1.8 s in consecutive calls.
Medians within a run do not remove phases that outlast the run, so the
end-to-end times are calibrated: each job is bracketed, in the same
process, by runs of this fixed kernel, and its wall time is scaled by
REFERENCE_S over the mean kernel time around it.  The result reads as
seconds on a host where the kernel takes REFERENCE_S.  The kernel does not
use lrckit, so a change to lrckit moves the calibrated time in full; raw
wall and kernel times stay in the run record.
"""

import time

# Median kernel time on the 2-core sandbox (Python 3.11.7) the bounds were
# set on, over the runs used to set them.
REFERENCE_S = 0.08

_EXP = [pow(3, i, 257) for i in range(256)]


def _kernel() -> int:
    """Table lookups, dict updates and tuple building: the operations
    lrckit's field, matrix and graph code spends its time on."""
    acc = 0
    table = {}
    for i in range(240000):
        a = (i * 2654435761) & 255
        acc ^= _EXP[(a + i) & 255]
        table[a] = table.get(a, 0) + 1
    rows = [tuple((i * j) & 1 for j in range(48)) for i in range(2400)]
    return acc + len(rows) + len(table)


def kernel_s() -> float:
    """Wall seconds of one run of the kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def calibrated(wall_s: float, kernel: float) -> float:
    return wall_s * REFERENCE_S / kernel
