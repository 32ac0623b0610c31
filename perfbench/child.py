"""One workload iteration in a fresh interpreter.

Usage: python3 child.py SPEC_JSON, run with the working directory set to the
iteration's scratch directory.  SPEC_JSON holds `src` (the directory holding
the `lrckit` package), `jobs` (a list of argv lists) and `trace` (bool); with
`trace`, also `probe_seed` and `spans` (where to write the spans).

Prints one JSON line: `ready` (time.monotonic() once lrckit is imported and
the first job is ready), `setup_kernel_s` (the reference kernel's time right
after that), per-job `rc`, `wall_s`, `cpu_s`, `kernel_s` (the mean kernel
time before and after the job, see reference.py), `stdout`, `stderr` and
`exception`, and `peak_rss_mb` of this process.  A job that raises is
recorded, not fatal.

`peak_rss_mb` is VmHWM from /proc/self/status, the high-water mark of the
address space that exec gave this interpreter.  `ru_maxrss` survives exec on
Linux, so it can report the parent's peak instead; it is kept as
`ru_maxrss_mb`, for the run record only.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

from reference import kernel_s


def vm_hwm_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import lrckit.cli
    if not os.path.abspath(lrckit.__file__).startswith(
            os.path.abspath(spec["src"]) + os.sep):
        sys.stderr.write(f"lrckit imported from {lrckit.__file__}\n")
        return 2
    jobs = spec["jobs"]
    ready = time.monotonic()
    kernels = [kernel_s()]

    tracer = None
    result = {"ready": ready, "setup_kernel_s": kernels[0]}
    if spec["trace"]:
        from probe import field_probe
        from tracing import Tracer
        result["field_ns"] = field_probe(lrckit.field_make,
                                         spec["probe_seed"])
        tracer = Tracer()
        tracer.install(lrckit)

    out = []
    for i, argv in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        stdout, stderr = io.StringIO(), io.StringIO()
        rc, exc = None, None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                rc = lrckit.cli.main(argv)
        except Exception as e:  # counted as a failed job; the run goes on
            exc = f"{type(e).__name__}: {e}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        kernels.append(kernel_s())
        out.append({"rc": rc, "wall_s": wall, "cpu_s": cpu,
                    "kernel_s": (kernels[-2] + kernels[-1]) / 2,
                    "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
                    "exception": exc})
    result["jobs"] = out
    result["peak_rss_mb"] = vm_hwm_kb() / 1024
    result["ru_maxrss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.write_spans(spec["spans"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
