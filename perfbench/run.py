"""lrckit benchmark: closed-loop CLI workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload (see workloads.py) is one client running a fixed sequence of
`lrckit.cli.main(argv)` jobs in order, each on the files the previous job
wrote.  Every iteration of the sequence runs in a fresh interpreter
(child.py), so that peak memory belongs to that workload; there is one
process and no `--jobs`.  Iterations repeat until the next one would end
after S seconds (at least one), and each metric is the median over them.
`tiny=True` in `run()` gives toy sizes, for the benchmark's own tests.
Every job's output is checked (`check_job`); a job that fails the check, or
raises, counts in `failed`.

--trace 0 reports the end-to-end metrics: `construct_s` and `verify_s` (wall
seconds summed over the construct and verify jobs of one iteration),
`peak_rss_mb` of the iteration's process (VmHWM of its own address space),
and `setup_s` (from just before the interpreter starts until lrckit is
imported and the first job is ready, the median over every iteration and
SETUP_PROBES extra start-ups).  Half the extra start-ups run before the
iterations and half after; the iterations stop early enough that the
trailing half, timed like the leading half, still ends within S.  The three
times are calibrated against the host's speed (reference.py); their raw
medians are in the run record.

--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones (tracing.py, probe.py), with
`trace.overhead_s`, the traced minus the untraced job time (calibrated).
Spans are written to .perfbench_out/.

The line before the result is a run record: git SHA, Python, platform,
nproc, the seed, and for each job its argv, exit code, wall and CPU seconds,
built code size (n and rows of H) and bytes read or written.
Scratch files live in .perfbench_work/ and are removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from reference import calibrated

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_PROBES = 14
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def code_digest(obj: dict) -> str:
    """SHA-256 of code JSON without its run manifest, in canonical form."""
    body = {k: v for k, v in obj.items() if k != "manifest"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _flag(argv: list, name: str) -> str:
    return argv[argv.index(name) + 1]


def _patterns(report: dict) -> int:
    """Erasure patterns a verify report says it replayed."""
    budgets = report.get("budgets", {})
    if report.get("property") == "partial-mds":
        return budgets.get("checked", 0)
    if report.get("mode") == "sampled":
        if "failed_at" in budgets:
            return budgets["failed_at"] + 1
        return budgets.get("samples", 0)
    if report.get("mode") == "exhaustive":
        return budgets.get("patterns", 0)
    return 0


def check_job(job: dict, out: dict, workdir: Path, seq_rate_bound):
    """Check one job's output against its expectations in `job`.

    Returns (errors, record); the record holds what the run record keeps.
    """
    argv, rc = job["argv"], out["rc"]
    errors = []
    record = {"argv": argv, "rc": rc, "wall_s": out["wall_s"],
              "cpu_s": out["cpu_s"], "kernel_s": out["kernel_s"]}
    if out["exception"]:
        errors.append(f"raised {out['exception']}")
    if rc != job["rc"]:
        errors.append(f"exit {rc}, expected {job['rc']}")
    if rc == 2:
        try:
            err = json.loads(out["stderr"])
            if "error" not in err:
                raise ValueError
        except ValueError:
            errors.append("exit 2 without a JSON error on stderr")
        return errors, record
    if rc not in (0, 1):
        return errors, record
    try:
        if argv[0] == "verify":
            _check_verify(job, out, workdir, rc, errors, record)
        else:
            _check_construct(job, out, workdir, rc, errors, record,
                             seq_rate_bound)
    except (OSError, ValueError, KeyError, TypeError) as e:
        errors.append(f"unreadable output: {type(e).__name__}: {e}")
    return errors, record


def _check_verify(job, out, workdir, rc, errors, record):
    record["bytes_read"] = (workdir / _flag(job["argv"], "--code")).stat() \
        .st_size
    report = json.loads(out["stdout"])
    record["patterns"] = _patterns(report)
    if rc == 1 and not report.get("witness"):
        errors.append("exit 1 without a witness")
    if report["verdict"] is not job["verdict"]:
        errors.append(f"verdict {report['verdict']}, expected "
                      f"{job['verdict']}")
    if report["mode"] != job["mode"]:
        errors.append(f"mode {report['mode']}, expected {job['mode']}")
    if "witness_len" in job and len(report["witness"] or ()) != \
            job["witness_len"]:
        errors.append(f"witness {report['witness']}, expected "
                      f"{job['witness_len']} elements")
    budgets = report["budgets"]
    for key in ("seed", "samples", "checked"):
        if key in job and budgets.get(key) != job[key]:
            errors.append(f"report {key} {budgets.get(key)}, expected "
                          f"{job[key]}")


def _check_construct(job, out, workdir, rc, errors, record,
                     seq_rate_bound):
    path = workdir / _flag(job["argv"], "--out")
    data = path.read_bytes()
    written = json.loads(out["stdout"])
    if written.get("sha256") != hashlib.sha256(data).hexdigest():
        errors.append("file differs from the digest the CLI reported")
    obj = json.loads(data)
    record.update(n=obj["cols"], h_rows=len(obj["rows"]),
                  bytes_written=len(data))
    del data
    if "digest" in job and code_digest(obj) != job["digest"]:
        errors.append(f"code digest {code_digest(obj)}, pinned "
                      f"{job['digest']}")
    if "rate" in job:
        params = obj["params"]
        if params["n"] != obj["cols"] or \
                Fraction(params["k"], params["n"]) != \
                seq_rate_bound(*job["rate"]):
            errors.append(f"rate {params['k']}/{params['n']} misses the "
                          f"bound for (r, t) = {tuple(job['rate'])}")
    if "construct_seed" in job and \
            obj["provenance"].get("seed") != job["construct_seed"]:
        errors.append(f"provenance seed {obj['provenance'].get('seed')}, "
                      f"expected {job['construct_seed']}")
    if "self_verdict" in job:
        verdict = obj["verdict"]
        if rc == 1 and not verdict.get("witness"):
            errors.append("exit 1 without a witness")
        if verdict["verdict"] is not job["self_verdict"]:
            errors.append(f"self-check verdict {verdict['verdict']}")


# ---------------------------------------------------------------------------
# iterations
# ---------------------------------------------------------------------------

def _spawn(workdir: Path, spec: dict) -> tuple:
    """Start one child; returns (its result, the time.monotonic() of the
    spawn)."""
    env = dict(os.environ, TMPDIR=str(workdir))
    env.pop("PYTHONPATH", None)
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(CHILD), json.dumps(spec)],
                          cwd=workdir, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout), started


def setup_time(workdir: Path) -> tuple:
    """(calibrated, wall) seconds of one start-up."""
    res, started = _spawn(workdir, {"src": str(SRC), "jobs": [],
                                    "trace": False})
    wall = res["ready"] - started
    return calibrated(wall, res["setup_kernel_s"]), wall


def run_iteration(jobs: list, workdir: Path, seq_rate_bound,
                  trace_spec: dict = None) -> dict:
    for f in workdir.iterdir():
        f.unlink()
    spec = {"src": str(SRC), "jobs": [j["argv"] for j in jobs],
            "trace": trace_spec is not None, **(trace_spec or {})}
    res, started = _spawn(workdir, spec)
    setup_wall = res["ready"] - started
    it = {"setup_s": calibrated(setup_wall, res["setup_kernel_s"]),
          "setup_wall_s": setup_wall, "construct_s": 0.0, "verify_s": 0.0,
          "construct_wall_s": 0.0, "verify_wall_s": 0.0,
          "peak_rss_mb": res["peak_rss_mb"],
          "ru_maxrss_mb": res["ru_maxrss_mb"],
          "errors": [], "failed": 0, "records": [],
          "trace": res.get("trace"),
          "field_ns": res.get("field_ns")}
    for i, (job, out) in enumerate(zip(jobs, res["jobs"])):
        kind = job["argv"][0]
        it[kind + "_s"] += calibrated(out["wall_s"], out["kernel_s"])
        it[kind + "_wall_s"] += out["wall_s"]
        errors, record = check_job(job, out, workdir, seq_rate_bound)
        it["records"].append(record)
        it["failed"] += bool(errors)
        it["errors"] += [f"job {i} ({' '.join(job['argv'])}): {e}"
                         for e in errors]
    return it


def _repeat(run_once, seconds: float, start: float) -> list:
    """Run until the next run would end more than `seconds` after `start`;
    at least once."""
    done = []
    while True:
        t0 = time.monotonic()
        done.append(run_once())
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            return done


# ---------------------------------------------------------------------------
# a whole run
# ---------------------------------------------------------------------------

def _layer_metrics(pairs: list, failed: int, attempted: int) -> dict:
    traced = [t for _, t in pairs]
    per_iter = []
    for it in traced:
        m = dict(it["trace"]["metrics"])
        m.update(it["field_ns"])
        recs = it["records"]
        m["io.bytes_read"] = sum(r.get("bytes_read", 0) for r in recs)
        m["io.bytes_written"] = sum(r.get("bytes_written", 0) for r in recs)
        patterns = sum(r.get("patterns", 0) for r in recs)
        replay = it["trace"]["replay_s_by_job"]
        replay_s = sum(replay.get(str(i), 0.0)
                       for i, r in enumerate(recs) if r.get("patterns"))
        m["verify.patterns_replayed"] = patterns
        m["verify.us_per_pattern"] = 1e6 * replay_s / patterns \
            if patterns else 0.0
        per_iter.append(m)
    metrics = {k: statistics.median(m[k] for m in per_iter)
               for k in per_iter[0]}

    def job_time(it):
        return it["construct_s"] + it["verify_s"]

    metrics["trace.overhead_s"] = \
        statistics.median(job_time(t) for t in traced) - \
        statistics.median(job_time(u) for u, _ in pairs)
    metrics["ops_failed_frac"] = failed / attempted
    return metrics


def _declared(metrics: dict, kind: str) -> dict:
    """Attach units from BENCHMARK.json, which must declare exactly these
    metrics."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench[kind]}
    if set(units) != set(metrics):
        raise BenchError(f"metrics differ from BENCHMARK.json {kind}: "
                         f"{sorted(set(units) ^ set(metrics))}")
    return {k: {"value": metrics[k], "unit": units[k]} for k in units}


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, jobs: list = None) -> tuple:
    """One benchmark run; returns (result, run record).  `jobs` overrides
    the workload's job list (the benchmark's own tests use it)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from lrckit.bounds import seq_rate_bound
    jobs = jobs if jobs is not None else \
        workloads.jobs_for(workload, seed, tiny)
    base = ROOT / ".perfbench_work"
    workdir = base / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    try:
        if trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            trace_spec = {"probe_seed": seed,
                          "spans": str(out_dir / f"spans-{workload}-{seed}"
                                                 ".jsonl")}
            pairs = _repeat(lambda: (
                run_iteration(jobs, workdir, seq_rate_bound),
                run_iteration(jobs, workdir, seq_rate_bound, trace_spec)),
                seconds, start)
            iters = [it for pair in pairs for it in pair]
        else:
            # The first start-up may compile bytecode, which users pay once.
            # Half the probes run after the iterations, so that they meet
            # more of the machine's slow and fast phases.
            setup_time(workdir)
            half = SETUP_PROBES // 2
            t0 = time.monotonic()
            setup = [setup_time(workdir) for _ in range(half)]
            trailing = (time.monotonic() - t0) * (SETUP_PROBES - half) / half
            iters = _repeat(lambda: run_iteration(jobs, workdir,
                                                  seq_rate_bound),
                            seconds - trailing, start)
            setup += [setup_time(workdir)
                      for _ in range(SETUP_PROBES - half)]
            setup += [(it["setup_s"], it["setup_wall_s"]) for it in iters]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    attempted = len(jobs) * len(iters)
    errors = [e for it in iters for e in it["errors"]]
    failed = sum(it["failed"] for it in iters)
    if trace:
        metrics = _declared(_layer_metrics(pairs, failed, attempted),
                            "per_layer")
    else:
        values = {k: statistics.median(it[k] for it in iters)
                  for k in ("construct_s", "verify_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(c for c, _ in setup)
        metrics = _declared(values, "end_to_end")
        wall = {k: statistics.median(it[k] for it in iters)
                for k in ("construct_wall_s", "verify_wall_s")}
        wall["setup_wall_s"] = statistics.median(w for _, w in setup)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "iterations": len(iters), **_machine(),
              "jobs": iters[0]["records"], "errors": errors}
    if not trace:
        record["uncalibrated"] = wall
        record["ru_maxrss_mb"] = statistics.median(it["ru_maxrss_mb"]
                                                   for it in iters)
    if trace:
        # self time per module over one traced iteration; the modules' sum
        # is the iteration's job time
        record["layer_self_s"] = pairs[-1][1]["trace"]["layer_self_s"]
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, record


def _git_sha():
    """HEAD's SHA read from .git without running git, or None when the
    checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _machine() -> dict:
    src = hashlib.sha256()
    for f in sorted((SRC / "lrckit").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"git_sha": _git_sha(), "src_sha256": src.hexdigest(),
            "python": platform.python_version(),
            "platform": platform.platform(), "nproc": os.cpu_count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lrckit" / "__init__.py").is_file():
        sys.stderr.write(f"no lrckit sources under {SRC}\n")
        return 2
    try:
        result, record = run(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as e:
        sys.stderr.write(f"benchmark failed: {e}\n")
        return 1
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
