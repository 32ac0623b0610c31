"""The benchmark's workloads.

Each workload is a closed loop: one client runs `lrckit.cli.main(argv)` on
the jobs below in order, each job on the files the previous one wrote.  A job
is a dict: `argv`, the expected exit code `rc`, and what its output must
show (see `run.check_job`).  `tiny=True` gives the same job shapes at toy
sizes, for the benchmark's own tests.
"""

from __future__ import annotations

# SHA-256 of each deterministic construction's code JSON with `manifest`
# removed (`run.code_digest`), pinned at the commit that added the benchmark.
# Seeded code JSON must stay byte-identical across changes.
DIGESTS = {
    "seq-3-5":
        "afc5f20ab923c59d8dbadba4ec911611d1ab20df41bc6bba1dc9c6b66fc4d714",
    "mr-r12-4-3":
        "5942b2c5d6bc5816edf3f6483eb66d0e89776e1212d02747dab1b94d2ee6c64a",
    "mr-rd2-5-2-2-4":
        "97cfd7544d3cff98baa3873fde62611e6904ab30806407a97a84df0b76a739e1",
    "mr-rd2-4-2-2-4":
        "90c9d1bfa0387337d1f64897cbc9d9267d7be7c0870bed89d90d8d5bed58c1be",
    "pmr-a1-3-3-5-13":
        "d99a12bcc595fced765f233d9cd0fdbe2f6c8f0732d88e60a10ee6529173617f",
    "seq-2-3":
        "af0706c1652b3deba707bdf7323f1f540912fbad5fbdbf5574fc9b19abe7b713",
    "mr-r12-2-2":
        "097e2742e65b18c89475d115042037634e700dc1efaf4ef527d8fbfc6800a4b9",
    "mr-rd2-2-2-2-4":
        "38c18148faced566e7334af11b2e48d934292aaa9172f71e9f9bdd1d2512f67a",
    "mr-rd2-3-2-2-4":
        "a2825cc91f2d7c42b2df68d2ff07bbfd520a7c464a196dc8070039c42e8a0376",
    "pmr-a1-2-2-3-7":
        "f1dd24994f027db39955ce361487c7f6da72ee3094f2434b2a9c19bfb7dc94a1",
}

# Construct seeds for seq-random-aux.  At the commit that added the benchmark
# each of these makes the swap repair give up on the 52-node auxiliary graph
# after 5000 rounds and succeed on the 104-node one, so every run builds the
# n = 5408 code.  The other seeds in 0..15 stop at n = 2704, a quarter of the
# work; mixing the two sizes would make the spread between runs far exceed
# any bound.  A faster repair may change which graph a seed yields, and the
# checks on this workload do not depend on it.
RANDOM_AUX_SEEDS = (0, 1, 3, 4, 6, 7, 9, 11, 12, 13, 14, 15)


def _construct(family, out, digest=None, **flags):
    argv = ["construct", family]
    for flag, value in flags.items():
        argv += ["--" + flag.replace("_", "-"), str(value)]
    job = {"argv": argv + ["--out", out], "rc": 0}
    if digest is not None:
        job["digest"] = DIGESTS[digest]
    return job


def _verify(prop, code, report_mode, rc=0, **flags):
    argv = ["verify", prop, "--code", code]
    for flag, value in flags.items():
        argv += ["--" + flag.replace("_", "-"), str(value)]
    return {"argv": argv, "rc": rc, "verdict": rc == 0, "mode": report_mode}


# Tiny seq codes fit the exhaustive budget, so `auto` enumerates patterns
# there instead of using the girth certificate.
def _seq_auto_mode(tiny: bool) -> str:
    return "exhaustive" if tiny else "certificate"


def seq_catalog(seed: int, tiny: bool = False) -> list:
    r, t = (2, 3) if tiny else (3, 5)
    samples = 1000 if tiny else 100000
    mode = _seq_auto_mode(tiny)
    build = _construct("seq", "seq.json", f"seq-{r}-{t}", r=r, t=t)
    build["rate"] = [r, t]
    # The code's graph has girth exactly t + 1, so asking for t + 1 fails
    # with a (t + 1)-edge cycle, or a (t + 1)-erasure pattern, as witness.
    short = _verify("seq", "seq.json", mode, rc=1, t=t + 1)
    short["witness_len"] = t + 1
    sampled = _verify("seq", "seq.json", "sampled", mode="sampled",
                      samples=samples, seed=seed)
    sampled.update(samples=samples, seed=seed)
    return [build,
            _verify("seq", "seq.json", mode),
            short,
            sampled]


def seq_random_aux(seed: int, tiny: bool = False) -> list:
    r, t = (2, 3) if tiny else (3, 5)
    aux_seed = RANDOM_AUX_SEEDS[seed % len(RANDOM_AUX_SEEDS)]
    # Checked by structure, not by digest: rate equality, the recorded seed,
    # and a certificate PASS.  Codes with t = 3 take no auxiliary graph, so
    # the tiny run records no seed.
    build = _construct("seq", "seq-random.json", r=r, t=t, aux="random",
                       seed=aux_seed)
    build["rate"] = [r, t]
    if not tiny:
        build["construct_seed"] = aux_seed
    return [build, _verify("seq", "seq-random.json", _seq_auto_mode(tiny))]


def mr_replay(seed: int, tiny: bool = False) -> list:
    if tiny:
        r12, rd2_a, rd2_b, pmr = (2, 2), (2, 2, 2, 4), (3, 2, 2, 4), \
            (2, 2, 3, 7)
        s_extra, samples, exhaustive = 1, 50, 36
    else:
        r12, rd2_a, rd2_b, pmr = (4, 3), (5, 2, 2, 4), (4, 2, 2, 4), \
            (3, 3, 5, 13)
        s_extra, samples, exhaustive = 2, 5000, 16896
    jobs = [_construct("mr-r12", "mr-r12.json",
                       "mr-r12-%d-%d" % r12, m=r12[0], r=r12[1])]
    pmds = _verify("pmds", "mr-r12.json", "exhaustive", delta=1,
                   s_extra=s_extra)
    pmds["checked"] = exhaustive
    jobs.append(pmds)
    for name, (m, r, delta, psi) in (("mr-rd2-a.json", rd2_a),
                                     ("mr-rd2-b.json", rd2_b)):
        jobs.append(_construct("mr-rd2", name,
                               "mr-rd2-%d-%d-%d-%d" % (m, r, delta, psi),
                               m=m, r=r, delta=delta, psi=psi))
        sampled = _verify("pmds", name, "sampled", delta=delta,
                          s_extra=s_extra, mode="sampled", samples=samples,
                          seed=seed)
        sampled.update(samples=samples, seed=seed, checked=samples)
        jobs.append(sampled)
    m, r, delta, base_q = pmr
    # pmr-a1 checks itself at its fixed seed 0; its code JSON carries the
    # verdict.
    build = _construct("pmr-a1", "pmr-a1.json",
                       "pmr-a1-%d-%d-%d-%d" % pmr, m=m, r=r, delta=delta,
                       base_q=base_q)
    build["self_verdict"] = True
    jobs += [build,
             _verify("pmr", "pmr-a1.json", "exhaustive"),
             _verify("mr-shape", "pmr-a1.json", "exhaustive")]
    return jobs


# seq-random-aux is left out of BENCHMARK.json, so the regression gate does
# not run it.  One iteration takes about 30 s, so a run holds a single
# sample, and the calibration kernels (reference.py) only bracket its 20 s
# and 10 s jobs.  On a shared 2-core host the spread of its verify_s between
# runs (interquartile range over median) was 0.19 calibrated and 0.22 raw
# over five seeds, too close to the largest bound the gate allows.  Run it
# by hand with `--workload seq-random-aux`.
WORKLOADS = {
    "seq-catalog": seq_catalog,
    "seq-random-aux": seq_random_aux,
    "mr-replay": mr_replay,
}


def jobs_for(workload: str, seed: int, tiny: bool = False) -> list:
    return WORKLOADS[workload](seed, tiny)
