"""One cold run of one qmm benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per measured run::

    python3 perfbench/workload.py --workload master-spec --seed 7 --trace 0

It imports ``qmm`` (from ``src/`` via PYTHONPATH), builds the workload's
jobs from the seed, runs them one at a time in this single thread, checks
every verdict against the known answer, and prints one JSON record as its
last stdout line.  Job output is captured, not printed.

Library calls go through module attributes (``qmm.koszul.build_complex``,
never a ``from`` import) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from random import Random
from typing import Callable

clock = time.monotonic

# name -> why it was chosen; the same sentences are in BENCHMARK.json
WORKLOADS = {
    "master-spec": (
        "default-mode headline checks: ideal-basis builds over Z dominate (row generation, "
        "column_reduce, specialize, IntEchelon); no job shares a basis"
    ),
    "master-exact": (
        "Laurent-ring ground truth: the same builds through SymbolicEchelon; the last two "
        "jobs share one single-parameter basis, so the oracle cache hits"
    ),
    "membership-queries": (
        "read-heavy library use of one n=3 oracle: contains/contains_tensor take ~40% "
        "of the time, so a change trading build speed for query speed shows"
    ),
    "classical-koszul": (
        "the ideal oracle stays idle: coaction_affine/G(m) for six matrices, then a Koszul "
        "sweep that shares nothing (G(m) caching and ParamMode cost show here)"
    ),
}

CACHE_ENV = "QMM_CACHE_DIR"
CACHE_FILE_MARK = "qmm_basis_v"


@dataclass
class Job:
    """One verdict.  ``argv`` jobs go through ``qmm.cli.main`` with
    ``--output json``; ``call`` jobs are library calls returning a bool.
    ``expect`` is the known answer: True for the identities, False for a
    negative control, which the program must reject."""

    id: str
    expect: bool = True
    argv: list | None = None
    call: Callable[[], bool] | None = None
    control: str | None = None  # "residual" or "koszul" for negative controls


def derive_seeds(seed: int, count: int) -> list[int]:
    """Distinct per-job seeds drawn from the workload seed."""
    return Random(seed).sample(range(1, 2**31), count)


# ---------------------------------------------------------------------------
# negative controls


def residual_control(qmm, oracle, degree: int, seed: int) -> bool:
    """The true top-degree residual of Bos*Ferm plus one column-sorted
    monomial.  Monomials are nonzero in B, so ``contains`` must say False."""
    from qmm.free_algebra import NCPoly

    space = qmm.quantum_spaces.QuantumSpace(oracle.n, oracle.mode)
    product = qmm.macmahon.bos_series(space, degree).body * qmm.macmahon.ferm_series(space, degree).body
    rng = Random(seed)
    word = bytes(rng.randrange(space.z.size) for _ in range(degree))
    (sorted_word,) = qmm.right_quantum.column_reduce(NCPoly.monomial(space.z, space.mode, word)).terms
    return oracle.contains(product[degree] + NCPoly.monomial(space.z, space.mode, sorted_word))


def koszul_control(qmm, n: int, ell: int, seed: int) -> bool:
    """A Koszul complex with one nonzero entry of d_i raised by one, chosen
    where the row it multiplies in d_i o d_{i-1} is nonzero, so the composite
    cannot vanish: ``composites_vanish`` must say False."""
    mode = qmm.param_ring.ParamMode.multi(n)
    complex = qmm.koszul.build_complex(n, ell, mode)
    maps = complex.maps
    candidates = [
        (i, r, k)
        for i in range(2, ell + 1)
        for r, row in enumerate(maps[i])
        for k, entry in enumerate(row)
        if not entry.is_zero() and any(not x.is_zero() for x in maps[i - 1][k])
    ]
    i, r, k = Random(seed).choice(candidates)
    maps[i][r][k] = maps[i][r][k] + mode.one()
    return qmm.koszul.composites_vanish(complex)


# ---------------------------------------------------------------------------
# workloads


def build_jobs(qmm, workload: str, seed: int, tiny: bool) -> tuple[list[Job], list[int]]:
    """The jobs of one workload run.  ``tiny`` is the harness self-test
    configuration (n=2, degree 3)."""
    s = derive_seeds(seed, 6)
    if workload == "master-spec":
        if tiny:
            runs = [["verify", "--n", "2", "--degree", "3"], ["twisted", "--n", "2", "--degree", "3"]]
            control_n, control_degree = 2, 3
        else:
            runs = [["verify", "--n", "3", "--degree", "4"]] * 3 + [
                ["verify", "--n", "2", "--degree", "6"],
                ["twisted", "--n", "3", "--degree", "4"],
            ]
            control_n, control_degree = 3, 3
        jobs = [Job(f"cli{j}", argv=argv + ["--seed", str(s[j])]) for j, argv in enumerate(runs)]
        mode = qmm.param_ring.ParamMode.multi(control_n)
        oracle = qmm.right_quantum.IdealOracle(control_n, mode, exact=False, seed=s[5], draws=3)
        jobs.append(Job("control", False, call=lambda: residual_control(qmm, oracle, control_degree, s[4]), control="residual"))
        return jobs, s
    if workload == "master-exact":
        if tiny:
            runs = [
                ["verify", "--n", "2", "--degree", "3", "--mode", "exact"],
                ["verify", "--n", "2", "--degree", "3", "--params", "single", "--mode", "exact"],
                ["twisted", "--n", "2", "--degree", "3", "--mode", "exact"],
            ]
            control_degree = 3
        else:
            runs = [
                ["verify", "--n", "3", "--degree", "4", "--mode", "exact"],
                ["verify", "--n", "2", "--degree", "6", "--mode", "exact"],
                ["verify", "--n", "3", "--degree", "4", "--params", "single", "--mode", "exact"],
                ["twisted", "--n", "3", "--degree", "4", "--mode", "exact"],
            ]
            control_degree = 4
        jobs = [Job(f"cli{j}", argv=argv + ["--seed", str(s[j])]) for j, argv in enumerate(runs)]
        # n=2 single-parameter: a basis no job above shares
        oracle = qmm.right_quantum.IdealOracle(2, qmm.param_ring.ParamMode.single(), exact=True)
        jobs.append(Job("control", False, call=lambda: residual_control(qmm, oracle, control_degree, s[4]), control="residual"))
        return jobs, s
    if workload == "membership-queries":
        n, ells, degree = (2, (2, 3), 3) if tiny else (3, (2, 3, 4), 4)
        mode = qmm.param_ring.ParamMode.multi(n)
        oracle = qmm.right_quantum.IdealOracle(n, mode, exact=False, seed=s[0], draws=3)

        def group_like() -> bool:
            rq = qmm.right_quantum
            det = rq.qdet(rq.QMatrix.generic(n, mode))
            return oracle.contains_tensor(rq.comultiply(det) - rq.TensorPoly.outer(det, det))

        jobs = [
            Job(f"comodule{ell}", call=lambda ell=ell: qmm.koszul.comodule_compat_check(n, ell, oracle))
            for ell in ells
        ]
        jobs.append(Job("qdet_coaction", call=lambda: qmm.macmahon.verify_qdet_coaction(oracle)))
        jobs.append(Job("group_like", call=group_like))
        jobs.append(Job("control", False, call=lambda: residual_control(qmm, oracle, degree, s[1]), control="residual"))
        return jobs, s
    if workload == "classical-koszul":
        if tiny:
            runs = [["classical", "--random", "2", "--n", "2", "--degree", "3"], ["koszul", "--n", "2", "--degree", "3"]]
            control_n = 2
        else:
            runs = [["classical", "--random", "6", "--n", "3", "--degree", "6"], ["koszul", "--n", "4", "--degree", "5"]]
            control_n = 3
        jobs = [Job(f"cli{j}", argv=argv + ["--seed", str(s[j])]) for j, argv in enumerate(runs)]
        jobs.append(Job("control", False, call=lambda: koszul_control(qmm, control_n, 3, s[2]), control="koszul"))
        return jobs, s
    raise ValueError(f"unknown workload {workload!r}")


def _flag(argv: list, name: str) -> int:
    return int(argv[argv.index(name) + 1])


def check_report(argv: list, code: int, out: str) -> str | None:
    """None when the CLI verdict matches the known answer (every identity in
    these workloads holds), else what is wrong."""
    if code != 0:
        return f"exit code {code}"
    report = json.loads(out)
    results = report["results"]
    if report["pass"] is not True:
        return "pass is not true"
    command = argv[0]
    if command in ("verify", "twisted"):
        if [r["degree"] for r in results] != list(range(_flag(argv, "--degree") + 1)):
            return "missing degrees"
        if not all(r["pass"] for r in results):
            return "a degree failed"
        if command == "twisted" and not all(r["twist_weights_match_torus"] for r in results):
            return "twist weights differ from the torus eigenvalues"
    elif command == "classical":
        if len(results) != _flag(argv, "--random") or not all(r["pass"] for r in results):
            return "a matrix failed"
    elif command == "koszul":
        if len(results) != _flag(argv, "--degree"):
            return "missing complexes"
        for r in results:
            if not (r["conclusive"] and r["d_squared_zero"] and r["euler_characteristic"] == 0
                    and not any(r["homology"])):
                return f"complex ell={r['ell']} is not exact"
    return None


def run_job(qmm, job: Job) -> str | None:
    """Run one job; None when its verdict matches ``job.expect``."""
    try:
        if job.argv is not None:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = qmm.cli.main(job.argv + ["--output", "json"])
            return check_report(job.argv, code, out.getvalue())
        got = job.call()
        return None if got is job.expect else f"returned {got!r}, expected {job.expect!r}"
    except Exception as exc:  # a crashed verdict counts as an error, the run goes on
        return "crashed: " + "".join(traceback.format_exception_only(exc)).strip()


def _cache_file_guard() -> list:
    """Record every attempt to open a persisted basis file."""
    touched: list = []

    def hook(event, args):
        if event == "open" and args and isinstance(args[0], (str, bytes, os.PathLike)):
            path = os.fsdecode(args[0])
            if CACHE_FILE_MARK in os.path.basename(path):
                touched.append(path)

    sys.addaudithook(hook)
    return touched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test configuration (n=2, degree 3)")
    parser.add_argument("--spans-out", help="write the traced spans to this JSON file")
    args = parser.parse_args(argv)

    if CACHE_ENV in os.environ:
        print(f"error: {CACHE_ENV} must be unset for a cold run", file=sys.stderr)
        return 2
    touched = _cache_file_guard()
    import qmm
    import qmm.cli
    import qmm.koszul
    import qmm.macmahon
    import qmm.param_ring
    import qmm.quantum_spaces
    import qmm.right_quantum

    if getattr(qmm.right_quantum.IdealOracle, "_memory_cache", None):
        print("error: the oracle cache is not empty at start", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import LayerMissing, Tracer

        tracer = Tracer()
        try:
            tracer.install()
        except LayerMissing as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    jobs, seeds = build_jobs(qmm, args.workload, args.seed, args.tiny)

    verdicts = []
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    first = clock()
    for job in jobs:
        scope = tracer.job_span(job.id) if tracer else contextlib.nullcontext()
        started = clock()
        with scope:
            error = run_job(qmm, job)
        verdicts.append({"job": job.id, "expect": job.expect, "control": job.control,
                         "error": error, "wall_s": clock() - started})
    last = clock()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)

    record = {
        "first_job_start": first,
        "wall_s": last - first,
        "cpu_s": (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime),
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "verdicts": verdicts,
        "seeds": seeds,
        "jobs": [job.argv if job.argv is not None else job.id for job in jobs],
        "cache_files_touched": touched,
        "threads": threading.active_count(),
        "qmm_file": qmm.__file__,
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        record["spans"] = len(tracer.spans)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "job", "self_s"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
