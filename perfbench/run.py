"""qmm benchmark harness: cold-start verification workloads, checked verdicts.

Usage (from the root of a checkout; Python standard library only):

    python3 perfbench/run.py --workload master-spec --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

One run repeats the workload for about ``--seconds`` seconds.  Every
repetition is a fresh single-threaded interpreter (``perfbench/workload.py``)
that imports ``qmm`` from ``src/``, with ``QMM_CACHE_DIR`` removed from its
environment and the in-process oracle cache empty; it is closed-loop, one
job at a time.  Per-job ``--seed`` values are derived from the workload seed
with ``random.Random``; the program only ever receives the generated argv.
Every verdict, negative controls included, is checked against the known
answer.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record (Python
version, nproc, CPU model, git commit, source fingerprint, workload seed,
derived per-job seeds, every repetition) goes to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``.

End-to-end metrics (--trace 0; medians over the repetitions of one run):
  wall_s       s      start of the first job to the last verdict (time to all
                      verdicts); interpreter start and `import qmm` excluded
  cpu_s        s      user+sys CPU of the run process over the same interval
  setup_s      s      interpreter start through `import qmm` and job
                      construction, up to the start of the first job
  peak_rss_mb  MiB    peak RSS of the run process
  error_rate is printed as a line and carried by the result's `failed` /
  `attempted` (wrong or crashed verdicts over verdicts attempted, jobs plus
  negative controls); it must be 0 and is not a timed metric.

--trace 1 alternates untraced and traced repetitions.  The traced ones wrap
the public callables of every module (cli, macmahon, quantum_spaces,
free_algebra, right_quantum, koszul, param_ring; see perfbench/tracer.py)
and report the per-layer metrics below (medians over the traced
repetitions), plus trace.overhead_s = traced minus untraced wall_s (on a
shared host it is within the run-to-run noise of wall_s).  Spans are written
to ``perfbench/results/spans-<workload>-seed<seed>.json``.

How to compare a parent commit with a change: run this same perfbench
directory (copy it into both checkouts if the change lacks it) with
identical --workload, --seconds and --trace, on at least ten seeds, one
parent and one change run per seed, alternating which goes first.  Compare
each side's median and quartiles per metric and workload against the
bounds in BENCHMARK.json; re-check any claim on a seed not used while the
change was written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workload import CACHE_ENV, WORKLOADS  # noqa: E402

clock = time.monotonic

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
CHILD_TIMEOUT_S = 170.0  # a run must end within 180 s


class HarnessError(RuntimeError):
    pass


def _help_epilog() -> str:
    lines = ["workloads:"]
    for name, why in WORKLOADS.items():
        lines.append(f"  {name}: {why}")
    lines.append("")
    lines.append("per-layer metrics (--trace 1): name [unit] -> what it should move")
    for name, (unit, _, target) in PER_LAYER.items():
        lines.append(f"  {name} [{unit}] -> {target}")
    return "\n".join(lines)


def child_env() -> dict:
    src = ROOT / "src"
    if not (src / "qmm" / "__init__.py").is_file():
        raise HarnessError(f"no qmm sources under {src}: run from a full checkout")
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = str(src)
    # a fixed hash seed repeats set iteration order, and so the work done,
    # across repetitions
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(env: dict, workload: str, seed: int, traced: bool, tiny: bool, timeout: float) -> dict:
    """Run one repetition in a fresh interpreter; returns its record with
    ``setup_s`` filled in from this side of the process start."""
    argv = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(traced))]
    if tiny:
        argv.append("--tiny")
    if traced:
        argv += ["--spans-out", str(results_dir() / f"spans-{workload}-seed{seed}.json")]
    start = clock()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload} repetition exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise HarnessError(f"{workload} repetition exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["first_job_start"] - start
    record["traced"] = traced
    record["child_s"] = clock() - start
    if not Path(record["qmm_file"]).resolve().is_relative_to(ROOT / "src"):
        raise HarnessError(f"imported qmm from {record['qmm_file']}, not from this checkout")
    return record


def results_dir() -> Path:
    path = HERE / "results"
    path.mkdir(exist_ok=True)
    return path


def run_repetitions(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> list[dict]:
    """Repeat the workload until the next repetition would end past
    ``seconds``; with ``trace`` alternate untraced and traced repetitions
    (at least one of each)."""
    env = child_env()
    began = clock()
    deadline = began + seconds
    records: list[dict] = []
    while True:
        traced = trace and len(records) % 2 == 1
        remaining = CHILD_TIMEOUT_S - (clock() - began)
        records.append(spawn(env, workload, seed, traced, tiny, remaining))
        if trace and len(records) < 2:
            continue
        next_traced = trace and len(records) % 2 == 1
        same_kind = [r["child_s"] for r in records if r["traced"] == next_traced]
        if clock() + statistics.median(same_kind) > deadline:
            return records


def median_of(records: list[dict], key) -> float:
    return statistics.median(key(r) for r in records)


def summarize(records: list[dict], trace: bool) -> dict:
    """The result line: verdict totals and, per --trace, the end-to-end or
    the per-layer metrics (medians over repetitions)."""
    verdicts = [v for r in records for v in r["verdicts"]]
    failed = sum(v["error"] is not None for v in verdicts)
    hygiene = all(not r["cache_files_touched"] for r in records)
    untraced = [r for r in records if not r["traced"]]
    if trace:
        traced = [r for r in records if r["traced"]]
        metrics = {
            name: {"value": median_of(traced, lambda r: r["layers"][name]), "unit": unit}
            for name, (unit, _, _) in PER_LAYER.items() if name != "trace.overhead_s"
        }
        overhead = median_of(traced, lambda r: r["wall_s"]) - median_of(untraced, lambda r: r["wall_s"])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": PER_LAYER["trace.overhead_s"][0]}
    else:
        metrics = {
            name: {"value": median_of(untraced, lambda r: r[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    return {
        "correct": failed == 0 and hygiene,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": metrics,
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; the
    benchmark also runs in exported trees, which have none."""
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
    return "unknown"


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_fingerprint(),
    }


def print_result(workload: str, seed: int, seconds: int, trace: bool, records: list[dict]) -> None:
    result = summarize(records, trace)
    env = environment()
    print(f"# workload={workload} seed={seed} repetitions={len(records)} "
          f"derived_seeds={records[0]['seeds']} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    error_rate = result["failed"] / result["attempted"]
    print(f"error_rate {error_rate:.6g} ratio ({result['failed']} of {result['attempted']} verdicts)")
    for r in records:
        for v in r["verdicts"]:
            if v["error"] is not None:
                print(f"# wrong verdict: job {v['job']}: {v['error']}")
        for path in r["cache_files_touched"]:
            print(f"# cold-start violated: opened {path}")
    full = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "environment": env, "derived_seeds": records[0]["seeds"],
            "jobs": records[0]["jobs"], "result": result, "repetitions": records}
    out = results_dir() / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(full, indent=1))
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# self-test


def self_test() -> int:
    """Run every workload once at n=2, degree 3, untraced and traced, and
    check names, units, verdicts and both negative controls."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    declared_why = {w["name"]: w["why"] for w in spec["workloads"]}
    if declared_why != WORKLOADS:
        problems.append(f"BENCHMARK.json workloads {declared_why} differ from {WORKLOADS}")
    controls_rejected = set()
    for workload in WORKLOADS:
        records = run_repetitions(workload, 1, 0, trace=True, tiny=True)
        for trace, declared in ((False, declared_e2e), (True, declared_layer)):
            result = summarize(records, trace)
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            if emitted != declared:
                problems.append(f"{workload} trace={int(trace)}: emitted {emitted} != declared {declared}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload}: {result['failed']} wrong verdicts, correct={result['correct']}")
        for r in records:
            controls_rejected |= {v["control"] for v in r["verdicts"]
                                  if v["control"] and v["error"] is None}
        print(f"self-test {workload}: {len(records)} repetitions checked")
    if controls_rejected != {"residual", "koszul"}:
        problems.append(f"negative controls rejected: {sorted(controls_rejected)}, need residual and koszul")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, epilog=_help_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed; derives every per-job seed")
    parser.add_argument("--seconds", type=int, default=30, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics and tracing overhead")
    parser.add_argument("--self-test", action="store_true",
                        help="tiny configuration (n=2, degree 3): check names, units, verdicts, controls")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        records = run_repetitions(args.workload, args.seed, args.seconds, bool(args.trace))
        print_result(args.workload, args.seed, args.seconds, bool(args.trace), records)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
