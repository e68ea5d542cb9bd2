"""Command-line front end: runs the verifications and emits reports.

Every command accepts ``--output json`` for a machine-readable report of the
shape {"command", "config", "results", "pass"}; identical configuration and
seeds produce byte-identical output.  The one random choice, the matrices of
``classical --random``, flows from ``--seed`` through Python's
Mersenne-Twister ``random.Random``; every other verdict is exact and draws
nothing.  Exit codes: 0 pass, 1 verified false, 2 usage error, 3
inconclusive (a Koszul complex the contracting homotopy does not certify).
Only bad command-line input is a usage error: numbers out of range are
rejected before any work, and an internal defect propagates as a traceback
instead of being reported as exit 2.

Each command has only the options it reads, and the config echoes each of
them once.  ``twisted`` always runs in one-parameter mode, so it has no
``--params`` or ``--q-assign``; ``koszul`` takes ``--ell`` or ``--degree``,
not both.  Membership is decided exactly by the certified rewriting system
of ``right_quantum``; nothing is cached between runs or read from the
environment.  ``verify`` and ``twisted`` still accept ``--seed`` and
``--mode exact``, its only choice, and ``koszul`` accepts ``--seed``: each
is echoed in the config and read by nothing, because existing command lines
(the benchmark workloads among them) pass them.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from random import Random

from . import koszul as koszul_mod
from .macmahon import (
    classical_check,
    verify_master,
    verify_twisted,
)
from .param_ring import ParamMode
from .quantum_spaces import QuantumSpace
from .right_quantum import IdealOracle, QMatrix, qdet

MAX_N = 16  # z-letters are stored one per byte, and there are n^2 of them
KOSZUL_DEGREE = 3  # the koszul sweep's degree when neither --ell nor --degree is given


class UsageError(ValueError):
    """Bad command-line input; the only error reported as exit code 2."""


def _check_ranges(args) -> None:
    if not 1 <= args.n <= MAX_N:
        raise UsageError(f"--n must be between 1 and {MAX_N} (z-letters are stored one per byte)")
    if (getattr(args, "degree", None) or 0) < 0:
        raise UsageError("--degree must be >= 0")
    if getattr(args, "ell", None) is not None and args.ell < 1:
        raise UsageError("--ell must be >= 1")
    if getattr(args, "random", None) is not None and args.random < 1:
        raise UsageError("--random must be >= 1")
    if getattr(args, "q_assign", None) is not None and args.params != "numeric":
        raise UsageError("--q-assign is read only with --params numeric")


def _parse_q_assignment(text: str) -> dict:
    """Parse "1,2=2;1,3=3/2;2,3=5" into a q assignment, each pair once."""
    assignment = {}
    for chunk in filter(None, (part.strip() for part in text.split(";"))):
        try:
            key, value = chunk.split("=")
            i, j = (int(t) for t in key.split(","))
            pair, value = (i, j), Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad q assignment {chunk!r}: {exc}") from exc
        if pair in assignment:
            raise UsageError(f"q_{i},{j} is assigned twice in --q-assign")
        assignment[pair] = value
    return assignment


def _make_mode(args) -> ParamMode:
    if args.params == "multi":
        return ParamMode.multi(args.n)
    if args.params == "single":
        return ParamMode.single()
    try:
        return ParamMode.numeric(args.n, _parse_q_assignment(args.q_assign or ""))
    except ValueError as exc:
        raise UsageError(f"--q-assign: {exc}") from exc


def _config_dict(args, mode: ParamMode | None = None) -> dict:
    """The options the command has, each as given or defaulted."""
    cfg = {}
    for key in ("n", "params", "mode", "seed", "degree", "ell", "subset", "matrix", "random"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    if mode is not None and mode.kind == "numeric":
        cfg["q_assign"] = {f"{i},{j}": str(v) for (i, j), v in mode.assignment.items()}
    return cfg


def _emit(args, report: dict) -> None:
    pretty = report.pop("pretty", [])
    if args.output == "json":
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
        return
    print(f"[{report['command']}] pass={report['pass']}")
    for line in pretty:
        print(line)


# ---------------------------------------------------------------------------
# commands


def _identity(args, mode: ParamMode, verify, pretty: str) -> int:
    """Run verify_master or verify_twisted and report it."""
    outcome = verify(QuantumSpace(args.n, mode), args.degree, IdealOracle(args.n, mode))
    report = {
        "command": args.command,
        "config": _config_dict(args, mode),
        "results": outcome["results"],
        "pass": outcome["pass"],
        "pretty": [pretty.format(**r) for r in outcome["results"]],
    }
    _emit(args, report)
    return 0 if outcome["pass"] else 1


def cmd_verify(args) -> int:
    return _identity(
        args, _make_mode(args), verify_master,
        "degree {degree}: residual_terms={residual_terms_before_reduction} pass={pass}",
    )


def cmd_qdet(args) -> int:
    mode = _make_mode(args)
    try:
        subset = tuple(int(t) for t in args.subset.split(","))
    except ValueError as exc:
        raise UsageError(f"bad subset {args.subset!r}") from exc
    if not subset or min(subset) < 1 or max(subset) > args.n or len(set(subset)) != len(subset):
        raise UsageError(f"subset must be a nonempty subset of 1..{args.n}")
    det = qdet(QMatrix.generic(args.n, mode), subset)
    report = {
        "command": "qdet",
        "config": _config_dict(args, mode),
        "results": det.to_jsonable(),
        "pass": True,
        "pretty": [str(det)],
    }
    _emit(args, report)
    return 0


def cmd_koszul(args) -> int:
    mode = _make_mode(args)
    if args.ell is None and args.degree is None:
        args.degree = KOSZUL_DEGREE
    ells = [args.ell] if args.ell is not None else list(range(1, args.degree + 1))
    if not ells:
        raise UsageError("give --ell or a positive --degree to sweep")
    results = []
    all_exact = True
    inconclusive = False
    for ell in ells:
        complex = koszul_mod.build_complex(args.n, ell, mode)
        d2 = koszul_mod.composites_vanish(complex)
        report = koszul_mod.check_exactness(complex)
        entry = report.to_jsonable()
        entry["d_squared_zero"] = d2
        entry["euler_characteristic"] = koszul_mod.euler_characteristic(args.n, ell)
        results.append(entry)
        if not report.conclusive:
            inconclusive = True
        elif not d2:
            all_exact = False
    ok = all_exact and not inconclusive
    report = {
        "command": "koszul",
        "config": _config_dict(args, mode),
        "results": results,
        "pass": ok,
        "pretty": [
            "ell {ell}: dims={dims} homology={homology} "
            "d2=0:{d_squared_zero} conclusive={conclusive}".format(**r)
            for r in results
        ],
    }
    _emit(args, report)
    if inconclusive:
        return 3
    return 0 if ok else 1


def cmd_twisted(args) -> int:
    return _identity(
        args, ParamMode.single(), verify_twisted,
        "degree {degree}: residual_terms={residual_terms_before_reduction} "
        "weights_match={twist_weights_match_torus} pass={pass}",
    )


def _parse_matrix_file(path: str) -> list:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read matrix file {path!r}: {exc}") from exc
    try:
        matrix = [[Fraction(str(e)) for e in row] for row in data]
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise UsageError(f"matrix entries must be rationals: {exc}") from exc
    if not matrix or any(len(row) != len(matrix) for row in matrix):
        raise UsageError("matrix must be square and nonempty")
    if len(matrix) > MAX_N:
        raise UsageError(f"matrix must be at most {MAX_N}x{MAX_N}")
    return matrix


def _random_rational_matrix(rng: Random, n: int) -> list:
    return [
        [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
        for _ in range(n)
    ]


def cmd_classical(args) -> int:
    if (args.matrix is None) == (args.random is None):
        raise UsageError("give exactly one of --matrix or --random")
    matrices = []
    if args.matrix is not None:
        matrices.append(_parse_matrix_file(args.matrix))
        args.n = len(matrices[0])
    else:
        rng = Random(args.seed)
        matrices = [_random_rational_matrix(rng, args.n) for _ in range(args.random)]
    results = []
    for idx, entries in enumerate(matrices):
        ok = classical_check(entries, args.degree)
        results.append(
            {
                "index": idx,
                "matrix": [[str(e) for e in row] for row in entries],
                "pass": ok,
            }
        )
    ok = all(r["pass"] for r in results)
    report = {
        "command": "classical",
        "config": _config_dict(args),
        "results": results,
        "pass": ok,
        "pretty": [f"matrix {r['index']}: pass={r['pass']}" for r in results],
    }
    _emit(args, report)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, degree_default=None):
    sub.add_argument("--n", type=int, default=2, help="number of generators")
    if degree_default is not None:
        sub.add_argument("--degree", type=int, default=degree_default, help="truncation degree")
    sub.add_argument("--output", choices=("json", "text"), default="text")


def _add_params(sub):
    sub.add_argument(
        "--params", choices=("multi", "single", "numeric"), default="multi",
        help="parameter mode",
    )
    sub.add_argument("--q-assign", help="numeric assignments, e.g. '1,2=2;1,3=3/2'")


def _add_oracle(sub):
    sub.add_argument(
        "--mode", choices=("exact",), default="exact",
        help="membership strategy: always exact (accepted and echoed)",
    )
    sub.add_argument("--seed", type=int, default=0, help="accepted and echoed; nothing is drawn")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmm",
        description="Exact verification of quantum master identities and Koszul exactness.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("verify", help="check Bos(Z)*Ferm(Z) = 1 degree by degree")
    _add_common(sub, degree_default=4)
    _add_params(sub)
    _add_oracle(sub)
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("qdet", help="print a quantum minor")
    _add_common(sub)
    _add_params(sub)
    sub.add_argument("--subset", required=True, help="comma-separated row labels, e.g. 1,3")
    sub.set_defaults(func=cmd_qdet)

    sub = subs.add_parser("koszul", help="build complexes and certify exactness")
    _add_common(sub)
    _add_params(sub)
    # no draws: exactness is certified over the coefficient ring.  --seed is
    # echoed in the config and read by nothing; it stays because existing
    # command lines pass it (perfbench's classical-koszul job among them).
    sub.add_argument("--seed", type=int, default=0, help="accepted and echoed; nothing is drawn")
    # one of the two selects the complexes, and the config echoes only that
    # one.  --degree has no argparse default (argparse lets an option given
    # at its default through the group); cmd_koszul fills it in
    ells = sub.add_mutually_exclusive_group()
    ells.add_argument("--degree", type=int, help=f"sweep ell = 1..degree (default {KOSZUL_DEGREE})")
    ells.add_argument("--ell", type=int, help="one complex degree")
    sub.set_defaults(func=cmd_koszul)

    sub = subs.add_parser("twisted", help="check the torus-twisted identity (one-parameter)")
    _add_common(sub, degree_default=3)
    _add_oracle(sub)
    sub.set_defaults(func=cmd_twisted)

    sub = subs.add_parser("classical", help="check the commutative q=1 identity")
    _add_common(sub, degree_default=6)
    sub.add_argument("--seed", type=int, default=0, help="PRNG seed of the --random matrices")
    sub.add_argument("--matrix", help="JSON file: array of arrays of rational strings")
    sub.add_argument("--random", type=int, help="number of random rational matrices")
    sub.set_defaults(func=cmd_classical)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _check_ranges(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
