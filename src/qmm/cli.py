"""Command-line front end: runs the verifications and emits reports.

Each command takes the parsed arguments and returns ``(results, verdict,
lines)``: its JSON-ready results, its verdict, and the lines of its text
report.  The verdict is True, False, or None for a Koszul complex that the
contracting homotopy does not certify.  ``main`` alone turns that into
output: ``--output json`` prints the report {"command", "config",
"results", "pass"}, with ``pass`` true only for a True verdict, and text
output prints ``[command] pass=...`` followed by the lines.  The config is
built after the command has run, since a command may fill in a default.
``EXIT_CODES`` maps the verdict to the exit code: 0 pass, 1 verified false,
3 inconclusive; 2 is a usage error.  Only bad command-line input is a usage
error: numbers out of range are rejected before any work, ``koszul``'s
``--ell`` and ``--degree`` above ``KOSZUL_MAX_DEGREE`` (1000) among them,
since every K^l with l >= 2 reports the verdict of K^2.  An internal
defect, any other exception, prints its traceback to stderr and is
``EXIT_INTERNAL_ERROR``, 70 (EX_SOFTWARE), so it never reads as a verdict
or a usage error.  A report that cannot be written because stdout was
closed (a reader such as ``head`` exited) is ``EXIT_BROKEN_PIPE``, 141
(128 + SIGPIPE), with no traceback, for the same reason.

``koszul`` reads every K^l off K^1 and K^2.  It builds each of the two at
most once per sweep and checks d o d = 0 and the contracting homotopy on
it (``koszul.support_sweep``), whatever l.  The module docstring of
``koszul`` proves that the cube e_S decides every cube on the support S,
that the pairs inside S decide e_S, and that K^2 holds the cubes of every
support with |S| <= 2.  Each K^l reports the checks of K^min(l, 2), and
its ``dims`` in closed form, so the report matches the one the full
complexes give, byte for byte.  Likewise ``twisted`` builds no twisted
series: it decides the plain residual and the integer twist-exponent
identities that make the twisted residual its torus image
(``macmahon.verify_twisted``; the ``macmahon`` docstring proves it).

Identical configuration and seeds produce byte-identical output.  The one
random choice, the matrices of ``classical --random``, flows from
``--seed`` through Python's Mersenne-Twister ``random.Random``; every other
verdict is exact and draws nothing.

Each command has only the options it reads, and the config echoes each of
them once.  ``twisted`` always runs in one-parameter mode, so it has no
``--params`` or ``--q-assign``; ``koszul`` takes ``--ell`` or ``--degree``,
not both; ``classical --matrix`` takes its n from the matrix and has no
seed to read.  Membership is decided exactly by the certified rewriting
system of ``right_quantum``; nothing is cached between runs or read from
the environment.  ``verify`` and ``twisted`` still accept ``--seed`` and
``--mode exact``, its only choice, and ``koszul`` accepts ``--seed``: each
is echoed in the config and read by nothing, because existing command lines
(the benchmark workloads among them) pass them.  ``main`` builds the
subparser of the command it runs and no other (``build_parser(command)``);
usage, help and errors read as they do from the parser of all five.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from fractions import Fraction
from random import Random

from . import koszul as koszul_mod
from .macmahon import classical_check, verify_master, verify_twisted
from .param_ring import ParamMode
from .right_quantum import IdealOracle, QMatrix, qdet

MAX_N = 16  # z-letters are stored one per byte, and there are n^2 of them
KOSZUL_DEGREE = 3  # the koszul sweep's degree when neither --ell nor --degree is given
KOSZUL_MAX_DEGREE = 1000  # the largest koszul --ell or --degree; K^l reads K^min(l, 2)
CLASSICAL_N = 2  # the size of the classical --random matrices when --n is not given
EXIT_CODES = {True: 0, False: 1, None: 3}
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: stdout closed before the report was written
EXIT_INTERNAL_ERROR = 70  # EX_SOFTWARE: an internal defect, its traceback on stderr


class UsageError(ValueError):
    """Bad command-line input; the only error reported as exit code 2."""


def _check_args(args) -> None:
    """Reject out-of-range numbers, and parse ``--q-assign`` into its
    {(i, j): value} map, before any work."""
    if args.n is not None and not 1 <= args.n <= MAX_N:
        raise UsageError(f"--n must be between 1 and {MAX_N} (z-letters are stored one per byte)")
    if (getattr(args, "degree", None) or 0) < 0:
        raise UsageError("--degree must be >= 0")
    if getattr(args, "ell", None) is not None and args.ell < 1:
        raise UsageError("--ell must be >= 1")
    if hasattr(args, "ell"):  # koszul: its report grows with the degree
        for flag, value in (("--ell", args.ell), ("--degree", args.degree)):
            if value is not None and value > KOSZUL_MAX_DEGREE:
                raise UsageError(f"{flag} must be at most {KOSZUL_MAX_DEGREE}")
    if getattr(args, "random", None) is not None and args.random < 1:
        raise UsageError("--random must be >= 1")
    if hasattr(args, "q_assign"):
        if args.q_assign is not None and args.params != "numeric":
            raise UsageError("--q-assign is read only with --params numeric")
        args.q_assign = _parse_q_assignment(args.q_assign or "")


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
        return ParamMode.numeric(args.n, args.q_assign)
    except ValueError as exc:
        raise UsageError(f"--q-assign: {exc}") from exc


def _config_dict(args) -> dict:
    """The options the command has, each as given or defaulted."""
    cfg = {}
    for key in ("n", "params", "mode", "seed", "degree", "ell", "subset", "matrix", "random"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    if cfg.get("params") == "numeric":
        cfg["q_assign"] = {f"{i},{j}": str(v) for (i, j), v in args.q_assign.items()}
    return cfg


# ---------------------------------------------------------------------------
# commands: each returns (results, verdict, text lines)


def _identity(args, mode: ParamMode, verify, line: str):
    """Run verify_master or verify_twisted."""
    outcome = verify(IdealOracle(args.n, mode), args.degree)
    return outcome["results"], outcome["pass"], [line.format(**r) for r in outcome["results"]]


def cmd_verify(args):
    return _identity(
        args, _make_mode(args), verify_master,
        "degree {degree}: residual_terms={residual_terms_before_reduction} pass={pass}",
    )


def cmd_qdet(args):
    mode = _make_mode(args)
    try:
        subset = tuple(int(t) for t in args.subset.split(","))
    except ValueError as exc:
        raise UsageError(f"bad subset {args.subset!r}") from exc
    if not subset or min(subset) < 1 or max(subset) > args.n or len(set(subset)) != len(subset):
        raise UsageError(f"subset must be a nonempty subset of 1..{args.n}")
    det = qdet(QMatrix.generic(args.n, mode), subset)
    return det.to_jsonable(), True, [str(det)]


def cmd_koszul(args):
    mode = _make_mode(args)
    if args.ell is None and args.degree is None:
        args.degree = KOSZUL_DEGREE
    ells = [args.ell] if args.ell is not None else list(range(1, args.degree + 1))
    if not ells:
        raise UsageError("give --ell or a positive --degree to sweep")
    results = []
    for ell, (d2, conclusive) in zip(ells, koszul_mod.support_sweep(args.n, ells, mode)):
        dims = koszul_mod.component_dims(args.n, ell)
        entry = koszul_mod.ExactnessReport(args.n, ell, dims, conclusive).to_jsonable()
        entry["d_squared_zero"] = d2
        entry["euler_characteristic"] = koszul_mod.euler_characteristic(args.n, ell)
        results.append(entry)
    # an uncertified complex makes the sweep inconclusive, whatever d o d is
    verdict = all(r["d_squared_zero"] for r in results) if all(r["conclusive"] for r in results) else None
    line = "ell {ell}: dims={dims} homology={homology} d2=0:{d_squared_zero} conclusive={conclusive}"
    return results, verdict, [line.format(**r) for r in results]


def cmd_twisted(args):
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
    # strings and objects iterate too, so check the shape before reading rows
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise UsageError("matrix must be a JSON array of JSON arrays")
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


def cmd_classical(args):
    if (args.matrix is None) == (args.random is None):
        raise UsageError("give exactly one of --matrix or --random")
    if args.matrix is not None:
        if args.seed is not None:
            raise UsageError("--seed is read only with --random")
        matrices = [_parse_matrix_file(args.matrix)]
        size = len(matrices[0])
        if args.n not in (None, size):
            raise UsageError(f"--n {args.n} differs from the size of the {size}x{size} matrix")
        args.n = size
    else:
        args.n = CLASSICAL_N if args.n is None else args.n
        args.seed = 0 if args.seed is None else args.seed
        rng = Random(args.seed)
        matrices = [_random_rational_matrix(rng, args.n) for _ in range(args.random)]
    results = []
    for idx, entries in enumerate(matrices):
        matrix = [[str(e) for e in row] for row in entries]
        results.append({"index": idx, "matrix": matrix, "pass": classical_check(entries, args.degree)})
    lines = [f"matrix {r['index']}: pass={r['pass']}" for r in results]
    return results, all(r["pass"] for r in results), lines


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, degree_default=None, n_default=2):
    sub.add_argument("--n", type=int, default=n_default, help="number of generators")
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


def _verify_options(sub):
    _add_common(sub, degree_default=4)
    _add_params(sub)
    _add_oracle(sub)
    sub.set_defaults(func=cmd_verify)


def _qdet_options(sub):
    _add_common(sub)
    _add_params(sub)
    sub.add_argument("--subset", required=True, help="comma-separated row labels, e.g. 1,3")
    sub.set_defaults(func=cmd_qdet)


def _koszul_options(sub):
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


def _twisted_options(sub):
    _add_common(sub, degree_default=3)
    _add_oracle(sub)
    sub.set_defaults(func=cmd_twisted)


def _classical_options(sub):
    # --n and --seed default to CLASSICAL_N and 0 with --random; with
    # --matrix, --n must be its size and --seed is a usage error
    _add_common(sub, degree_default=6, n_default=None)
    sub.add_argument("--seed", type=int, help="PRNG seed of the --random matrices (default 0)")
    sub.add_argument("--matrix", help="JSON file: array of arrays of rational strings")
    sub.add_argument("--random", type=int, help="number of random rational matrices")
    sub.set_defaults(func=cmd_classical)


# each command: (its help line, the function that adds its options)
COMMANDS = {
    "verify": ("check Bos(Z)*Ferm(Z) = 1 degree by degree", _verify_options),
    "qdet": ("print a quantum minor", _qdet_options),
    "koszul": ("build complexes and certify exactness", _koszul_options),
    "twisted": ("check the torus-twisted identity (one-parameter)", _twisted_options),
    "classical": ("check the commutative q=1 identity", _classical_options),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone when it names
    one.  A one-command parser parses that command's arguments as the full
    one does and prints the same usage, help and errors: the command list
    is spelled out as the full parser's metavar would spell it."""
    parser = argparse.ArgumentParser(
        prog="qmm",
        description="Exact verification of quantum master identities and Koszul exactness.",
    )
    if command in COMMANDS:
        names = [command]
        subs = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}")
    else:
        names = list(COMMANDS)
        subs = parser.add_subparsers(dest="command", required=True)
    for name in names:
        summary, add_options = COMMANDS[name]
        add_options(subs.add_parser(name, help=summary))
    return parser


def main(argv=None) -> int:
    try:
        return _run(argv)
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only the running command's subparser: the other four would be a
    # measurable share of a small job
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _check_args(args)
        results, verdict, lines = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {"command": args.command, "config": _config_dict(args), "results": results, "pass": verdict is True}
    try:
        if args.output == "json":
            print(json.dumps(report, sort_keys=True, separators=(",", ":")))
        else:
            print("\n".join([f"[{args.command}] pass={report['pass']}", *lines]))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to devnull, so the
        # interpreter's last flush of stdout cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return EXIT_CODES[verdict]


if __name__ == "__main__":
    sys.exit(main())
