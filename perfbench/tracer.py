"""Per-layer tracing for the qmm benchmark.

The traced run wraps the public callables listed in ``LAYERS`` from the
benchmark's own code; nothing under ``src/`` is edited.  A function is
patched at every place it is looked up: ``from ... import`` binds copies
(``qmm.macmahon.qdet``, ``qmm.cli.classical_check``, ...), so every ``qmm``
module attribute that *is* the original gets the wrapper.  Methods are
patched on their class.  A declared callable that no longer exists raises
``LayerMissing`` naming it, so a refactor reads "layer not measured", never 0 s.

Each wrapped call opens a frame.  Frames of layers with ``record=True``
become spans ``[name, start, end, parent, job, self_s]`` kept in memory and
written out when the run ends.  Layers called hundreds of thousands of times
(``record=False``) are only aggregated, so the trace stays small; their time
is still subtracted from the self time of the span that called them.  A
layer's self time is its duration minus the time of the wrapped calls made
inside it.

``param_ring`` arithmetic (``ParamScalar.__mul__``/``__add__``, millions of
calls) is deliberately not wrapped: it shows up as the self time of its
callers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

clock = time.monotonic


class LayerMissing(RuntimeError):
    """A callable declared in LAYERS no longer exists in the program."""


@dataclass(frozen=True)
class Layer:
    target: str  # "module:qualname"
    name: str  # span name; several targets may share one
    record: bool = True  # keep each call as a span (False: aggregate only)
    measure: Callable | None = None  # result -> int, summed per name
    keep_result: bool = False  # keep the returned object for post-run stats


ECHELONS = ("IntEchelon", "SymbolicEchelon")

LAYERS = (
    Layer("qmm.cli:main", "cli"),
    Layer("qmm.macmahon:verify_master", "macmahon.verify"),
    Layer("qmm.macmahon:verify_twisted", "macmahon.verify"),
    Layer("qmm.macmahon:bos_series", "macmahon.bos_series"),
    Layer("qmm.macmahon:ferm_series", "macmahon.ferm_series"),
    Layer("qmm.macmahon:twisted_bos_series", "macmahon.twisted_series"),
    Layer("qmm.macmahon:twisted_ferm_series", "macmahon.twisted_series"),
    Layer("qmm.macmahon:verify_qdet_coaction", "macmahon.verify_qdet_coaction"),
    Layer("qmm.macmahon:classical_check", "macmahon.classical_check"),
    Layer("qmm.macmahon:evaluate_z_poly", "macmahon.evaluate_z_poly", record=False),
    Layer("qmm.free_algebra:TruncSeries.__mul__", "free_algebra.series_mul"),
    Layer("qmm.right_quantum:qdet", "right_quantum.qdet"),
    Layer("qmm.quantum_spaces:QuantumSpace.coaction_affine", "quantum_spaces.coaction_affine"),
    Layer("qmm.koszul:build_complex", "koszul.build_complex"),
    Layer("qmm.koszul:composites_vanish", "koszul.composites_vanish"),
    Layer("qmm.koszul:check_exactness", "koszul.check_exactness"),
    Layer("qmm.koszul:comodule_compat_check", "koszul.comodule_compat"),
    Layer("qmm.right_quantum:IdealOracle.basis", "right_quantum.basis", keep_result=True),
    Layer("qmm.right_quantum:IdealOracle.contains", "right_quantum.contains"),
    Layer("qmm.right_quantum:IdealOracle.contains_tensor", "right_quantum.contains_tensor"),
    Layer(
        "qmm.right_quantum:column_reduce",
        "right_quantum.column_reduce",
        record=False,
        measure=lambda p: len(p.terms),
    ),
    Layer("qmm.param_ring:ParamScalar.specialize", "param_ring.specialize", record=False),
) + tuple(
    layer
    for cls in ECHELONS
    for layer in (
        Layer(
            f"qmm.right_quantum:{cls}.insert",
            f"right_quantum.echelon.{cls}.insert",
            record=False,
            measure=bool,
        ),
        Layer(f"qmm.right_quantum:{cls}.finalize", f"right_quantum.echelon.{cls}.finalize"),
    )
)

# Per-layer metrics: name -> (unit, better, what it should move).  The last
# field documents which end-to-end metric on which workload the layer metric
# is expected to move; run.py prints it under --help.
_S = ("s", "lower")
_N = ("count", "lower")
PER_LAYER = {
    "cli.self_s": _S + ("job span minus its children (argparse, report JSON): ~0 everywhere",),
    "macmahon.bos_series_s": _S + ("wall_s on master-spec/master-exact, marginally (a few %)",),
    "macmahon.ferm_series_s": _S + ("wall_s on master-spec/master-exact, marginally",),
    "macmahon.twisted_series_s": _S + ("wall_s on master-spec/master-exact, marginally",),
    "macmahon.verify.self_s": _S + ("wall_s on master-spec/master-exact: residual loop, torus check",),
    "free_algebra.series_mul_s": _S + ("wall_s on master-spec/master-exact, marginally",),
    "right_quantum.qdet_s": _S + ("wall_s on master-spec/master-exact, marginally",),
    "quantum_spaces.coaction_affine_s": _S + ("wall_s on classical-koszul; ~0 change on master-spec",),
    "quantum_spaces.coaction_affine.calls": _N + ("wall_s on classical-koszul (G(m) caching)",),
    "macmahon.evaluate_z_poly_s": _S + ("wall_s on classical-koszul; ~0 change on master-spec",),
    "macmahon.evaluate_z_poly.calls": _N + ("wall_s on classical-koszul",),
    "macmahon.classical_check.self_s": _S + ("wall_s on classical-koszul",),
    "macmahon.verify_qdet_coaction.self_s": _S + ("wall_s on membership-queries",),
    "koszul.build_complex_s": _S + ("wall_s on classical-koszul",),
    "koszul.composites_vanish_s": _S + ("wall_s on classical-koszul",),
    "koszul.check_exactness_s": _S + ("wall_s on classical-koszul",),
    "koszul.comodule_compat.self_s": _S + ("wall_s on membership-queries",),
    "right_quantum.basis.build_s": _S + ("wall_s on master-spec and master-exact",),
    "right_quantum.basis.builds": _N + ("wall_s on master-spec and master-exact",),
    "right_quantum.basis.hits": ("count", "higher", "wall_s on master-exact (shared single-parameter basis)"),
    "right_quantum.basis.hit_ratio": ("ratio", "higher", "wall_s on master-exact"),
    "right_quantum.rowgen.self_s": _S + ("wall_s on master-spec",),
    "right_quantum.column_reduce_s": _S + ("wall_s on master-spec",),
    "right_quantum.column_reduce.calls": _N + ("wall_s on master-spec",),
    "right_quantum.column_reduce.terms_out": _N + ("wall_s on master-spec",),
    "param_ring.specialize_s": _S + ("wall_s on master-spec",),
    "param_ring.specialize.calls": _N + ("wall_s on master-spec",),
}
for _cls, _target in zip(ECHELONS, ("master-spec", "master-exact")):
    _why = f"wall_s on {_target}; ~0 change on classical-koszul"
    PER_LAYER.update({
        f"right_quantum.echelon.{_cls}.insert_s": _S + (_why,),
        f"right_quantum.echelon.{_cls}.inserts": _N + (_why,),
        f"right_quantum.echelon.{_cls}.accepted": _N + (_why,),
        f"right_quantum.echelon.{_cls}.accept_ratio": ("ratio", "higher", _why),
        f"right_quantum.echelon.{_cls}.finalize_s": _S + (_why,),
    })
PER_LAYER.update({
    "right_quantum.basis.rank": _N + ("peak_rss_mb, and wall_s via big-integer cost, on both master workloads",),
    "right_quantum.basis.nnz": _N + ("peak_rss_mb and wall_s on both master workloads",),
    "right_quantum.basis.max_coeff_bits": ("bits", "lower", "wall_s on both master workloads (big-integer cost)"),
    "right_quantum.contains.self_s": _S + ("wall_s on membership-queries; <2% on master-spec",),
    "right_quantum.contains.calls": _N + ("wall_s on membership-queries",),
    "right_quantum.contains_tensor.self_s": _S + ("wall_s on membership-queries",),
    "right_quantum.contains_tensor.calls": _N + ("wall_s on membership-queries",),
    "trace.overhead_s": _S + ("traced minus untraced wall_s of the same workload and seed",),
})


def _resolve(target: str):
    module_name, qualname = target.split(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise LayerMissing(f"layer not measured: {target} ({exc})") from exc
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LayerMissing(f"layer not measured: {target} no longer exists")
    attr = parts[-1]
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(original):
        raise LayerMissing(f"layer not measured: {target} no longer exists")
    return owner, attr, original


class Tracer:
    """Wraps the LAYERS callables and records frames while installed."""

    def __init__(self):
        self.stack: list[list] = []  # [child_time, span index for children]
        self.spans: list[list] = []  # [name, start, end, parent, job, self_s]
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s, measured]
        self.kept: dict[int, object] = {}  # span index -> returned object
        self.depth: dict[str, int] = {}
        self.job = None

    def install(self) -> None:
        """Patch every declared callable; raises LayerMissing on the first
        one that cannot be found."""
        resolved = [(layer, _resolve(layer.target)) for layer in LAYERS]
        for layer, (owner, attr, original) in resolved:
            wrapper = self._wrap(layer, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            # a module-level function: rebind it everywhere it was imported
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "qmm" or mod_name.startswith("qmm.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, layer: Layer, fn):
        name, record, measure, keep = layer.name, layer.record, layer.measure, layer.keep_result
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        self.depth.setdefault(name, 0)
        stack, spans, depth, kept = self.stack, self.spans, self.depth, self.kept

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent_span = stack[-1][1] if stack else -1
            if record:
                index = len(spans)
                span = [name, 0.0, 0.0, parent_span, self.job, 0.0]
                spans.append(span)
                frame = [0.0, index]
            else:
                frame = [0.0, parent_span]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[name] -= 1
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                stats[0] += 1
                if not depth[name]:
                    stats[1] += duration
                stats[2] += own
                if record:
                    span[1], span[2], span[5] = start, end, own
            if measure is not None:
                stats[3] += measure(result)
            if keep:
                kept[index] = result
            return result

        return wrapper

    @contextmanager
    def job_span(self, job_id: str):
        """One span around a whole job, so every span of that job shares
        ``job_id``."""
        self.job = job_id
        span = ["job", clock(), 0.0, -1, job_id, 0.0]
        frame = [0.0, len(self.spans)]
        self.spans.append(span)
        self.stack.append(frame)
        try:
            yield
        finally:
            self.stack.pop()
            span[2] = clock()
            span[5] = span[2] - span[1] - frame[0]
            self.job = None

    # -- derived per-layer metrics ------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except trace.overhead_s (which needs an
        untraced run); a layer that never ran reads 0 with 0 calls."""

        def stat(name, field):
            return self.stats.get(name, [0, 0.0, 0.0, 0])[field]

        out = {
            "cli.self_s": stat("cli", 2),
            "macmahon.bos_series_s": stat("macmahon.bos_series", 1),
            "macmahon.ferm_series_s": stat("macmahon.ferm_series", 1),
            "macmahon.twisted_series_s": stat("macmahon.twisted_series", 1),
            "macmahon.verify.self_s": stat("macmahon.verify", 2),
            "free_algebra.series_mul_s": stat("free_algebra.series_mul", 1),
            "right_quantum.qdet_s": stat("right_quantum.qdet", 1),
            "quantum_spaces.coaction_affine_s": stat("quantum_spaces.coaction_affine", 1),
            "quantum_spaces.coaction_affine.calls": stat("quantum_spaces.coaction_affine", 0),
            "macmahon.evaluate_z_poly_s": stat("macmahon.evaluate_z_poly", 1),
            "macmahon.evaluate_z_poly.calls": stat("macmahon.evaluate_z_poly", 0),
            "macmahon.classical_check.self_s": stat("macmahon.classical_check", 2),
            "macmahon.verify_qdet_coaction.self_s": stat("macmahon.verify_qdet_coaction", 2),
            "koszul.build_complex_s": stat("koszul.build_complex", 1),
            "koszul.composites_vanish_s": stat("koszul.composites_vanish", 1),
            "koszul.check_exactness_s": stat("koszul.check_exactness", 1),
            "koszul.comodule_compat.self_s": stat("koszul.comodule_compat", 2),
            "right_quantum.column_reduce_s": stat("right_quantum.column_reduce", 1),
            "right_quantum.column_reduce.calls": stat("right_quantum.column_reduce", 0),
            "right_quantum.column_reduce.terms_out": stat("right_quantum.column_reduce", 3),
            "param_ring.specialize_s": stat("param_ring.specialize", 1),
            "param_ring.specialize.calls": stat("param_ring.specialize", 0),
            "right_quantum.contains.self_s": stat("right_quantum.contains", 2),
            "right_quantum.contains.calls": stat("right_quantum.contains", 0),
            "right_quantum.contains_tensor.self_s": stat("right_quantum.contains_tensor", 2),
            "right_quantum.contains_tensor.calls": stat("right_quantum.contains_tensor", 0),
        }
        for cls in ECHELONS:
            ins = f"right_quantum.echelon.{cls}.insert"
            calls, accepted = stat(ins, 0), stat(ins, 3)
            out[f"right_quantum.echelon.{cls}.insert_s"] = stat(ins, 1)
            out[f"right_quantum.echelon.{cls}.inserts"] = calls
            out[f"right_quantum.echelon.{cls}.accepted"] = accepted
            out[f"right_quantum.echelon.{cls}.accept_ratio"] = accepted / calls if calls else 0.0
            out[f"right_quantum.echelon.{cls}.finalize_s"] = stat(f"right_quantum.echelon.{cls}.finalize", 1)

        # IdealOracle.basis: a call with a finalize child built the basis;
        # any other call was served from a cache (a hit).
        finalize_names = {f"right_quantum.echelon.{cls}.finalize" for cls in ECHELONS}
        built = {s[3] for s in self.spans if s[0] in finalize_names}
        calls = [i for i, s in enumerate(self.spans) if s[0] == "right_quantum.basis"]
        builds = [i for i in calls if i in built]
        out["right_quantum.basis.build_s"] = sum(self.spans[i][2] - self.spans[i][1] for i in builds)
        out["right_quantum.basis.builds"] = len(builds)
        out["right_quantum.basis.hits"] = len(calls) - len(builds)
        out["right_quantum.basis.hit_ratio"] = (len(calls) - len(builds)) / len(calls) if calls else 0.0
        out["right_quantum.rowgen.self_s"] = sum(self.spans[i][5] for i in builds)
        rank = nnz = bits = 0
        for basis in {id(b): b for b in (self.kept[i] for i in builds)}.values():
            r, z, b = basis_stats(basis)
            rank, nnz, bits = rank + r, nnz + z, max(bits, b)
        out["right_quantum.basis.rank"] = rank
        out["right_quantum.basis.nnz"] = nnz
        out["right_quantum.basis.max_coeff_bits"] = bits
        return out


def basis_stats(basis) -> tuple[int, int, int]:
    """(rank, nonzero entries, largest integer coefficient in bits) of an
    echelon basis, read from its public ``rank`` and ``rows``."""
    nnz = bits = 0
    for row in basis.rows.values():
        nnz += len(row)
        for value in row.values():
            coeffs = value.terms.values() if hasattr(value, "terms") else (value,)
            for c in coeffs:
                bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return basis.rank, nnz, bits
