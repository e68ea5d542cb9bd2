"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Everything here is identity-based and exact: membership and equality checks
have no tolerances.  The two timed criteria (1 and 11) assert the stated wall
clock budgets.  Run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion lines.
"""

import math
import time
from fractions import Fraction
from itertools import combinations, product
from random import Random

from qmm import (
    IdealOracle,
    NCPoly,
    ParamMode,
    QMatrix,
    QuantumSpace,
    TensorPoly,
    bos_series,
    build_complex,
    check_exactness,
    classical_check,
    comodule_compat_check,
    composites_vanish,
    comultiply,
    euler_characteristic,
    ferm_series,
    qdet,
    twisted_bos_series,
    twisted_ferm_series,
    verify_master,
    verify_qdet_coaction,
    verify_twisted,
)
from test_macmahon import wedge_coaction_diagonal
from test_twisted_reference import special_torus, torus_act


def record(number, name, ok):
    print(f"ACCEPTANCE {number:>2} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_master_identity():
    start = time.monotonic()
    ok = True

    mode2 = ParamMode.multi(2)
    ok &= verify_master(IdealOracle(2, mode2), 6)["pass"]

    mode3 = ParamMode.multi(3)
    ok &= verify_master(IdealOracle(3, mode3), 4)["pass"]

    ok &= verify_master(IdealOracle(2, mode2), 4)["pass"]
    ok &= verify_master(IdealOracle(3, mode3), 5)["pass"]
    mode4 = ParamMode.multi(4)
    ok &= verify_master(IdealOracle(4, mode4), 4)["pass"]

    elapsed = time.monotonic() - start
    ok &= elapsed < 300
    record(1, f"master identity, {elapsed:.1f}s", ok)


def test_criterion_02_determinant_cross_check():
    ok = True
    for n in range(1, 5):
        mode = ParamMode.multi(n)
        sp = QuantumSpace(n, mode)
        Z = QMatrix.generic(n, mode)
        for m in range(1, n + 1):
            for J in combinations(range(1, n + 1), m):
                ok &= wedge_coaction_diagonal(sp, J) == qdet(Z, J)
    record(2, "wedge coaction diagonal equals qdet", ok)


def test_criterion_03_wedge_well_definedness():
    ok = True
    for n in range(1, 5):
        sp = QuantumSpace(n, ParamMode.multi(n))
        for m in range(1, n + 1):
            for J in combinations(range(1, n + 1), m):
                ok &= sp.wedge_pairing_check(J)
    record(3, "wedge pairing vanishes on dual relations", ok)


def test_criterion_04_qdet_coaction():
    ok = verify_qdet_coaction(IdealOracle(2, ParamMode.multi(2)))
    ok &= verify_qdet_coaction(IdealOracle(3, ParamMode.multi(3)))
    record(4, "full wedge coacts through qdet", ok)


def test_criterion_05_group_like_determinant():
    mode = ParamMode.multi(2)
    det = qdet(QMatrix.generic(2, mode), (1, 2))
    difference = comultiply(det) - TensorPoly.outer(det, det)
    ok = IdealOracle(2, mode).contains_tensor(difference)
    record(5, "determinant is group-like (n=2, exact)", ok)


def test_criterion_06_koszul_exactness():
    ok = True
    for n in (1, 2, 3):
        mode = ParamMode.multi(n)
        for ell in range(1, 5):
            complex = build_complex(n, ell, mode)
            ok &= composites_vanish(complex)
            ok &= check_exactness(complex).conclusive
    for n in range(1, 6):
        for ell in range(1, 9):
            ok &= euler_characteristic(n, ell) == 0
    record(6, "Koszul complexes exact, d^2=0, Euler zero", ok)


def test_criterion_07_comodule_compatibility():
    oracle = IdealOracle(2, ParamMode.multi(2))
    ok = comodule_compat_check(2, 1, oracle) and comodule_compat_check(2, 2, oracle)
    record(7, "differential is a comodule map (n=2, ell<=2)", ok)


def test_criterion_08_twisted_identity():
    ok = True
    mode = ParamMode.single()
    for n in (2, 3):
        sp = QuantumSpace(n, mode)
        report = verify_twisted(IdealOracle(n, mode), 4)
        ok &= report["pass"]
        ok &= all(r["twist_weights_match_torus"] for r in report["results"])
        tau = special_torus(n, mode)
        bos = bos_series(sp, 4).body
        ferm = ferm_series(sp, 4).body
        tbos = twisted_bos_series(sp, 4).body
        tferm = twisted_ferm_series(sp, 4).body
        for k in range(5):
            ok &= torus_act(tau, bos[k]) == tbos[k]
            ok &= torus_act(tau, ferm[k]) == tferm[k]
    record(8, "twisted identity and torus weights", ok)


def test_criterion_09_classical_specialization():
    rng = Random(7)
    ok = True
    for n in (2, 3):
        for _ in range(20):
            entries = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
                for _ in range(n)
            ]
            ok &= classical_check(entries, 6)
    record(9, "classical MacMahon at q=1, 20+20 matrices", ok)


def test_criterion_10_character_lemma_shadow():
    ok = True
    # trace multiplicativity on the tensor square of the vector comodule
    for n in (2, 3, 4):
        sp = QuantumSpace(n, ParamMode.multi(n))
        trace = NCPoly.zero(sp.z, sp.mode)
        for i in range(1, n + 1):
            trace = trace + sp.z_gen(i, i)
        square = NCPoly.zero(sp.z, sp.mode)
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                square = square + sp.z_gen(i, i) * sp.z_gen(k, k)
        ok &= square == trace * trace
    # dimension identities
    for n in range(1, 6):
        sp = QuantumSpace(n, ParamMode.multi(n))
        for degree in range(9):
            ok &= len(sp.affine_basis(degree)) == math.comb(n + degree - 1, degree)
            ok &= len(list(combinations(range(1, n + 1), degree))) == math.comb(n, degree)
    # the exterior normal form really has the increasing words as its basis
    for n in (2, 3):
        sp = QuantumSpace(n, ParamMode.multi(n))
        for m in range(5):
            images = set()
            for word in product(range(n), repeat=m):
                nf = sp.exterior_normalize(bytes(word))
                if nf.is_zero():
                    continue
                ((w, _),) = nf.terms.items()
                ok &= list(w) == sorted(set(w))
                images.add(w)
            ok &= len(images) == math.comb(n, m)
    record(10, "character lemma shadow and dimensions", ok)


def test_criterion_11_performance_bounds():
    mode = ParamMode.multi(3)
    oracle = IdealOracle(3, mode)
    comps = [c for c in product(range(5), repeat=3) if sum(c) == 4]
    blocks = [(lower, upper) for lower in comps for upper in comps]
    start = time.monotonic()
    rank = sum(oracle.basis(4, block).rank for block in blocks)
    build_time = time.monotonic() - start
    # every degree-4 block, and together the rank of the whole degree-4 ideal
    ok = len(blocks) == 225 and rank == 1818 and build_time < 60

    sp = QuantumSpace(3, mode)
    residual = (bos_series(sp, 4).body * ferm_series(sp, 4).body)[4]
    start = time.monotonic()
    member = oracle.contains(residual)
    query_time = time.monotonic() - start
    ok &= member and query_time < 0.1
    record(11, f"basis {build_time:.1f}s, query {query_time*1000:.1f}ms", ok)
