"""The closed-form Koszul differential against the wedge re-expression, and
the whole-map rank against the per-row one.

``reference_complex`` builds the differential the long way, as it was first
written: it expands wedge(J) into all |J|! words, detaches one tensor factor
of each word into the affine side, buckets the remaining words by the
resulting multidegree, and re-expresses each bucket in the wedge basis,
asserting that the bucket lies in the span of the wedge expansions.  It
shares no formula with ``build_complex``, so the two agreeing on whole
bases and matrices is a differential check of the closed form.

``reference_rank`` specializes a map one row at a time, each row with its
own minimum exponent and content, as ranks were first computed; ``_rank``
specializes the whole map in one call.  They must agree in every mode, exact
and specialized.

``reference_comodule_compat`` is the comodule check as it was first written:
both routes as sums of ``NCPoly`` products, one ``contains`` per tensor
pair.  ``comodule_compat_check`` sums flat packed coefficients instead, so
the two agreeing on intact and perturbed differentials checks that rewrite.
"""

from itertools import combinations
from random import Random

import pytest
from test_coaction_reference import modes

from qmm import IdealOracle, NCPoly, QuantumSpace, check_exactness, comodule_compat_check
from qmm.koszul import KoszulComplex, _rank, _sparse_rows, build_complex, composites_vanish
from qmm.right_quantum import new_echelon, to_vector, verdict_rings


def decompose_into_wedges(space, p):
    """Write a homogeneous element of the tensor space as a combination of
    wedge expansions, keyed by subset, and assert that it is one."""
    out = {}
    check = NCPoly.zero(space.x, space.mode)
    seen = set()
    for word in p.terms:
        letters = tuple(sorted(set(word)))
        if len(letters) != len(word) or letters in seen:
            continue  # repeated letters can only appear in cancelling residue
        seen.add(letters)
        alpha = p.coefficient_of(bytes(letters))
        if alpha.is_zero():
            continue
        J = tuple(c + 1 for c in letters)
        out[J] = alpha
        check = check + space.wedge_expand(J).scale(alpha)
    assert check == p, "a bucket left the span of the wedge basis"
    return out


def reference_complex(n, ell, mode, first=False):
    """The complex K^{ell,*} with the last tensor factor of each wedge word
    detached into the affine side; ``first`` detaches the first factor
    instead, the wrong reading, for the negative control."""
    space = QuantumSpace(n, mode)
    bases = []
    for i in range(ell + 1):
        m = ell - i
        subsets = list(combinations(range(1, n + 1), m)) if m <= n else []
        bases.append([(J, r) for J in subsets for r in space.affine_basis(i)])
    maps = [None]
    for i in range(1, ell + 1):
        domain, codomain = bases[i - 1], bases[i]
        index = {key: pos for pos, key in enumerate(codomain)}
        matrix = [[mode.zero() for _ in domain] for _ in codomain]
        for col, (J, r) in enumerate(domain):
            collected = {}
            for word, c in space.wedge_expand(J).terms.items():
                rest, letter = (word[1:], word[0]) if first else (word[:-1], word[-1])
                c2, r2 = space.affine_prepend(letter, r)
                bucket = collected.setdefault(r2, {})
                acc = bucket.get(rest)
                acc = c * c2 if acc is None else acc + c * c2
                if acc.is_zero():
                    bucket.pop(rest, None)
                else:
                    bucket[rest] = acc
            for r2, bucket in collected.items():
                rest_poly = NCPoly(space.x, mode, bucket)
                for I, alpha in decompose_into_wedges(space, rest_poly).items():
                    matrix[index[(I, r2)]][col] = alpha
        maps.append(matrix)
    return KoszulComplex(n, ell, mode, bases, maps)


@pytest.mark.parametrize("n,ell", [(n, ell) for n in (1, 2, 3, 4) for ell in range(1, 6)])
def test_closed_form_matches_the_wedge_re_expression(n, ell):
    for mode in modes(n, seed=10 * n + ell):
        complex = build_complex(n, ell, mode)
        expected = reference_complex(n, ell, mode)
        assert complex.bases == expected.bases, mode
        assert complex.maps == expected.maps, mode


@pytest.mark.parametrize("n", [2, 3, 4])
def test_detaching_the_first_factor_breaks_d_squared(n):
    # the control: w(j, J minus j) in place of w(J minus j, j) is no
    # differential, and d o d = 0 must catch it
    for mode in modes(n, seed=n):
        for ell in range(2, 6):
            assert not composites_vanish(reference_complex(n, ell, mode, first=True)), (mode, ell)


def reference_rank(matrix, assignment) -> int:
    """Rank of a dense scalar matrix, one ``to_vector`` call per row."""
    basis = new_echelon(assignment)
    for row in matrix:
        vec = to_vector(enumerate(row), assignment)
        if vec:
            basis.insert(vec)
    return basis.rank


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_whole_map_rank_matches_the_per_row_rank(n):
    for mode in modes(n, seed=30 + n):
        rings = verdict_rings(mode, True, 0, 1)[1] + verdict_rings(mode, False, n, 3)[1]
        for ell in range(1, 6):
            complex = build_complex(n, ell, mode)
            for matrix in complex.maps[1:]:
                for assignment in rings:
                    expected = reference_rank(matrix, assignment)
                    assert _rank(_sparse_rows(matrix), assignment) == expected, (mode, ell, assignment)


@pytest.mark.parametrize("n", [2, 3])
def test_zeroing_a_row_of_the_top_map_breaks_exactness(n):
    # the top map d_ell onto A_ell is surjective, so every row's basis vector
    # lies in its image and zeroing any nonzero row drops its rank
    for mode in modes(n, seed=40 + n):
        for ell in range(1, 4):
            for exact in (True, False):
                intact = build_complex(n, ell, mode)
                assert check_exactness(intact, exact=exact, seed=n).is_exact
                for r in range(len(intact.maps[ell])):
                    complex = build_complex(n, ell, mode)
                    row = complex.maps[ell][r]
                    assert any(row), (mode, ell, r)
                    complex.maps[ell][r] = [mode.zero()] * len(row)
                    report = check_exactness(complex, exact=exact, seed=n)
                    assert not report.is_exact, (mode, ell, r, exact)


def reference_comodule_compat(complex, oracle) -> bool:
    """Both routes of the comodule square as NCPoly products, compared one
    tensor pair at a time with ``contains``."""
    n, ell, mode = complex.n, complex.ell, complex.mode
    space = QuantumSpace(n, mode)
    zero = NCPoly.zero(space.z, mode)
    tensor = {}
    for i in range(1, ell + 1):
        domain, codomain = complex.bases[i - 1], complex.bases[i]
        for col, (J, r) in enumerate(domain):
            route_a, route_b = {}, {}
            for w4, cpoly in space.coaction_tensor_poly(space.wedge_expand(J)).items():
                for r4, bpoly in space.coaction_affine(r).items():
                    c, r3 = space.affine_prepend(w4[-1], r4)
                    key = (w4[:-1], r3)
                    route_a[key] = route_a.get(key, zero) + (cpoly * bpoly).scale(c)
            for row, (I, r2) in enumerate(codomain):
                alpha = complex.maps[i][row][col]
                if alpha.is_zero():
                    continue
                if I not in tensor:
                    tensor[I] = space.coaction_tensor_poly(space.wedge_expand(I))
                for w, cpoly in tensor[I].items():
                    for r3, bpoly in space.coaction_affine(r2).items():
                        key = (w, r3)
                        route_b[key] = route_b.get(key, zero) + (cpoly * bpoly).scale(alpha)
            for key in set(route_a) | set(route_b):
                if not oracle.contains(route_a.get(key, zero) - route_b.get(key, zero)):
                    return False
    return True


def perturbations(complex, rng):
    """The intact complex, then one nonzero entry of the top map each scaled
    by 2, raised by 1 (a non-monomial entry) and zeroed."""
    yield complex
    nonzero = [(r, c) for r, row in enumerate(complex.maps[-1]) for c, x in enumerate(row) if x]
    for change in (lambda x: x * 2, lambda x: x + 1, lambda x: x * 0):
        r, c = rng.choice(nonzero)
        maps = [m if m is None else [list(row) for row in m] for m in complex.maps]
        maps[-1][r][c] = change(maps[-1][r][c])
        yield KoszulComplex(complex.n, complex.ell, complex.mode, complex.bases, maps)


@pytest.mark.parametrize("n,ells", [(2, (1, 2, 3)), (3, (2, 3))])
def test_flat_comodule_check_matches_the_ncpoly_routes(n, ells, monkeypatch):
    rng = Random(60 + n)
    for mode in modes(n, seed=50 + n):
        for exact in (True, False):
            oracle = IdealOracle(n, mode, exact=exact, seed=n, draws=2)
            for ell in ells:
                for complex in perturbations(build_complex(n, ell, mode), rng):
                    expected = reference_comodule_compat(complex, oracle)
                    monkeypatch.setattr("qmm.koszul.build_complex", lambda *_, c=complex: c)
                    assert comodule_compat_check(n, ell, oracle) == expected, (mode, exact, ell)
                    monkeypatch.undo()
                    assert expected == (complex.maps == build_complex(n, ell, mode).maps)
