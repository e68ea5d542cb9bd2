"""The closed-form Koszul differential against the wedge re-expression, and
the homotopy certificate against the rank.

``reference_complex`` builds the differential the long way, as it was first
written: it expands wedge(J) into all |J|! words, detaches one tensor factor
of each word into the affine side, buckets the remaining words by the
resulting multidegree, and re-expresses each bucket in the wedge basis,
asserting that the bucket lies in the span of the wedge expansions.  It
shares no formula with ``build_complex``, so the two agreeing on whole
bases and matrices is a differential check of the closed form.
``dense_closed_form`` is the closed form as first built, a dense list per
row with every entry computed afresh; it checks the sparse rows, the shared
weights and the positions ``build_complex`` computes.

``reference_rank`` is the fraction-free rank of a map, one
``SymbolicEchelon`` insert per row, over the mode's own ring (the Laurent
ring, or Q in numeric mode); exactness was
first decided by it.  ``check_exactness`` certifies by a contracting
homotopy instead, which is one-sided: it must agree with the reference on
every intact complex, never certify a complex with d o d = 0 and nonzero
reference homology, and report the exact 2-cube whose homotopy edges are
zeroed as inconclusive.

``reference_comodule_compat`` is the comodule check as it was first written:
both routes as sums of ``NCPoly`` products, one ``contains`` per tensor
pair, every column expanded.  ``comodule_compat_check`` clears the columns
in closed form by the multiplicativity lemma and expands the others through
per-call caches, so the two agreeing on intact and perturbed differentials
checks that route.
"""

import io
import json
from contextlib import redirect_stdout
from itertools import combinations
from random import Random

import pytest
from test_coaction_reference import modes

from qmm import IdealOracle, NCPoly, ParamMode, QuantumSpace, check_exactness, comodule_compat_check
from qmm.cli import main
from qmm.koszul import KoszulComplex, SparseRow, build_complex, composites_vanish
from qmm.right_quantum import SymbolicEchelon


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
        maps.append(sparse_rows(matrix, mode))
    return KoszulComplex(n, ell, mode, bases, maps)


def sparse_rows(matrix, mode):
    """A dense matrix as the ``SparseRow`` list the checks read."""
    return [SparseRow(len(row), mode.zero(), {c: x for c, x in enumerate(row) if x}) for row in matrix]


def dense_closed_form(n, ell, mode):
    """The maps of ``build_complex`` as first written: dense lists, every
    entry w(J - j, j) c_j(r) computed afresh, no weight shared."""
    space = QuantumSpace(n, mode)
    bases = build_complex(n, ell, mode).bases
    maps = [None]
    for i in range(1, ell + 1):
        domain, codomain = bases[i - 1], bases[i]
        index = {key: pos for pos, key in enumerate(codomain)}
        matrix = [[mode.zero()] * len(domain) for _ in codomain]
        for col, (J, r) in enumerate(domain):
            for j in J:
                I = tuple(a for a in J if a != j)
                c, r2 = space.affine_prepend(j - 1, r)
                matrix[index[(I, r2)]][col] = space.exterior_weight(I + (j,)) * c
        maps.append(matrix)
    return maps


@pytest.mark.parametrize("n,ell", [(n, ell) for n in (1, 2, 3, 4) for ell in range(1, 6)])
def test_closed_form_matches_the_wedge_re_expression(n, ell):
    for mode in modes(n, seed=10 * n + ell):
        complex = build_complex(n, ell, mode)
        expected = reference_complex(n, ell, mode)
        assert complex.bases == expected.bases, mode
        assert complex.maps == expected.maps, mode
        assert complex.maps == dense_closed_form(n, ell, mode), mode


@pytest.mark.parametrize("n", [2, 3, 4])
def test_detaching_the_first_factor_breaks_d_squared(n):
    # the control: w(j, J minus j) in place of w(J minus j, j) is no
    # differential, and d o d = 0 must catch it
    for mode in modes(n, seed=n):
        for ell in range(2, 6):
            assert not composites_vanish(reference_complex(n, ell, mode, first=True)), (mode, ell)


def reference_rank(matrix) -> int:
    """Rank of a scalar matrix over its mode's own ring, one echelon insert
    per nonzero row."""
    basis = SymbolicEchelon()
    for row in matrix:
        vec = {k: c for k, c in enumerate(row) if c}
        if vec:
            basis.insert(vec)
    return basis.rank


def reference_homology(complex) -> list:
    """dims minus the ranks of the maps on either side, at every position."""
    ranks = [0] + [reference_rank(m) for m in complex.maps[1:]] + [0]
    return [d - ranks[i] - ranks[i + 1] for i, d in enumerate(complex.dims)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_homotopy_matches_the_reference_rank(n):
    for mode in modes(n, seed=30 + n):
        for ell in range(1, 6):
            complex = build_complex(n, ell, mode)
            expected = reference_homology(complex)
            assert not any(expected), (mode, ell)
            assert check_exactness(complex), (mode, ell)


def single_entry_perturbations(complex):
    """(i, row, column, changed map list) for every nonzero entry of every
    map, each zeroed, times q_12 and plus 1."""
    mode = complex.mode
    changes = (("zeroed", lambda x: x * 0), ("times q_12", lambda x: x * mode.q(1, 2)), ("plus 1", lambda x: x + 1))
    for i in range(1, complex.ell + 1):
        for r, row in enumerate(complex.maps[i]):
            for c, x in enumerate(row):
                if not x:
                    continue
                for name, change in changes:
                    maps = [m if m is None else [rw.copy() for rw in m] for m in complex.maps]
                    maps[i][r][c] = change(x)
                    yield name, (i, r, c), KoszulComplex(complex.n, complex.ell, mode, complex.bases, maps)


@pytest.mark.parametrize("n,ell", [(2, 3), (3, 3), (3, 4)])
def test_the_homotopy_never_certifies_a_complex_with_homology(n, ell):
    seen = set()
    for name, where, complex in single_entry_perturbations(build_complex(n, ell, ParamMode.multi(n))):
        conclusive = check_exactness(complex)
        if name == "zeroed":
            assert not conclusive, where
        if composites_vanish(complex):
            homology = any(reference_homology(complex))
            assert not (conclusive and homology), (name, where)
            seen.add((conclusive, homology))
    # the sweep meets both a certified complex and one with homology
    assert {(True, False), (False, True)} <= seen


def two_cube_control():
    """K^{2,*} at n = 2 with the edges (1,2) -> (2) x x_1 and (1) x x_2 ->
    x_1 x_2 zeroed: still a complex, still exact, but the homotopy divides
    by the first edge."""
    mode = ParamMode.multi(2)
    complex = build_complex(2, 2, mode)
    for i, row, col in ((1, ((2,), (1, 0)), ((1, 2), (0, 0))), (2, ((), (1, 1)), ((1,), (0, 1)))):
        r, c = complex.bases[i].index(row), complex.bases[i - 1].index(col)
        assert complex.maps[i][r][c], (i, row, col)
        complex.maps[i][r][c] = mode.zero()
    return complex


def test_the_two_cube_control_is_inconclusive_not_exact(monkeypatch):
    complex = two_cube_control()
    assert composites_vanish(complex)
    assert reference_homology(complex) == [0, 0, 0]
    assert check_exactness(complex) is False
    # the CLI checks K^2 for --ell 2; the control stands in for it
    monkeypatch.setattr("qmm.koszul.build_complex", lambda *_: two_cube_control())
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["koszul", "--n", "2", "--ell", "2", "--output", "json"]) == 3
    assert json.loads(out.getvalue())["results"] == [{
        "conclusive": False, "d_squared_zero": True, "dims": [1, 4, 3], "ell": 2,
        "euler_characteristic": 0, "homology": None, "n": 2,
    }]


def test_check_exactness_returns_exactly_a_bool():
    assert check_exactness(build_complex(2, 2, ParamMode.multi(2))) is True
    assert check_exactness(two_cube_control()) is False


def test_an_inconclusive_complex_outranks_a_failed_d_squared(monkeypatch):
    # nothing is known of an uncertified complex, so the sweep is
    # inconclusive (exit 3), not verified false, even where d o d fails
    monkeypatch.setattr("qmm.koszul.build_complex", lambda *_: two_cube_control())
    monkeypatch.setattr("qmm.koszul.composites_vanish", lambda complex: False)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["koszul", "--n", "2", "--ell", "2", "--output", "json"]) == 3
    assert '"d_squared_zero":false' in out.getvalue() and '"pass":false' in out.getvalue()


@pytest.mark.parametrize("n", [2, 3])
def test_zeroing_a_row_of_the_top_map_breaks_exactness(n):
    # the top map d_ell onto A_ell is surjective, so every row's basis vector
    # lies in its image and zeroing any nonzero row drops its rank
    for mode in modes(n, seed=40 + n):
        for ell in range(1, 4):
            intact = build_complex(n, ell, mode)
            assert check_exactness(intact)
            for r in range(len(intact.maps[ell])):
                complex = build_complex(n, ell, mode)
                row = complex.maps[ell][r]
                assert any(row), (mode, ell, r)
                complex.maps[ell][r] = SparseRow(len(row), mode.zero())
                assert any(reference_homology(complex)), (mode, ell, r)
                assert not check_exactness(complex), (mode, ell, r)


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
        maps = [m if m is None else [row.copy() for row in m] for m in complex.maps]
        maps[-1][r][c] = change(maps[-1][r][c])
        yield KoszulComplex(complex.n, complex.ell, complex.mode, complex.bases, maps)


@pytest.mark.parametrize("n,ells", [(2, (1, 2, 3)), (3, (2, 3))])
def test_flat_comodule_check_matches_the_ncpoly_routes(n, ells, monkeypatch):
    rng = Random(60 + n)
    for mode in modes(n, seed=50 + n):
        oracle = IdealOracle(n, mode)
        for rerun in (1, 2):  # two rounds of random perturbations
            for ell in ells:
                for complex in perturbations(build_complex(n, ell, mode), rng):
                    expected = reference_comodule_compat(complex, oracle)
                    monkeypatch.setattr("qmm.koszul.build_complex", lambda *_, c=complex: c)
                    assert comodule_compat_check(n, ell, oracle) == expected, (mode, rerun, ell)
                    monkeypatch.undo()
                    assert expected == (complex.maps == build_complex(n, ell, mode).maps)
