"""Affine normal form, exterior dual, wedge basis, coactions."""

import math
from itertools import combinations, permutations, product
from random import Random

import pytest
from test_coaction_reference import monomial_word

from qmm import NCPoly, ParamMode, QuantumSpace


def space(n):
    return QuantumSpace(n, ParamMode.multi(n))


def exterior_normalize(sp, word):
    """Normal form in the exterior dual: repeated letters kill the word,
    and each swap of a descending adjacent pair x^l x^k (k < l) costs
    -q_kl^{-1}.  The result is supported on one strictly increasing word
    (or is zero)."""
    letters = bytes(word)
    if len(set(letters)) != len(letters):
        return NCPoly.zero(sp.x, sp.mode)
    weight = sp.exterior_weight([c + 1 for c in letters])
    return NCPoly.monomial(sp.x, sp.mode, bytes(sorted(letters)), weight)


def reference_relation_generators(sp):
    """The n squares and C(n,2) q-anticommutators spanning the degree-2
    relations of the exterior dual."""
    gens = [NCPoly.monomial(sp.x, sp.mode, sp.x.x_word([l, l])) for l in range(1, sp.n + 1)]
    for k, l in combinations(range(1, sp.n + 1), 2):
        p = NCPoly.monomial(sp.x, sp.mode, sp.x.x_word([k, l]))
        gens.append(p + NCPoly.monomial(sp.x, sp.mode, sp.x.x_word([l, k]), sp.mode.q(k, l)))
    return gens


def reference_vanishes_on_dual_relations(sp, p, m):
    """Pair p with every u * r * v, |u| + |v| = m - 2, equal words pairing
    to 1, and require every pairing to vanish."""
    gens = reference_relation_generators(sp)
    for pos in range(m - 1):
        for u in product(range(sp.n), repeat=pos):
            for v in product(range(sp.n), repeat=m - 2 - pos):
                for r in gens:
                    total = sp.mode.zero()
                    for w, c in r.terms.items():
                        other = p.terms.get(bytes(u) + w + bytes(v))
                        if other is not None:
                            total = total + c * other
                    if not total.is_zero():
                        return False
    return True


def brute_normalize(sp, word):
    """Independent normal-form oracle: apply one adjacent swap at a time,
    multiplying by q for that swap, until the word is sorted."""
    word = list(word)
    coeff = sp.mode.one()
    changed = True
    while changed:
        changed = False
        for pos in range(len(word) - 1):
            if word[pos] > word[pos + 1]:
                i, j = word[pos + 1] + 1, word[pos] + 1
                coeff = coeff * sp.mode.q(i, j)
                word[pos], word[pos + 1] = word[pos + 1], word[pos]
                changed = True
                break
    return coeff, bytes(word)


def test_affine_normalize_single_swap():
    sp = space(2)
    c, m = sp.affine_normalize(sp.x.x_word([2, 1]))
    assert c == sp.mode.q(1, 2)
    assert m == (1, 1)


def test_affine_normalize_square():
    sp = space(2)
    c, m = sp.affine_normalize(sp.x.x_word([1, 1]))
    assert c == sp.mode.one()
    assert m == (2, 0)


def test_affine_normalize_three_swaps():
    sp = space(3)
    c, m = sp.affine_normalize(sp.x.x_word([3, 2, 1]))
    assert c == sp.mode.q(1, 2) * sp.mode.q(1, 3) * sp.mode.q(2, 3)
    assert m == (1, 1, 1)


def test_affine_normalize_matches_swap_oracle():
    rng = Random(41)
    sp = space(3)
    for _ in range(60):
        word = bytes(rng.randrange(3) for _ in range(rng.randint(0, 6)))
        c, m = sp.affine_normalize(word)
        oc, oword = brute_normalize(sp, word)
        assert c == oc
        assert monomial_word(m) == oword


def test_affine_normalize_idempotent_on_sorted():
    sp = space(3)
    for m in sp.affine_basis(4):
        c, back = sp.affine_normalize(monomial_word(m))
        assert c == sp.mode.one()
        assert back == m


def test_affine_basis_order_and_size():
    sp = space(2)
    assert sp.affine_basis(2) == [(2, 0), (1, 1), (0, 2)]
    assert space(3).affine_basis(0) == [(0, 0, 0)]
    assert len(space(3).affine_basis(2)) == 6
    for n in range(1, 6):
        spn = space(n)
        for degree in range(9):
            assert len(spn.affine_basis(degree)) == math.comb(n + degree - 1, degree)


def test_exterior_normalize_square_kills():
    sp = space(2)
    assert exterior_normalize(sp, sp.x.x_word([1, 1])).is_zero()


def test_exterior_normalize_swap():
    sp = space(2)
    got = exterior_normalize(sp, sp.x.x_word([2, 1]))
    expected = NCPoly.monomial(sp.x, sp.mode, sp.x.x_word([1, 2]), -sp.mode.q(1, 2).inv())
    assert got == expected


def test_exterior_normalize_repeated_after_swap():
    sp = space(2)
    assert exterior_normalize(sp, sp.x.x_word([2, 1, 2])).is_zero()


def test_wedge_singleton():
    sp = space(3)
    w = sp.wedge_expand((1,))
    assert w == NCPoly.monomial(sp.x, sp.mode, sp.x.x_word([1]))


def test_wedge_of_the_empty_subset_is_one():
    sp = space(3)
    assert sp.wedge_expand(()) == NCPoly.one(sp.x, sp.mode)


@pytest.mark.parametrize("subset", [(0,), (4,), (1, 1), (2, 5)])
def test_wedge_rejects_out_of_range_or_repeated_indices(subset):
    with pytest.raises(ValueError, match="subset"):
        space(3).wedge_expand(subset)


def test_wedge_pair():
    sp = space(2)
    w = sp.wedge_expand((1, 2))
    expected = NCPoly.monomial(sp.x, sp.mode, sp.x.x_word([1, 2])) + NCPoly.monomial(
        sp.x, sp.mode, sp.x.x_word([2, 1]), -sp.mode.q(1, 2).inv()
    )
    assert w == expected


def test_wedge_triple_longest_element():
    sp = space(3)
    w = sp.wedge_expand((1, 2, 3))
    assert w.support_size() == 6
    longest = w.coefficient_of(sp.x.x_word([3, 2, 1]))
    q = sp.mode
    assert longest == -(q.q(1, 2).inv() * q.q(1, 3).inv() * q.q(2, 3).inv())


def test_wedge_increasing_coefficient_is_one():
    sp = space(4)
    for m in range(1, 5):
        for J in combinations(range(1, 5), m):
            w = sp.wedge_expand(J)
            assert w.coefficient_of(sp.x.x_word(J)) == sp.mode.one()


def test_wedge_counts_match_exterior_dimension():
    for n in range(1, 5):
        sp = space(n)
        for m in range(1, n + 1):
            subsets = list(combinations(range(1, n + 1), m))
            assert len(subsets) == math.comb(n, m)
            for J in subsets:
                assert sp.wedge_expand(J).support_size() == math.factorial(m)


def test_wedge_pairing_check_all_subsets():
    for n in range(1, 5):
        sp = space(n)
        for m in range(1, n + 1):
            for J in combinations(range(1, n + 1), m):
                assert reference_vanishes_on_dual_relations(sp, sp.wedge_expand(J), m)


def test_wedge_pairing_vacuous_below_degree_two():
    sp = space(3)
    assert reference_vanishes_on_dual_relations(sp, sp.wedge_expand((1,)), 1)


def position_indexed_wedge(sp, J):
    """The rejected convention: weights read the positions 1..m instead of
    the subset elements."""
    terms = {}
    for pi in permutations(range(len(J))):
        w = sp.mode.one()
        for a in range(len(J)):
            for b in range(a + 1, len(J)):
                if pi[a] > pi[b]:
                    w = w * (-sp.mode.q(pi[b] + 1, pi[a] + 1)).inv()
        terms[sp.x.x_word([J[p] for p in pi])] = w
    return NCPoly(sp.x, sp.mode, terms)


def test_position_indexed_convention_fails_off_initial_subsets():
    # decides the weight-convention question: for J != {1..m} the
    # position-indexed weights do not annihilate the dual relations
    for n in (3, 4):
        sp = space(n)
        for m in range(2, n + 1):
            for J in combinations(range(1, n + 1), m):
                expansion = position_indexed_wedge(sp, J)
                ok = reference_vanishes_on_dual_relations(sp, expansion, m)
                if J == tuple(range(1, m + 1)):
                    assert ok  # the two conventions coincide there
                else:
                    assert not ok


def test_coaction_affine_on_generators():
    sp = space(2)
    for i in (1, 2):
        m = tuple(1 if k == i else 0 for k in (1, 2))
        family = sp.coaction_affine(m)
        assert set(family) == {(1, 0), (0, 1)}
        for j in (1, 2):
            r = (1, 0) if j == 1 else (0, 1)
            assert family[r] == sp.z_gen(i, j)


def test_coaction_affine_mixed_diagonal():
    sp = space(2)
    family = sp.coaction_affine((1, 1))
    z = sp.z_gen
    assert family[(1, 1)] == z(1, 1) * z(2, 2) + (z(1, 2) * z(2, 1)).scale(sp.mode.q(1, 2))


def test_coaction_affine_square_diagonal():
    sp = space(2)
    family = sp.coaction_affine((2, 0))
    assert family[(2, 0)] == sp.z_gen(1, 1) * sp.z_gen(1, 1)


def test_coaction_affine_grading():
    sp = space(3)
    for m in ((1, 1, 0), (2, 0, 1), (0, 3, 0)):
        family = sp.coaction_affine(m)
        for r, b in family.items():
            assert sum(r) == sum(m)
            assert b.homogeneous_degree() == sum(m)


def test_coaction_tensor_single_letter():
    sp = space(2)
    family = sp.coaction_tensor_poly(NCPoly.monomial(sp.x, sp.mode, sp.x.x_word([1])))
    for j in (1, 2):
        assert family[sp.x.x_word([j])] == sp.z_gen(1, j)


def test_coaction_tensor_full_expansion():
    sp = space(2)
    family = sp.coaction_tensor_poly(NCPoly.monomial(sp.x, sp.mode, sp.x.x_word([1, 2])))
    assert len(family) == 4
    for jword, poly in family.items():
        assert poly.support_size() == 1


def test_coaction_tensor_leading_term_of_permuted_word():
    # the coefficient of the increasing word in the coaction of a permuted
    # word is the single product z_{pi(1)}^1 ... z_{pi(n)}^n
    sp = space(3)
    target = sp.x.x_word([1, 2, 3])
    for pi in permutations((1, 2, 3)):
        family = sp.coaction_tensor_poly(NCPoly.monomial(sp.x, sp.mode, sp.x.x_word(pi)))
        expected = NCPoly.monomial(
            sp.z, sp.mode, sp.z.z_word((pi[k], k + 1) for k in range(3))
        )
        assert family[target] == expected


def test_hilbert_alternating_identity():
    # dimension shadow of the exact complexes
    for n in range(1, 6):
        for degree in range(1, 9):
            total = sum(
                (-1) ** i * math.comb(n, i) * math.comb(n + degree - i - 1, degree - i)
                for i in range(degree + 1)
            )
            assert total == 0


def test_character_multiplicativity_on_tensor_square():
    # trace of the coaction on A_1 (x) A_1 equals (trace on A_1)^2 already in
    # the free algebra
    sp = space(3)
    trace = NCPoly.zero(sp.z, sp.mode)
    for i in range(1, 4):
        trace = trace + sp.z_gen(i, i)
    square = NCPoly.zero(sp.z, sp.mode)
    for i in range(1, 4):
        for k in range(1, 4):
            square = square + sp.z_gen(i, i) * sp.z_gen(k, k)
    assert square == trace * trace


@pytest.mark.parametrize(
    "mode", [ParamMode.multi(2), ParamMode.single(), ParamMode.numeric(2, {(1, 2): 3})], ids=["multi", "single", "numeric"]
)
def test_exterior_weight_rejects_an_index_outside_1_to_n(mode):
    sp = QuantumSpace(2, mode)
    for indices in [(5, 1), (0, -3), (3,), (0,), (1, 3), (2, 1, 0)]:
        with pytest.raises(ValueError):
            sp.exterior_weight(indices)


def test_inversion_weight_identity_permutation():
    # w(pi) is the exterior weight of the word J o pi
    sp = space(3)
    assert sp.exterior_weight((1, 3)) == sp.mode.one()
    assert sp.exterior_weight((3, 1)) == (-sp.mode.q(1, 3)).inv()
