"""Relations of the right-quantum algebra and the ideal membership oracle."""

import math
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from test_relations_reference import column_relation, cross_relation

from qmm import (
    IdealOracle,
    NCPoly,
    ParamMode,
    QMatrix,
    QuantumSpace,
    TensorPoly,
    build_relations,
    column_reduce,
    comultiply,
    counit,
    counit_left,
    is_right_quantum,
    qdet,
)
from qmm.free_algebra import word_rank
from qmm.param_ring import ParamScalar
from qmm.right_quantum import (
    SymbolicEchelon,
    _strip_symbolic,
    block_words,
    word_block,
)

# the n=2 degree-3 block of z11 z11 z22: lower and upper counts both (2, 1)
BLOCK_211 = ((2, 1), (2, 1))


def blocks(n, degree):
    """Every block of the given degree: pairs of n-part compositions."""
    comps = [c for c in product(range(degree + 1), repeat=n) if sum(c) == degree]
    return [(lower, upper) for lower in comps for upper in comps]


def brute_member(p, n, mode, assignment):
    """Independent span oracle: the full u*r*v spanning set at one rational
    specialization, no column preprocessing, dense elimination over Q."""
    degree = p.homogeneous_degree()
    if p.is_zero():
        return True
    if degree < 2:
        return False
    size = n * n
    rows = []
    for rel in build_relations(n, mode):
        for left_len in range(degree - 1):
            for u in product(range(size), repeat=left_len):
                for v in product(range(size), repeat=degree - 2 - left_len):
                    row = {}
                    for w, c in rel.terms.items():
                        row[word_rank(bytes(u) + w + bytes(v), size)] = c.specialize(assignment)
                    rows.append(row)
    pivots = {}

    def insert(row):
        row = {k: v for k, v in row.items() if v}
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = row
                return True
            other = pivots[lead]
            factor = row[lead] / other[lead]
            for k, v in other.items():
                nv = row.get(k, 0) - factor * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
        return False

    for row in rows:
        insert(row)
    return not insert({word_rank(w, size): c.specialize(assignment) for w, c in p.terms.items()})


def test_relation_counts():
    for n in (1, 2, 3, 4):
        rels = build_relations(n, ParamMode.multi(n))
        pairs = math.comb(n, 2)
        assert len(rels) == n * pairs + pairs * pairs
        assert len(rels) == pairs * math.comb(n + 1, 2)
    assert build_relations(1, ParamMode.multi(1)) == []
    assert len(build_relations(2, ParamMode.multi(2))) == 3
    assert len(build_relations(3, ParamMode.multi(3))) == 18


def test_relations_are_homogeneous_degree_two():
    for rel in build_relations(3, ParamMode.multi(3)):
        assert rel.homogeneous_degree() == 2


def test_column_reduce_sorts_equal_uppers():
    mode = ParamMode.multi(2)
    sp = QuantumSpace(2, mode)
    z = sp.z_gen
    # z_2^1 z_1^1 rewrites to q12 z_1^1 z_2^1
    got = column_reduce(z(2, 1) * z(1, 1))
    assert got == (z(1, 1) * z(2, 1)).scale(mode.q(1, 2))
    # column relations, the relations whose words keep one upper index,
    # rewrite to zero outright
    def upper(letter):
        return sp.z.z_indices(letter)[1]

    columns = [rel for rel in build_relations(2, mode) if all(upper(a) == upper(b) for a, b in rel.terms)]
    assert len(columns) == 2
    for rel in columns:
        assert column_reduce(rel).is_zero()


def test_generators_are_members():
    mode = ParamMode.multi(2)
    oracle = IdealOracle(2, mode)
    for rel in build_relations(2, mode):
        assert oracle.contains(rel)


def test_commutator_is_not_a_member():
    mode = ParamMode.multi(2)
    sp = QuantumSpace(2, mode)
    z = sp.z_gen
    comm = z(1, 1) * z(2, 2) - z(2, 2) * z(1, 1)
    assert not IdealOracle(2, mode).contains(comm)


def test_degree_two_master_combination_is_member():
    # chi_{A_2} - chi_{A_1} chi_{A!*_1} + chi_{A!*_2}, the degree-2 identity
    from qmm import bos_series, ferm_series

    mode = ParamMode.multi(2)
    sp = QuantumSpace(2, mode)
    bos = bos_series(sp, 2).body
    ferm = ferm_series(sp, 2).body
    coeff = bos[2] + bos[1] * ferm[1] + ferm[2]
    assert IdealOracle(2, mode).contains(coeff)
    assert brute_member(coeff, 2, mode, dict(zip(mode.variables, [Fraction(5)])))


def test_membership_below_degree_two():
    mode = ParamMode.multi(2)
    sp = QuantumSpace(2, mode)
    oracle = IdealOracle(2, mode)
    assert oracle.contains(NCPoly.zero(sp.z, mode))
    assert not oracle.contains(NCPoly.one(sp.z, mode))
    assert not oracle.contains(sp.z_gen(1, 2))


def test_membership_rejects_inhomogeneous():
    mode = ParamMode.multi(2)
    sp = QuantumSpace(2, mode)
    oracle = IdealOracle(2, mode)
    p = NCPoly.one(sp.z, mode) + sp.z_gen(1, 1)
    with pytest.raises(ValueError):
        oracle.contains(p)
    with pytest.raises(ValueError, match="homogeneous"):
        oracle.contains_packed({w: dict(c.terms) for w, c in p.terms.items()})


def test_membership_is_linear():
    rng = Random(99)
    mode = ParamMode.multi(2)
    sp = QuantumSpace(2, mode)
    oracle = IdealOracle(2, mode)
    rels = build_relations(2, mode)
    z = sp.z_gen
    gens = [z(i, j) for i in (1, 2) for j in (1, 2)]
    for _ in range(15):
        a, b = rng.choice(rels), rng.choice(rels)
        u, v = rng.choice(gens), rng.choice(gens)
        member = u * a + (b * v).scale(mode.q(1, 2) ** rng.randint(-2, 2))
        assert oracle.contains(member)


def test_two_sided_stability():
    mode = ParamMode.multi(2)
    sp = QuantumSpace(2, mode)
    oracle = IdealOracle(2, mode)
    z = sp.z_gen
    for rel in build_relations(2, mode):
        assert oracle.contains(rel)
        for i in (1, 2):
            for j in (1, 2):
                assert oracle.contains(z(i, j) * rel)
                assert oracle.contains(rel * z(i, j))


def test_specialized_and_exact_agree():
    # the benchmark still builds IdealOracle(n, mode, exact=False, seed=...,
    # draws=3); those keywords are read by nothing and change no verdict
    # (n=2, degrees <= 4).  Every other test builds IdealOracle(n, mode).
    rng = Random(7)
    mode = ParamMode.multi(2)
    sp = QuantumSpace(2, mode)
    z = sp.z_gen
    exact = IdealOracle(2, mode)
    spec = IdealOracle(2, mode, exact=False, seed=11, draws=3)
    rels = build_relations(2, mode)
    cases = []
    for rel in rels:
        cases.append(rel)
        cases.append(z(1, 2) * rel)
        cases.append(rel * z(2, 1))
        cases.append(z(1, 1) * rel * z(2, 2))
    cases.append(z(1, 1) * z(2, 2) - z(2, 2) * z(1, 1))
    for _ in range(10):
        word = [rng.choice([(1, 1), (1, 2), (2, 1), (2, 2)]) for _ in range(rng.randint(2, 4))]
        poly = NCPoly.monomial(sp.z, mode, sp.z.z_word(word))
        cases.append(poly)
    for case in cases:
        assert exact.contains(case) == spec.contains(case)


def test_oracle_matches_brute_force_span():
    mode = ParamMode.multi(2)
    sp = QuantumSpace(2, mode)
    z = sp.z_gen
    assignment = dict(zip(mode.variables, [Fraction(7)]))
    exact = IdealOracle(2, mode)
    cross = cross_relation(mode, 2, 1, 2, 1, 2)
    columns = [column_relation(mode, 2, 1, 2, l) for l in (1, 2)]
    cases = [
        cross,
        z(1, 1) * cross,
        columns[0] * z(1, 2) + z(2, 1) * columns[1],
        z(1, 1) * z(2, 2) - z(2, 2) * z(1, 1),
        z(1, 2) * z(2, 1) * z(1, 1),
        (z(1, 1) * z(2, 2) - z(2, 2) * z(1, 1)).scale(mode.q(1, 2)) - cross,
    ]
    for case in cases:
        assert exact.contains(case) == brute_member(case, 2, mode, assignment)


def test_qdet_singleton_and_pair():
    mode = ParamMode.multi(2)
    sp = QuantumSpace(2, mode)
    z = sp.z_gen
    Z = QMatrix.generic(2, mode)
    assert qdet(Z, (1,)) == z(1, 1)
    assert qdet(Z, (2,)) == z(2, 2)
    expected = z(1, 1) * z(2, 2) - (z(2, 1) * z(1, 2)).scale(mode.q(1, 2).inv())
    assert qdet(Z, (1, 2)) == expected


def test_qdet_single_parameter():
    mode = ParamMode.single()
    sp = QuantumSpace(2, mode)
    z = sp.z_gen
    got = qdet(QMatrix.generic(2, mode), (1, 2))
    expected = z(1, 1) * z(2, 2) - (z(2, 1) * z(1, 2)).scale(mode.q(1, 2).inv())
    assert got == expected


def test_qdet_subset_uses_subset_parameters():
    mode = ParamMode.multi(3)
    det = qdet(QMatrix.generic(3, mode), (1, 3))
    # only the q13 slot may carry a nonzero exponent
    slot = mode.variables.index((1, 3))
    for coeff in det.terms.values():
        for exps, _ in coeff.sorted_terms():
            for k, e in enumerate(exps):
                assert e == 0 or k == slot


@pytest.mark.parametrize("subset", [(), (0,), (4,), (1, 1), (2, 5), (0, 1, 2)])
def test_qdet_rejects_every_bad_subset(subset):
    # qdet checks only that the subset is nonempty; wedge_expand checks the
    # range and the repeats
    with pytest.raises(ValueError, match="subset"):
        qdet(QMatrix.generic(3, ParamMode.multi(3)), subset)


def test_comultiply_generator():
    mode = ParamMode.multi(2)
    sp = QuantumSpace(2, mode)
    delta = comultiply(sp.z_gen(1, 1))
    z = sp.z
    assert delta.terms == {
        (z.z_word([(1, 1)]), z.z_word([(1, 1)])): mode.one(),
        (z.z_word([(1, 2)]), z.z_word([(2, 1)])): mode.one(),
    }


def test_counit_is_counit_for_delta():
    mode = ParamMode.multi(2)
    sp = QuantumSpace(2, mode)
    for i in (1, 2):
        for j in (1, 2):
            gen = sp.z_gen(i, j)
            assert counit_left(comultiply(gen)) == gen
    assert counit(sp.z_gen(1, 1)) == mode.one()
    assert counit(sp.z_gen(1, 2)).is_zero()


def test_comultiply_empty_word():
    mode = ParamMode.multi(2)
    sp = QuantumSpace(2, mode)
    delta = comultiply(NCPoly.one(sp.z, mode))
    assert delta.terms == {(b"", b""): mode.one()}


def test_comultiply_is_algebra_map():
    rng = Random(5)
    mode = ParamMode.multi(2)
    sp = QuantumSpace(2, mode)
    gens = [sp.z_gen(i, j) for i in (1, 2) for j in (1, 2)]
    for _ in range(10):
        a = rng.choice(gens) * rng.choice(gens)
        b = rng.choice(gens)
        assert comultiply(a * b) == comultiply(a) * comultiply(b)


def test_delta_respects_relations():
    mode = ParamMode.multi(2)
    oracle = IdealOracle(2, mode)
    for rel in build_relations(2, mode):
        assert oracle.contains_tensor(comultiply(rel))


def test_determinant_is_group_like():
    mode = ParamMode.multi(2)
    det = qdet(QMatrix.generic(2, mode), (1, 2))
    lhs = comultiply(det) - TensorPoly.outer(det, det)
    assert IdealOracle(2, mode).contains_tensor(lhs)


@pytest.mark.parametrize("exact", [True, False])
def test_non_group_like_control(exact):
    mode = ParamMode.multi(2)
    sp = QuantumSpace(2, mode)
    p = sp.z_gen(1, 1) * sp.z_gen(2, 2)
    lhs = comultiply(p) - TensorPoly.outer(p, p)
    assert not IdealOracle(2, mode, exact=exact, seed=4, draws=3).contains_tensor(lhs)

    mode = ParamMode.multi(3)
    sp = QuantumSpace(3, mode)
    oracle = IdealOracle(3, mode, exact=exact, seed=4, draws=3)
    det = qdet(QMatrix.generic(3, mode))
    group_like = comultiply(det) - TensorPoly.outer(det, det)
    assert oracle.contains_tensor(group_like)
    # z11 z22 z33 is column-sorted and maps to a nonzero product under the
    # diagonal right-quantum matrices, so its tensor square survives
    word = NCPoly.monomial(sp.z, mode, sp.z.z_word([(1, 1), (2, 2), (3, 3)]))
    assert column_reduce(word) == word
    assert not oracle.contains_tensor(group_like + TensorPoly.outer(word, word))


def test_outer_rejects_legs_over_another_alphabet_or_mode():
    # legs over n=2 and n=3 would make a tensor labelled Alphabet('z', 2)
    # holding letter id 8, which no membership verdict can be trusted on
    single = ParamMode.single()
    a = QuantumSpace(2, single).z_gen(1, 1)
    b = QuantumSpace(3, single).z_gen(3, 3)
    for left, right in ((a, b), (b, a), (a, QuantumSpace(2, ParamMode.multi(2)).z_gen(1, 1))):
        with pytest.raises(ValueError):
            TensorPoly.outer(left, right)


@pytest.mark.parametrize("exact", [True, False])
def test_tensor_membership_checks_every_row(exact):
    # z11^3 (x) r is a member and comes first; z22^3 (x) z33^3 is not, and
    # only a later surviving row carries it
    mode = ParamMode.multi(3)
    sp = QuantumSpace(3, mode)
    oracle = IdealOracle(3, mode, exact=exact, seed=4, draws=3)
    cube = [NCPoly.monomial(sp.z, mode, sp.z.z_word([(i, i)] * 3)) for i in (1, 2, 3)]
    r = cross_relation(mode, 3, 1, 2, 1, 2) * sp.z_gen(3, 3)
    member = TensorPoly.outer(cube[0], r)
    assert oracle.contains_tensor(member)
    assert not oracle.contains_tensor(member + TensorPoly.outer(cube[1], cube[2]))


def test_is_right_quantum_all_q_one():
    mode = ParamMode.numeric(2, {(1, 2): 1})
    M = QMatrix(2, mode, [[2, 3], [Fraction(1, 2), 5]])
    assert is_right_quantum(M)


def test_is_right_quantum_diagonal_generic():
    mode = ParamMode.multi(2)
    a = mode.q(1, 2) + mode.one()
    b = mode.q(1, 2) ** 2
    M = QMatrix(2, mode, [[a, mode.zero()], [mode.zero(), b]])
    assert is_right_quantum(M)


def test_is_right_quantum_ones_matrix_fails():
    mode = ParamMode.numeric(2, {(1, 2): 2})
    M = QMatrix(2, mode, [[1, 1], [1, 1]])
    assert not is_right_quantum(M)


def test_generic_matrix_is_right_quantum_by_construction():
    assert is_right_quantum(QMatrix.generic(3, ParamMode.multi(3)))


def test_echelon_invariant():
    # distinct pivots, each the smallest column of its own row; finalize
    # checks exactly that and rejects a row filed under another pivot
    for mode in (ParamMode.multi(2), ParamMode.numeric(2, {(1, 2): Fraction(3, 2)})):
        oracle = IdealOracle(2, mode)
        basis = oracle.basis(3, BLOCK_211)
        assert basis.rank > 1
        assert len(set(basis.pivots)) == len(basis.pivots) == len(basis.rows)
        assert all(min(basis.rows[p]) == p for p in basis.pivots)
        p, q = basis.pivots[:2]
        basis.rows[p], basis.rows[q] = basis.rows[q], basis.rows[p]
        with pytest.raises(RuntimeError, match="echelon invariant"):
            basis.finalize()


def test_block_words_partition_each_degree():
    for n, degree in ((2, 3), (3, 2)):
        seen = []
        for block in blocks(n, degree):
            words = block_words(n, block)
            assert len(words) == len(set(words))
            assert all(word_block(w, n) == block for w in words)
            seen += words
        assert sorted(seen) == [bytes(w) for w in product(range(n * n), repeat=degree)]


@pytest.mark.parametrize(
    "n, degree, exact, rank",
    [(2, 3, False, 8), (2, 4, False, 43), (2, 5, False, 196), (3, 3, False, 155),
     (3, 4, False, 1818), (2, 4, True, 43), (3, 3, True, 155)],
)
def test_block_ranks_sum_to_the_global_rank(n, degree, exact, rank):
    # the rank of the whole degree-d ideal, as eliminated over all n^(2d)
    # words at once with every relation (column ones included) as generator
    oracle = IdealOracle(n, ParamMode.multi(n), exact=exact, seed=0, draws=1)
    assert sum(oracle.basis(degree, block).rank for block in blocks(n, degree)) == rank


@pytest.mark.parametrize("exact", [True, False])
def test_member_block_does_not_hide_another_block(exact):
    mode = ParamMode.multi(3)
    sp = QuantumSpace(3, mode)
    oracle = IdealOracle(3, mode, exact=exact, seed=5, draws=3)
    from qmm import bos_series, ferm_series

    residual = (bos_series(sp, 3).body * ferm_series(sp, 3).body)[3]
    assert oracle.contains(residual)
    word = NCPoly.monomial(sp.z, mode, sp.z.z_word([(1, 2), (1, 2), (3, 3)]))
    assert column_reduce(word) == word
    (block,) = {word_block(w, 3) for w in word.terms}
    assert block[0] != block[1]
    assert block not in {word_block(w, 3) for w in residual.terms}
    assert not oracle.contains(residual + word)


@pytest.mark.parametrize("exact", [True, False])
def test_member_block_pair_does_not_hide_another_pair(exact):
    # a member spread over block pairs whose legs differ; its c (x) r part
    # survives the left leg, so only the right block's basis clears it.  A
    # non-member in a pair the member does not touch must still fail.
    mode = ParamMode.multi(2)
    sp = QuantumSpace(2, mode)
    oracle = IdealOracle(2, mode, exact=exact, seed=6, draws=3)
    rel = cross_relation(mode, 2, 1, 2, 1, 2)
    c = NCPoly.monomial(sp.z, mode, sp.z.z_word([(1, 1), (1, 2)]))
    member = comultiply(rel) + TensorPoly.outer(c, rel)
    pairs = {(word_block(wl, 2), word_block(wr, 2)) for wl, wr in member.terms}
    assert any(left != right for left, right in pairs)
    assert oracle.contains_tensor(member)
    b = NCPoly.monomial(sp.z, mode, sp.z.z_word([(1, 1), (2, 1)]))
    other = TensorPoly.outer(c, b)
    assert (word_block(*c.terms, 2), word_block(*b.terms, 2)) not in pairs
    assert not oracle.contains_tensor(member + other)


def _foreign_alphabet():
    # z33 is a letter of the n=3 alphabet that an n=2 oracle cannot place
    mode = ParamMode.multi(2)
    z3 = QuantumSpace(3, ParamMode.multi(3)).z
    p = NCPoly.monomial(z3, mode, z3.z_word([(1, 1), (3, 3)]))
    return p, p


def _foreign_mode():
    mode = ParamMode.single()
    sp = QuantumSpace(2, mode)
    p = sp.z_gen(1, 2) * sp.z_gen(2, 1)
    return p, p


def _inhomogeneous():
    sp = QuantumSpace(2, ParamMode.multi(2))
    return sp.z_gen(1, 1), sp.z_gen(1, 1) * sp.z_gen(2, 2)


# each bad input, as (left factor, right factor), and the error it must raise
BAD_QUERIES = {
    "alphabet": (_foreign_alphabet, "this oracle's n"),
    "mode": (_foreign_mode, "parameter mode"),
    "inhomogeneous": (_inhomogeneous, "homogeneous"),
}


@pytest.mark.parametrize("case", sorted(BAD_QUERIES))
@pytest.mark.parametrize("query", ["contains", "contains_tensor"])
def test_membership_input_check(query, case):
    # one shared check: both queries reject what the oracle cannot decide,
    # rather than answering False or failing deep inside the block split
    make, message = BAD_QUERIES[case]
    p, q = make()
    oracle = IdealOracle(2, ParamMode.multi(2))
    with pytest.raises(ValueError, match=message):
        if query == "contains":
            oracle.contains(p + q)
        else:
            oracle.contains_tensor(TensorPoly.outer(p, q))


def test_tensor_homogeneous_degree():
    sp = QuantumSpace(2, ParamMode.multi(2))
    a, b = sp.z_gen(1, 1), sp.z_gen(1, 2) * sp.z_gen(2, 1)
    assert TensorPoly.zero(sp.z, sp.mode).homogeneous_degree() == 0
    assert TensorPoly.outer(b, b).homogeneous_degree() == 2
    assert TensorPoly.outer(a, b).homogeneous_degree() is None
    assert (TensorPoly.outer(a, a) + TensorPoly.outer(b, b)).homogeneous_degree() is None


def test_scalar_qdet_is_the_evaluated_minor():
    # at q = 1 the quantum minor of a commuting matrix is its determinant
    mode = ParamMode.numeric(3, {(1, 2): 1, (1, 3): 1, (2, 3): 1})
    entries = [[2, Fraction(1, 3), 0], [5, -1, 4], [Fraction(-3, 2), 7, 1]]
    M = QMatrix(3, mode, entries)
    assert qdet(M) == mode.scalar(Fraction(-185, 3))
    assert qdet(M, (1, 3)) == mode.scalar(2)
    # with q12 = 2 the 2x2 minor is z11 z22 - q12^{-1} z21 z12
    mode = ParamMode.numeric(2, {(1, 2): 2})
    assert qdet(QMatrix(2, mode, [[1, 3], [5, 7]])) == mode.scalar(Fraction(-1, 2))


def test_membership_does_not_specialize_scalars(monkeypatch):
    # ParamScalar.specialize is the reference; the oracle's hot path must
    # reach the same verdicts without it
    from qmm import bos_series, ferm_series

    def refuse(self, assignment):
        raise AssertionError("the membership path called ParamScalar.specialize")

    mode = ParamMode.multi(3)
    sp = QuantumSpace(3, mode)
    residual = (bos_series(sp, 3).body * ferm_series(sp, 3).body)[3]
    monkeypatch.setattr(ParamScalar, "specialize", refuse)
    oracle = IdealOracle(3, mode)
    assert oracle.contains(residual)
    assert not oracle.contains(residual + sp.z_gen(1, 2) * sp.z_gen(2, 1) * sp.z_gen(3, 3))


def _summed_term_by_term(tp):
    # both legs column-reduced, one full TensorPoly sum per input term
    out = TensorPoly.zero(tp.alphabet, tp.mode)
    for (wl, wr), c in tp.terms.items():
        left = column_reduce(NCPoly.monomial(tp.alphabet, tp.mode, wl, c))
        right = column_reduce(NCPoly.monomial(tp.alphabet, tp.mode, wr))
        out = out + TensorPoly.outer(left, right)
    return out


def _comultiply_term_by_term(p):
    z, mode = p.alphabet, p.mode
    out = TensorPoly.zero(z, mode)
    for word, coeff in p.terms.items():
        out = out + comultiply(NCPoly.monomial(z, mode, word)).scale(coeff)
    return out


@pytest.mark.parametrize("exact", [True, False])
def test_tensor_accumulation_matches_the_term_by_term_sum(exact):
    mode = ParamMode.multi(3)
    det = qdet(QMatrix.generic(3, mode))
    delta = comultiply(det)
    assert delta == _comultiply_term_by_term(det)
    group_like = delta - TensorPoly.outer(det, det)
    oracle = IdealOracle(3, mode, exact=exact, seed=6, draws=2)
    assert oracle.contains_tensor(group_like) == oracle.contains_tensor(_summed_term_by_term(group_like))
    assert oracle.contains_tensor(group_like)


def test_stripping_keeps_the_scale_of_rational_rows():
    # numeric mode: a row with a rational entry has no integer content to
    # divide out, and no entry may become zero
    mode = ParamMode.numeric(2, {(1, 2): 2})
    row = {0: mode.scalar(2), 1: mode.scalar(Fraction(3, 2))}
    _strip_symbolic(row)
    assert row == {0: mode.scalar(2), 1: mode.scalar(Fraction(3, 2))}
    assert all(c for c in row.values())
    # integer rows still lose their content, and a Laurent row its monomial
    row = {0: mode.scalar(4), 1: mode.scalar(6)}
    _strip_symbolic(row)
    assert row == {0: mode.scalar(2), 1: mode.scalar(3)}
    multi = ParamMode.multi(2)
    q = multi.q(1, 2)
    row = {0: q * 6, 1: q ** 2 * -4 + q * 2}
    _strip_symbolic(row)
    assert row == {0: multi.scalar(3), 1: q * -2 + 1}


def test_rational_rows_keep_their_rank():
    # rows over Q: (2, 3/2) and (4, 3) are dependent, (2, 3/2) and (1, 3/2) not
    mode = ParamMode.numeric(2, {(1, 2): 2})
    s = mode.scalar
    basis = SymbolicEchelon()
    assert basis.insert({0: s(2), 1: s(Fraction(3, 2))})
    assert not basis.insert({0: s(4), 1: s(3)})
    assert basis.insert({0: s(1), 1: s(Fraction(3, 2))})
    basis.finalize()
    assert basis.rank == 2


@pytest.mark.parametrize("mode", [ParamMode.multi(3), ParamMode.numeric(3, {(1, 2): 2, (1, 3): 3, (2, 3): 5})])
def test_oracle_rejects_a_mode_for_another_n(mode):
    # the same check as QuantumSpace, before any rule is built
    with pytest.raises(ValueError, match="mode is for n=3, space is for n=2"):
        QuantumSpace(2, mode)
    with pytest.raises(ValueError, match="mode is for n=3, space is for n=2"):
        IdealOracle(2, mode)
    assert IdealOracle(3, mode).rules
