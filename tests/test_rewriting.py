"""The certified rewriting system of B against block elimination and against
the scalar rewriting it replaced, and the Koszul Hilbert series as an
independent count of normal words.

``reference_normal_form`` is the rewriting loop as it was first written,
over ``ParamScalar`` coefficients with rules taken straight from the
relations (``reference_rules``).  It shares no coefficient arithmetic with
the packed ``normal_form``, so equal normal forms on seeded inputs in every
mode are a differential check of the packing.
"""

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product
from random import Random

import pytest

from qmm import (
    IdealOracle,
    NCPoly,
    ParamMode,
    QMatrix,
    QuantumSpace,
    TensorPoly,
    bos_series,
    build_relations,
    column_reduce,
    comultiply,
    ferm_series,
    qdet,
    twisted_bos_series,
    twisted_ferm_series,
)
from qmm.free_algebra import word_rank
from qmm.param_ring import EXPONENT_LIMIT, ExponentOverflowError, max_exponent, pack, unpack
from qmm.right_quantum import (
    ConfluenceError,
    block_words,
    certify_confluence,
    normal_form,
    word_block,
)


def blocks(n, degree):
    comps = [c for c in product(range(degree + 1), repeat=n) if sum(c) == degree]
    return [(lower, upper) for lower in comps for upper in comps]


def is_normal(word, rules):
    return all(word[p:p + 2] not in rules for p in range(len(word) - 1))


def is_column_sorted(word, n):
    return all(not (a % n == b % n and a // n > b // n) for a, b in zip(word, word[1:]))


@pytest.mark.parametrize("n, rules, overlaps", [(1, 0, 0), (2, 3, 0), (3, 18, 10), (4, 60, 80)])
def test_rules_and_their_overlaps(n, rules, overlaps):
    oracle = IdealOracle(n, ParamMode.multi(n), exact=True)
    assert len(oracle.rules) == rules == n * math.comb(n, 2) + math.comb(n, 2) ** 2
    # a leading word: the lower index strictly falls, the upper does not rise
    size = n * n
    assert set(oracle.rules) == {
        bytes([a, b]) for a in range(size) for b in range(size) if a // n > b // n and a % n >= b % n
    }
    assert certify_confluence(oracle.rules) == overlaps
    # every rewrite only produces smaller words
    for lead, rhs in oracle.rules.items():
        assert all(w < lead for w, *_ in rhs)


def test_certificate_rejects_a_perturbed_rule(monkeypatch):
    # one non-leading coefficient of one cross relation doubled: the rules
    # still rewrite and terminate, but an overlap no longer resolves
    import qmm.right_quantum as rq

    real = rq.build_relations

    def perturbed(n, mode):
        rels = real(n, mode)
        rel = rels[-1]
        word = min(rel.terms)
        rels[-1] = rel + NCPoly.monomial(rel.alphabet, mode, word, rel.terms[word])
        return rels

    monkeypatch.setattr(rq, "build_relations", perturbed)
    for mode in (ParamMode.multi(3), ParamMode.single()):
        with pytest.raises(ConfluenceError) as caught:
            IdealOracle(3, mode, exact=True)
        assert not isinstance(caught.value, ValueError)
    assert IdealOracle(2, ParamMode.multi(2), exact=True).rules


# ---------------------------------------------------------------------------
# differential test against block elimination


def reference_contains(oracle, p, bases):
    """The block-elimination verdict: p column-reduced, split by block, and
    every component reduced against ``basis(d, block)``.  ``bases`` caches
    the bases within one test."""
    d = p.homogeneous_degree()
    if d < 2:
        return p.is_zero()
    n, size = oracle.n, oracle.z.size
    parts = {}
    for w, c in column_reduce(p).terms.items():
        parts.setdefault(word_block(w, n), {})[word_rank(w, size)] = c
    for block, vec in parts.items():
        if (d, block) not in bases:
            bases[d, block] = oracle.basis(d, block)
        if not bases[d, block].contains(vec):
            return False
    return True


def laurent_unit(rng, mode):
    unit = mode.scalar(rng.choice((-1, 1)))
    if mode.variables:
        unit = unit * mode.variable(rng.choice(mode.variables), rng.randint(-2, 2))
    return unit


def random_element(rng, oracle, degree, relations):
    """A sum of u*r*v with Laurent-unit scalings; half the time plus a
    scaled random word, and now and then a bare random word."""
    z, mode, size = oracle.z, oracle.mode, oracle.z.size

    def word(length):
        return NCPoly.monomial(z, mode, bytes(rng.randrange(size) for _ in range(length)))

    p = NCPoly.zero(z, mode)
    if rng.random() < 0.85:
        for _ in range(rng.randint(1, 3)):
            left = rng.randint(0, degree - 2)
            p = p + (word(left) * rng.choice(relations) * word(degree - 2 - left)).scale(laurent_unit(rng, mode))
    if p.is_zero() or rng.random() < 0.5:
        p = p + word(degree).scale(laurent_unit(rng, mode))
    return p


@pytest.mark.parametrize(
    "n, degrees, exact, count",
    [(2, (2, 3, 4, 5), True, 12), (2, (2, 3, 4, 5), False, 12),
     (3, (2, 3, 4), True, 10), (3, (2, 3, 4), False, 10), (4, (4,), False, 8)],
)
def test_normal_form_matches_block_elimination(n, degrees, exact, count):
    mode = ParamMode.multi(n)
    oracle = IdealOracle(n, mode, exact=exact, seed=31 + n, draws=2)
    relations = build_relations(n, mode)
    rng = Random(1000 * n + exact)
    bases = {}
    verdicts = []
    for degree in degrees:
        for _ in range(count):
            p = random_element(rng, oracle, degree, relations)
            got = oracle.contains(p)
            assert got == reference_contains(oracle, p, bases), (degree, p)
            verdicts.append(got)
    assert verdicts.count(True) >= len(degrees) and verdicts.count(False) >= len(degrees)


@pytest.mark.parametrize("n, degrees, count", [(2, (2, 3, 4), 12), (3, (2, 3), 10)])
def test_numeric_normal_form_matches_block_elimination_over_q(n, degrees, count):
    # rational q values: the reference eliminates over Q with rational
    # entries, through the same echelon as over the Laurent ring
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    mode = ParamMode.numeric(n, dict(zip(pairs, (Fraction(3, 2), Fraction(-2, 5), 7))))
    oracle = IdealOracle(n, mode)
    relations = build_relations(n, mode)
    rng = Random(2000 + n)
    bases = {}
    verdicts = []
    for degree in degrees:
        for _ in range(count):
            p = random_element(rng, oracle, degree, relations)
            got = oracle.contains(p)
            assert got == reference_contains(oracle, p, bases), (degree, p)
            verdicts.append(got)
    assert verdicts.count(True) >= len(degrees) and verdicts.count(False) >= len(degrees)


@pytest.mark.parametrize("point", [3, 5, -1])
def test_a_coefficient_vanishing_at_one_point_is_not_a_member(point):
    # a normal word times q12 - point: zero at q12 = point, so a verdict at
    # sample points could accept it, but not zero in the Laurent ring
    mode = ParamMode.multi(2)
    oracle = IdealOracle(2, mode, exact=False, seed=3, draws=2)
    word = NCPoly.monomial(oracle.z, mode, oracle.z.z_word([(1, 1), (2, 2)]))
    p = word.scale(mode.q(1, 2) - mode.scalar(point))
    assert not oracle.contains(p)
    assert not reference_contains(oracle, p, {})
    assert not oracle.contains_tensor(TensorPoly.outer(p, word))
    assert not oracle.contains_packed({w: c.packed() for w, c in p.terms.items()})


def _normal_word_in(p, oracle):
    """The largest normal word of the normal form of p's largest word: a
    word of a block p touches that is nonzero in B."""
    return max(normal_form({max(p.terms): {0: 1}}, oracle.rules))


@pytest.mark.parametrize("exact", [True, False])
def test_master_residual_plus_a_normal_word_is_rejected(exact):
    mode = ParamMode.multi(3)
    space = QuantumSpace(3, mode)
    oracle = IdealOracle(3, mode, exact=exact, seed=9, draws=2)
    prod = bos_series(space, 4).body * ferm_series(space, 4).body
    for degree in (2, 3, 4):
        residual = prod[degree]
        assert oracle.contains(residual)
        word = _normal_word_in(residual, oracle)
        assert not oracle.contains(residual + NCPoly.monomial(space.z, mode, word))


def test_twisted_residual_plus_a_normal_word_is_rejected():
    mode = ParamMode.single()
    space = QuantumSpace(3, mode)
    prod = twisted_bos_series(space, 4).body * twisted_ferm_series(space, 4).body
    oracle = IdealOracle(3, mode)
    for degree in (2, 3, 4):
        residual = prod[degree]
        assert oracle.contains(residual)
        word = _normal_word_in(residual, oracle)
        assert not oracle.contains(residual + NCPoly.monomial(space.z, mode, word))


@pytest.mark.parametrize("exact", [True, False])
def test_group_like_tensor_plus_normal_words_is_rejected(exact):
    # the full quantum determinant of degree n, for n = 2, 3, 4
    for n in (2, 3, 4):
        mode = ParamMode.multi(n)
        space = QuantumSpace(n, mode)
        oracle = IdealOracle(n, mode, exact=exact, seed=9, draws=2)
        det = qdet(QMatrix.generic(n, mode))
        group_like = comultiply(det) - TensorPoly.outer(det, det)
        assert oracle.contains_tensor(group_like)
        words = [NCPoly.monomial(space.z, mode, _normal_word_in(NCPoly.monomial(space.z, mode, w), oracle))
                 for w in max(group_like.terms)]
        assert not oracle.contains_tensor(group_like + TensorPoly.outer(*words))


# ---------------------------------------------------------------------------
# packed coefficients against the scalar reference


def reference_rules(relations):
    """Each relation oriented by its largest word: leading word ->
    ((word, ParamScalar coefficient), ...), -(rest) / c_lead."""
    rules = {}
    for rel in relations:
        lead = max(rel.terms)
        factor = -rel.terms[lead].inv()
        rules[lead] = tuple((w, c * factor) for w, c in rel.terms.items() if w != lead)
    return rules


def reference_normal_form(terms, rules):
    """The normal form over ``ParamScalar`` coefficients: largest word
    first, each rewritten at its leftmost leading word."""
    pending = dict(terms)
    heap = [(-int.from_bytes(w, "big"), w) for w in pending]
    heapify(heap)
    out = {}
    while heap:
        w = heappop(heap)[1]
        c = pending.pop(w)
        if not c:
            continue
        for pos in range(len(w) - 1):
            rhs = rules.get(w[pos:pos + 2])
            if rhs is not None:
                break
        else:
            out[w] = c
            continue
        u, v = w[:pos], w[pos + 2:]
        for pair, r in rhs:
            x = u + pair + v
            s = pending.get(x)
            if s is None:
                pending[x] = c * r
                heappush(heap, (-int.from_bytes(x, "big"), x))
            else:
                pending[x] = s + c * r
    return out


def packed(p):
    return {w: c.packed() for w, c in p.terms.items()}


NON_INTEGER = {(1, 2): Fraction(2, 3), (1, 3): Fraction(-5, 7), (2, 3): Fraction(7, 2)}


@pytest.mark.parametrize(
    "mode", [ParamMode.multi(3), ParamMode.single(), ParamMode.numeric(3, NON_INTEGER)], ids=repr
)
def test_packed_normal_form_matches_the_scalar_reference(mode):
    oracle = IdealOracle(3, mode, exact=True)
    relations = build_relations(3, mode)
    rules = reference_rules(relations)
    rng = Random(77)
    members = 0
    inputs = [random_element(rng, oracle, degree, relations) for degree in (2, 3, 4) for _ in range(12)]
    for p in inputs:
        expected = reference_normal_form(p.terms, rules)
        got = normal_form(packed(p), oracle.rules)
        assert {w: mode.from_packed(c) for w, c in got.items()} == expected, p
        assert oracle.contains(p) == (not expected)
        members += not expected
    assert 5 <= members <= len(inputs) - 5


def test_pack_round_trips_negative_exponents():
    rng = Random(5)
    top = EXPONENT_LIMIT - 1
    vectors = [(), (0,), (-1,), (top, -top), (-top, 0, top), (-1, -1, -1, -1)]
    vectors += [tuple(rng.randint(-top, top) for _ in range(rng.randint(1, 10))) for _ in range(200)]
    for exps in vectors:
        k = pack(exps)
        assert unpack(k, len(exps)) == exps
        assert max_exponent({k}) == max(map(abs, exps), default=0)
    # additive while the sums stay in range
    a, b = (-5, 2**30, 7), (3, -(2**30) - 9, -7)
    assert pack(a) + pack(b) == pack(tuple(map(sum, zip(a, b))))
    assert max_exponent([pack(a), pack(b), 0]) == 2**30 + 9 and max_exponent(()) == 0
    for bad in ((EXPONENT_LIMIT,), (0, -EXPONENT_LIMIT)):
        with pytest.raises(ExponentOverflowError):
            pack(bad)
    mode = ParamMode.multi(3)
    s = mode.q(1, 2) ** -3 * mode.q(2, 3) - mode.q(1, 3) ** 2 + 4
    assert mode.from_packed(s.packed()) == s


@pytest.mark.parametrize("exact", [True, False])
def test_an_exponent_near_the_limit_raises_instead_of_a_verdict(exact):
    mode = ParamMode.multi(2)
    oracle = IdealOracle(2, mode, exact=exact, seed=1, draws=2)
    lead = max(oracle.rules)  # a leading word, so the query must rewrite
    for power, safe in ((2**20, True), (EXPONENT_LIMIT - 2, False)):
        p = NCPoly.monomial(oracle.z, mode, lead, mode.q(1, 2) ** power)
        queries = (
            lambda: oracle.contains(p),
            lambda: oracle.contains_tensor(TensorPoly.outer(p, p)),
            lambda: oracle.contains_packed(packed(p)),
        )
        for query in queries:
            if safe:
                assert query() is False
                continue
            with pytest.raises(ExponentOverflowError) as caught:
                query()
            assert not isinstance(caught.value, ValueError)


# ---------------------------------------------------------------------------
# the Koszul Hilbert series


def hilbert_coefficients(n, top):
    """dim B_d for d <= top: the coefficients of 1 / h_{B^!}(-t) with
    h_{B^!}(t) = sum_d C(n+d-1, d) C(n, d) t^d."""
    dual = [(-1) ** d * math.comb(n + d - 1, d) * math.comb(n, d) for d in range(top + 1)]
    out = [1]
    for d in range(1, top + 1):
        out.append(-sum(dual[k] * out[d - k] for k in range(1, d + 1)))
    return out


def count_normal_words(rules, size, top):
    """Normal words of each length <= top: a walk over letter pairs that
    are not leading words."""
    ends = [1] * size
    counts = [1, size]
    for _ in range(2, top + 1):
        ends = [sum(ends[a] for a in range(size) if bytes([a, b]) not in rules) for b in range(size)]
        counts.append(sum(ends))
    return counts[:top + 1]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_normal_words_count_the_koszul_hilbert_series(n):
    rules = IdealOracle(n, ParamMode.multi(n), exact=True).rules
    assert count_normal_words(rules, n * n, 6) == hilbert_coefficients(n, 6)


@pytest.mark.parametrize("n, degree", [(2, 2), (2, 3), (2, 4), (3, 3)])
def test_normal_words_per_block_match_the_reference_rank(n, degree):
    # the reference eliminates column-reduced rows, so a block's dimension
    # in B is its column-sorted words minus the rank
    oracle = IdealOracle(n, ParamMode.multi(n))
    total = 0
    for block in blocks(n, degree):
        words = block_words(n, block)
        normal = sum(is_normal(w, oracle.rules) for w in words)
        sorted_words = sum(is_column_sorted(w, n) for w in words)
        assert normal == sorted_words - oracle.basis(degree, block).rank, block
        total += normal
    assert total == hilbert_coefficients(n, degree)[degree]
