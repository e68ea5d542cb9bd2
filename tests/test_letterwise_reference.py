"""The letterwise maps as relabelings, against their accumulating originals.

The free-level coaction on x-words, the comultiplication of B, the quantum
minors and the fermionic series are each built as one dict fill.  The
references below are those maps as they were first written: the coaction
adds one monomial per target word, the comultiplication multiplies one
``TensorPoly`` per letter, and the minors and the series add one ``NCPoly``
at a time, with each minor's weights multiplied out one (-q_ab)^{-1} per
inversion pair rather than read off the count rule.  They share no code
with the fills, so the two agreeing on whole outputs is a differential
check of the claim that nothing there needs summing.
"""

from itertools import combinations, permutations, product
from random import Random

import pytest
from test_coaction_reference import modes
from test_quantum_spaces import position_indexed_wedge

from qmm import (
    NCPoly,
    QMatrix,
    QuantumSpace,
    TensorPoly,
    comultiply,
    ferm_series,
    qdet,
    twisted_ferm_series,
)
from qmm.macmahon import ferm_twist_exponent


def reference_coaction_tensor(sp, word):
    """Maps x_{i_1} (x) ... (x) x_{i_m} to the family of coefficients
    z_{i_1}^{j_1} ... z_{i_m}^{j_m}, indexed by the target word (j_1..j_m)."""
    out = {}
    for jword in product(range(1, sp.n + 1), repeat=len(word)):
        zword = sp.z.z_word(zip((c + 1 for c in bytes(word)), jword))
        out[sp.x.x_word(jword)] = NCPoly.monomial(sp.z, sp.mode, zword)
    return out


def reference_coaction_tensor_poly(sp, p):
    """The linear extension, summing every contribution."""
    out = {}
    for w, c in p.terms.items():
        for target, zpoly in reference_coaction_tensor(sp, w).items():
            contrib = zpoly.scale(c)
            out[target] = out[target] + contrib if target in out else contrib
    return {t: poly for t, poly in out.items() if not poly.is_zero()}


def swapped_coaction_tensor_poly(sp, p):
    """The control: the same fill with z_t^u in place of z_u^t."""
    n, out = sp.n, {}
    for u, c in p.terms.items():
        for t in product(range(n), repeat=len(u)):
            out.setdefault(bytes(t), {})[bytes(b * n + a for a, b in zip(u, t))] = c
    return {t: NCPoly(sp.z, sp.mode, terms) for t, terms in out.items()}


def reference_comultiply(p):
    """One TensorPoly product per letter, z_i^j -> sum_l z_i^l (x) z_l^j,
    and every word's image summed into the result."""
    z, mode = p.alphabet, p.mode
    out = TensorPoly.zero(z, mode)
    for word, coeff in p.terms.items():
        acc = TensorPoly(z, mode, {(b"", b""): mode.one()})
        for letter in word:
            i, j = z.z_indices(letter)
            pairs = ((bytes([z.z(i, l)]), bytes([z.z(l, j)])) for l in range(1, z.n + 1))
            acc = acc * TensorPoly(z, mode, {pair: mode.one() for pair in pairs})
        out = out + acc.scale(coeff)
    return out


def reference_exterior_weight(mode, indices, signed=True):
    """One factor (-q_ab)^{-1} per inversion, pair by pair, a < b the two
    inverted values.  ``signed=False`` is the control: q_ab^{-1}."""
    w = mode.one()
    for p, b in enumerate(indices):
        for a in indices[p + 1:]:
            if b > a:
                q = mode.q(a, b)
                w = w * (-q if signed else q).inv()
    return w


def reference_qdet(sp, J):
    """The minor on J, one monomial added at a time."""
    acc = NCPoly.zero(sp.z, sp.mode)
    for pi in permutations(range(len(J))):
        word = sp.z.z_word((J[pi[k]], J[k]) for k in range(len(J)))
        weight = reference_exterior_weight(sp.mode, [J[p] for p in pi])
        acc = acc + NCPoly.monomial(sp.z, sp.mode, word, weight)
    return acc


def reference_ferm(sp, bound, weight):
    """The fermionic coefficients, one weighted minor added at a time."""
    Z = QMatrix.generic(sp.n, sp.mode)
    out = []
    for m in range(bound + 1):
        acc = NCPoly.zero(sp.z, sp.mode)
        for J in combinations(range(1, sp.n + 1), m):
            minor = NCPoly.one(sp.z, sp.mode) if m == 0 else qdet(Z, J)
            acc = acc + minor.scale(weight(J))
        out.append(-acc if m % 2 else acc)
    return out


def random_coefficient(sp, rng):
    c = sp.mode.scalar(rng.choice([-3, -2, -1, 1, 2, 5]))
    pairs = list(combinations(range(1, sp.n + 1), 2))
    if pairs:
        c = c * sp.mode.q(*rng.choice(pairs)) ** rng.randint(-2, 2)
    return c


def random_poly(sp, alphabet, rng, max_degree, terms=6):
    """A few words of mixed length over a small letter set, so that letters
    repeat, with seeded coefficients."""
    letters = range(min(alphabet.size, 3))
    out = {}
    for _ in range(terms):
        word = bytes(rng.choice(letters) for _ in range(rng.randint(0, max_degree)))
        out[word] = random_coefficient(sp, rng)
    return NCPoly(alphabet, sp.mode, out)


def subsets(n):
    return [J for m in range(n + 1) for J in combinations(range(1, n + 1), m)]


N_RANGE = [1, 2, 3, 4]


def distinct_sequences(n) -> list:
    """Every sequence of distinct indices in 1..n of length <= 4."""
    return [s for m in range(5) for s in permutations(range(1, n + 1), m)]


def weight_mismatches(sp, reference) -> list:
    """The sequences where ``exterior_weight`` differs from ``reference``."""
    return [s for s in distinct_sequences(sp.n) if sp.exterior_weight(s) != reference(sp.mode, s)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_count_rule_weight_matches_the_pairwise_loop(n):
    for mode in modes(n, seed=350 + n):
        assert weight_mismatches(QuantumSpace(n, mode), reference_exterior_weight) == [], mode


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_unsigned_weight_disagrees(n):
    # the control: without the sign, exactly the sequences with an odd
    # number of inversions change weight, and the comparison finds them
    def unsigned(mode, indices):
        return reference_exterior_weight(mode, indices, signed=False)

    odd = [s for s in distinct_sequences(n) if sum(a > b for i, a in enumerate(s) for b in s[i + 1:]) % 2]
    assert odd
    for mode in modes(n, seed=360 + n):
        assert weight_mismatches(QuantumSpace(n, mode), unsigned) == odd, mode


@pytest.mark.parametrize("n", N_RANGE)
def test_coaction_fill_matches_the_accumulation(n):
    for mode in modes(n, seed=300 + n):
        sp = QuantumSpace(n, mode)
        rng = Random(n)
        inputs = [sp.wedge_expand(J) for J in subsets(n)]
        inputs += [position_indexed_wedge(sp, J) for J in subsets(n) if J]
        inputs += [random_poly(sp, sp.x, rng, 4) for _ in range(8)]
        for p in inputs:
            assert sp.coaction_tensor_poly(p) == reference_coaction_tensor_poly(sp, p), (mode, p)


@pytest.mark.parametrize("n", [2, 3])
def test_swapped_relabeling_disagrees(n):
    # the control: z_t^u for z_u^t changes the coaction of every wedge of
    # degree >= 2, and the reference notices
    for mode in modes(n, seed=310 + n):
        sp = QuantumSpace(n, mode)
        for J in subsets(n):
            if len(J) >= 2:
                p = sp.wedge_expand(J)
                assert swapped_coaction_tensor_poly(sp, p) != reference_coaction_tensor_poly(sp, p)


@pytest.mark.parametrize("n", N_RANGE)
def test_comultiply_fill_matches_the_product_loop(n):
    for mode in modes(n, seed=320 + n):
        sp = QuantumSpace(n, mode)
        Z = QMatrix.generic(n, mode)
        rng = Random(10 + n)
        inputs = [qdet(Z, J) for J in subsets(n) if J]
        inputs += [random_poly(sp, sp.z, rng, 3) for _ in range(8)]
        for p in inputs:
            assert comultiply(p) == reference_comultiply(p), (mode, p)


@pytest.mark.parametrize("n", N_RANGE)
def test_minor_and_ferm_fills_match_the_sums(n):
    for mode in modes(n, seed=330 + n):
        sp = QuantumSpace(n, mode)
        Z = QMatrix.generic(n, mode)
        for J in subsets(n):
            if J:
                assert qdet(Z, J) == reference_qdet(sp, J), (mode, J)
        untwisted = ferm_series(sp, n + 1).body.coeffs
        assert untwisted == reference_ferm(sp, n + 1, lambda J: 1), mode
        if mode.kind == "single":
            q = mode.q(1, 2)
            expected = reference_ferm(sp, n + 1, lambda J: q ** ferm_twist_exponent(n, J))
            assert twisted_ferm_series(sp, n + 1).body.coeffs == expected
