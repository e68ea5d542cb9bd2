"""The one-pass affine coaction and G(m) against the restart recursion.

``reference_coaction`` is the coaction as it was first written: it expands
delta(x_1)^{m_1}...delta(x_n)^{m_n} one factor at a time, and after every
factor it rebuilds each state's word and counts its inversions pair by pair.
It shares no code with the depth-first pass in ``QuantumSpace``, so the
two agreeing on whole families is a differential check of the pass and of
its count rule.
"""

from fractions import Fraction
from random import Random

import pytest

from qmm import NCPoly, ParamMode, QuantumSpace, bos_series, g_coefficient, twisted_bos_series
from qmm.macmahon import bos_twist_exponent


def monomial_word(m):
    """The sorted word of the PBW monomial x^m."""
    return bytes(i for i, e in enumerate(m) for _ in range(e))


def reference_normalize(sp, word, flip=False):
    """word = c * x^r in A, with c the product of q_ij over the inversion
    pairs (i < j) of the word, counted in O(d^2).  ``flip`` uses q_ji
    instead: the wrong orientation, for the negative control."""
    counts = {}
    letters = bytes(word)
    for p in range(len(letters)):
        for r in range(p + 1, len(letters)):
            if letters[p] > letters[r]:
                pair = (letters[r] + 1, letters[p] + 1)
                counts[pair] = counts.get(pair, 0) + 1
    coeff = sp.mode.one()
    for (i, j), e in sorted(counts.items()):
        coeff = coeff * (sp.mode.q(j, i) if flip else sp.mode.q(i, j)) ** e
    r = [0] * sp.n
    for c in letters:
        r[c] += 1
    return coeff, tuple(r)


def reference_coaction(sp, m, flip=False):
    """b_{r,m} for every r, restarting from x^0 and normalizing the affine
    side after each factor delta(x_i)."""
    states = {(0,) * sp.n: NCPoly.one(sp.z, sp.mode)}
    for i in range(1, sp.n + 1):
        for _ in range(m[i - 1]):
            new = {}
            for r, bpoly in states.items():
                word_r = monomial_word(r)
                for j in range(1, sp.n + 1):
                    c, r2 = reference_normalize(sp, word_r + bytes([j - 1]), flip)
                    contrib = (bpoly * sp.z_gen(i, j)).scale(c)
                    new[r2] = new[r2] + contrib if r2 in new else contrib
            states = {r: p for r, p in new.items() if not p.is_zero()}
    return states


def random_numeric(n, rng):
    """Nonzero rationals, never +-1, so that q_ij and q_ij^{-1} differ;
    negative and non-integer values included."""
    values = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            val = Fraction(rng.choice([-1, 1]) * rng.randint(2, 9), rng.randint(1, 5))
            values[(i, j)] = val if abs(val) != 1 else Fraction(-3, 2)
    return ParamMode.numeric(n, values)


def modes(n, seed):
    rng = Random(seed)
    return [ParamMode.multi(n), ParamMode.single(), random_numeric(n, rng)]


CASES = [(n, d) for n in (1, 2, 3) for d in range(6)] + [(4, d) for d in range(5)]


@pytest.mark.parametrize("n,d", CASES)
def test_coaction_and_g_match_the_restart_recursion(n, d):
    for mode in modes(n, seed=100 * n + d):
        sp = QuantumSpace(n, mode)
        zero = NCPoly.zero(sp.z, mode)
        for m in sp.affine_basis(d):
            expected = reference_coaction(sp, m)
            assert sp.coaction_affine(m) == expected, (mode, m)
            assert g_coefficient(sp, m) == expected.get(m, zero), (mode, m)


@pytest.mark.parametrize("n", [2, 3])
def test_flipped_orientation_disagrees(n):
    # the control: q_kj in place of q_jk changes every family of degree >= 2
    for mode in modes(n, seed=7 + n):
        sp = QuantumSpace(n, mode)
        for d in (2, 3):
            for m in sp.affine_basis(d):
                assert sp.coaction_affine(m) != reference_coaction(sp, m, flip=True), (mode, m)


def reference_bos(sp, bound, weight):
    zero = NCPoly.zero(sp.z, sp.mode)
    out = []
    for l in range(bound + 1):
        acc = zero
        for m in sp.affine_basis(l):
            acc = acc + reference_coaction(sp, m).get(m, zero).scale(weight(m))
        out.append(acc)
    return out


def test_bos_series_matches_the_reference_sums():
    for mode in modes(3, seed=35):
        sp = QuantumSpace(3, mode)
        assert bos_series(sp, 5).body.coeffs == reference_bos(sp, 5, lambda m: 1), mode


def test_twisted_bos_series_matches_the_reference_sums():
    mode = ParamMode.single()
    sp = QuantumSpace(3, mode)
    q = mode.q(1, 2)
    expected = reference_bos(sp, 5, lambda m: q ** bos_twist_exponent(3, m))
    assert twisted_bos_series(sp, 5).body.coeffs == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_affine_prepend_matches_the_reference_normal_form(n):
    for mode in modes(n, seed=50 + n):
        sp = QuantumSpace(n, mode)
        for d in range(4):
            for r in sp.affine_basis(d):
                for letter in range(n):
                    word = bytes([letter]) + monomial_word(r)
                    assert sp.affine_prepend(letter, r) == reference_normalize(sp, word)


@pytest.mark.parametrize("m", [(1, 0, 1), (1,), (2, -1)])
def test_a_multidegree_of_another_length_or_sign_is_rejected(m):
    sp = QuantumSpace(2, ParamMode.multi(2))
    with pytest.raises(ValueError, match="multidegree"):
        sp.coaction_affine(m)
    with pytest.raises(ValueError, match="multidegree"):
        g_coefficient(sp, m)
