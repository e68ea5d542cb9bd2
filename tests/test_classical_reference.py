"""The integer q = 1 MacMahon check against its rational references, and the
negative controls it must reject.

``reference_char_poly`` is det(I - tZ) by signed permutation expansion over
Q, and ``reference_evaluate_z_poly`` evaluates a z-polynomial one letter at
a time in ``Fraction`` arithmetic, after specializing each coefficient.
Both are the code the integer paths replaced; they share no arithmetic with
Berkowitz's algorithm or with the int letter products, so agreement on
seeded matrices is a differential check of both rewrites.

The recursion of ``classical_check``, one forward pass over every sorted
lower word, is checked per degree against two references.
``reference_recursion`` is the pass it replaced: one program per m,
memoized on the upper-index counts, itself checked per m against
``g_coefficient`` in numeric mode at q = 1, which multiplies out every q
factor.  ``reference_g_sums`` is the word route before it, which expands
each G(m) into the words of the coaction pass and multiplies every word out
letter by letter.
"""

from fractions import Fraction
from itertools import permutations, product
from math import comb, lcm, prod
from random import Random

import pytest
from test_coaction_reference import random_numeric

from qmm import ParamMode, QuantumSpace, classical_check, g_coefficient, macmahon
from qmm.macmahon import _char_poly_of_identity_minus_tz, evaluate_z_poly


def reference_char_poly(entries) -> list:
    """Coefficients of det(I - tZ) in t, by signed permutation expansion."""
    n = len(entries)
    coeffs = [Fraction(0)] * (n + 1)
    for pi in permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if pi[a] > pi[b]:
                    sign = -sign
        # product over i of (delta_{i,pi(i)} - t * Z[i][pi(i)])
        poly = [Fraction(sign)]
        for i in range(n):
            const = Fraction(1 if pi[i] == i else 0)
            lin = -Fraction(entries[i][pi[i]])
            poly = [
                (poly[k] * const if k < len(poly) else 0)
                + (poly[k - 1] * lin if k >= 1 else 0)
                for k in range(len(poly) + 1)
            ]
        for k, c in enumerate(poly):
            coeffs[k] += c
    return coeffs


def reference_evaluate_z_poly(p, entries) -> Fraction:
    """Evaluate a z-polynomial letter by letter in Fraction arithmetic."""
    z = p.alphabet
    total = Fraction(0)
    for word, coeff in p.terms.items():
        term = coeff.specialize({})
        for letter in word:
            i, j = z.z_indices(letter)
            term *= entries[i - 1][j - 1]
        total += term
    return total


def random_matrix(rng, n, kind):
    if kind == "integer":
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    if kind == "rational":
        return [[Fraction(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
    if kind == "zero":
        return [[0] * n for _ in range(n)]
    if kind == "singular":
        # the last row repeats a rational combination of the others
        rows = [[Fraction(rng.randint(-7, 7), rng.randint(1, 4)) for _ in range(n)] for _ in range(n - 1)]
        weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in rows]
        return rows + [[sum(w * row[c] for w, row in zip(weights, rows)) for c in range(n)]]
    # every entry negative
    return [[-rng.randint(1, 9) for _ in range(n)] for _ in range(n)]


KINDS = ("integer", "rational", "zero", "singular", "negative")


@pytest.mark.parametrize("n", range(1, 7))
def test_berkowitz_matches_the_permutation_expansion(n):
    rng = Random(500 + n)
    for kind in KINDS:
        for _ in range(3 if n < 6 else 1):  # the reference takes n! steps
            entries = random_matrix(rng, n, kind)
            got = _char_poly_of_identity_minus_tz(entries)
            assert got == reference_char_poly(entries), (kind, entries)
            if kind in ("integer", "zero", "negative"):
                assert all(type(c) is int for c in got), "integer input left Z"
    assert _char_poly_of_identity_minus_tz([[0] * n for _ in range(n)]) == [1] + [0] * n


def q_one(n):
    return ParamMode.numeric(n, {(i, j): 1 for i in range(1, n + 1) for j in range(i + 1, n + 1)})


@pytest.mark.parametrize("n,degree", [(1, 5), (2, 5), (3, 4)])
def test_integer_evaluation_matches_the_fraction_reference(n, degree):
    rng = Random(700 + n)
    # q = 1 (int coefficients) and a seeded numeric point (rational ones)
    for mode in (q_one(n), random_numeric(n, rng)):
        sp = QuantumSpace(n, mode)
        matrices = [random_matrix(rng, n, kind) for kind in KINDS]
        for l in range(degree + 1):
            for m in sp.affine_basis(l):
                g = g_coefficient(sp, m)
                for entries in matrices:
                    got = evaluate_z_poly(g, entries)
                    assert got == reference_evaluate_z_poly(g, entries), (mode, m, entries)


def reference_recursion(n, degree) -> tuple:
    """For each l <= degree and each m with |m| = l (in PBW order), the
    states of the coaction recursion for G(m) at q = 1.

    The pass of ``QuantumSpace._upper_sequences(m, m)`` appends an upper
    index j while its count c_j is below m_j; at q = 1 the sum over the
    completions of a prefix depends only on c, so V(m) = 1 and V(c) = sum
    over j with c_j < m_j of z_{lower(|c|)}^j V(c + e_j), with G(m) = V(0).
    The states c <= m are listed from c = m down in mixed-radix order; each
    after the first is the tuple of its transitions (letter id, position of
    c + e_j).
    """
    space = QuantumSpace(n, ParamMode.single())
    recursion = []
    for l in range(degree + 1):
        programs = []
        for m in space.affine_basis(l):
            lowers = [i * n for i, e in enumerate(m) for _ in range(e)]
            # per upper index j: its digit in the reversed counts, its stride, its cap
            digits = [(n - 1 - j, j, prod(e + 1 for e in m[:j]), e) for j, e in enumerate(m)]
            # c reversed, c_1 the fastest digit; position 0 holds c = m
            counts = product(*(range(e, -1, -1) for e in reversed(m)))
            next(counts)
            states = []
            for s, c in enumerate(counts, 1):
                base = lowers[sum(c)]
                states.append(tuple([(base + j, s - stride) for r, j, stride, e in digits if c[r] < e]))
            programs.append(tuple(states))
        recursion.append(tuple(programs))
    return tuple(recursion)


def reference_recursion_value(states, flat):
    """V(0) of one ``reference_recursion`` program."""
    values = [1]
    for state in states:
        values.append(sum(flat[letter] * values[s] for letter, s in state))
    return values[-1]


def reference_recursion_sums(n, degree, flat) -> list:
    return [sum(reference_recursion_value(states, flat) for states in ms) for ms in reference_recursion(n, degree)]


def reference_g_sums(n, degree, entries) -> list:
    """For each l <= degree, the sum over |m| = l of G(m) at a commutative
    matrix, from the words of the coaction pass, each multiplied out."""
    sp = QuantumSpace(n, ParamMode.single())
    flat = [e for row in entries for e in row]
    return [
        sum(prod(flat[letter] for letter in word) for m in sp.affine_basis(l) for word in sp._upper_sequences(m, m)[m])
        for l in range(degree + 1)
    ]


def recursion_sums(n, degree, flat) -> list:
    """S'_l for l <= degree from the one-pass recursion of ``classical_check``."""
    states, leaves = macmahon._classical_recursion(n, degree)
    values = macmahon._recursion_value(states, flat)
    return [sum(values[p] for p in level) for level in leaves]


def scaled_flat(entries):
    """Z' = D Z as a flat int list, D the lcm of the denominators, and D."""
    entries = [Fraction(e) for row in entries for e in row]
    denom = lcm(*(e.denominator for e in entries))
    return [e.numerator * (denom // e.denominator) for e in entries], denom


def recursion_matrices(rng, n):
    """Integer, rational, zero-row and negative matrices."""
    zero_row = random_matrix(rng, n, "rational")
    zero_row[rng.randrange(n)] = [0] * n
    return [random_matrix(rng, n, kind) for kind in ("integer", "rational", "negative")] + [zero_row]


@pytest.mark.parametrize("n,degree", [(1, 5), (2, 5), (3, 5)])
def test_q_one_recursion_matches_the_numeric_g_coefficients(n, degree):
    # the per-m reference: C(l + 2n - 1, 2n - 1) states over all m of degree l
    sp = QuantumSpace(n, q_one(n))
    recursion = reference_recursion(n, degree)
    assert len(recursion) == degree + 1
    for l, ms in enumerate(recursion):
        assert sum(1 + len(states) for states in ms) == comb(l + 2 * n - 1, 2 * n - 1)
    rng = Random(900 + n)
    for entries in recursion_matrices(rng, n):
        flat, denom = scaled_flat(entries)
        for l in range(degree + 1):
            ms = sp.affine_basis(l)
            assert len(recursion[l]) == len(ms)
            for m, states in zip(ms, recursion[l]):
                expected = evaluate_z_poly(g_coefficient(sp, m), entries)
                got = reference_recursion_value(states, flat)
                assert type(got) is int, "integer input left Z"
                assert got == denom**l * expected, (m, entries)


@pytest.mark.parametrize("n,degree", [(1, 6), (2, 6), (3, 6), (4, 5)])
def test_recursion_sums_match_the_word_route(n, degree):
    rng = Random(950 + n)
    for entries in recursion_matrices(rng, n):
        flat, _ = scaled_flat(entries)
        got = recursion_sums(n, degree, flat)
        assert all(type(v) is int for v in got), "integer input left Z"
        assert got == reference_g_sums(n, degree, [flat[i : i + n] for i in range(0, n * n, n)]), entries


@pytest.mark.parametrize("n,degree", [(4, 8), (5, 6), (3, 12)])
def test_recursion_sums_match_the_per_multidegree_reference(n, degree):
    # sizes where the word route has too many words
    rng = Random(970 + n)
    for entries in recursion_matrices(rng, n) + [positive_matrix(rng, n)]:
        flat, _ = scaled_flat(entries)
        assert recursion_sums(n, degree, flat) == reference_recursion_sums(n, degree, flat), entries


def trimmed_forward_pass(n, degree):
    """States and transitions of the unpruned forward pass on (last lower
    letter, delta) that reach delta = 0 by step ``degree``, found backwards
    from the balanced states."""
    levels = [{(0, (0,) * n)}]
    moves = []
    for _ in range(degree):
        edges = set()
        for i, delta in levels[-1]:
            for lower in range(i, n):
                for j in range(n):
                    counts = list(delta)
                    counts[j] += 1
                    counts[lower] -= 1
                    edges.add(((i, delta), (lower, tuple(counts))))
        moves.append(edges)
        levels.append({target for _, target in edges})
    alive = {(degree, s) for s in levels[degree] if not any(s[1])}
    count = 0
    for t in range(degree - 1, -1, -1):
        for source, target in moves[t]:
            if (t + 1, target) in alive:
                alive.add((t, source))
                count += 1
        alive |= {(t, s) for s in levels[t] if not any(s[1])}
    return len(alive), count


def test_recursion_state_count():
    # C(degree + n, n) states in all, each of them on a path to a balanced state
    for n in (1, 2, 3, 4):
        for degree in range(7 if n < 4 else 5):
            states, leaves = macmahon._classical_recursion(n, degree)
            assert len(states) + 1 == comb(degree + n, n)
            assert (len(states) + 1, sum(map(len, states))) == trimmed_forward_pass(n, degree), (n, degree)
            assert [len(level) for level in leaves] == [1] + [n] * degree
    transitions = {(3, 6): 250, (4, 12): 8521, (5, 10): 15948, (8, 8): 85399}
    for (n, degree), total in transitions.items():
        states, _ = macmahon._classical_recursion(n, degree)
        assert (len(states) + 1, sum(map(len, states))) == (comb(degree + n, n), total)


def test_evaluation_rejects_coefficients_with_parameters():
    g = g_coefficient(QuantumSpace(2, ParamMode.multi(2)), (1, 1))
    with pytest.raises(ValueError):
        reference_evaluate_z_poly(g, [[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="parameters"):
        evaluate_z_poly(g, [[1, 2], [3, 4]])


# ---------------------------------------------------------------------------
# negative controls: a wrong side of the identity must be rejected


@pytest.fixture
def fresh_g_cache():
    macmahon._classical_recursion.cache_clear()
    yield
    macmahon._classical_recursion.cache_clear()


def positive_matrix(rng, n):
    """Positive rational entries with denominators above 1: every G(m) is a
    sum of positive products there, so dropping one changes its sum."""
    return [[Fraction(rng.randint(1, 7), rng.randint(2, 5)) for _ in range(n)] for _ in range(n)]


CONTROLS = [(n, degree) for n in (2, 3) for degree in range(1, 5)]


@pytest.mark.parametrize("n,degree", CONTROLS)
def test_raised_determinant_coefficient_is_rejected(n, degree, monkeypatch, fresh_g_cache):
    entries = positive_matrix(Random(10 * n + degree), n)
    assert classical_check(entries, degree)
    true_char_poly = macmahon._char_poly_of_identity_minus_tz
    for j in range(min(n, degree) + 1):

        def raised(scaled, j=j):
            coeffs = true_char_poly(scaled)
            coeffs[j] += 1
            return coeffs

        monkeypatch.setattr(macmahon, "_char_poly_of_identity_minus_tz", raised)
        assert not classical_check(entries, degree), j
        monkeypatch.undo()


def distinct_rows(rng, n):
    """A positive matrix whose rows have distinct entries, so moving a
    transition to another letter of its row changes its value."""
    while True:
        entries = positive_matrix(rng, n)
        if all(len(set(row)) == n for row in entries):
            return entries


@pytest.mark.parametrize("n,degree", CONTROLS)
def test_dropped_g_coefficient_is_rejected(n, degree, monkeypatch, fresh_g_cache):
    # every state lies on a path to a leaf and every value is positive here,
    # so each perturbation moves some S'_l
    entries = distinct_rows(Random(20 * n + degree), n)
    assert classical_check(entries, degree)
    states, leaves = macmahon._classical_recursion(n, degree)

    def rejects(perturbed_states, perturbed_leaves):
        monkeypatch.setattr(macmahon, "_classical_recursion", lambda *_: (perturbed_states, perturbed_leaves))
        rejected = not classical_check(entries, degree)
        monkeypatch.undo()
        return rejected

    def replaced(seq, index, item):
        return seq[:index] + (item,) + seq[index + 1 :]

    for l, level in enumerate(leaves):
        for drop in range(len(level)):
            # one leaf missing from the degree's sum
            assert rejects(states, replaced(leaves, l, level[:drop] + level[drop + 1 :])), (l, drop)
    for s, state in enumerate(states):
        for t, (letter, source) in enumerate(state):
            # one transition missing from one state
            assert rejects(replaced(states, s, state[:t] + state[t + 1 :]), leaves), (s, t)
            # one transition moved to another letter of the same row
            row = letter - letter % n
            for other in range(row, row + n):
                if other != letter:
                    moved = replaced(state, t, (other, source))
                    assert rejects(replaced(states, s, moved), leaves), (s, t, other)
    assert classical_check(entries, degree)


def test_n8_envelope():
    # the permutation expansion needed 8! terms here; Berkowitz runs in O(n^4)
    rng = Random(8)
    for _ in range(2):
        assert classical_check(random_matrix(rng, 8, "rational"), 2)
