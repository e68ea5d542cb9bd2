"""Boson-fermion character series and the master identity checks.

For the generic right-quantum matrix Z, the bosonic series collects the
diagonal coaction coefficients G(m) (the coefficient of x^m in
X_1^{m_1}...X_n^{m_n} with X_i = sum_j z_i^j (x) x_j: the sum over the
rearrangements of the upper indices of m, each weighted by q over its
inversions) and the fermionic series collects signed quantum minors over
subsets.  Their product telescopes to 1 modulo the relation ideal of B;
that is verified here degree by degree via the membership oracle, together
with the torus-twisted variant and the classical commutative
specialization.

The twisted identity is the torus image of the plain one (one-parameter
mode).  Lemma: the special torus point tau multiplies z_i^j by q^{n+1-2i},
so it scales each word by a unit that depends only on its block (lower and
upper index counts).  ``rewriting_rules`` raises when a rule leaves its
block, so every relation is tau-homogeneous and tau maps the ideal onto
itself.  The words of G(m) have lower counts m and those of the minor on J
lower set J, so the twisted coefficients are tau of the plain ones exactly
when bos_twist_exponent(n, m) = sum_i m_i (n+1-2i) for every m and
ferm_twist_exponent(n, J) = sum_{j in J} (n+1-2j) for every J.  tau is
multiplicative, so each degree's twisted residual is then tau(plain
residual), with the same support and the same verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import lcm, prod

from .free_algebra import NCPoly, TruncSeries
from .quantum_spaces import QuantumSpace
from .right_quantum import IdealOracle, QMatrix, qdet


# ---------------------------------------------------------------------------
# characters


def g_coefficient(space: QuantumSpace, m) -> NCPoly:
    """G(m): the diagonal coefficient b_{m,m} of the coaction on x^m.

    The coaction's pass with the upper-index counts capped at m, so it
    visits only the multinomial(m) rearrangements of the upper indices,
    each weighted by q over its inversions.
    """
    m = tuple(m)
    return NCPoly(space.z, space.mode, space._upper_sequences(m, m).get(m, {}))


@dataclass(frozen=True)
class CharacterSeries:
    """A truncated series in B[[t]], the bosonic or fermionic character,
    plain or twisted."""

    body: TruncSeries


def _bos(space: QuantumSpace, bound: int, weight) -> TruncSeries:
    """Degree-l coefficient: the sum of weight(m) * G(m) over all |m| = l.

    Every word of G(m) has the sorted word of m as its lower indices, so the
    supports are disjoint and the terms go into one dict unsummed.
    """
    coeffs = []
    for l in range(bound + 1):
        terms: dict = {}
        for m in space.affine_basis(l):
            terms.update(g_coefficient(space, m).scale(weight(m)).terms)
        coeffs.append(NCPoly(space.z, space.mode, terms))
    return TruncSeries(space.z, space.mode, bound, coeffs)


def _ferm(space: QuantumSpace, bound: int, weight) -> TruncSeries:
    """Degree-m coefficient: (-1)^m times the sum of weight(J) times the
    quantum minor on J over all m-element subsets J; zero above degree n.

    The words of the minor on J have upper indices J in order, so the
    supports are disjoint and the terms go into one dict unsummed.
    """
    Z = QMatrix.generic(space.n, space.mode)
    coeffs = []
    for m in range(bound + 1):
        terms: dict = {}
        for J in combinations(range(1, space.n + 1), m):
            minor = NCPoly.one(space.z, space.mode) if m == 0 else qdet(Z, J)
            terms.update(minor.scale(weight(J)).terms)
        coeff = NCPoly(space.z, space.mode, terms)
        coeffs.append(-coeff if m % 2 else coeff)
    return TruncSeries(space.z, space.mode, bound, coeffs)


def bos_series(space: QuantumSpace, bound: int) -> CharacterSeries:
    """Degree-l coefficient: the sum of G(m) over all |m| = l."""
    return CharacterSeries(_bos(space, bound, lambda m: 1))


def ferm_series(space: QuantumSpace, bound: int) -> CharacterSeries:
    """Degree-m coefficient: (-1)^m times the sum of quantum minors over all
    m-element subsets; zero above degree n."""
    return CharacterSeries(_ferm(space, bound, lambda J: 1))


# ---------------------------------------------------------------------------
# master identity


def verify_master(oracle: IdealOracle, degree: int) -> dict:
    """Check that Bos(Z) * Ferm(Z) = 1 in B[[t]] up to the given degree, over
    the oracle's n and mode.

    The degree-0 coefficient must be exactly 1, and every higher coefficient
    must lie in the relation ideal.  Each per-degree entry holds the degree,
    how many words survive the free-level cancellation before any reduction
    runs, and the verdict.
    """
    space = QuantumSpace(oracle.n, oracle.mode)
    prod = bos_series(space, degree).body * ferm_series(space, degree).body
    results = []
    for k in range(degree + 1):
        residual = prod[k]
        if k == 0:
            residual = residual - NCPoly.one(space.z, space.mode)
        terms = residual.support_size()
        results.append({"degree": k, "residual_terms_before_reduction": terms, "pass": oracle.contains(residual)})
    return {"results": results, "pass": all(r["pass"] for r in results)}


# ---------------------------------------------------------------------------
# the coaction of the full wedge


def verify_qdet_coaction(oracle: IdealOracle) -> bool:
    """Check that the free-level coaction of the full wedge is
    qdet (x) wedge in B: subtracting det_q times the wedge expansion leaves
    every tensor-word coefficient in the relation ideal.  (The wedge spans a
    one-dimensional subcomodule, so everything off its expansion must die.)
    Each coefficient is decided by one ``contains`` query."""
    n = oracle.n
    space = QuantumSpace(n, oracle.mode)
    J = tuple(range(1, n + 1))
    wedge = space.wedge_expand(J)
    family = space.coaction_tensor_poly(wedge)
    det = qdet(QMatrix.generic(n, oracle.mode), J)
    for jword in product(range(1, n + 1), repeat=n):
        w = space.x.x_word(jword)
        weight = wedge.coefficient_of(w)
        if not oracle.contains(family[w] if weight.is_zero() else family[w] - det.scale(weight)):
            return False
    return True


# ---------------------------------------------------------------------------
# the twisted identity (the twisted series are the tests' reference route)


def bos_twist_exponent(n: int, m) -> int:
    """Exponent of q on G(m) in the twisted bosonic series."""
    l = sum(m)
    return l * (n + 1) - 2 * sum(i * e for i, e in enumerate(m, start=1))


def ferm_twist_exponent(n: int, subset) -> int:
    """Exponent of q on the signed minor of J in the twisted fermionic series."""
    return len(subset) * (n + 1) - 2 * sum(subset)


def _twist(space: QuantumSpace, exponent):
    """The twist weight key -> q^exponent(n, key) of the one-parameter mode."""
    if space.mode.kind != "single":
        raise ValueError("the twisted series are one-parameter objects")
    q = space.mode.q(1, 2)
    return lambda key: q ** exponent(space.n, key)


def twisted_bos_series(space: QuantumSpace, bound: int) -> CharacterSeries:
    return CharacterSeries(_bos(space, bound, _twist(space, bos_twist_exponent)))


def twisted_ferm_series(space: QuantumSpace, bound: int) -> CharacterSeries:
    return CharacterSeries(_ferm(space, bound, _twist(space, ferm_twist_exponent)))


def verify_twisted(oracle: IdealOracle, degree: int) -> dict:
    """Check the twisted identity Bos~ * Ferm~ = 1 modulo the ideal, and that
    its weights are exactly the torus eigenvalues at the special point, over
    the oracle's n and its one-parameter mode.

    By the module docstring's lemma this is ``verify_master`` plus, per
    degree k, ``twist_weights_match_torus``: the integer identities over
    |m| = k and |J| = k, ANDed into ``pass``.
    """
    if oracle.mode.kind != "single":
        raise ValueError("the twisted identity lives in one-parameter mode")
    n = oracle.n
    space = QuantumSpace(n, oracle.mode)
    results = []
    for k, entry in enumerate(verify_master(oracle, degree)["results"]):
        match = all(
            bos_twist_exponent(n, m) == sum(e * (n + 1 - 2 * i) for i, e in enumerate(m, start=1))
            for m in space.affine_basis(k)
        ) and all(
            ferm_twist_exponent(n, J) == sum(n + 1 - 2 * j for j in J)
            for J in combinations(range(1, n + 1), k)
        )
        results.append({**entry, "twist_weights_match_torus": match, "pass": entry["pass"] and match})
    return {"results": results, "pass": all(r["pass"] for r in results)}


# ---------------------------------------------------------------------------
# the classical q = 1 specialization


def evaluate_z_poly(p: NCPoly, entries):
    """Evaluate a z-polynomial with rational coefficients at a commutative
    rational matrix.

    Each word's coefficient is read once as an exact rational, which must be
    free of the parameters (an int at q = 1); the letters are then multiplied
    straight from the entries, so an integer matrix and integer coefficients
    stay in int arithmetic.
    """
    z = p.alphabet
    flat = [entries[i - 1][j - 1] for i, j in map(z.z_indices, range(z.size))]
    total = 0
    for word, coeff in p.terms.items():
        ((key, value),) = coeff.terms.items()  # a constant has one term, at key 0
        if key:
            raise ValueError(f"coefficient {coeff} depends on the parameters")
        total += prod(map(flat.__getitem__, word), start=value)
    return total


def _char_poly_of_identity_minus_tz(entries) -> list:
    """Coefficients of det(I - tZ) in t, by Berkowitz's division-free
    algorithm: ring operations only, O(n^4) of them, so an integer matrix
    stays in Z.

    det(I - tZ) = t^n chi(1/t) for the characteristic polynomial
    chi(x) = det(xI - Z), so its coefficient of t^j is that of x^(n-j).
    Growing the leading principal block A by one row R, column C and corner
    a, the Schur complement gives chi_{A'}(x) = chi_A(x) (x - a - sum_i
    R A^i C x^(-i-1)); only i < |A| reach the polynomial part.
    """
    n = len(entries)
    coeffs = [1]
    for k in range(n):
        column = [entries[r][k] for r in range(k)]
        row = entries[k][:k]
        # the multiplier's coefficients of x^1, x^0, x^-1, ...: 1, -a, -R A^i C
        multiplier = [1, -entries[k][k]]
        for _ in range(k):
            multiplier.append(-sum(x * y for x, y in zip(row, column)))
            column = [sum(entries[r][c] * column[c] for c in range(k)) for r in range(k)]
        coeffs = [
            sum(coeffs[j] * multiplier[m - j] for j in range(max(0, m - k - 1), min(m, k) + 1))
            for m in range(k + 2)
        ]
    return coeffs


@lru_cache(maxsize=8)
def _classical_recursion(n: int, degree: int) -> tuple:
    """The states of the q = 1 coaction recursion for every G(m) with
    |m| <= degree at once, and per degree l the positions that sum to
    S_l = sum_{|m|=l} G(m).

    At q = 1 with commuting entries, G(m) is the sum, over the rearrangements
    u of the upper indices of m, of the products of z_{w_t}^{u_t}, w the
    sorted word of x^m.  Summed over |m| = l, that is the sum over the
    sorted lower words w of length l and the upper words u with the same
    index counts.  A prefix's future depends only on (i, delta): i is its
    last lower letter and delta its upper-index counts minus its lower-index
    counts.  So one forward pass reads all the sorted words at once,

        F_0(1, 0) = 1,   F_{t+1}(i', delta + e_j - e_{i'}) += z_{i'}^j F_t(i, delta)  for i' >= i,

    with i = 1 before the first letter, and S_l = sum_i F_l(i, 0).  A state
    at step t is kept only while it can still balance: delta_k <= 0 for
    k < i, since no later lower letter lowers delta_k, and P = sum_k
    max(delta_k, 0) <= degree - t, since one step cancels at most one
    positive unit.  Every kept state does balance within P steps: delta sums
    to 0 and every positive unit sits at a letter >= i, so reading the
    lowest positive letter with an upper index of negative count cancels one
    unit of each sign.  The kept states are thus exactly those that reach
    some S_l, C(degree + n, n) of them in all, against C(l + 2n - 1,
    2n - 1) per degree l for one recursion per m.

    States are listed level by level from the root F_0, position 0; each
    state after it is the tuple of its transitions (letter id (i'-1) n +
    (j-1) of z_{i'}^j, position of the predecessor).  They depend only on
    (n, degree), so every matrix checked at that size shares them and pays
    only for their evaluation.
    """
    states, leaves = [], [(0,)]
    level = [(0, 0, (0,) * n, 0)]  # (position, last lower letter, delta, P)
    for room in range(degree - 1, -1, -1):
        successors = {}
        for position, i, delta, mass in level:
            # the next lower letter is at most the first positive one
            top = next((k for k in range(i, n) if delta[k] > 0), n - 1)
            for lower in range(i, top + 1):
                for j, dj in enumerate(delta):
                    if j == lower:
                        if mass > room:
                            continue
                        key = (lower, delta, mass)
                    elif j < lower and not dj:  # would leave a positive unit below the new last letter
                        continue
                    else:
                        moved = mass + (dj >= 0) - (delta[lower] > 0)
                        if moved > room:
                            continue
                        counts = list(delta)
                        counts[j] += 1
                        counts[lower] -= 1
                        key = (lower, tuple(counts), moved)
                    successors.setdefault(key, []).append((lower * n + j, position))
        level = []
        for (lower, delta, mass), moves in successors.items():
            states.append(tuple(moves))
            level.append((len(states), lower, delta, mass))
        leaves.append(tuple(p for p, _, _, mass in level if not mass))
    return tuple(states), tuple(leaves)


def _recursion_value(states: tuple, flat: list) -> list:
    """The value of every state of ``_classical_recursion``, ``flat``
    listing the value of each letter id."""
    values = [1]
    for state in states:
        v = 0
        for letter, s in state:
            v += flat[letter] * values[s]
        values.append(v)
    return values


def classical_check(entries, degree: int) -> bool:
    """MacMahon's original identity for a commutative rational matrix:
    sum_l (sum_{|m|=l} G(m)(Z)) t^l times det(I - tZ) is 1 + O(t^{degree+1}).

    Runs with every q_ij fixed to 1; the two sides come from independent code
    paths (the coaction recursion of ``_classical_recursion``, one forward
    pass over every sorted lower word on the states (last lower letter,
    upper minus lower index counts), versus the commutative determinant).
    A state is kept exactly while it can still balance, so the pass has
    C(degree + n, n) states.  Both sides run over Z at Z' = D Z, D the lcm
    of the entry denominators: G(m)(Z') = D^|m| G(m)(Z) and the t^j
    coefficient of det(I - tZ') is D^j times that of det(I - tZ), so the
    degree-k coefficient of the product is D^k times the one of the
    identity, and the test sum_j S'_{k-j} det'_j = delta_k0 is the identity
    itself.
    """
    n = len(entries)
    if n < 1:
        raise ValueError("need a nonempty matrix")
    entries = [[Fraction(e) for e in row] for row in entries]
    if any(len(row) != n for row in entries):
        raise ValueError("need a square matrix")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    denom = lcm(*(e.denominator for row in entries for e in row))
    scaled = [[e.numerator * (denom // e.denominator) for e in row] for row in entries]
    flat = [e for row in scaled for e in row]  # letter id (i - 1) n + (j - 1) of z_i^j
    states, leaves = _classical_recursion(n, degree)
    values = _recursion_value(states, flat)
    gsums = [sum(map(values.__getitem__, level)) for level in leaves]
    det = _char_poly_of_identity_minus_tz(scaled)
    for k in range(degree + 1):
        acc = sum(gsums[k - j] * det[j] for j in range(min(k, n) + 1))
        if acc != (1 if k == 0 else 0):
            return False
    return True
