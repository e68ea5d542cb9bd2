"""Quantum affine n-space, its exterior dual, and their coactions.

The affine algebra A is generated by x_1..x_n with x_j x_i = q_ij x_i x_j for
i < j; its PBW basis consists of the sorted monomials x^m = x_1^{m_1}...x_n^{m_n}.
The exterior dual A^! is generated by the evaluation-dual letters x^1..x^n
(<x^i, x_j> = delta_ij) with squares zero and x^l x^k = -q_kl^{-1} x^k x^l for
k < l.  Between them sits the wedge basis of the degree-m dual component: for a
subset J = (j_1 < ... < j_m) the element

    wedge(J) = sum over permutations pi of S_m of w(pi) x_{j_pi(1)} ... x_{j_pi(m)}

with inversion weight w(pi) = prod over inversions of (-q_ab)^{-1}.  The
parameters in w(pi) are indexed by the actual elements of J, pairs
(a, b) = (j_pi(j), j_pi(i)) with a < b, not by positions 1..m: the position
convention fails to annihilate the degree-m relations of A^! for any J other
than {1..m}.  The test suite pairs both conventions with every spanner
u r v of the degree-m relations of A^!, r a square or a q-anticommutator:
the element convention annihilates them for every J.

Both sides' q factors come from letter counts: appending x_j to a word
holding counts[k] copies of each x_k adds counts[k] inversions of the pair
(j, k) for each k > j, and each costs q_jk in A and (-q_jk)^{-1} in A^!,
whose relations are the negated inverses of A's.  ``affine_normalize`` and
``exterior_weight`` read the counts off one pass, ``_inversions``.  The
coaction on x^m is one depth-first pass over the upper-index sequences of
the sorted word of x^m that applies the rule letter by letter, with shared
prefixes; capping the upper counts at m gives exactly the words of the
diagonal coefficient G(m).

The free-level coaction on tensor words normalizes nothing: it relabels
each word u with each target t into the z-word z_{u_1}^{t_1}...z_{u_m}^{t_m},
and distinct words give distinct z-words at a fixed target, so every
coefficient is one dict fill with nothing to sum.
"""

from __future__ import annotations

from itertools import permutations, product
from operator import add, le

from .free_algebra import Alphabet, NCPoly, Word
from .param_ring import ParamMode, ParamScalar, parameter_pairs


class QuantumSpace:
    """Bundles n, the parameter mode, and both alphabets."""

    def __init__(self, n: int, mode: ParamMode):
        if n < 1:
            raise ValueError("need n >= 1")
        if mode.kind in ("multi", "numeric") and mode.n != n:
            raise ValueError(f"mode is for n={mode.n}, space is for n={n}")
        self.n = n
        self.mode = mode
        self.x = Alphabet("x", n)
        self.z = Alphabet("z", n)
        # per letter id j: (k, slot of q_jk) for k > j and (k, slot of q_kj)
        # for k < j, slots in per-pair exponent order
        slot = {pair: s for s, pair in enumerate(parameter_pairs(n))}
        self._npairs = len(slot)
        self._above = [tuple((k, slot[j + 1, k + 1]) for k in range(j + 1, n)) for j in range(n)]
        self._below = [tuple((k, slot[k + 1, j + 1]) for k in range(j)) for j in range(n)]

    # -- the affine side -------------------------------------------------------

    def _inversions(self, letters) -> tuple[list, list]:
        """(per-pair inversion counts, letter counts) of a word of letter
        ids, in one left-to-right pass: appending x_j after counts[k] copies
        of each x_k adds counts[k] to the count of the pair (j, k), k > j."""
        counts = [0] * self.n
        exps = [0] * self._npairs
        for c in letters:
            for k, slot in self._above[c]:
                exps[slot] += counts[k]
            counts[c] += 1
        return exps, counts

    def affine_normalize(self, word: Word) -> tuple[ParamScalar, tuple[int, ...]]:
        """PBW normal form of a free word: word = c * x^m in A.  Moving x_j
        leftwards past x_i (i < j) costs q_ij, so c is q^e for the per-pair
        inversion counts e of ``_inversions``."""
        exps, counts = self._inversions(bytes(word))
        return self.mode.q_monomial(exps), tuple(counts)

    def affine_prepend(self, letter: int, m) -> tuple[ParamScalar, tuple[int, ...]]:
        """x_j * x^m = c * x^{m + e_j} in A for the letter id of x_j: the
        same count rule, so c is the product of q_kj^{m_k} over k < j.  A
        letter id other than an integer in 0..n-1, or an m other than n
        non-negative integers, is a ``ValueError``."""
        if not (isinstance(letter, int) and 0 <= letter < self.n and self._is_multidegree(m)):
            raise ValueError(
                f"need a letter id in 0..{self.n - 1} and a multidegree of length {self.n}, "
                f"{self.n} non-negative integers; got {letter!r} and {m!r}"
            )
        exps = [0] * self._npairs
        for k, slot in self._below[letter]:
            exps[slot] = m[k]
        r = list(m)
        r[letter] += 1
        return self.mode.q_monomial(exps), tuple(r)

    def _is_multidegree(self, m) -> bool:
        """Whether m is n non-negative integers."""
        return len(m) == self.n and all(isinstance(e, int) and e >= 0 for e in m)

    def affine_basis(self, degree: int) -> list[tuple[int, ...]]:
        """All multidegrees of total degree ``degree``, in PBW word order."""
        if degree < 0:
            raise ValueError("degree must be >= 0")
        out: list[tuple[int, ...]] = []

        def rec(slot: int, remaining: int, prefix: tuple[int, ...]):
            if slot == self.n - 1:
                out.append(prefix + (remaining,))
                return
            for e in range(remaining, -1, -1):
                rec(slot + 1, remaining - e, prefix + (e,))

        rec(0, degree, ())
        return out

    # -- wedge basis -----------------------------------------------------------------

    def exterior_weight(self, indices) -> ParamScalar:
        """One factor (-q_ab)^{-1} per inversion of a sequence of distinct
        indices in 1..n, a < b the inverted values: (-1)^{sum e} q^{-e} for
        the per-pair inversion counts e of ``_inversions``; 1 for a sequence
        with no inversion, such as a sorted or a one-index one.  Anything but
        distinct integers in 1..n is a ``ValueError``, as in ``wedge_expand``."""
        seq = self._checked_indices(indices)
        if all(map(le, seq, seq[1:])):
            return self.mode.one()
        exps, _ = self._inversions([j - 1 for j in seq])
        w = self.mode.q_monomial([-e for e in exps])
        return -w if sum(exps) % 2 else w

    def _checked_indices(self, indices) -> tuple:
        """``indices`` as a tuple, which must hold distinct integers in 1..n."""
        seq = tuple(indices)
        if not all(isinstance(j, int) and 1 <= j <= self.n for j in seq) or len(set(seq)) != len(seq):
            raise ValueError(f"need distinct integers in 1..{self.n}, a subset in some order; got {seq}")
        return seq

    def wedge_expand(self, subset) -> NCPoly:
        """The wedge basis vector of a subset of {1..n}, as its expansion in
        the free algebra: homogeneous of degree |J|, with the increasing word
        at coefficient exactly 1.  The empty subset gives 1."""
        J = tuple(sorted(self._checked_indices(subset)))
        terms = {self.x.x_word(word): self.exterior_weight(word) for word in permutations(J)}
        return NCPoly(self.x, self.mode, terms)

    # -- coactions ------------------------------------------------------------------

    def z_gen(self, i: int, j: int) -> NCPoly:
        return NCPoly.monomial(self.z, self.mode, bytes([self.z.z(i, j)]))

    def coaction_affine(self, m) -> dict[tuple[int, ...], NCPoly]:
        """Coefficients b_{r,m} of the comodule-algebra coaction on x^m.

        delta(x^m) is the product of delta(x_i) = sum_j z_i^j (x) x_j over
        the letters i of the sorted word of x^m, so every upper-index
        sequence j_1..j_d contributes the z-word z_{i_1}^{j_1}...z_{i_d}^{j_d}
        to b_{r,m}, r the counts of the j's, with the q factor that sorts
        x_{j_1}...x_{j_d}.  Distinct sequences give distinct z-words, so
        nothing cancels; every b_{r,m} is homogeneous of z-degree |m|.
        """
        family = self._upper_sequences(m, None)
        return {r: NCPoly(self.z, self.mode, terms) for r, terms in family.items()}

    def _upper_sequences(self, m, cap) -> dict:
        """One depth-first pass over the upper-index sequences of the sorted
        word of x^m, with at most cap[j] copies of each upper index j when
        ``cap`` is given: a dict r -> {z-word: q factor}.

        Prefixes are shared.  Appending upper index j adds counts[k] to the
        exponent of q_jk for each k > j (the ``affine_normalize`` rule), and
        each leaf's factor is built once from its exponents.
        """
        n = self.n
        if not self._is_multidegree(m):
            raise ValueError(f"need a multidegree of length {n}, {n} non-negative integers; got {m!r}")
        lowers = [i * n for i, e in enumerate(m) for _ in range(e)]
        d = len(lowers)
        limit = [d] * n if cap is None else list(cap)
        above, q_monomial = self._above, self.mode.q_monomial
        counts = [0] * n
        exps = [0] * self._npairs
        word = bytearray(d)
        factors: dict = {}
        out: dict = {}

        def extend(t):
            if t == d:
                key = tuple(exps)
                c = factors.get(key)
                if c is None:
                    c = factors[key] = q_monomial(key)
                out.setdefault(tuple(counts), {})[bytes(word)] = c
                return
            base = lowers[t]
            for j in range(n):
                if counts[j] == limit[j]:
                    continue
                word[t] = base + j
                step = above[j]
                for k, slot in step:
                    exps[slot] += counts[k]
                counts[j] += 1
                extend(t + 1)
                counts[j] -= 1
                for k, slot in step:
                    exps[slot] -= counts[k]

        extend(0)
        return out

    def coaction_tensor_poly(self, p: NCPoly) -> dict[Word, NCPoly]:
        """Free-level coaction of an x-polynomial, with no normalization
        anywhere: target word t -> the sum over the words u of p of
        p[u] z_{u_1}^{t_1} ... z_{u_m}^{t_m}.

        At a fixed t, distinct u give distinct z-words, so each coefficient
        is filled term by term with nothing to sum.
        """
        n = self.n
        out: dict = {}
        for u, c in p.terms.items():
            rows = [a * n for a in u]
            for t in product(range(n), repeat=len(u)):
                out.setdefault(bytes(t), {})[bytes(map(add, rows, t))] = c
        return {t: NCPoly(self.z, self.mode, terms) for t, terms in out.items()}
