"""The bialgebra of the generic right-quantum matrix, and its relation ideal.

B = end(A) is the algebra that coacts universally on quantum affine space A
(``quantum_spaces``) through delta(x_i) = sum_j z_i^j (x) x_j (Manin,
*Quantum groups and noncommutative geometry*, 1988).  Its relations are read
off A: ``build_relations`` coacts each relation x_j x_i - q_ij x_i x_j of A
(i < j), brings every target word to its PBW form, and keeps the
coefficient of each x^m with |m| = 2.  The squares x_l^2 yield the column
relations

    z_j^l z_i^l = q_ij z_i^l z_j^l            (all l, i < j)

and the products x_k x_l yield the cross relations

    q_ij z_i^k z_j^l - q_kl z_j^l z_i^k = z_j^k z_i^l - q_kl q_ij z_i^l z_j^k
                                              (i < j, k < l).

"p = 0 in B" is decided by a quadratic rewriting system.  Each relation is
oriented by its largest word in the canonical word order (``word_rank``):
z_j^l z_i^l for a column relation, with coefficient 1, and z_j^l z_i^k for a
cross relation, with coefficient q_kl.  Both are units, so each relation
becomes a rule rewriting its leading word into lex-smaller words.  The
leading words are exactly the letter pairs whose lower index strictly falls
while the upper index does not rise.  Rewriting terminates, and since every
leading word has degree 2, the rules are confluent once every degree-3
overlap resolves (Bergman's diamond lemma).  ``IdealOracle`` checks those
overlaps when it is built and raises ``ConfluenceError`` if one fails, so
every oracle carries its own certificate.  An element lies in the ideal
exactly when its normal form is zero, and B (x) B has the basis
normal (x) normal.  This makes B a PBW algebra, hence Koszul (Priddy).

The normal form is computed once over the coefficient ring.  Every rule
coefficient is a monomial, so each rewrite step multiplies a coefficient by
one monomial.  During rewriting a coefficient is therefore kept flat, as
{packed exponent: integer} (a rational in numeric mode), which is exactly
the ``terms`` dict of a ``ParamScalar`` (see ``param_ring``): a query copies
each coefficient's terms, a rule's right-hand side holds its coefficient's
one (packed exponent, coefficient) term, and no exponent vector is unpacked
to rewrite.  The packing is additive, so a step is one int addition and one
product per term, and it is injective while every |e_i| < 2^31.  Each step
also lowers the number of lower plus upper inversions of the word by at
least 1 (a rule keeps the lower and upper index multisets of its pair and
removes an inversion), so every chain of rewrites from a word of length d
has at most 2 * C(d, 2) steps, and no exponent exceeds the input's largest
plus 2 * C(d, 2) times the largest exponent of a rule.  Every normal form
checks that bound before it starts and raises ``ExponentOverflowError``, an
internal error, rather than let packing alias.

The verdict is that normal form, zero or not, over the oracle's own ring:
the Laurent ring in multi and single mode, Q in numeric mode.  Nothing is
evaluated at sample points, so a verdict is never weaker than the identity
it decides.

The ideal's blocks are also built by linear algebra, as the independent
reference for tests.  Every relation is homogeneous for the block of a word,
the pair (lower-index counts, upper-index counts), so the ideal is the
direct sum of its blocks.  ``IdealOracle.basis`` row-reduces one block's
span of u*r*v over the same ring with the one sparse fraction-free echelon
core, ``SymbolicEchelon``; its subclass ``IntEchelon`` adds nothing and is a
name kept for the benchmark tracer.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from heapq import heapify, heappop, heappush
from itertools import product
from operator import add

from .free_algebra import LinearCombination, NCPoly, Word, word_rank
from .param_ring import (
    EXPONENT_LIMIT,
    ExponentOverflowError,
    ParamMode,
    ParamScalar,
    max_exponent,
    pack,
)
from .quantum_spaces import QuantumSpace


class ConfluenceError(RuntimeError):
    """A degree-3 overlap of the rewriting rules did not resolve: an
    internal defect, never a usage error."""


# ---------------------------------------------------------------------------
# relations


def build_relations(n: int, mode: ParamMode) -> list[NCPoly]:
    """The defining degree-2 relations of B, read off A: for each i < j, the
    nonzero coefficients of x^m in delta(x_j x_i - c x_i x_j), c the PBW
    factor of x_j x_i, each a free z-polynomial.  Every i < j gives n column
    and C(n, 2) cross relations, n*C(n,2) + C(n,2)^2 in all."""
    space = QuantumSpace(n, mode)
    rels = []
    for i in range(n):
        for j in range(i + 1, n):
            c, _ = space.affine_normalize(bytes((j, i)))
            relation = NCPoly(space.x, mode, {bytes((j, i)): mode.one(), bytes((i, j)): -c})
            by_m: dict = {}
            for target, coeff in space.coaction_tensor_poly(relation).items():
                ct, m = space.affine_normalize(target)
                coeff = coeff.scale(ct)
                by_m[m] = by_m[m] + coeff if m in by_m else coeff
            rels += [p for p in by_m.values() if not p.is_zero()]
    return rels


def _accumulate(terms: dict, key, c) -> None:
    """terms[key] += c, dropping the key when the sum is zero."""
    s = terms.get(key)
    s = c if s is None else s + c
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


# ---------------------------------------------------------------------------
# rewriting


class RewritingRules(dict):
    """Leading word -> ((word, packed exponent, coefficient), ...), the
    monomials -(rest) / c_lead it rewrites to.  ``exponent`` is the largest
    |exponent| of any rule coefficient."""

    __slots__ = ("exponent",)


def _inversions(pair: Word, n: int) -> int:
    """Lower plus upper inversions of a two-letter z-word."""
    a, b = pair
    return (a // n > b // n) + (a % n > b % n)


def rewriting_rules(relations) -> RewritingRules:
    """Each relation oriented by its largest word.

    Every rule coefficient must be a monomial, and every word a rule
    produces must keep the block of its leading word and have fewer
    inversions, so that a rewrite step lowers the inversion count of a whole
    word by at least 1.  Either failing is an internal defect.
    """
    rules = RewritingRules()
    rules.exponent = 0
    for rel in relations:
        n = rel.alphabet.n
        lead = max(rel.terms)
        factor = -rel.terms[lead].inv()
        rhs = []
        for w, c in rel.terms.items():
            if w == lead:
                continue
            c = c * factor
            if len(c.terms) != 1:
                raise RuntimeError(f"rule coefficient {c} is not a monomial")
            if word_block(w, n) != word_block(lead, n) or _inversions(w, n) >= _inversions(lead, n):
                raise RuntimeError(f"rule {list(lead)} -> {list(w)} does not lower the inversions")
            ((k, coeff),) = c.terms.items()
            rhs.append((w, k, coeff))
            rules.exponent = max(rules.exponent, max_exponent((k,)))
        rules[lead] = tuple(rhs)
    return rules


def normal_form(terms: dict, rules: RewritingRules) -> dict:
    """The normal form of sum c*w over words of one length, each coefficient
    flat (a copy of a ``ParamScalar.terms`` dict): a dict from normal words
    to nonzero flat coefficients.  The coefficient dicts of ``terms`` are
    taken over and changed in place, so a large input is never held twice.

    Words are taken from the largest down, and each is rewritten at its
    leftmost leading word.  A rewrite only produces smaller words, so no
    word is rewritten twice.  Every chain of rewrites from a word of length
    d has at most d(d - 1) = 2 C(d, 2) steps (see the module docstring), so
    the exponent bound is checked before any rewriting, and
    ``ExponentOverflowError`` is raised instead of a normal form that
    packing could alias.
    """
    if not terms:
        return {}
    d = len(next(iter(terms)))
    top = max_exponent({k for c in terms.values() for k in c})
    if top + d * (d - 1) * rules.exponent >= EXPONENT_LIMIT:
        raise ExponentOverflowError(f"a degree-{d} normal form could reach exponent 2^31")
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
        for pair, k, r in rhs:
            x = u + pair + v
            s = pending.get(x)
            if s is None:
                pending[x] = {e + k: a * r for e, a in c.items()}
                heappush(heap, (-int.from_bytes(x, "big"), x))
                continue
            for e, a in c.items():
                e += k
                t = s.get(e, 0) + a * r
                if t:
                    s[e] = t
                else:
                    del s[e]
    return out


def add_products(acc: dict, left, right, scale) -> None:
    """acc[u + v][k + l + s] += a * b * c over the (word, packed, coefficient)
    triples (u, k, a) of ``left`` and (v, l, b) of ``right`` and the flat
    terms (s, c) of ``scale``: a product of two polynomials given term by
    term (``packed_triples``) times a scalar, summed into flat coefficients."""
    for s, c in scale:
        for u, k, a in left:
            k += s
            a *= c
            for v, l, b in right:
                coeff = acc.get(u + v)
                if coeff is None:
                    coeff = acc[u + v] = {}
                e = k + l
                t = coeff.get(e, 0) + a * b
                if t:
                    coeff[e] = t
                else:
                    del coeff[e]


def packed_triples(p: NCPoly) -> list:
    """The terms of p as (word, packed exponent, coefficient) triples, one per
    monomial of each coefficient."""
    return [(w, k, a) for w, c in p.terms.items() for k, a in c.terms.items()]


def certify_confluence(rules: RewritingRules) -> int:
    """Resolve every degree-3 overlap abc (ab and bc both leading): the two
    one-step rewrites of abc must have the same normal form.  Returns the
    number of overlaps; raises ``ConfluenceError`` on the first that fails."""
    starting: dict = {}
    for bc in rules:
        starting.setdefault(bc[0], []).append(bc)
    overlaps = 0
    for ab, left in rules.items():
        for bc in starting.get(ab[1], ()):
            overlaps += 1
            a, c = ab[:1], bc[1:]
            # both rewrites at once: the words they share cancel unrewritten
            diff: dict = {}
            add_products(diff, left, [(c, 0, 1)], [(0, 1)])
            add_products(diff, [(a, 0, 1)], rules[bc], [(0, -1)])
            if normal_form(diff, rules):
                raise ConfluenceError(f"the overlap {list(ab + c)} does not resolve")
    return overlaps


def column_reduce(p: NCPoly) -> NCPoly:
    """Greedy rewrite with the column relations, oriented
    z_j^l z_i^l -> q_ij z_i^l z_j^l (i < j).

    Letters with a common upper index q-commute, so this bubble pass has a
    unique normal form (no adjacent pair with equal uppers and descending
    lowers) and changes p only by ideal elements.
    """
    n = p.alphabet.n
    mode = p.mode
    terms: dict[Word, ParamScalar] = {}
    for word, coeff in p.terms.items():
        letters = bytearray(word)
        pos = 0
        while pos < len(letters) - 1:
            a, b = letters[pos], letters[pos + 1]
            if a % n == b % n and a // n > b // n:
                letters[pos], letters[pos + 1] = b, a
                coeff = coeff * mode.q(b // n + 1, a // n + 1)
                pos = max(pos - 1, 0)
            else:
                pos += 1
        _accumulate(terms, bytes(letters), coeff)
    return NCPoly(p.alphabet, mode, terms)


def word_block(word: Word, n: int) -> tuple:
    """The block of a z-word: (lower-index counts, upper-index counts), a
    pair of n-tuples.  Every relation of B is homogeneous for it."""
    lower, upper = [0] * n, [0] * n
    for letter in word:
        lower[letter // n] += 1
        upper[letter % n] += 1
    return tuple(lower), tuple(upper)


def _arrangements(counts: tuple):
    """Every sequence holding counts[i] copies of i, each exactly once, in
    lexicographic order."""
    if not any(counts):
        yield ()
        return
    for i, c in enumerate(counts):
        if c:
            rest = counts[:i] + (c - 1,) + counts[i + 1:]
            for tail in _arrangements(rest):
                yield (i,) + tail


def block_words(n: int, block: tuple) -> list[Word]:
    """The words of a block, each once."""
    lower, upper = block
    uppers = list(_arrangements(upper))
    return [bytes(i * n + j for i, j in zip(lo, up)) for lo in _arrangements(lower) for up in uppers]


# ---------------------------------------------------------------------------
# sparse echelon structures


def _strip_symbolic(vec: dict) -> None:
    """Divide a symbolic row by its content: the common monomial factor (a
    unit of the Laurent ring) and, when every coefficient is an integer, the
    gcd of them all.  Rational coefficients (numeric mode) keep their scale."""
    g = 0
    mins = None
    for s in vec.values():
        for exps, c in s.sorted_terms():
            g = math.gcd(g, c) if type(c) is int else 1
            mins = exps if mins is None else tuple(map(min, mins, exps))
    if mins is None:
        return
    if g == 1 and not any(mins):
        return
    shift = pack(mins)  # packing is additive: dividing by q^mins subtracts its key
    for k, s in vec.items():
        vec[k] = s.mode.from_packed({e - shift: c // g for e, c in s.terms.items()})


class SymbolicEchelon:
    """Sparse fraction-free row echelon form over a mode's own ring (the
    Laurent ring, or Q in numeric mode).

    Rows are keyed by their pivot (smallest column index), divided by their
    monomial and integer content, with a positive lowest term in the pivot
    entry.  Eliminating a pivot scales the working vector by the row's pivot
    entry instead of dividing, so only ring operations occur; content
    stripping keeps entries small.
    """

    __slots__ = ("pivots", "rows")

    def __init__(self):
        self.pivots: list[int] = []
        self.rows: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        """Eliminate every pivot from vec (in place) and return the
        remainder, divided by its content as it goes: enough for zero tests
        and insertion.  Each step is vec <- row[p] * vec - vec[p] * row,
        which clears vec[p]."""
        if vec:
            steps = 0
            for p in self.pivots[bisect_left(self.pivots, min(vec)):]:
                if p not in vec:
                    continue
                row = self.rows[p]
                fa, fb = row[p], vec[p]
                if fa != 1:
                    for k in vec:
                        vec[k] = vec[k] * fa
                for k, rv in row.items():
                    nv = vec.get(k)
                    nv = -(fb * rv) if nv is None else nv - fb * rv
                    if nv:
                        vec[k] = nv
                    else:
                        vec.pop(k, None)
                steps += 1
                if steps % 16 == 0:
                    _strip_symbolic(vec)
            _strip_symbolic(vec)
        return vec

    def contains(self, vec: dict) -> bool:
        return not self.reduce(dict(vec))

    def insert(self, vec: dict) -> bool:
        vec = self.reduce(vec)
        if not vec:
            return False
        pivot = min(vec)
        if vec[pivot].sorted_terms()[0][1] < 0:
            for k in vec:
                vec[k] = -vec[k]
        self.rows[pivot] = vec
        insort(self.pivots, pivot)
        return True

    def finalize(self) -> None:
        """Check the echelon invariant: distinct sorted pivots, one row each,
        whose smallest column is its pivot.  A violation is an internal
        defect."""
        if sorted(self.rows) != self.pivots or any(min(row) != p for p, row in self.rows.items()):
            raise RuntimeError("echelon invariant violated")


class IntEchelon(SymbolicEchelon):
    """A name kept for the benchmark tracer, which wraps ``insert`` and
    ``finalize`` as they stand in this class body; nothing builds one."""

    __slots__ = ()
    insert = SymbolicEchelon.insert
    finalize = SymbolicEchelon.finalize


# ---------------------------------------------------------------------------
# the membership oracle


class IdealOracle:
    """Graded membership oracle for the two-sided relation ideal of B.

    ``rules`` orient the relations, and their confluence is certified here,
    when the oracle is built.  A query is a member exactly when its normal
    form over ``mode`` is zero: every verdict is exact, over the Laurent ring
    or, in numeric mode, over Q.  ``mode`` must be for this n, as for
    ``QuantumSpace``.

    ``exact``, ``seed`` and ``draws`` are accepted and read by nothing;
    existing callers (the benchmark workloads among them) still pass them.
    """

    def __init__(self, n: int, mode: ParamMode, exact: bool = True, seed: int = 0, draws: int = 3):
        self.n = n
        self.mode = mode
        self.z = QuantumSpace(n, mode).z
        self.rules = rewriting_rules(build_relations(n, mode))
        certify_confluence(self.rules)

    def basis(self, degree: int, block: tuple) -> SymbolicEchelon:
        """The checked echelon basis of the ideal's component in ``block``
        (a ``word_block`` key of total degree ``degree``) over the oracle's
        own ring, built by elimination on every call: the independent
        reference for the normal form.

        The column pass kills every u*r*v with a column relation r, so the
        rows come from the cross relations alone: for each word w of the
        block and each position holding a cross relation's rising word, the
        column-reduced w[:p]*r*w[p+2:], each arising exactly once.  The
        relations are read from ``build_relations``, not from the rules.
        """
        n, size = self.n, self.z.size
        # each cross relation by its word z_i^k z_j^l (i < j, k < l), the one
        # term of any relation whose lower and upper indices both rise
        cross = {
            w: rel
            for rel in build_relations(n, self.mode)
            for w in rel.terms
            if w[0] // n < w[1] // n and w[0] % n < w[1] % n
        }
        basis = SymbolicEchelon()
        for word in block_words(n, block):
            for pos in range(degree - 1):
                rel = cross.get(word[pos:pos + 2])
                if rel is None:
                    continue
                u, v = word[:pos], word[pos + 2:]
                row = column_reduce(NCPoly(self.z, self.mode, {u + w + v: c for w, c in rel.terms.items()}))
                if row.terms:
                    basis.insert({word_rank(w, size): c for w, c in row.terms.items()})
        basis.finalize()
        return basis

    # -- membership -----------------------------------------------------------------

    def _checked_degree(self, p: LinearCombination):
        """The degree of a query, an NCPoly or a TensorPoly: it must be over
        this oracle's alphabet and mode, and homogeneous."""
        if p.alphabet != self.z:
            raise ValueError("membership expects a z-polynomial over this oracle's n")
        if p.mode != self.mode:
            raise ValueError("membership expects this oracle's parameter mode")
        d = p.homogeneous_degree()
        if d is None:
            raise ValueError("membership is graded: input must be homogeneous")
        return d

    def contains_packed(self, terms: dict) -> bool:
        """Whether sum c*w vanishes in B, for words of one length with flat
        coefficients over this oracle's mode (``ParamScalar.terms`` dicts,
        built from exponents below 2^31 in magnitude), which ``normal_form``
        takes over.  The verdict is the one ``contains`` gives for the same
        element."""
        lengths = {len(w) for w in terms}
        if len(lengths) > 1:
            raise ValueError("membership is graded: input must be homogeneous")
        if not lengths or lengths.pop() < 2:
            return not any(terms.values())
        return not normal_form(terms, self.rules)

    def contains(self, p: NCPoly) -> bool:
        """Whether p vanishes in B, i.e. its normal form is zero.  Nonzero
        inputs below degree 2 are never members.

        Every relation is homogeneous for the block of a word, so rewriting
        keeps the letter sum of a word (n * lower + upper, summed), and the
        words of each letter sum are rewritten on their own.  Only one such
        part is held as flat coefficients at a time, and the first part with
        a surviving word decides.
        """
        d = self._checked_degree(p)
        if d < 2:
            return p.is_zero()
        parts: dict = {}
        for w in p.terms:
            parts.setdefault(sum(w), []).append(w)
        return not any(
            normal_form({w: dict(p.terms[w].terms) for w in words}, self.rules) for words in parts.values()
        )

    def contains_tensor(self, tp: "TensorPoly") -> bool:
        """Membership in ideal(x)B + B(x)ideal for an element of B(x)B whose
        tensor legs are homogeneous of one common degree.

        B(x)B has the basis normal(x)normal.  The right legs are brought to
        normal form once per left word, then the left legs once per normal
        right word; the element is a member iff nothing survives.
        """
        d = self._checked_degree(tp)
        if d < 2:
            return tp.is_zero()
        rights: dict = {}
        for (wl, wr), c in tp.terms.items():
            rights.setdefault(wl, {})[wr] = c
        lefts: dict = {}
        for wl, right in rights.items():
            for r, c in normal_form({wr: dict(c.terms) for wr, c in right.items()}, self.rules).items():
                lefts.setdefault(r, {})[wl] = c
        return not any(normal_form(left, self.rules) for left in lefts.values())


# ---------------------------------------------------------------------------
# matrices and the quantum determinant


class QMatrix:
    """The generic n x n z-matrix Z, with its parameter mode."""

    __slots__ = ("n", "mode")

    def __init__(self, n: int, mode: ParamMode):
        self.n = n
        self.mode = mode

    @classmethod
    def generic(cls, n: int, mode: ParamMode) -> "QMatrix":
        return cls(n, mode)


def qdet(Z: QMatrix, subset=None) -> NCPoly:
    """The quantum determinant of the submatrix on ``subset`` (default all of
    1..n): wedge(J) relabeled, each word x_{pi_1} ... x_{pi_m} of
    ``wedge_expand(J)`` going with its weight to z_{pi_1}^{j_1} ...
    z_{pi_m}^{j_m}.  The relabeling is injective, so the sum is a dict fill.
    An empty subset is a ``ValueError`` here, and an index outside 1..n or a
    repeat one in ``wedge_expand``.
    """
    n, mode = Z.n, Z.mode
    J = tuple(sorted(subset)) if subset is not None else tuple(range(1, n + 1))
    if not J:
        raise ValueError(f"need a nonempty subset of 1..{n}")
    space = QuantumSpace(n, mode)
    terms = {bytes(a * n + j - 1 for a, j in zip(u, J)): c for u, c in space.wedge_expand(J).terms.items()}
    return NCPoly(space.z, mode, terms)


# ---------------------------------------------------------------------------
# comultiplication


class TensorPoly(LinearCombination):
    """An element of B (x) B at the free level: the same linear combinations
    as ``NCPoly``, keyed by pairs of z-words.  Multiplication is factorwise
    concatenation."""

    __slots__ = ()

    @staticmethod
    def _join(a: tuple, b: tuple) -> tuple:
        return a[0] + b[0], a[1] + b[1]

    @classmethod
    def outer(cls, a: NCPoly, b: NCPoly) -> "TensorPoly":
        """a (x) b, for two polynomials over one alphabet and mode."""
        a._check(b)
        terms = {}
        for wa, ca in a.terms.items():
            for wb, cb in b.terms.items():
                terms[(wa, wb)] = ca * cb
        return cls(a.alphabet, a.mode, terms)

    def homogeneous_degree(self):
        """The common word length of both legs over the support, or None if
        the lengths differ (0 for the zero element)."""
        degrees = {len(w) for key in self.terms for w in key}
        if len(degrees) > 1:
            return None
        return degrees.pop() if degrees else 0


def comultiply(p: NCPoly) -> TensorPoly:
    """Delta applied letterwise, z_i^j -> sum_l z_i^l (x) z_l^j, and extended
    multiplicatively; the empty word maps to 1 (x) 1.

    The word z_{i_1}^{j_1}...z_{i_d}^{j_d} contributes, for every middle
    sequence l, the pair (z_{i_1}^{l_1}..., z_{l_1}^{j_1}...) with its own
    coefficient.  The pair determines both the word and l, so every term is
    set once, with nothing to sum.
    """
    n = p.alphabet.n
    terms: dict = {}
    for word, c in p.terms.items():
        rows = [a - a % n for a in word]
        cols = [a % n for a in word]
        for l in product(range(n), repeat=len(word)):
            terms[bytes(map(add, rows, l)), bytes(k * n + j for k, j in zip(l, cols))] = c
    return TensorPoly(p.alphabet, p.mode, terms)
