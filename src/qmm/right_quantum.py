"""The bialgebra of the generic right-quantum matrix, and its relation ideal.

The algebra B is generated by z_i^j subject to the column relations

    z_j^l z_i^l = q_ij z_i^l z_j^l            (all l, i < j)

and the cross relations

    q_ij z_i^k z_j^l - q_kl z_j^l z_i^k = z_j^k z_i^l - q_kl q_ij z_i^l z_j^k
                                              (i < j, k < l).

B has no known confluent rewriting system, so "p = 0 in B" is decided by
linear algebra: the ideal is spanned by u*r*v over words u, v and relations
r, and membership is reduction against a row-reduced form of that span.
Three facts keep this desk-scale:

* every relation is homogeneous for the Z^n x Z^n grading of a word by its
  block, the pair (lower-index counts, upper-index counts); this is the torus
  action behind the twisted identity.  The ideal is therefore the direct sum
  of its blocks, and p is a member exactly when each block component of p
  is.  Only the blocks a query touches are built, each over its own words
  (the distinct pairings of the arrangements of the lower multiset with the
  arrangements of the upper multiset);
* a greedy rewrite pass with the column relations (oriented to sort equal
  upper indices by lower index) is confluent, keeps blocks, and projects both
  the query and the spanning rows onto column-sorted words.  It kills every
  u*r*v with a column relation r, so a block's rows are generated from the
  cross relations alone: for each word w of the block and each position p
  where w[p:p+2] is the leading word z_i^k z_j^l (i < j, k < l) of a cross
  relation r, the row w[:p]*r*w[p+2:].  Each such u*r*v arises exactly once;
* one sparse fraction-free echelon core does the elimination.  By default
  the parameters are specialized to random distinct odd primes, each row is
  evaluated as a primitive integer vector in int arithmetic (``to_vector``),
  and the core runs over Z; membership is declared only when every draw
  agrees.  The ``exact`` flag keeps the Laurent coefficients and runs the
  same core over the Laurent ring itself, used as ground truth.

Bases are cached per (mode, degree, specialization, block) and, when
QMM_CACHE_DIR is set, persisted as versioned JSON with a checksum of the rows;
a file whose key or checksum does not match is rebuilt.
"""

from __future__ import annotations

import json
import math
import os
import threading
from bisect import bisect_left, insort
from fractions import Fraction
from hashlib import sha256
from itertools import permutations
from random import Random

from .free_algebra import Alphabet, LinearCombination, NCPoly, Word, word_rank
from .param_ring import ParamMode, ParamScalar, _as_rational
from .quantum_spaces import QuantumSpace

ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
               59, 61, 67, 71, 73, 79, 83, 89, 97)

_CACHE_VERSION = 3
_CACHE_ENV = "QMM_CACHE_DIR"


# ---------------------------------------------------------------------------
# relations


def build_relations(n: int, mode: ParamMode) -> list[NCPoly]:
    """The defining degree-2 relations of B: n*C(n,2) column relations
    followed by C(n,2)^2 cross relations, each as a free z-polynomial."""
    z = Alphabet("z", n)
    rels = []
    for l in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                p = NCPoly.monomial(z, mode, z.z_word([(j, l), (i, l)]))
                p = p + NCPoly.monomial(z, mode, z.z_word([(i, l), (j, l)]), -mode.q(i, j))
                rels.append(p)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                for l in range(k + 1, n + 1):
                    qij, qkl = mode.q(i, j), mode.q(k, l)
                    p = NCPoly.monomial(z, mode, z.z_word([(i, k), (j, l)]), qij)
                    p = p + NCPoly.monomial(z, mode, z.z_word([(j, l), (i, k)]), -qkl)
                    p = p + NCPoly.monomial(z, mode, z.z_word([(j, k), (i, l)]), -mode.one())
                    p = p + NCPoly.monomial(z, mode, z.z_word([(i, l), (j, k)]), qkl * qij)
                    rels.append(p)
    return rels


def _accumulate(terms: dict, key, c) -> None:
    """terms[key] += c, dropping the key when the sum is zero."""
    s = terms.get(key)
    s = c if s is None else s + c
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


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


def _strip_int(vec: dict) -> None:
    g = 0
    for v in vec.values():
        g = math.gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for k in vec:
            vec[k] //= g


def _strip_symbolic(vec: dict) -> None:
    """Divide a symbolic row by its content: the integer gcd of all
    coefficients and the common monomial factor (a unit of the Laurent ring)."""
    g = 0
    mins = None
    for s in vec.values():
        for exps, c in s.terms.items():
            g = math.gcd(g, c if isinstance(c, int) else 0)
            mins = exps if mins is None else tuple(map(min, mins, exps))
    if mins is None:
        return
    if g == 0:
        g = 1
    if g == 1 and not any(mins):
        return
    for k, s in vec.items():
        vec[k] = ParamScalar(
            s.mode,
            {tuple(e - m for e, m in zip(exps, mins)): c // g for exps, c in s.terms.items()},
        )


class _Echelon:
    """Sparse fraction-free row echelon form over an integral domain.

    Rows are keyed by their pivot (smallest column index).  Eliminating a
    pivot scales the working vector by a cofactor instead of dividing, so
    only ring operations occur; content stripping keeps entries small.  A
    subclass supplies the scalar hooks: ``_cofactors``, ``_strip`` and
    ``_negative``.
    """

    __slots__ = ("pivots", "rows")

    def __init__(self):
        self.pivots: list[int] = []
        self.rows: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _eliminate(self, vec: dict, row: dict, pivot):
        """vec <- fa * vec - fb * row, which clears vec[pivot]; returns fa."""
        fa, fb = self._cofactors(vec[pivot], row[pivot])
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
        return fa

    def reduce(self, vec: dict, strip: bool = True) -> tuple:
        """Eliminate every pivot from vec (in place); returns
        (remainder, multiplier).

        Without ``strip`` the exact invariant holds: multiplier * vec minus
        the remainder lies in the row space.  With ``strip`` the remainder is
        also divided by its content as it goes, which is enough for zero tests
        and insertion; the multiplier is then None.
        """
        multiplier = None if strip else 1
        if vec:
            steps = 0
            for p in self.pivots[bisect_left(self.pivots, min(vec)):]:
                if p in vec:
                    fa = self._eliminate(vec, self.rows[p], p)
                    if not strip:
                        multiplier = multiplier * fa
                    else:
                        steps += 1
                        if steps % 16 == 0:
                            self._strip(vec)
            if strip:
                self._strip(vec)
        return vec, multiplier

    def contains(self, vec: dict) -> bool:
        return not self.reduce(dict(vec))[0]

    def insert(self, vec: dict) -> bool:
        vec, _ = self.reduce(vec)
        if not vec:
            return False
        pivot = min(vec)
        if self._negative(vec[pivot]):
            for k in vec:
                vec[k] = -vec[k]
        self.rows[pivot] = vec
        insort(self.pivots, pivot)
        return True

    def finalize(self) -> None:
        """Back-substitute to reduced echelon form: each pivot column appears
        in its own row only.  Processing pivots in decreasing order keeps this
        a single pass."""
        for idx in range(len(self.pivots) - 1, -1, -1):
            row = self.rows[self.pivots[idx]]
            for q in self.pivots[idx + 1:]:
                if q in row:
                    self._eliminate(row, self.rows[q], q)
            self._strip(row)
            # a fresh dict: the table the row grew during elimination keeps
            # its slack, and hundreds of block bases stay cached
            self.rows[self.pivots[idx]] = {k: row[k] for k in row}

    def to_jsonable(self):
        return [
            [p, [[k, str(v) if isinstance(v, int) else v.to_jsonable()]
                 for k, v in sorted(self.rows[p].items())]]
            for p in self.pivots
        ]


class IntEchelon(_Echelon):
    """Rows over Z: primitive integer vectors with a positive pivot entry
    (the same row space over Q)."""

    __slots__ = ()

    @staticmethod
    def _cofactors(a: int, b: int):
        g = math.gcd(a, b)
        return b // g, a // g

    _strip = staticmethod(_strip_int)

    @staticmethod
    def _negative(c: int) -> bool:
        return c < 0

    # the benchmark tracer wraps these per class, looking in the class body
    insert = _Echelon.insert
    finalize = _Echelon.finalize


class SymbolicEchelon(_Echelon):
    """Rows over the Laurent ring itself, divided by their integer and
    monomial content, with a positive lowest term in the pivot entry."""

    __slots__ = ()

    @staticmethod
    def _cofactors(a: ParamScalar, b: ParamScalar):
        return b, a

    _strip = staticmethod(_strip_symbolic)

    @staticmethod
    def _negative(c: ParamScalar) -> bool:
        return c.terms[min(c.terms)] < 0

    # the benchmark tracer wraps these per class, looking in the class body
    insert = _Echelon.insert
    finalize = _Echelon.finalize


def new_echelon(assignment):
    """An empty echelon for vectors made by ``to_vector`` with the same
    assignment: over the Laurent ring for None, over Z for a dict."""
    return SymbolicEchelon() if assignment is None else IntEchelon()


def to_vector(pairs, assignment) -> dict:
    """The coefficient vector of (index, scalar) pairs, zeros dropped.

    With ``assignment`` None the Laurent coefficients are kept as they are.
    With a dict (empty in numeric mode) they are specialized and scaled to
    the primitive integer vector with a positive scale, the same vector as
    ``ParamScalar.specialize`` followed by clearing one common denominator
    and dividing by the integer content; a uniform positive scaling changes
    no zero test and no row space over Q.

    The scale is reached without rationals: the componentwise minimum
    exponent over the whole vector is factored out (a sign flip if that
    unit is negative), so every term is a non-negative power product of the
    assignment's values, each distinct exponent tuple is evaluated once, and
    integer draws stay in int arithmetic.  Fractions appear only for
    rational coefficients (numeric mode) or a non-integer assignment, and
    are cleared by one lcm at the end.  A zero assignment value, or a
    missing label for a variable that appears, raises ``ValueError`` as
    ``specialize`` does.
    """
    if assignment is None:
        return {k: c for k, c in pairs if c}
    pairs = list(pairs)
    if not pairs:
        return {}
    values = {}
    for label, val in assignment.items():
        val = _as_rational(val)
        if val == 0:
            raise ValueError(f"zero assignment for {label!r} not allowed")
        values[label] = val.numerator if val.denominator == 1 else val
    live = [(k, c) for k, c in pairs if c]
    if not live:
        return {}
    variables = live[0][1].mode.variables
    distinct = {exps for _, c in live for exps in c.terms}
    mins, bases, negative = [], [], False
    for slot, column in enumerate(zip(*distinct)):
        lo = min(column)
        mins.append(lo)
        if not any(column):
            bases.append(1)
            continue
        label = variables[slot]
        if label not in values:
            raise ValueError(f"assignment missing variable {label!r}")
        bases.append(values[label])
        negative ^= values[label] < 0 and lo % 2 == 1
    powers = {}
    for exps in distinct:
        value = 1
        for b, e, m in zip(bases, exps, mins):
            if e != m:
                value *= b ** (e - m)
        powers[exps] = value
    vec = {}
    for k, c in live:
        total = 0
        for exps, coeff in c.terms.items():
            total += coeff * powers[exps]
        if total:
            vec[k] = -total if negative else total
    if any(type(v) is not int for v in vec.values()):
        denom = math.lcm(*(v.denominator for v in vec.values()))
        vec = {k: int(v * denom) for k, v in vec.items()}
    _strip_int(vec)
    return vec


# ---------------------------------------------------------------------------
# specialization draws


def specialization_draws(mode: ParamMode, count: int, seed: int) -> list[dict]:
    """``count`` independent assignments of distinct odd primes in [3, 97] to
    the parameters, drawn from Python's Mersenne-Twister ``random.Random``
    seeded with ``seed``.  Reports quoting (seed, count) are replayable."""
    if count < 1:
        raise ValueError("specialized mode needs at least one draw")
    if mode.nvars > len(ODD_PRIMES):
        raise ValueError(
            f"specialization draws distinct odd primes, and there are only "
            f"{len(ODD_PRIMES)} of them for the {mode.nvars} parameters of {mode!r}; "
            f"use --mode exact or --params single"
        )
    rng = Random(seed)
    draws = []
    for _ in range(count):
        primes = rng.sample(ODD_PRIMES, mode.nvars)
        draws.append({label: Fraction(p) for label, p in zip(mode.variables, primes)})
    return draws


def verdict_rings(mode: ParamMode, exact: bool, seed: int, draws: int) -> tuple[bool, list]:
    """Where a verdict is computed: (whether it is exact, one ``to_vector``
    assignment per run it must pass).  Numeric mode has no symbols left, so
    one exact run over Q (``[{}]``); ``exact`` runs once over the Laurent
    ring (``[None]``); otherwise every specialization draw must agree."""
    if mode.kind == "numeric":
        return True, [{}]
    if exact:
        return True, [None]
    return False, specialization_draws(mode, draws, seed)


# ---------------------------------------------------------------------------
# the membership oracle


class IdealOracle:
    """Graded membership oracle for the two-sided relation ideal of B.

    One oracle fixes the decision policy (exact-symbolic, or agreement across
    ``draws`` rational specializations derived from ``seed``); per-block
    bases are built lazily, cached in memory, and optionally persisted.
    ``assignments`` holds one ``to_vector`` assignment per basis a query must
    pass, as ``verdict_rings`` decides.
    """

    _memory_cache: dict = {}
    _build_locks: dict = {}
    _lock = threading.Lock()

    def __init__(self, n: int, mode: ParamMode, exact: bool = False, seed: int = 0, draws: int = 3):
        self.n = n
        self.mode = mode
        self.z = Alphabet("z", n)
        self.seed = seed
        self.exact, self.assignments = verdict_rings(mode, exact, seed, draws)
        # built once per draw, so the hundreds of cached block keys share it
        self._draw_keys = [
            None if a is None else tuple((str(k), str(v)) for k, v in sorted(a.items()))
            for a in self.assignments
        ]
        self.relations = build_relations(n, mode)
        # each cross relation by its leading word z_i^k z_j^l (i < j, k < l),
        # the one term of any relation whose lower and upper indices both rise
        self._cross = {
            w: rel
            for rel in self.relations
            for w in rel.terms
            if w[0] // n < w[1] // n and w[0] % n < w[1] % n
        }

    # -- basis construction ------------------------------------------------------

    def _key(self, degree: int, draw: int, block: tuple):
        return (_CACHE_VERSION, self.n, self.mode.cache_key(), degree, self._draw_keys[draw], block)

    def basis(self, degree: int, draw: int, block: tuple):
        """The finalized echelon basis of the ideal's component in ``block``
        (a ``word_block`` key of total degree ``degree``) under
        ``assignments[draw]``."""
        key = self._key(degree, draw, block)
        with self._lock:
            cached = self._memory_cache.get(key)
            if cached is not None:
                return cached
            build_lock = self._build_locks.setdefault(key, threading.Lock())
        # single writer per key; finished bases are immutable and shared
        with build_lock:
            with self._lock:
                cached = self._memory_cache.get(key)
            if cached is not None:
                return cached
            basis = _load_persistent(self.mode, key)
            if basis is None:
                basis = self._build(degree, self.assignments[draw], block)
                _save_persistent(key, basis)
            with self._lock:
                self._memory_cache[key] = basis
                self._build_locks.pop(key, None)
        return basis

    def _build(self, degree: int, assignment, block: tuple):
        size = self.z.size
        basis = new_echelon(assignment)
        for word in block_words(self.n, block):
            for pos in range(degree - 1):
                rel = self._cross.get(word[pos:pos + 2])
                if rel is None:
                    continue
                u, v = word[:pos], word[pos + 2:]
                row = column_reduce(NCPoly(self.z, self.mode, {u + w + v: c for w, c in rel.terms.items()}))
                vec = to_vector([(word_rank(w, size), c) for w, c in row.terms.items()], assignment)
                if vec:
                    basis.insert(vec)
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

    def contains(self, p: NCPoly) -> bool:
        """Whether p vanishes in B, i.e. every block component of p lies in
        that block of the relation ideal.  Nonzero inputs below degree 2 are
        never members."""
        d = self._checked_degree(p)
        if d < 2:
            return p.is_zero()
        p = column_reduce(p)
        n, size = self.n, self.z.size
        parts: dict = {}
        for w, c in p.terms.items():
            parts.setdefault(word_block(w, n), []).append((word_rank(w, size), c))
        return all(
            self.basis(d, i, block).contains(to_vector(pairs, a))
            for block, pairs in parts.items()
            for i, a in enumerate(self.assignments)
        )

    def contains_tensor(self, tp: "TensorPoly") -> bool:
        """Membership in ideal(x)B + B(x)ideal for an element of B(x)B whose
        tensor legs are homogeneous of one common degree.

        That subspace is the direct sum over (left block, right block) of
        ideal_A (x) B_B + B_A (x) ideal_B, so each block-pair component is
        checked on its own: reduce every right-word column by the left
        block's basis; what survives has left coordinates in a complement of
        the ideal, so the component is a member iff each surviving left
        coordinate's right vector is a member of the right block.
        """
        d = self._checked_degree(tp)
        if d < 2:
            return tp.is_zero()
        tp = tp.column_reduce()
        n, size = self.n, self.z.size
        parts: dict = {}
        for (wl, wr), c in tp.terms.items():
            parts.setdefault((word_block(wl, n), word_block(wr, n)), []).append(
                ((word_rank(wr, size), word_rank(wl, size)), c)
            )
        return all(
            _tensor_member(self.basis(d, i, left), self.basis(d, i, right), to_vector(pairs, a))
            for (left, right), pairs in parts.items()
            for i, a in enumerate(self.assignments)
        )


def _tensor_member(left, right, vec: dict) -> bool:
    """``contains_tensor`` for one block pair, with ``left`` and ``right``
    the bases of the two legs' blocks; ``vec`` maps (right index, left
    index) to a coefficient."""
    columns: dict = {}
    for (ridx, lidx), c in vec.items():
        columns.setdefault(ridx, {})[lidx] = c
    reduced = {}
    for ridx, col in columns.items():
        rem, mult = left.reduce(col, strip=False)
        if rem:
            reduced[ridx] = rem, mult
    # reduce() scaled column r by its multiplier m_r; scaling it further by
    # the other columns' multipliers gives every column the common factor
    # prod(m), so the rows below are the true left coordinates times prod(m)
    rows: dict = {}
    for ridx, (rem, _) in reduced.items():
        scale = 1
        for other, (_, mult) in reduced.items():
            if other != ridx:
                scale = scale * mult
        for lidx, c in rem.items():
            rows.setdefault(lidx, {})[ridx] = c * scale
    return all(right.contains(rvec) for rvec in rows.values())


# ---------------------------------------------------------------------------
# persistence


def _cache_path(key) -> str | None:
    directory = os.environ.get(_CACHE_ENV)
    if not directory:
        return None
    digest = sha256(repr(key).encode()).hexdigest()[:24]
    return os.path.join(directory, f"qmm_basis_v{_CACHE_VERSION}_{digest}.json")


def _rows_digest(rows) -> str:
    return sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def _load_persistent(mode: ParamMode, key):
    """The persisted basis for ``key``, or None when there is none or the
    file fails its key or checksum check (the caller then rebuilds)."""
    path = _cache_path(key)
    if path is None or not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(data, dict) or data.get("key") != repr(key):
        return None
    if data.get("sha256") != _rows_digest(data.get("rows")):
        return None
    symbolic = data.get("symbolic")
    basis = new_echelon(None if symbolic else {})
    for p, row in data["rows"]:
        # symbolic modes have integer coefficients
        basis.rows[p] = {
            k: ParamScalar(mode, {tuple(t["exponents"]): int(t["coeff"]) for t in v})
            if symbolic else int(v)
            for k, v in row
        }
        basis.pivots.append(p)
    basis.pivots.sort()
    return basis


def _save_persistent(key, basis) -> None:
    path = _cache_path(key)
    if path is None:
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    rows = basis.to_jsonable()
    payload = {
        "version": _CACHE_VERSION,
        "key": repr(key),
        "symbolic": isinstance(basis, SymbolicEchelon),
        "rows": rows,
        "sha256": _rows_digest(rows),
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# matrices and the quantum determinant


class QMatrix:
    """An n x n matrix: either the generic z-matrix Z, or entries from a
    commutative ring with exact zero-test (ParamScalar values)."""

    __slots__ = ("n", "mode", "entries")

    def __init__(self, n: int, mode: ParamMode, entries=None):
        self.n = n
        self.mode = mode
        if entries is not None:
            if len(entries) != n or any(len(row) != n for row in entries):
                raise ValueError(f"need an {n}x{n} matrix")
            entries = [[mode.scalar(e) for e in row] for row in entries]
        self.entries = entries

    @classmethod
    def generic(cls, n: int, mode: ParamMode) -> "QMatrix":
        return cls(n, mode, None)

    @property
    def is_generic(self) -> bool:
        return self.entries is None

    def entry(self, i: int, j: int) -> ParamScalar:
        return self.entries[i - 1][j - 1]


def qdet(Z: QMatrix, subset=None):
    """The quantum determinant of the submatrix on ``subset`` (default all of
    1..n): the inversion-weighted permutation sum

        sum over pi of w(pi) z^{j_1}_{j_pi(1)} ... z^{j_m}_{j_pi(m)},

    sharing the J-mapped weight convention with the wedge basis.  Returns an
    NCPoly for the generic matrix, else the value of that NCPoly at Z.
    """
    n, mode = Z.n, Z.mode
    J = tuple(sorted(subset)) if subset is not None else tuple(range(1, n + 1))
    if not J or J[0] < 1 or J[-1] > n or len(set(J)) != len(J):
        raise ValueError(f"need a nonempty subset of 1..{n}")
    space = QuantumSpace(n, mode)
    m = len(J)
    z = Alphabet("z", n)
    acc = NCPoly.zero(z, mode)
    for pi in permutations(range(m)):
        w = space.inversion_weight(J, pi)
        word = z.z_word((J[pi[k]], J[k]) for k in range(m))
        acc = acc + NCPoly.monomial(z, mode, word, w)
    return acc if Z.is_generic else evaluate(acc, Z)


def evaluate(p: NCPoly, M: QMatrix) -> ParamScalar:
    """The value of a z-polynomial at a matrix with commuting entries:
    z_i^j -> M[i][j]."""
    z = p.alphabet
    total = M.mode.zero()
    for word, coeff in p.terms.items():
        term = coeff
        for letter in word:
            i, j = z.z_indices(letter)
            term = term * M.entry(i, j)
        total = total + term
    return total


def is_right_quantum(M: QMatrix) -> bool:
    """Whether a matrix with commuting, zero-testable entries satisfies every
    column and cross relation (the generic matrix does by construction)."""
    return M.is_generic or all(evaluate(rel, M) == 0 for rel in build_relations(M.n, M.mode))


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

    def column_reduce(self) -> "TensorPoly":
        """Column rewriting on each tensor leg independently; both passes move
        the element only inside ideal(x)B + B(x)ideal."""
        z, mode = self.alphabet, self.mode
        terms: dict = {}
        for (wl, wr), c in self.terms.items():
            left = column_reduce(NCPoly.monomial(z, mode, wl, c))
            right = column_reduce(NCPoly.monomial(z, mode, wr))
            for l, cl in left.terms.items():
                for r, cr in right.terms.items():
                    _accumulate(terms, (l, r), cl * cr)
        return TensorPoly(z, mode, terms)


def comultiply(p: NCPoly) -> TensorPoly:
    """Delta applied letterwise, z_i^j -> sum_l z_i^l (x) z_l^j, and extended
    multiplicatively; the empty word maps to 1 (x) 1."""
    z, mode = p.alphabet, p.mode
    terms: dict = {}
    for word, coeff in p.terms.items():
        acc = TensorPoly(z, mode, {(b"", b""): mode.one()})
        for letter in word:
            i, j = z.z_indices(letter)
            pairs = ((bytes([z.z(i, l)]), bytes([z.z(l, j)])) for l in range(1, z.n + 1))
            acc = acc * TensorPoly(z, mode, {pair: mode.one() for pair in pairs})
        for key, c in acc.terms.items():
            _accumulate(terms, key, c * coeff)
    return TensorPoly(z, mode, terms)


def counit(p: NCPoly) -> ParamScalar:
    """epsilon(z_i^j) = delta_ij, extended multiplicatively."""
    z = p.alphabet
    total = p.mode.zero()
    for word, coeff in p.terms.items():
        if all(letter // z.n == letter % z.n for letter in word):
            total = total + coeff
    return total


def counit_left(tp: TensorPoly) -> NCPoly:
    """(epsilon (x) id) applied to an element of B (x) B."""
    z = tp.alphabet
    acc = NCPoly.zero(z, tp.mode)
    for (wl, wr), c in tp.terms.items():
        if all(letter // z.n == letter % z.n for letter in wl):
            acc = acc + NCPoly.monomial(z, tp.mode, wr, c)
    return acc
