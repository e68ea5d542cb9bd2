"""Words, noncommutative polynomials and truncated power series.

Two indexed alphabets appear throughout: the ``x`` alphabet with letters
x_1..x_n (also used for the evaluation-dual generators, which share the same
index set) and the ``z`` alphabet with n^2 letters z_i^j (lower index i, upper
index j).  A word is stored as ``bytes``, one byte per letter id; letter ids
follow the canonical order x_1 < ... < x_n and z_1^1 < z_1^2 < ... < z_n^n
(row-major on (lower, upper)), so byte-wise comparison of equal-length words
is exactly the canonical word order and ``(len(w), w)`` sorts degree-
lexicographically.

``LinearCombination`` is the one linear-combination type: its arithmetic,
alphabet/mode check and product loop serve both ``NCPoly`` (words) and
``right_quantum.TensorPoly`` (pairs of words), which differ only in how a
product joins two keys.  Everything here is a pure value; no operation
mutates its inputs.
"""

from __future__ import annotations

import operator

from .param_ring import ModeMismatchError, ParamMode, ParamScalar

Word = bytes


class Alphabet:
    """An indexed alphabet: ``x`` of size n, or ``z`` of size n^2."""

    __slots__ = ("kind", "n", "size")

    def __init__(self, kind: str, n: int):
        if kind not in ("x", "z"):
            raise ValueError("alphabet kind must be 'x' or 'z'")
        if n < 1:
            raise ValueError("need n >= 1")
        self.kind = kind
        self.n = n
        self.size = n if kind == "x" else n * n
        if self.size > 256:
            raise ValueError(f"{kind} alphabet for n={n} has {self.size} letters; words store "
                             "one letter per byte, so at most 256 (n <= 16 for z)")

    def __eq__(self, other):
        return isinstance(other, Alphabet) and (self.kind, self.n) == (other.kind, other.n)

    def __hash__(self):
        return hash((self.kind, self.n))

    def __repr__(self):
        return f"Alphabet({self.kind!r}, {self.n})"

    # -- letters --------------------------------------------------------------

    def x(self, i: int) -> int:
        """Letter id of x_i (1-based)."""
        if self.kind != "x" or not 1 <= i <= self.n:
            raise ValueError(f"no letter x_{i} in {self!r}")
        return i - 1

    def z(self, i: int, j: int) -> int:
        """Letter id of z_i^j (lower i, upper j, 1-based)."""
        if self.kind != "z" or not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"no letter z_{i}^{j} in {self!r}")
        return (i - 1) * self.n + (j - 1)

    def z_indices(self, letter: int) -> tuple[int, int]:
        """(lower, upper) of a z letter id."""
        return letter // self.n + 1, letter % self.n + 1

    def letter_str(self, letter: int) -> str:
        if self.kind == "x":
            return f"x{letter + 1}"
        i, j = self.z_indices(letter)
        return f"z{i}{j}"

    def letter_jsonable(self, letter: int):
        if self.kind == "x":
            return ["x", letter + 1]
        i, j = self.z_indices(letter)
        return ["z", i, j]

    # -- words ------------------------------------------------------------------

    def x_word(self, indices) -> Word:
        return bytes(self.x(i) for i in indices)

    def z_word(self, pairs) -> Word:
        return bytes(self.z(i, j) for i, j in pairs)

    def word_str(self, word: Word) -> str:
        return "*".join(self.letter_str(c) for c in word) if word else "1"


def word_rank(word: Word, size: int) -> int:
    """Mixed-radix value of a word among all words of its length (big-endian).

    Within a fixed degree this is the canonical word order, giving O(1)
    vector-slot lookup for the degree-d coefficient space.
    """
    r = 0
    for c in word:
        r = r * size + c
    return r


class LinearCombination:
    """Finitely supported map from keys to nonzero scalars, over one alphabet
    and one parameter mode.

    A subclass fixes the keys and ``_join``, the product of two keys.  Zero
    coefficients are never stored, so dict equality is algebra equality.
    """

    __slots__ = ("alphabet", "mode", "terms")

    def __init__(self, alphabet: Alphabet, mode: ParamMode, terms: dict):
        self.alphabet = alphabet
        self.mode = mode
        self.terms = terms

    @classmethod
    def zero(cls, alphabet: Alphabet, mode: ParamMode):
        return cls(alphabet, mode, {})

    def is_zero(self) -> bool:
        return not self.terms

    def support_size(self) -> int:
        return len(self.terms)

    def _check(self, other: "LinearCombination"):
        if self.alphabet != other.alphabet:
            raise ModeMismatchError("polynomials over different alphabets")
        if self.mode != other.mode:
            raise ModeMismatchError("polynomials over different parameter modes")

    # -- arithmetic -----------------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            s = terms.get(w)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(w, None)
            else:
                terms[w] = s
        return type(self)(self.alphabet, self.mode, terms)

    def __neg__(self):
        return type(self)(self.alphabet, self.mode, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(other.__neg__())

    def scale(self, coeff):
        coeff = self.mode.scalar(coeff) if not isinstance(coeff, ParamScalar) else coeff
        if coeff.is_zero():
            return type(self)(self.alphabet, self.mode, {})
        if coeff.is_one():
            return self
        return type(self)(self.alphabet, self.mode, {w: c * coeff for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (ParamScalar, int)):
            return self.scale(other)
        self._check(other)
        join = self._join
        out: dict = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = join(wa, wb)
                c = ca * cb
                s = out.get(w)
                s = c if s is None else s + c
                if s.is_zero():
                    out.pop(w, None)
                else:
                    out[w] = s
        return type(self)(self.alphabet, self.mode, out)

    def __rmul__(self, other):
        if isinstance(other, (ParamScalar, int)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.alphabet == other.alphabet
            and self.mode == other.mode
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.alphabet, frozenset((w, hash(c)) for w, c in self.terms.items())))


class NCPoly(LinearCombination):
    """The free-algebra element Sum_w terms[w] * w; keys are words."""

    __slots__ = ()

    # a C function, so the product loop pays no Python-level call per term
    _join = staticmethod(operator.concat)

    @classmethod
    def one(cls, alphabet: Alphabet, mode: ParamMode) -> "NCPoly":
        return cls(alphabet, mode, {b"": mode.one()})

    @classmethod
    def monomial(cls, alphabet: Alphabet, mode: ParamMode, word: Word, coeff=None) -> "NCPoly":
        coeff = mode.one() if coeff is None else mode.scalar(coeff)
        if coeff.is_zero():
            return cls(alphabet, mode, {})
        return cls(alphabet, mode, {bytes(word): coeff})

    def homogeneous_degree(self):
        """Common word length of the support, or None if mixed (0 for the zero poly)."""
        degrees = {len(w) for w in self.terms}
        if not degrees:
            return 0
        if len(degrees) > 1:
            return None
        return degrees.pop()

    def coefficient_of(self, word: Word) -> ParamScalar:
        return self.terms.get(bytes(word), self.mode.zero())

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    # -- presentation ------------------------------------------------------------------

    def to_jsonable(self):
        return [
            {"word": [self.alphabet.letter_jsonable(c) for c in w], "coeff": coeff.to_jsonable()}
            for w, coeff in self.sorted_terms()
        ]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, coeff in self.sorted_terms():
            cs = str(coeff)
            negated = False
            if len(coeff.terms) == 1 and cs.startswith("-"):
                negated, cs = True, cs[1:]
            if not w:
                body = cs if len(coeff.terms) == 1 else f"({cs})"
            elif cs == "1" and len(coeff.terms) == 1:
                body = self.alphabet.word_str(w)
            else:
                cpart = cs if len(coeff.terms) == 1 else f"({cs})"
                body = f"{cpart}*{self.alphabet.word_str(w)}"
            parts.append(("-" if negated else "+", body))
        out = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"NCPoly({self})"


class TruncSeries:
    """Degree-truncated power series whose degree-d coefficient is an NCPoly
    homogeneous of word-length d.

    Encodes the fact that every series built here lives in the graded subring
    prod_d B_d t^d: the formal variable t always carries word length with it.
    """

    __slots__ = ("alphabet", "mode", "bound", "coeffs")

    def __init__(self, alphabet: Alphabet, mode: ParamMode, bound: int, coeffs):
        if bound < 0:
            raise ValueError("truncation bound must be >= 0")
        if len(coeffs) != bound + 1:
            raise ValueError("need one coefficient per degree 0..bound")
        for d, p in enumerate(coeffs):
            if not p.is_zero() and p.homogeneous_degree() != d:
                raise ValueError(f"degree-{d} coefficient is not homogeneous of degree {d}")
        self.alphabet = alphabet
        self.mode = mode
        self.bound = bound
        self.coeffs = list(coeffs)

    @classmethod
    def one(cls, alphabet: Alphabet, mode: ParamMode, bound: int) -> "TruncSeries":
        coeffs = [NCPoly.one(alphabet, mode)] + [NCPoly.zero(alphabet, mode) for _ in range(bound)]
        return cls(alphabet, mode, bound, coeffs)

    def __getitem__(self, degree: int) -> NCPoly:
        return self.coeffs[degree]

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if self.bound != other.bound:
            raise ModeMismatchError("series with different truncation bounds")
        coeffs = []
        for d in range(self.bound + 1):
            acc = NCPoly.zero(self.alphabet, self.mode)
            for k in range(d + 1):
                a, b = self.coeffs[k], other.coeffs[d - k]
                if a.is_zero() or b.is_zero():
                    continue
                acc = acc + a * b
            coeffs.append(acc)
        return TruncSeries(self.alphabet, self.mode, self.bound, coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.alphabet == other.alphabet
            and self.bound == other.bound
            and self.coeffs == other.coeffs
        )

    def is_one(self) -> bool:
        return self.coeffs[0] == NCPoly.one(self.alphabet, self.mode) and all(
            p.is_zero() for p in self.coeffs[1:]
        )

    def __repr__(self):
        inner = " + ".join(f"({p})t^{d}" for d, p in enumerate(self.coeffs) if not p.is_zero())
        return f"TruncSeries({inner or '0'}; bound={self.bound})"
