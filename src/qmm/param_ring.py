"""Exact coefficient arithmetic: Laurent polynomials in the deformation parameters.

Every scalar weight in the system lives in Z[q_ij^{+-1}] for parameters q_ij
with 1 <= i < j <= n, or in one of two specializations of that ring:

* ``multi``   -- the full multiparameter ring, n(n-1)/2 variables q_ij;
* ``single``  -- every q_ij collapsed to one variable q;
* ``numeric`` -- every q_ij fixed to a nonzero rational, scalars are exact
  rationals.

A scalar is kept in one format from the series to the Koszul homotopy: a
dict ``{packed exponent: coefficient}``, with arbitrary-precision integer
coefficients, or exact rationals in numeric mode.  The exponent vector e
(one slot per variable) is packed into the one int sum of e_i * 2^(32 i).
Packing is additive, so multiplying monomials adds their keys and inverting
one negates its key, and it is injective while every |e_i| < 2^31 (balanced
base-2^32 digits).  Exponent vectors are unpacked only to be shown
(``sorted_terms``, ``to_jsonable``, ``str``) or evaluated (``specialize``,
``to_single``).  Numeric scalars have the one key 0.

So that packing can never alias, every scalar carries ``bound``, an upper
bound on its largest |exponent|: a constructor sets it from the exponents
it packs, a sum takes the larger of its operands' bounds, and a product
takes their sum and raises ``ExponentOverflowError`` when that sum reaches
2^31.  That one check in ``__mul__`` covers every product of scalars, powers
included; ``from_packed`` reads the exact bound off the keys it wraps.
Rewriting multiplies flat coefficients directly and checks its own bound
before it starts (``right_quantum.normal_form``).  All values are immutable
and all operations are pure, so scalars can be shared freely across threads.
"""

from __future__ import annotations

import struct
from fractions import Fraction


class ModeMismatchError(ValueError):
    """Raised when scalars over different parameter modes are combined."""


class ExponentOverflowError(RuntimeError):
    """An exponent reached 2^31 in magnitude, where packed exponents stop
    being injective: an internal limit, never a usage error."""


EXPONENT_LIMIT = 1 << 31
_DIGIT = 1 << 32


def _slots(nvars: int) -> tuple:
    """(struct of ``nvars`` signed 32-bit little-endian slots, the mask of
    their sign bits): what ``_packed_and_top`` packs a vector through."""
    return struct.Struct(f"<{nvars}i"), int.from_bytes(b"\0\0\0\x80" * nvars, "little")


def _packed_and_top(exps, slots) -> tuple[int, int]:
    """(packed exponent, largest |e_i|) of an exponent vector, through
    ``slots`` = ``_slots(len(exps))``.  The slots read as one unsigned int
    u hold e_i + 2^32 for each negative e_i, so u is the packed exponent
    plus 2^(32 i + 32) per negative slot, which is twice its sign bit."""
    top = max(map(abs, exps), default=0)
    if top >= EXPONENT_LIMIT:
        raise ExponentOverflowError(f"an exponent of {exps} does not fit a packed slot")
    packer, signs = slots
    u = int.from_bytes(packer.pack(*exps), "little")
    return u - ((u & signs) << 1), top


def pack(exps) -> int:
    """The packed exponent sum of e_i * 2^(32 i) of an exponent vector."""
    return _packed_and_top(exps, _slots(len(exps)))[0]


def unpack(packed: int, nvars: int) -> tuple:
    """The exponent vector of ``nvars`` slots that ``pack`` packed into
    ``packed``: its balanced base-2^32 digits, lowest first."""
    exps = []
    for _ in range(nvars):
        e = (packed + EXPONENT_LIMIT) % _DIGIT - EXPONENT_LIMIT
        exps.append(e)
        packed = (packed - e) // _DIGIT
    if packed:
        raise ExponentOverflowError("packed exponent has more slots than the mode")
    return tuple(exps)


def max_exponent(keys) -> int:
    """The largest |e_i| over a collection of packed exponent vectors.

    Adding 2^31 to every slot turns the balanced digits into unsigned 32-bit
    ones, so all keys are read in one pass, with enough slots for the
    longest key (the slots above a key's own read as 0).
    """
    if not keys:
        return 0
    slots = max(map(int.bit_length, keys)) // 32 + 1
    offset = int.from_bytes(b"\0\0\0\x80" * slots, "little")
    data = b"".join([(k + offset).to_bytes(4 * slots, "little") for k in keys])
    digits = struct.unpack(f"<{len(data) // 4}I", data)
    return max(max(digits) - EXPONENT_LIMIT, EXPONENT_LIMIT - min(digits))


def parameter_pairs(n: int) -> tuple:
    """The parameter labels (i, j), 1 <= i < j <= n, in lexicographic order:
    the variables of ``ParamMode.multi(n)`` and the layout of per-pair
    exponents (``ParamMode.q_monomial``)."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def _as_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ValueError(f"not an exact rational: {value!r}")


class ParamMode:
    """Identifies the coefficient ring and names its variables.

    ``variables`` is the ordered tuple of variable labels: pairs (i, j) with
    i < j in lexicographic order for ``multi``, the single label ``"q"`` for
    ``single``, and empty for ``numeric``.
    """

    __slots__ = ("kind", "n", "variables", "assignment", "_key", "_slots")

    def __init__(self, kind, n=None, variables=(), assignment=None):
        self.kind = kind
        self.n = n
        self.variables = variables
        self.assignment = assignment
        self._slots = _slots(len(variables))  # every monomial is packed through it
        # every scalar operation compares modes, so the key is built once
        if kind == "multi":
            self._key = ("multi", n)
        elif kind == "single":
            self._key = ("single",)
        else:
            self._key = ("numeric", n, tuple(sorted((k, str(v)) for k, v in assignment.items())))

    @classmethod
    def multi(cls, n: int) -> "ParamMode":
        if n < 1:
            raise ValueError("need n >= 1")
        return cls("multi", n=n, variables=parameter_pairs(n))

    @classmethod
    def single(cls) -> "ParamMode":
        return cls("single", variables=("q",))

    @classmethod
    def numeric(cls, n: int, assignment) -> "ParamMode":
        """Fix every q_ij to a nonzero rational; scalars become rationals.
        Every label must be a parameter of n: a pair i < j in 1..n."""
        pairs = parameter_pairs(n)
        for label in assignment:
            if label not in pairs:
                raise ValueError(
                    f"q label {label} is not a parameter for n={n} (need 1 <= i < j <= {n})"
                )
        fixed = {}
        for pair in pairs:
            if pair not in assignment:
                raise ValueError(f"numeric mode needs a value for q_{pair[0]}{pair[1]}")
            val = _as_rational(assignment[pair])
            if val == 0:
                raise ValueError(f"q_{pair[0]}{pair[1]} must be nonzero")
            fixed[pair] = val
        return cls("numeric", n=n, variables=(), assignment=fixed)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def __eq__(self, other):
        return self is other or (isinstance(other, ParamMode) and self._key == other._key)

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.kind == "multi":
            return f"ParamMode.multi({self.n})"
        if self.kind == "single":
            return "ParamMode.single()"
        return f"ParamMode.numeric({self.n}, ...)"

    # -- scalar constructors ------------------------------------------------

    def zero(self) -> "ParamScalar":
        return ParamScalar(self, {}, 0)

    def one(self) -> "ParamScalar":
        return ParamScalar(self, {0: 1}, 0)

    def scalar(self, value) -> "ParamScalar":
        if isinstance(value, ParamScalar):
            if value.mode != self:
                raise ModeMismatchError("scalar belongs to a different mode")
            return value
        if isinstance(value, Fraction) and self.kind != "numeric" and value.denominator != 1:
            raise ValueError("symbolic modes have integer coefficients")
        value = _canonical_coeff(value if isinstance(value, (int, Fraction)) else _as_rational(value))
        return ParamScalar(self, {0: value} if value else {}, 0)

    def _monomial(self, exps) -> "ParamScalar":
        """The monomial q^exps with coefficient 1, one slot per variable."""
        key, top = _packed_and_top(exps, self._slots)
        return ParamScalar(self, {key: 1}, top)

    def variable(self, label, power: int = 1) -> "ParamScalar":
        """The generator named by ``label`` ((i, j) pair or "q"), as a scalar."""
        if self.kind == "numeric":
            val = self.assignment.get(label)
            if val is None:
                raise ValueError(f"unknown parameter {label!r}")
            return self.scalar(val**power)
        try:
            slot = self.variables.index(label)
        except ValueError:
            raise ValueError(f"unknown parameter {label!r} in mode {self!r}") from None
        exps = [0] * self.nvars
        exps[slot] = power
        return self._monomial(exps)

    def q(self, i: int, j: int) -> "ParamScalar":
        """q_ij for i < j, q_ji^{-1} for i > j, and 1 for i == j.

        Only parameters with i < j exist; the other cases are derived, never
        stored.
        """
        if i == j:
            return self.one()
        if i < j:
            label, power = (i, j), 1
        else:
            label, power = (j, i), -1
        if self.kind == "single":
            label = "q"
        return self.variable(label, power)

    def q_monomial(self, exponents) -> "ParamScalar":
        """The product of q_ij^e over per-pair exponents e, listed over the
        pairs i < j in ``parameter_pairs`` order: one Laurent monomial, or
        one rational in numeric mode."""
        if self.kind == "multi":
            exponents = tuple(exponents)
            if len(exponents) != self.nvars:
                raise ValueError(f"need {self.nvars} per-pair exponents")
            return self._monomial(exponents)
        if self.kind == "single":  # one slot packs as its own exponent
            e = sum(exponents)
            if not -EXPONENT_LIMIT < e < EXPONENT_LIMIT:
                raise ExponentOverflowError(f"the exponent {e} does not fit a packed slot")
            return ParamScalar(self, {e: 1}, abs(e))
        value = Fraction(1)
        for pair, e in zip(parameter_pairs(self.n), exponents):
            if e:
                value *= self.assignment[pair] ** e
        return ParamScalar(self, {0: _canonical_coeff(value)}, 0)

    def from_packed(self, terms: dict) -> "ParamScalar":
        """The scalar of a flat coefficient {packed exponent: nonzero
        coefficient} over this mode, such as a copy of some scalar's
        ``terms``: wrapped as it is, with its bound read off the keys."""
        return ParamScalar(self, terms, max_exponent(terms))


def _canonical_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class ParamScalar:
    """An element of the coefficient ring, in canonical form.

    ``terms`` maps packed exponents (see the module docstring) to nonzero
    coefficients, and ``bound`` bounds the largest |exponent| from above.
    Structural equality of the term maps is ring equality, so zero
    coefficients are dropped eagerly.  An int or a ``Fraction`` takes part
    in arithmetic and comparison as the constant scalar of its value, and a
    constant scalar hashes as that value.
    """

    __slots__ = ("mode", "terms", "bound")

    def __init__(self, mode: ParamMode, terms: dict, bound: int):
        self.mode = mode
        self.terms = terms
        self.bound = bound

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def _coerce(self, other):
        """``other`` as a scalar of this mode: None for a type the ring does
        not take, ``ModeMismatchError`` for a scalar of another mode, and
        ``ValueError`` for a non-integer rational in a symbolic mode."""
        if isinstance(other, ParamScalar):
            if other.mode is not self.mode and other.mode != self.mode:
                raise ModeMismatchError("scalars over different parameter modes")
            return other
        if isinstance(other, (int, Fraction)):
            return self.mode.scalar(other)
        return None

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "ParamScalar":
        if type(other) is not ParamScalar or other.mode is not self.mode:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        terms = self.terms.copy()
        for k, c in other.terms.items():
            s = terms.get(k, 0) + c
            if s:
                terms[k] = s if type(s) is int else _canonical_coeff(s)
            else:
                del terms[k]
        return ParamScalar(self.mode, terms, max(self.bound, other.bound))

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "ParamScalar":
        return ParamScalar(self.mode, {k: -c for k, c in self.terms.items()}, self.bound)

    def __sub__(self, other) -> "ParamScalar":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other) -> "ParamScalar":
        if type(other) is not ParamScalar or other.mode is not self.mode:
            if isinstance(other, int):
                if other == 1:
                    return self
                terms = {k: _canonical_coeff(c * other) for k, c in self.terms.items()} if other else {}
                return ParamScalar(self.mode, terms, self.bound)
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        bound = self.bound + other.bound
        if bound >= EXPONENT_LIMIT:
            raise ExponentOverflowError(f"a product could reach exponent {bound}, past 2^31 - 1")
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1 == len(b):  # monomial times monomial, the common case
            ((ka, ca),) = a.items()
            ((kb, cb),) = b.items()
            c = ca * cb
            return ParamScalar(self.mode, {ka + kb: c if type(c) is int else _canonical_coeff(c)}, bound)
        out: dict = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                key = ka + kb
                s = out.get(key, 0) + ca * cb
                if s:
                    out[key] = s
                else:
                    del out[key]
        for key, val in out.items():
            out[key] = _canonical_coeff(val)
        return ParamScalar(self.mode, out, bound)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int) -> "ParamScalar":
        """Square and multiply, squaring only while a higher bit of k is
        left, so a bound k * bound below 2^31 never trips the product check."""
        if k < 0:
            return self.inv() ** (-k)
        result = self.mode.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def inv(self) -> "ParamScalar":
        """Inverse of a unit.

        Only monomials with coefficient +-1 are units of the Laurent ring
        (every nonzero rational in numeric mode).
        """
        if len(self.terms) != 1:
            raise ValueError("not an invertible scalar")
        ((k, c),) = self.terms.items()
        if self.mode.kind == "numeric":
            return ParamScalar(self.mode, {k: _canonical_coeff(Fraction(1) / c)}, self.bound)
        if c not in (1, -1):
            raise ValueError("not a unit of the Laurent ring")
        return ParamScalar(self.mode, {-k: c}, self.bound)

    def __eq__(self, other):
        if isinstance(other, ParamScalar):
            return (self.mode is other.mode or self.mode == other.mode) and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if other.denominator != 1 and self.mode.kind != "numeric":
                return False
            return self.terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and 0 in terms:  # a constant hashes as its value, as == compares it
            return hash(terms[0])
        return hash((self.mode, frozenset(terms.items())))

    # -- specializations -----------------------------------------------------

    def _exponent_items(self):
        """(exponent vector, coefficient) per term, in no particular order."""
        nvars = self.mode.nvars
        return ((unpack(k, nvars), c) for k, c in self.terms.items())

    def specialize(self, assignment) -> Fraction:
        """Evaluate at a nonzero rational point; an exact ring homomorphism.

        ``assignment`` maps variable labels to nonzero rationals and must
        cover every variable that actually appears.
        """
        values = {}
        for label, val in assignment.items():
            val = _as_rational(val)
            if val == 0:
                raise ValueError(f"zero assignment for {label!r} not allowed")
            values[label] = val
        total = Fraction(0)
        variables = self.mode.variables
        for exps, c in self._exponent_items():
            term = Fraction(c)
            for slot, e in enumerate(exps):
                if e == 0:
                    continue
                label = variables[slot]
                if label not in values:
                    raise ValueError(f"assignment missing variable {label!r}")
                term *= values[label] ** e
            total += term
        return total

    def to_single(self) -> "ParamScalar":
        """Collapse every q_ij to the one-parameter q; a ring homomorphism."""
        if self.mode.kind != "multi":
            raise ModeMismatchError("to_single expects a multiparameter scalar")
        single = ParamMode.single()
        terms: dict = {}
        for exps, c in self._exponent_items():
            key = pack((sum(exps),))
            s = terms.get(key, 0) + c
            if s:
                terms[key] = s
            else:
                del terms[key]
        return ParamScalar(single, terms, max_exponent(terms))

    # -- presentation ----------------------------------------------------------

    def sorted_terms(self):
        """(exponent vector, coefficient) per term, by exponent vector."""
        return sorted(self._exponent_items())

    def to_jsonable(self):
        return [{"exponents": list(e), "coeff": str(c)} for e, c in self.sorted_terms()]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for slot, e in enumerate(exps):
                if e == 0:
                    continue
                label = self.mode.variables[slot]
                name = "q" if label == "q" else f"q{label[0]}{label[1]}"
                factors.append(name if e == 1 else f"{name}^{e}")
            if not factors:
                body = str(abs(c))
            else:
                mag = abs(c) if isinstance(c, (int, Fraction)) else c
                body = "*".join(factors) if mag == 1 else "*".join([str(mag)] + factors)
            sign = "-" if (c < 0) else "+"
            parts.append((sign, body))
        out = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"ParamScalar({self})"
