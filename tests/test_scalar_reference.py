"""Packed-exponent scalars against the tuple-keyed arithmetic they replace.

``TupleScalar`` is the coefficient ring as it was first written: terms keyed
by dense exponent tuples, one slot per variable, every product zipping two
tuples.  It shares no packing with ``ParamScalar``, so the two agreeing on
seeded random scalars in multi (n = 2..4), single and numeric mode, for
every ring operation, comparison, specialization and presentation, checks
the packed format.  The overflow controls check the exponent bound every
``ParamScalar`` carries: a product that could reach 2^31 raises
``ExponentOverflowError``, and a power whose bound stays below it builds.
"""

from fractions import Fraction
from random import Random

import pytest

from qmm import ParamMode
from qmm.param_ring import EXPONENT_LIMIT, ExponentOverflowError


def _canonical(c):
    return int(c) if isinstance(c, Fraction) and c.denominator == 1 else c


class TupleScalar:
    """The reference: ``terms`` maps exponent tuples to nonzero coefficients."""

    def __init__(self, mode, terms):
        self.mode = mode
        self.terms = {e: _canonical(c) for e, c in terms.items() if c}

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return TupleScalar(self.mode, terms)

    def __neg__(self):
        return TupleScalar(self.mode, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return TupleScalar(self.mode, out)

    def one(self):
        return TupleScalar(self.mode, {(0,) * self.mode.nvars: 1})

    def inv(self):
        ((exps, c),) = self.terms.items()
        if self.mode.kind == "numeric":
            return TupleScalar(self.mode, {exps: Fraction(1) / c})
        assert c in (1, -1)
        return TupleScalar(self.mode, {tuple(-e for e in exps): c})

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        result = self.one()
        for _ in range(k):
            result = result * self
        return result

    def specialize(self, assignment):
        total = Fraction(0)
        for exps, c in self.terms.items():
            term = Fraction(c)
            for label, e in zip(self.mode.variables, exps):
                term *= Fraction(assignment[label]) ** e
            total += term
        return total

    def to_single(self):
        out = {}
        for exps, c in self.terms.items():
            out[(sum(exps),)] = out.get((sum(exps),), 0) + c
        return TupleScalar(ParamMode.single(), out)

    def to_jsonable(self):
        return [{"exponents": list(e), "coeff": str(c)} for e, c in sorted(self.terms.items())]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in sorted(self.terms.items()):
            factors = []
            for label, e in zip(self.mode.variables, exps):
                if e:
                    name = "q" if label == "q" else f"q{label[0]}{label[1]}"
                    factors.append(name if e == 1 else f"{name}^{e}")
            mag = abs(c)
            body = "*".join(factors) if factors and mag == 1 else "*".join([str(mag)] + factors)
            parts.append(("-" if c < 0 else "+", body))
        out = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


def random_pair(mode, rng, size=3, span=4, unit=False):
    """One seeded random element as (ParamScalar, TupleScalar), built from
    the same terms: a monomial with coefficient +-1 when ``unit`` (any
    nonzero rational in numeric mode)."""
    nvars = mode.nvars
    count = 1 if unit else rng.randint(0, size)
    scalar, reference = mode.zero(), {}
    for _ in range(count):
        if mode.kind == "numeric":
            c = Fraction(rng.choice([-7, -2, -1, 1, 3, 5]), rng.choice([1, 2, 3]))
        else:
            c = rng.choice([-1, 1]) if unit else rng.randint(-5, 5)
        exps = tuple(rng.randint(-span, span) for _ in range(nvars))
        term = mode.scalar(c)
        for label, e in zip(mode.variables, exps):
            term = term * mode.variable(label, e)
        scalar = scalar + term
        reference[exps] = reference.get(exps, 0) + c
    return scalar, TupleScalar(mode, reference)


def assert_same(scalar, reference):
    assert scalar.mode == reference.mode
    assert dict(scalar.sorted_terms()) == reference.terms
    assert scalar.to_jsonable() == reference.to_jsonable()
    assert str(scalar) == str(reference)
    assert all(max(map(abs, exps), default=0) <= scalar.bound for exps, _ in scalar.sorted_terms())


NUMERIC = {(1, 2): Fraction(-3, 2), (1, 3): 5, (2, 3): Fraction(2, 7)}
MODES = [ParamMode.multi(2), ParamMode.multi(3), ParamMode.multi(4), ParamMode.single(), ParamMode.numeric(3, NUMERIC)]


@pytest.mark.parametrize("seed,mode", enumerate(MODES), ids=repr)
def test_packed_arithmetic_matches_the_tuple_reference(seed, mode):
    rng = Random(900 + seed)
    point = {label: Fraction(rng.choice([2, 3, -5, 7]), rng.choice([1, 2])) for label in mode.variables}
    for _ in range(60):
        (a, ra), (b, rb) = random_pair(mode, rng), random_pair(mode, rng)
        u, ru = random_pair(mode, rng, unit=True)
        assert_same(a, ra)
        assert_same(a + b, ra + rb)
        assert_same(a - b, ra - rb)
        assert_same(-a, -ra)
        assert_same(a * b, ra * rb)
        assert_same(u.inv(), ru.inv())
        for k in range(-3, 4):
            assert_same(u**k, ru**k)
        for k in range(4):
            assert_same(a**k, ra**k)
        assert (a == b) == (ra.terms == rb.terms)
        assert a == a + b - b and a * u * u.inv() == a
        assert (a == 3) == (ra.terms == TupleScalar(mode, {(0,) * mode.nvars: 3}).terms)
        assert a.specialize(point) == ra.specialize(point)
        if mode.kind == "multi":
            assert_same(a.to_single(), ra.to_single())
            assert_same((a * b).to_single(), (ra * rb).to_single())


@pytest.mark.parametrize("mode", [ParamMode.multi(3), ParamMode.single()], ids=repr)
def test_a_product_whose_bound_reaches_2_31_raises(mode):
    label = mode.variables[0]
    half = mode.variable(label, 2**30)
    assert half.bound == 2**30
    for product in (lambda: half * half, lambda: half * half.inv(), lambda: half**2):
        with pytest.raises(ExponentOverflowError) as caught:
            product()
        assert not isinstance(caught.value, ValueError)
    # one below the limit still multiplies, and the bound is a sum
    below = mode.variable(label, 2**30 - 1) * half
    assert below.bound == EXPONENT_LIMIT - 1
    with pytest.raises(ExponentOverflowError):
        mode.variable(label, EXPONENT_LIMIT)


@pytest.mark.parametrize("mode", [ParamMode.multi(2), ParamMode.single()], ids=repr)
def test_the_largest_power_below_the_limit_builds(mode):
    q = mode.q(1, 2)
    for k in (EXPONENT_LIMIT - 1, EXPONENT_LIMIT - 2, -(EXPONENT_LIMIT - 1)):
        power = q**k
        assert power.sorted_terms() == [((k,), 1)] and power.bound == abs(k)
    with pytest.raises(ExponentOverflowError):
        q**EXPONENT_LIMIT


def test_constants_compare_and_hash_as_numbers():
    one = ParamMode.multi(2).one()
    assert one == 1 and hash(one) == hash(1) and {1: "one"}[one] == "one"
    assert hash(ParamMode.single().zero()) == hash(0)
    numeric = ParamMode.numeric(2, {(1, 2): Fraction(3, 2)})
    x = numeric.q(1, 2)
    assert x == Fraction(3, 2) and hash(x) == hash(Fraction(3, 2))
    assert x * Fraction(2, 3) == 1 and Fraction(2, 3) * x == 1
    assert x + Fraction(1, 2) == 2 and Fraction(1, 2) + x == 2
    assert x - Fraction(1, 2) == 1 and Fraction(5, 2) - x == 1
    # symbolic modes take a Fraction only when it is an integer
    q = ParamMode.multi(2).q(1, 2)
    assert q * Fraction(4, 2) == q + q and q + Fraction(3, 1) == q + 3
    assert q != Fraction(1, 2) and one != Fraction(1, 2) and one == Fraction(2, 2)
    for op in (lambda: q * Fraction(2, 3), lambda: q + Fraction(1, 2), lambda: Fraction(1, 2) - q):
        with pytest.raises(ValueError):
            op()
    # any other type is not a scalar of the ring
    for op in (lambda: q * 1.5, lambda: q + "1", lambda: 2.0 - q):
        with pytest.raises(TypeError):
            op()
    assert q != 1.0 and one != "1"
