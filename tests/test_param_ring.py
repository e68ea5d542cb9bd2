"""Ring axioms and specialization homomorphisms for the coefficient ring."""

from fractions import Fraction
from random import Random

import pytest

from qmm import ModeMismatchError, ParamMode
from qmm.param_ring import EXPONENT_LIMIT, ExponentOverflowError, pack, unpack


def random_scalar(mode, rng, size=3, span=4):
    out = mode.zero()
    for _ in range(rng.randint(0, size)):
        term = mode.scalar(rng.randint(-5, 5))
        for label in mode.variables:
            term = term * mode.variable(label, rng.randint(-span, span))
        out = out + term
    return out


def test_inverse_pair_cancels():
    mode = ParamMode.multi(2)
    q = mode.q(1, 2)
    assert q * q.inv() == mode.one()


def test_ring_identity_difference_of_squares():
    mode = ParamMode.single()
    q = mode.q(1, 2)
    assert (mode.one() - q) * (mode.one() + q) == mode.one() - q * q


def test_specialize_product_of_variables():
    mode = ParamMode.multi(3)
    a = mode.q(1, 2) * mode.q(1, 3)
    assert a.specialize({(1, 2): 2, (1, 3): 3, (2, 3): 7}) == 6


def test_specialize_inverse_and_zero():
    mode = ParamMode.multi(2)
    assert mode.q(1, 2).inv().specialize({(1, 2): 2}) == Fraction(1, 2)
    assert mode.zero().specialize({(1, 2): 5}) == 0


def test_specialize_hand_value():
    # variable order is q12, q13, q23
    mode = ParamMode.multi(3)
    a = mode.q(1, 2) * mode.q(2, 3) - mode.q(1, 3)
    assert a.specialize({(1, 2): 2, (1, 3): 3, (2, 3): 5}) == 2 * 5 - 3


def test_specialize_rejects_missing_and_zero():
    mode = ParamMode.multi(2)
    q = mode.q(1, 2)
    with pytest.raises(ValueError):
        q.specialize({})
    with pytest.raises(ValueError):
        q.specialize({(1, 2): 0})


def test_to_single_examples():
    mode = ParamMode.multi(4)
    single = ParamMode.single()
    q = single.q(1, 2)
    assert (mode.q(1, 2) * mode.q(1, 3)).to_single() == q * q
    assert mode.q(1, 2).inv().to_single() == q.inv()
    assert (mode.q(1, 2) - mode.q(3, 4)).to_single().is_zero()


def test_q_convention():
    # q_ab for a > b is q_ba^{-1}; q_aa = 1; nothing else is ever stored
    mode = ParamMode.multi(3)
    assert mode.q(2, 1) == mode.q(1, 2).inv()
    assert mode.q(2, 2) == mode.one()


def test_mode_mismatch_rejected():
    a = ParamMode.multi(2).q(1, 2)
    b = ParamMode.multi(3).q(1, 2)
    with pytest.raises(ModeMismatchError):
        a * b
    with pytest.raises(ModeMismatchError):
        a + b


def test_numeric_mode_is_exact_rational():
    mode = ParamMode.numeric(2, {(1, 2): Fraction(3, 2)})
    assert mode.q(1, 2) * mode.q(2, 1) == mode.one()
    assert mode.q(1, 2).specialize({}) == Fraction(3, 2)
    with pytest.raises(ValueError):
        ParamMode.numeric(2, {(1, 2): 0})


@pytest.mark.parametrize("label", [(1, 3), (2, 1), (0, 7), (1, 1)])
def test_numeric_mode_rejects_a_label_that_is_no_parameter(label):
    with pytest.raises(ValueError, match="not a parameter"):
        ParamMode.numeric(2, {(1, 2): 2, label: 5})


def test_ring_axioms_randomized():
    rng = Random(20240)
    for mode in (ParamMode.multi(3), ParamMode.single()):
        for _ in range(50):
            a = random_scalar(mode, rng)
            b = random_scalar(mode, rng)
            c = random_scalar(mode, rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


def test_specialize_is_ring_homomorphism():
    rng = Random(20241)
    mode = ParamMode.multi(3)
    assignment = {(1, 2): Fraction(2), (1, 3): Fraction(-3, 2), (2, 3): Fraction(5)}
    for _ in range(40):
        a = random_scalar(mode, rng)
        b = random_scalar(mode, rng)
        assert (a * b).specialize(assignment) == a.specialize(assignment) * b.specialize(assignment)
        assert (a + b).specialize(assignment) == a.specialize(assignment) + b.specialize(assignment)


def test_to_single_is_ring_homomorphism():
    rng = Random(20242)
    mode = ParamMode.multi(3)
    for _ in range(40):
        a = random_scalar(mode, rng)
        b = random_scalar(mode, rng)
        assert (a * b).to_single() == a.to_single() * b.to_single()
        assert (a + b).to_single() == a.to_single() + b.to_single()


def test_no_stored_zero_terms():
    mode = ParamMode.multi(2)
    q = mode.q(1, 2)
    assert not (q - q).terms
    assert (q + q - q) == q


def test_jsonable_roundtrip_shape():
    mode = ParamMode.multi(2)
    a = mode.q(1, 2) ** -2 * mode.scalar(3) + mode.one()
    records = a.to_jsonable()
    assert records == [{"exponents": [-2], "coeff": "3"}, {"exponents": [0], "coeff": "1"}]


def test_mode_key_is_fixed_at_construction():
    values = {(1, 2): "3/2", (1, 3): -2, (2, 3): Fraction(5, 7)}
    a = ParamMode.numeric(3, values)
    b = ParamMode.numeric(3, dict(reversed(list(values.items()))))
    c = ParamMode.numeric(3, {(1, 2): Fraction(3, 2), (1, 3): Fraction(-2), (2, 3): Fraction(5, 7)})
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert a._key == ("numeric", 3, (((1, 2), "3/2"), ((1, 3), "-2"), ((2, 3), "5/7")))
    assert a != ParamMode.numeric(3, {**values, (2, 3): Fraction(7, 5)})
    assert a != ParamMode.numeric(2, {(1, 2): "3/2"}) and a != ParamMode.multi(3)
    assert ParamMode.multi(3) == ParamMode.multi(3) and ParamMode.multi(3) != ParamMode.multi(2)
    assert hash(ParamMode.multi(3)) == hash(ParamMode.multi(3))
    assert ParamMode.multi(3)._key == ("multi", 3)
    assert ParamMode.single() == ParamMode.single() and ParamMode.single()._key == ("single",)
    assert ParamMode.single() != ParamMode.multi(1)


def test_q_monomial_is_the_product_of_powers():
    # per-pair exponents, Laurent in every mode; numeric values include a
    # negative and a non-integer rational
    rng = Random(17)
    n = 3
    numeric = ParamMode.numeric(n, {(1, 2): Fraction(-3, 2), (1, 3): 5, (2, 3): Fraction(2, 7)})
    for mode in (ParamMode.multi(n), ParamMode.single(), numeric):
        for _ in range(20):
            exps = [rng.randint(-3, 3) for _ in range(3)]
            expected = mode.one()
            for (i, j), e in zip(((1, 2), (1, 3), (2, 3)), exps):
                expected = expected * mode.q(i, j) ** e
            assert mode.q_monomial(exps) == expected
    with pytest.raises(ValueError):
        ParamMode.multi(n).q_monomial([1, 2])


@pytest.mark.parametrize("mode", [ParamMode.multi(3), ParamMode.single()], ids=["multi", "single"])
def test_q_monomial_packs_up_to_the_exponent_limit(mode):
    # the per-mode packing agrees with pack/unpack at +-(2^31 - 1), and an
    # exponent of magnitude 2^31 raises instead of aliasing
    top = EXPONENT_LIMIT - 1
    vectors = [(top, -top, 0), (-top, 0, top), (-1, 1, -1), (0, 0, 0)] if mode.kind == "multi" else [(top,), (-top,)]
    for exps in vectors:
        monomial = mode.q_monomial(exps)
        slots = exps if mode.kind == "multi" else (sum(exps),)
        ((key, coeff),) = monomial.terms.items()
        assert key == pack(slots) and unpack(key, len(slots)) == slots and coeff == 1
        assert monomial.bound == max(map(abs, slots))
    bad = [(EXPONENT_LIMIT, 0, 0), (0, -EXPONENT_LIMIT, 0)] if mode.kind == "multi" else [(EXPONENT_LIMIT,), (-EXPONENT_LIMIT,)]
    for exps in bad:
        with pytest.raises(ExponentOverflowError):
            mode.q_monomial(exps)
