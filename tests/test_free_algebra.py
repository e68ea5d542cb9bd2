"""Free-algebra arithmetic: words, polynomials, truncated series."""

from random import Random

import pytest

from qmm import Alphabet, ModeMismatchError, NCPoly, ParamMode, QMatrix, TruncSeries, qdet


def x_poly(n, mode, *indexed_terms):
    ab = Alphabet("x", n)
    acc = NCPoly.zero(ab, mode)
    for indices, coeff in indexed_terms:
        acc = acc + NCPoly.monomial(ab, mode, ab.x_word(indices), coeff)
    return acc


def random_poly(ab, mode, rng, max_terms=4, max_len=3):
    acc = NCPoly.zero(ab, mode)
    for _ in range(rng.randint(0, max_terms)):
        word = bytes(rng.randrange(ab.size) for _ in range(rng.randint(0, max_len)))
        acc = acc + NCPoly.monomial(ab, mode, word, rng.randint(-4, 4))
    return acc


def test_single_letter_product():
    mode = ParamMode.multi(2)
    ab = Alphabet("x", 2)
    p = NCPoly.monomial(ab, mode, ab.x_word([1])) * NCPoly.monomial(ab, mode, ab.x_word([2]))
    assert p == NCPoly.monomial(ab, mode, ab.x_word([1, 2]))


def test_no_commutation_in_free_algebra():
    mode = ParamMode.multi(2)
    a = x_poly(2, mode, ([1], 1), ([2], 1))
    b = x_poly(2, mode, ([1], 1), ([2], -1))
    expected = x_poly(2, mode, ([1, 1], 1), ([1, 2], -1), ([2, 1], 1), ([2, 2], -1))
    assert a * b == expected


def test_z_letter_product():
    mode = ParamMode.multi(2)
    z = Alphabet("z", 2)
    p = NCPoly.monomial(z, mode, z.z_word([(1, 1)])) * NCPoly.monomial(z, mode, z.z_word([(2, 2)]))
    assert list(p.terms) == [z.z_word([(1, 1), (2, 2)])]


def test_alphabet_mismatch_rejected():
    mode = ParamMode.multi(2)
    a = NCPoly.one(Alphabet("x", 2), mode)
    b = NCPoly.one(Alphabet("z", 2), mode)
    with pytest.raises(ModeMismatchError):
        a * b


def test_alphabet_rejects_more_letters_than_bytes():
    assert Alphabet("z", 16).size == 256
    with pytest.raises(ValueError, match="n <= 16"):
        Alphabet("z", 17)


def test_coefficient_of():
    mode = ParamMode.multi(2)
    p = x_poly(2, mode, ([1, 2], 1), ([2, 1], 2))
    ab = p.alphabet
    assert p.coefficient_of(ab.x_word([2, 1])) == mode.scalar(2)
    assert NCPoly.zero(ab, mode).coefficient_of(ab.x_word([1])).is_zero()


def test_qdet_coefficient_of_diagonal_word():
    mode = ParamMode.multi(2)
    det = qdet(QMatrix.generic(2, mode), (1, 2))
    z = det.alphabet
    assert det.coefficient_of(z.z_word([(1, 1), (2, 2)])) == mode.one()


def test_nc_mul_associative_distributive_randomized():
    rng = Random(77)
    mode = ParamMode.multi(2)
    z = Alphabet("z", 2)
    for _ in range(30):
        a = random_poly(z, mode, rng)
        b = random_poly(z, mode, rng)
        c = random_poly(z, mode, rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def geometric_series(mode, bound):
    z = Alphabet("z", 1)
    coeffs = [NCPoly.monomial(z, mode, bytes([0] * d)) for d in range(bound + 1)]
    return TruncSeries(z, mode, bound, coeffs)


def one_minus_zt(mode, bound):
    z = Alphabet("z", 1)
    coeffs = [NCPoly.zero(z, mode) for _ in range(bound + 1)]
    coeffs[0] = NCPoly.one(z, mode)
    coeffs[1] = NCPoly.monomial(z, mode, bytes([0]), -1)
    return TruncSeries(z, mode, bound, coeffs)


def test_series_one_plus_minus_zt():
    mode = ParamMode.single()
    z = Alphabet("z", 1)
    plus = one_minus_zt(mode, 2)
    plus.coeffs[1] = -plus.coeffs[1]
    prod = plus * one_minus_zt(mode, 2)
    assert prod[0] == NCPoly.one(z, mode)
    assert prod[1].is_zero()
    assert prod[2] == NCPoly.monomial(z, mode, bytes([0, 0]), -1)


def test_series_identity_element():
    mode = ParamMode.single()
    a = geometric_series(mode, 5)
    assert a * TruncSeries.one(a.alphabet, mode, 5) == a


def test_geometric_series_inverse():
    # sum_l z^l t^l times (1 - z t) is exactly 1, at any truncation
    mode = ParamMode.single()
    for bound in (1, 3, 7):
        assert (geometric_series(mode, bound) * one_minus_zt(mode, bound)).is_one()


def test_series_bound_mismatch_rejected():
    mode = ParamMode.single()
    with pytest.raises(ModeMismatchError):
        geometric_series(mode, 2) * geometric_series(mode, 3)


def test_series_mul_matches_nc_mul_by_degree():
    rng = Random(78)
    mode = ParamMode.multi(2)
    z = Alphabet("z", 2)

    def random_series(bound):
        coeffs = []
        for d in range(bound + 1):
            acc = NCPoly.zero(z, mode)
            for _ in range(rng.randint(0, 3)):
                word = bytes(rng.randrange(z.size) for _ in range(d))
                acc = acc + NCPoly.monomial(z, mode, word, rng.randint(-3, 3))
            coeffs.append(acc)
        return TruncSeries(z, mode, bound, coeffs)

    for _ in range(10):
        a = random_series(3)
        b = random_series(3)
        prod = a * b
        for d in range(4):
            acc = NCPoly.zero(z, mode)
            for k in range(d + 1):
                acc = acc + a[k] * b[d - k]
            assert prod[d] == acc


def test_series_rejects_inhomogeneous_coefficient():
    mode = ParamMode.single()
    z = Alphabet("z", 1)
    bad = NCPoly.one(z, mode) + NCPoly.monomial(z, mode, bytes([0]))
    with pytest.raises(ValueError):
        TruncSeries(z, mode, 1, [NCPoly.one(z, mode), bad])


def test_homogeneity_preserved_by_product():
    rng = Random(79)
    mode = ParamMode.multi(2)
    z = Alphabet("z", 2)
    for _ in range(20):
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        a = NCPoly.monomial(z, mode, bytes(rng.randrange(4) for _ in range(d1)))
        b = NCPoly.monomial(z, mode, bytes(rng.randrange(4) for _ in range(d2)))
        assert (a * b).homogeneous_degree() == d1 + d2


def test_canonical_word_order_in_rendering():
    mode = ParamMode.multi(2)
    z = Alphabet("z", 2)
    p = NCPoly.monomial(z, mode, z.z_word([(2, 1)])) + NCPoly.monomial(z, mode, z.z_word([(1, 2)]))
    rendered = p.to_jsonable()
    assert [t["word"] for t in rendered] == [[["z", 1, 2]], [["z", 2, 1]]]
