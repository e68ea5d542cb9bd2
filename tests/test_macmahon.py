"""Character series, the master identity, the twist, and the classical limit."""

from fractions import Fraction
from itertools import combinations, product
from random import Random

import pytest

from qmm import (
    IdealOracle,
    NCPoly,
    ParamMode,
    QMatrix,
    QuantumSpace,
    bos_series,
    classical_check,
    ferm_series,
    g_coefficient,
    qdet,
    twisted_bos_series,
    twisted_ferm_series,
    verify_master,
    verify_qdet_coaction,
    verify_twisted,
)
from qmm.macmahon import bos_twist_exponent, evaluate_z_poly, ferm_twist_exponent
from test_twisted_reference import TorusElement, special_torus, torus_act


def wedge_coaction_diagonal(sp, subset):
    """Test-only route to qdet on J: the coefficient of the increasing
    tensor word in the free-level coaction of wedge(J), with no reduction.
    Each word u of wedge(J) goes to z_{u_1}^{j_1} ... z_{u_m}^{j_m}, and
    distinct u give distinct z-words."""
    J = tuple(sorted(subset))
    terms = {bytes(a * sp.n + j - 1 for a, j in zip(u, J)): c for u, c in sp.wedge_expand(J).terms.items()}
    return NCPoly(sp.z, sp.mode, terms)


def g_via_product(sp, m):
    """Test-only oracle for G(m): expand X_1^{m_1}...X_n^{m_n} over all
    letter choices and normalize each x-word in one pass at the end."""
    lowers = []
    for i, e in enumerate(m, start=1):
        lowers.extend([i] * e)
    acc = NCPoly.zero(sp.z, sp.mode)
    for uppers in product(range(1, sp.n + 1), repeat=len(lowers)):
        coeff, r = sp.affine_normalize(sp.x.x_word(uppers))
        if r == tuple(m):
            word = sp.z.z_word(zip(lowers, uppers))
            acc = acc + NCPoly.monomial(sp.z, sp.mode, word, coeff)
    return acc


def space(n, mode=None):
    return QuantumSpace(n, mode or ParamMode.multi(n))


def test_g_on_unit_vectors():
    sp = space(3)
    for i in (1, 2, 3):
        m = tuple(1 if k == i else 0 for k in (1, 2, 3))
        assert g_coefficient(sp, m) == sp.z_gen(i, i)


def test_g_mixed_and_square():
    sp = space(2)
    z = sp.z_gen
    assert g_coefficient(sp, (1, 1)) == z(1, 1) * z(2, 2) + (z(1, 2) * z(2, 1)).scale(sp.mode.q(1, 2))
    assert g_coefficient(sp, (0, 2)) == z(2, 2) * z(2, 2)


def test_g_matches_product_route():
    rng = Random(13)
    for n in (2, 3):
        sp = space(n)
        for _ in range(8):
            m = tuple(rng.randint(0, 2) for _ in range(n))
            assert g_coefficient(sp, m) == g_via_product(sp, m)


def test_bos_series_n1_is_geometric():
    sp = space(1, ParamMode.multi(1))
    bos = bos_series(sp, 5).body
    for l in range(6):
        assert bos[l] == NCPoly.monomial(sp.z, sp.mode, bytes([0] * l))


def test_bos_degree_one_is_trace():
    for n in (2, 3):
        sp = space(n)
        trace = NCPoly.zero(sp.z, sp.mode)
        for i in range(1, n + 1):
            trace = trace + sp.z_gen(i, i)
        assert bos_series(sp, 1).body[1] == trace


def test_bos_degree_two():
    sp = space(2)
    z = sp.z_gen
    expected = (
        z(1, 1) * z(1, 1)
        + z(1, 1) * z(2, 2)
        + (z(1, 2) * z(2, 1)).scale(sp.mode.q(1, 2))
        + z(2, 2) * z(2, 2)
    )
    assert bos_series(sp, 2).body[2] == expected


def test_ferm_series_n1():
    sp = space(1, ParamMode.multi(1))
    ferm = ferm_series(sp, 3).body
    assert ferm[0] == NCPoly.one(sp.z, sp.mode)
    assert ferm[1] == -sp.z_gen(1, 1)
    assert ferm[2].is_zero() and ferm[3].is_zero()


def test_ferm_degree_one_is_minus_trace():
    sp = space(3)
    trace = NCPoly.zero(sp.z, sp.mode)
    for i in range(1, 4):
        trace = trace + sp.z_gen(i, i)
    assert ferm_series(sp, 1).body[1] == -trace


def test_ferm_degree_two_single_minor():
    sp = space(2)
    assert ferm_series(sp, 2).body[2] == qdet(QMatrix.generic(2, sp.mode), (1, 2))


def test_master_n1_telescopes_freely():
    report = verify_master(IdealOracle(1, ParamMode.multi(1)), 10)
    assert report["pass"]
    assert all(r["residual_terms_before_reduction"] == 0 for r in report["results"])


def test_master_degree_one_cancels_freely():
    for n in (2, 3):
        sp = space(n)
        bos = bos_series(sp, 1).body
        ferm = ferm_series(sp, 1).body
        assert (bos[1] + ferm[1]).is_zero()


def test_master_n2_d3_both_modes():
    for mode in (ParamMode.multi(2), ParamMode.single()):
        assert verify_master(IdealOracle(2, mode), 3)["pass"]


def test_master_detects_wrong_series():
    # sabotage: flip a weight in Ferm; the identity must fail
    mode = ParamMode.multi(2)
    sp = space(2, mode)
    oracle = IdealOracle(2, mode)
    bos = bos_series(sp, 2).body
    ferm = ferm_series(sp, 2).body
    bad = bos[2] + bos[1] * ferm[1] + ferm[2].scale(mode.q(1, 2))
    assert not oracle.contains(bad)


def test_wedge_coaction_diagonal_examples():
    sp = space(2)
    z = sp.z_gen
    assert wedge_coaction_diagonal(sp, (1,)) == z(1, 1)
    got = wedge_coaction_diagonal(sp, (1, 2))
    assert got == qdet(QMatrix.generic(2, sp.mode), (1, 2))
    sp3 = space(3)
    assert wedge_coaction_diagonal(sp3, (1, 3)) == qdet(QMatrix.generic(3, sp3.mode), (1, 3))


def test_wedge_coaction_diagonal_equals_qdet_everywhere():
    for n in range(1, 5):
        sp = space(n)
        Z = QMatrix.generic(n, sp.mode)
        for m in range(1, n + 1):
            for J in combinations(range(1, n + 1), m):
                assert wedge_coaction_diagonal(sp, J) == qdet(Z, J)
    sp = space(5)
    J = tuple(range(1, 6))
    assert wedge_coaction_diagonal(sp, J) == qdet(QMatrix.generic(5, sp.mode), J)


def test_verify_qdet_coaction_small():
    mode1 = ParamMode.multi(1)
    assert verify_qdet_coaction(IdealOracle(1, mode1))
    mode2 = ParamMode.multi(2)
    assert verify_qdet_coaction(IdealOracle(2, mode2))
    mode3 = ParamMode.multi(3)
    assert verify_qdet_coaction(IdealOracle(3, mode3))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("exact", [True, False])
def test_verify_qdet_coaction_rejects_a_perturbed_determinant(monkeypatch, n, exact):
    # the control: det + (z_1^1)^n in place of det leaves -w (z_1^1)^n, a
    # normal word, at every target word of weight w != 0
    def perturbed(Z, subset=None):
        det = qdet(Z, subset)
        return det + NCPoly.monomial(det.alphabet, det.mode, bytes([det.alphabet.z(1, 1)]) * Z.n)

    oracle = IdealOracle(n, ParamMode.multi(n), exact=exact, seed=0, draws=3)
    assert verify_qdet_coaction(oracle)
    monkeypatch.setattr("qmm.macmahon.qdet", perturbed)
    assert not verify_qdet_coaction(oracle)


def test_torus_diagonal_fixes_qdet():
    mode = ParamMode.multi(2)
    tau = (mode.q(1, 2), mode.q(1, 2) ** 3)
    g = TorusElement(tau, tau)
    det = qdet(QMatrix.generic(2, mode), (1, 2))
    assert torus_act(g, det) == det


def test_torus_left_scales_qdet_by_subset_product():
    mode = ParamMode.multi(3)
    cs = (mode.q(1, 2), mode.q(1, 3) ** 2, mode.q(2, 3).inv())
    g = TorusElement(cs, tuple(mode.one() for _ in range(3)))
    Z = QMatrix.generic(3, mode)
    for m in range(1, 4):
        for J in combinations((1, 2, 3), m):
            mu = mode.one()
            for j in J:
                mu = mu * cs[j - 1]
            assert torus_act(g, qdet(Z, J)) == qdet(Z, J).scale(mu)


def test_torus_left_scales_g_by_multidegree_product():
    mode = ParamMode.multi(2)
    sp = space(2, mode)
    cs = (mode.q(1, 2) ** 2, mode.q(1, 2).inv())
    g = TorusElement(cs, (mode.one(), mode.one()))
    for m in ((1, 1), (2, 0), (1, 2)):
        mu = cs[0] ** m[0] * cs[1] ** m[1]
        gm = g_coefficient(sp, m)
        assert torus_act(g, gm) == gm.scale(mu)


def test_torus_is_algebra_map_and_rescales_relations():
    from qmm import build_relations

    rng = Random(4)
    mode = ParamMode.multi(2)
    sp = space(2, mode)
    cs = (mode.q(1, 2), mode.q(1, 2) ** -2)
    ds = (mode.q(1, 2) ** 3, mode.one())
    g = TorusElement(cs, ds)
    gens = [sp.z_gen(i, j) for i in (1, 2) for j in (1, 2)]
    for _ in range(10):
        a = rng.choice(gens) * rng.choice(gens)
        b = rng.choice(gens)
        assert torus_act(g, a * b) == torus_act(g, a) * torus_act(g, b)
    for rel in build_relations(2, mode):
        acted = torus_act(g, rel)
        # a scalar multiple of the relation: proportional coefficientwise
        words = sorted(rel.terms)
        ratio = acted.terms[words[0]] * rel.terms[words[0]].inv()
        for w in words:
            assert acted.terms[w] == rel.terms[w] * ratio


@pytest.mark.parametrize("size", [1, 3])
def test_a_torus_point_for_another_n_is_rejected(size):
    # a point for n=3 must not drop its third entry's factor silently, nor
    # one for n=1 fail with an IndexError
    mode = ParamMode.single()
    det = qdet(QMatrix.generic(2, mode))
    with pytest.raises(ValueError, match="n=2"):
        torus_act(special_torus(size, mode), det)
    lopsided = TorusElement((mode.one(), mode.one()), (mode.one(),) * size)
    with pytest.raises(ValueError, match="n=2"):
        torus_act(lopsided, det)


def test_twist_exponents_match_spec_examples():
    assert bos_twist_exponent(2, (1, 1)) == 0
    assert bos_twist_exponent(1, (5,)) == 0
    assert ferm_twist_exponent(1, (1,)) == 0
    assert ferm_twist_exponent(2, (1, 2)) == 0


def test_twisted_weights_are_torus_eigenvalues():
    mode = ParamMode.single()
    for n in (2, 3):
        sp = space(n, mode)
        tau = special_torus(n, mode)
        bos = bos_series(sp, 3).body
        ferm = ferm_series(sp, 3).body
        tbos = twisted_bos_series(sp, 3).body
        tferm = twisted_ferm_series(sp, 3).body
        for k in range(4):
            assert torus_act(tau, bos[k]) == tbos[k]
            assert torus_act(tau, ferm[k]) == tferm[k]


def test_twisted_identity_n1_reduces_to_untwisted():
    mode = ParamMode.single()
    sp = space(1, mode)
    assert twisted_bos_series(sp, 4).body == bos_series(sp, 4).body
    assert twisted_ferm_series(sp, 4).body == ferm_series(sp, 4).body


def test_verify_twisted_small():
    mode = ParamMode.single()
    for n in (2, 3):
        report = verify_twisted(IdealOracle(n, mode), 3)
        assert report["pass"]
        assert all(r["twist_weights_match_torus"] for r in report["results"])


def test_verify_twisted_requires_single_mode(monkeypatch):
    # the guard runs before any series is built: every series goes through these
    monkeypatch.setattr("qmm.macmahon._bos", None)
    monkeypatch.setattr("qmm.macmahon._ferm", None)
    with pytest.raises(ValueError, match="one-parameter mode"):
        verify_twisted(IdealOracle(2, ParamMode.multi(2)), 2)
    with pytest.raises(ValueError, match="one-parameter mode"):
        verify_twisted(IdealOracle(2, ParamMode.numeric(2, {(1, 2): 3})), 2)


def test_classical_identity_matrix():
    # sum over |m| = l of 1 is l + 1, the coefficient of 1/(1-t)^2
    assert classical_check([[1, 0], [0, 1]], 6)
    mode = ParamMode.numeric(2, {(1, 2): 1})
    sp = space(2, mode)
    for l in range(5):
        total = sum(
            evaluate_z_poly(g_coefficient(sp, m), [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
            for m in sp.affine_basis(l)
        )
        assert total == l + 1


def test_classical_swap_matrix():
    # det(I - tZ) = 1 - t^2; the G sums must give 1/(1 - t^2)
    assert classical_check([[0, 1], [1, 0]], 6)
    mode = ParamMode.numeric(2, {(1, 2): 1})
    sp = space(2, mode)
    swap = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    for l in range(6):
        total = sum(
            evaluate_z_poly(g_coefficient(sp, m), swap) for m in sp.affine_basis(l)
        )
        assert total == (1 if l % 2 == 0 else 0)


def test_classical_zero_matrix():
    assert classical_check([[0, 0], [0, 0]], 4)


def test_classical_rejects_non_square_matrix():
    with pytest.raises(ValueError):
        classical_check([[1, 0, 0], [0, 1, 0]], 3)


def test_classical_rejects_negative_degree():
    with pytest.raises(ValueError, match="degree"):
        classical_check([[1, 0], [0, 1]], -1)


def test_classical_random_rationals():
    rng = Random(2024)
    for n in (2, 3):
        for _ in range(5):
            entries = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(n)]
                for _ in range(n)
            ]
            assert classical_check(entries, 5)


def test_report_format_keys():
    report = verify_master(IdealOracle(2, ParamMode.multi(2)), 2)
    assert set(report) == {"results", "pass"}
    for entry in report["results"]:
        assert set(entry) == {"degree", "residual_terms_before_reduction", "pass"}
    # the series are over the oracle's mode, so no entry repeats it
    twisted = verify_twisted(IdealOracle(2, ParamMode.single()), 2)
    for entry in twisted["results"]:
        assert set(entry) == {"degree", "residual_terms_before_reduction", "twist_weights_match_torus", "pass"}


def test_master_n4_d3_specialized():
    assert verify_master(IdealOracle(4, ParamMode.multi(4)), 3)["pass"]


def test_master_n2_d6_exact_symbolic():
    assert verify_master(IdealOracle(2, ParamMode.multi(2)), 6)["pass"]
