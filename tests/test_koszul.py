"""Koszul complex assembly, d^2 = 0, exactness, comodule compatibility."""

import math
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from test_koszul_reference import reference_rank

from qmm import (
    IdealOracle,
    ParamMode,
    QuantumSpace,
    build_complex,
    check_exactness,
    comodule_compat_check,
    composites_vanish,
    euler_characteristic,
    verify_master,
)
from qmm import koszul
from qmm.free_algebra import NCPoly
from qmm.koszul import ExactnessReport


def test_dimension_formula():
    for n in (1, 2, 3):
        for ell in (1, 2, 3, 4):
            complex = build_complex(n, ell, ParamMode.multi(n))
            expected = [
                math.comb(n, ell - i) * math.comb(n + i - 1, i) for i in range(ell + 1)
            ]
            assert complex.dims == expected


def test_n1_complex_is_multiplication_by_x():
    mode = ParamMode.multi(1)
    for ell in (1, 3, 5):
        complex = build_complex(1, ell, mode)
        assert complex.dims == [0] * (ell - 1) + [1, 1]
        matrix = complex.maps[ell]
        assert matrix == [[mode.one()]]
        assert check_exactness(complex).conclusive
        assert reference_rank(matrix) == 1


def test_n2_ell2_shape_and_first_differential():
    mode = ParamMode.multi(2)
    complex = build_complex(2, 2, mode)
    assert complex.dims == [1, 4, 3]
    assert composites_vanish(complex)
    column = {
        key: complex.maps[1][row][0]
        for row, key in enumerate(complex.bases[1])
        if not complex.maps[1][row][0].is_zero()
    }
    # wedge{1,2} |-> x_1 (x) x_2  -  q12^{-1} x_2 (x) x_1
    assert column == {
        ((1,), (0, 1)): mode.one(),
        ((2,), (1, 0)): -mode.q(1, 2).inv(),
    }
    assert [reference_rank(m) for m in complex.maps[1:]] == [1, 3]
    assert check_exactness(complex).homology == [0, 0, 0]


def test_d_squared_zero_exactly_over_laurent_ring():
    for n in (1, 2, 3):
        mode = ParamMode.multi(n)
        for ell in range(1, 5):
            assert composites_vanish(build_complex(n, ell, mode))


def test_exactness_sweep_exact_mode():
    for n in (1, 2, 3):
        mode = ParamMode.multi(n)
        for ell in range(1, 5):
            report = check_exactness(build_complex(n, ell, mode))
            assert report.conclusive, (n, ell, report)
            assert report.homology == [0] * (ell + 1)


def test_exactness_specialized_agrees_with_exact():
    # the certificate at a rational point agrees with the Laurent one
    for n in (2, 3):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        numeric = ParamMode.numeric(n, {pair: p for pair, p in zip(pairs, (3, 5, 7))})
        for ell in (2, 3):
            spec = check_exactness(build_complex(n, ell, numeric))
            exact = check_exactness(build_complex(n, ell, ParamMode.multi(n)))
            assert spec.conclusive and exact.conclusive
            assert spec.homology == exact.homology


def test_single_parameter_complex_also_exact():
    mode = ParamMode.single()
    for n in (2, 3):
        for ell in (1, 2, 3):
            complex = build_complex(n, ell, mode)
            assert composites_vanish(complex)
            assert check_exactness(complex).conclusive


def test_euler_characteristic_vanishes():
    for n in range(1, 6):
        for ell in range(1, 9):
            assert euler_characteristic(n, ell) == 0


def test_euler_characteristic_matches_dims():
    for n in (2, 3):
        for ell in (1, 2, 3, 4):
            complex = build_complex(n, ell, ParamMode.multi(n))
            alt = sum((-1) ** i * d for i, d in enumerate(complex.dims))
            assert alt == euler_characteristic(n, ell) == 0


def test_inconclusive_report_shape():
    report = ExactnessReport(2, 2, [1, 4, 3], False)
    assert not report.conclusive
    data = report.to_jsonable()
    assert data == {"n": 2, "ell": 2, "dims": [1, 4, 3], "homology": None, "conclusive": False}


def test_comodule_compat_small():
    mode = ParamMode.multi(2)
    oracle = IdealOracle(2, mode)
    assert comodule_compat_check(2, 1, oracle)
    assert comodule_compat_check(2, 2, oracle)
    mode1 = ParamMode.multi(1)
    assert comodule_compat_check(1, 2, IdealOracle(1, mode1))


def test_comodule_compat_specialized():
    mode = ParamMode.numeric(2, {(1, 2): 3})
    oracle = IdealOracle(2, mode)
    assert comodule_compat_check(2, 2, oracle)


@pytest.mark.parametrize("n, oracle_n", [(3, 2), (2, 3)])
def test_comodule_compat_rejects_an_oracle_for_another_n(n, oracle_n):
    # a mismatched n is bad input, not "not a comodule map"
    with pytest.raises(ValueError, match=f"n={oracle_n}"):
        comodule_compat_check(n, 2, IdealOracle(oracle_n, ParamMode.single()))


def scaled_entry(monkeypatch):
    """The first stored entry of d_ell times q_12."""

    def perturbed(n, ell, mode):
        complex = build_complex(n, ell, mode)
        matrix = complex.maps[ell]
        row, col = next(
            (r, c) for r, entries in enumerate(matrix) for c, x in enumerate(entries) if not x.is_zero()
        )
        matrix[row][col] = matrix[row][col] * mode.q(1, 2)
        return complex

    monkeypatch.setattr("qmm.koszul.build_complex", perturbed)


@pytest.mark.parametrize("n,ell", [(2, 1), (2, 2), (3, 3), (3, 4)])
@pytest.mark.parametrize("exact", [True, False])
def test_comodule_compat_rejects_a_perturbed_differential(monkeypatch, n, ell, exact):
    # the control: one nonzero entry of d_ell times q_12 breaks the square
    # of that column, and the check must say so
    oracle = IdealOracle(n, ParamMode.multi(n), exact=exact, seed=0, draws=3)
    assert comodule_compat_check(n, ell, oracle)
    scaled_entry(monkeypatch)
    assert not comodule_compat_check(n, ell, oracle)


CERTIFIED = [
    (n, ell, mode)
    for n in (1, 2, 3)
    for ell in range(1, 5)
    for mode in (ParamMode.multi(n), ParamMode.single())
] + [(2, ell, ParamMode.numeric(2, {(1, 2): 3})) for ell in range(1, 5)]


def expanded_columns(monkeypatch) -> list:
    """(J, r, rows) of every column ``_expand_column`` decides, in call
    order."""
    expanded = []
    expand_column = koszul._expand_column

    def recorded(*args):
        expanded.append(args[4:])
        return expand_column(*args)

    monkeypatch.setattr("qmm.koszul._expand_column", recorded)
    return expanded


def condition_c_columns(n, ell) -> list:
    """The C(n, 2) closed-form columns ((j,), e_i), i < j, whose expansion
    decides (C), sorted; none when ell = 1, where the lemma needs no (C)."""
    units = [tuple(int(a == i) for a in range(n)) for i in range(n)]
    return sorted(((j + 1,), units[i]) for i, j in combinations(range(n), 2)) if ell >= 2 else []


@pytest.mark.parametrize("n, ell, mode", CERTIFIED)
def test_comodule_certificate_clears_every_column_of_a_valid_complex(monkeypatch, n, ell, mode):
    # the closed form under (F) and the lemma clears every column of the
    # complex, so the only full expansions are the (C) columns, each once
    # (at ell = 2 a second expansion of one would be the complex's own)
    expanded = expanded_columns(monkeypatch)
    assert comodule_compat_check(n, ell, IdealOracle(n, mode))
    assert sorted(call[:2] for call in expanded) == condition_c_columns(n, ell)


def scaled_wedge_12(monkeypatch):
    """wedge(1, 2) times q_12, every other wedge as it is."""
    wedge_expand = QuantumSpace.wedge_expand

    def scaled(self, subset):
        p = wedge_expand(self, subset)
        return p.scale(self.mode.q(1, 2)) if tuple(sorted(subset)) == (1, 2) else p

    monkeypatch.setattr(QuantumSpace, "wedge_expand", scaled)


def inverted_prepend(monkeypatch):
    """x_j x^m = c^{-1} x^{m + e_j}: A with every q_ij replaced by q_ij^{-1},
    in the differential and the prepend alike, while B still coacts on the
    true A."""
    affine_prepend = QuantumSpace.affine_prepend

    def inverted(self, letter, m):
        c, r = affine_prepend(self, letter, m)
        return c.inv(), r

    monkeypatch.setattr(QuantumSpace, "affine_prepend", inverted)


@pytest.mark.parametrize("n, ell", [(2, 2), (3, 3)])
@pytest.mark.parametrize("control", [scaled_wedge_12, inverted_prepend])
def test_comodule_check_and_full_expansion_reject_the_controls(monkeypatch, n, ell, control):
    oracle = IdealOracle(n, ParamMode.multi(n))
    assert comodule_compat_check(n, ell, oracle)
    control(monkeypatch)
    space = QuantumSpace(n, oracle.mode)
    splits = {J: koszul._face_weights(space, J) for m in range(1, n + 1) for J in combinations(range(1, n + 1), m)}
    # the scaled wedge(1, 2) breaks (F) for J = {1, 2, 3}; every split of a
    # J with at most two elements holds whatever the wedges, and the
    # inverted prepend leaves every wedge alone, so the closed form or the
    # lemma must catch the rest
    broken = {J for J, split in splits.items() if split is None}
    assert broken == ({(1, 2, 3)} if control is scaled_wedge_12 and n == 3 else set())

    expanded = expanded_columns(monkeypatch)
    assert not comodule_compat_check(n, ell, oracle)
    assert expanded  # the certificate refused, and the fallback decided
    monkeypatch.setattr("qmm.koszul._face_weights", lambda space, J: None)
    assert not comodule_compat_check(n, ell, oracle)  # the full expansion alone


@pytest.mark.parametrize("n, ell", [(3, 2), (4, 2), (4, 3)])
def test_comodule_check_sees_a_row_whose_leg_is_no_face_of_the_column(monkeypatch, n, ell):
    # a unit stored in a row (I, r2) of d_1 whose I is no J - j of the
    # column's J: the certificate must not clear that column
    mode = ParamMode.multi(n)
    complex = build_complex(n, ell, mode)
    domain, codomain = complex.bases[0], complex.bases[1]
    row, col = next(
        (row, col)
        for col, (J, _) in enumerate(domain)
        for row, (I, _) in enumerate(codomain)
        if not set(I) <= set(J)
    )
    complex.maps[1][row][col] = mode.one()
    monkeypatch.setattr("qmm.koszul.build_complex", lambda *_: complex)
    assert not comodule_compat_check(n, ell, IdealOracle(n, mode))


def test_full_expansion_alone_passes_valid_complexes(monkeypatch):
    # the fallback is the reference the certificate stands in for
    monkeypatch.setattr("qmm.koszul._face_weights", lambda space, J: None)
    for n, ell in ((2, 3), (3, 3)):
        assert comodule_compat_check(n, ell, IdealOracle(n, ParamMode.multi(n)))


def perturbed_coaction(monkeypatch):
    """The coaction on x_1^2 x_2, a degree-3 multidegree, times q_12, every
    other as it is: (H1) fails at degree 3."""
    coaction_affine = QuantumSpace.coaction_affine

    def perturbed(self, m):
        family = coaction_affine(self, m)
        if tuple(m) == (2, 1) + (0,) * (self.n - 2):
            return {r: p.scale(self.mode.q(1, 2)) for r, p in family.items()}
        return family

    monkeypatch.setattr(QuantumSpace, "coaction_affine", perturbed)


def scaled_prepend(monkeypatch):
    """x_2 x_1 x_2 = q_12 c_2(e_1 + e_2) x_1 x_2^2, every other factor as it
    is: the factors are no longer a character, so (H3) fails at |m| = 2,
    and (H1) with it, since the coaction keeps the true factors."""
    affine_prepend = QuantumSpace.affine_prepend

    def scaled(self, letter, m):
        c, r = affine_prepend(self, letter, m)
        if letter == 1 and tuple(m) == (1, 1) + (0,) * (self.n - 2):
            return c * self.mode.q(1, 2), r
        return c, r

    monkeypatch.setattr(QuantumSpace, "affine_prepend", scaled)


def moved_entry(monkeypatch):
    """The entry of the first column of d_ell at (J - j, r + e_j) moved to
    (J - j, r + e_k), k != j: one stored entry off the lemma's form."""

    def perturbed(n, ell, mode):
        complex = build_complex(n, ell, mode)
        domain, codomain = complex.bases[ell - 1], complex.bases[ell]
        row, col = next((r, c) for r, entries in enumerate(complex.maps[ell]) for c in entries.entries)
        (I, r2), (J, r) = codomain[row], domain[col]
        j = next(a for a in J if a not in I) - 1
        k = (j + 1) % n
        moved = codomain.index((I, r[:k] + (r[k] + 1,) + r[k + 1:]))
        complex.maps[ell][moved][col] = complex.maps[ell][row][col]
        complex.maps[ell][row][col] = mode.zero()
        return complex

    monkeypatch.setattr("qmm.koszul.build_complex", perturbed)


def inverted_a(monkeypatch):
    """A with every q_ij replaced by q_ij^{-1} in the prepend factors and
    the coaction alike, while B stays the algebra of the true A: (H1) and
    (H3) hold, and (C), so (H2), fails."""
    affine_prepend, coaction_affine = QuantumSpace.affine_prepend, QuantumSpace.coaction_affine

    def prepend(self, letter, m):
        c, r = affine_prepend(self, letter, m)
        return c.inv(), r

    def coaction(self, m):
        family = coaction_affine(self, m)
        return {r: NCPoly(p.alphabet, p.mode, {w: c.inv() for w, c in p.terms.items()}) for r, p in family.items()}

    monkeypatch.setattr(QuantumSpace, "affine_prepend", prepend)
    monkeypatch.setattr(QuantumSpace, "coaction_affine", coaction)


def numeric_mode(n: int) -> ParamMode:
    return ParamMode.numeric(n, {(i, j): Fraction(i + 2 * j, j + 1) for i, j in combinations(range(1, n + 1), 2)})


MODES = {"multi": ParamMode.multi, "single": lambda n: ParamMode.single(), "numeric": numeric_mode}
CONTROLS = [
    scaled_wedge_12,
    inverted_prepend,
    scaled_entry,
    perturbed_coaction,
    scaled_prepend,
    moved_entry,
    inverted_a,
]


@pytest.mark.parametrize("control", [None] + CONTROLS)
@pytest.mark.parametrize("kind", list(MODES))
def test_the_lemma_route_returns_the_leg_by_leg_verdicts(monkeypatch, kind, control):
    # every verdict for n <= 3, ell <= 5 is the same with the lemma patched
    # off, when every column is expanded in full
    cases = [(n, ell) for n in range(1 if control is None else 2, 4) for ell in range(1, 6)]
    if control is not None:
        control(monkeypatch)
    oracles = {n: IdealOracle(n, MODES[kind](n)) for n, _ in cases}
    verdicts = [comodule_compat_check(n, ell, oracles[n]) for n, ell in cases]
    monkeypatch.setattr("qmm.koszul._lemma_holds", lambda *args: False)
    assert [comodule_compat_check(n, ell, oracles[n]) for n, ell in cases] == verdicts
    assert all(verdicts) if control is None else not all(verdicts)


LEMMA_CASES = [(n, ell, kind) for n in (1, 2, 3) for ell in range(1, 6) for kind in MODES]


@pytest.mark.parametrize("n, ell, kind", LEMMA_CASES)
def test_a_valid_complex_decides_only_the_degree_2_legs(monkeypatch, n, ell, kind):
    # the lemma clears every column of the complex, so the only normal
    # forms are those of (C): each column ((j,), e_i), i < j, once, with
    # its one closed-form entry c_j(e_i) at e_i + e_j
    mode = MODES[kind](n)
    space = QuantumSpace(n, mode)
    expanded = expanded_columns(monkeypatch)
    assert comodule_compat_check(n, ell, IdealOracle(n, mode))
    expected = []
    for J, r in condition_c_columns(n, ell):
        c, target = space.affine_prepend(J[0] - 1, r)
        expected.append((J, r, [(((), target), c)]))
    assert sorted(expanded, key=lambda call: call[:2]) == expected


@pytest.mark.parametrize("n, ell", [(2, 3), (3, 3), (3, 4)])
@pytest.mark.parametrize("control", [perturbed_coaction, scaled_prepend, inverted_a, moved_entry])
def test_the_lemma_controls_are_rejected_through_the_fallback(monkeypatch, n, ell, control):
    control(monkeypatch)
    oracle = IdealOracle(n, ParamMode.multi(n))
    domains = {column for basis in koszul.build_complex(n, ell, oracle.mode).bases[:-1] for column in basis}
    lemma = []
    lemma_holds = koszul._lemma_holds

    def recorded(*args):
        lemma.append(lemma_holds(*args))
        return lemma[-1]

    monkeypatch.setattr("qmm.koszul._lemma_holds", recorded)
    expanded = expanded_columns(monkeypatch)
    assert not comodule_compat_check(n, ell, oracle)
    # a broken hypothesis turns the lemma off; an entry off the closed form
    # keeps the lemma on; either way a column of the complex itself, not
    # only a (C) column, is expanded in full
    assert lemma == [control is moved_entry]
    assert any(call[:2] in domains for call in expanded)


def recursive_coaction(monkeypatch, unit=1):
    """coaction_affine rebuilt from affine_prepend by the recursion
    D(r) = M_i(D(r - e_i)), i = min supp r, from D(0) = unit (x) 1: the
    recursion part of (H1) holds whatever the prepend factors are."""

    def coaction(self, m):
        m = tuple(m)
        if not any(m):
            return {m: NCPoly.monomial(self.z, self.mode, b"", unit)}
        i = next(k for k, e in enumerate(m) if e)
        out = {}
        for t, p in coaction(self, m[:i] + (m[i] - 1,) + m[i + 1:]).items():
            for l in range(self.n):
                c, target = self.affine_prepend(l, t)
                term = NCPoly.monomial(self.z, self.mode, bytes([i * self.n + l]), c) * p
                out[target] = out[target] + term if target in out else term
        return out

    monkeypatch.setattr(QuantumSpace, "coaction_affine", coaction)


def doubled_unit(monkeypatch):
    """D(0) = 2 (x) 1 and every D(r) rebuilt from it: only D(0) = 1 (x) 1
    of (H1) fails, and every leg is twice a leg in the ideal."""
    recursive_coaction(monkeypatch, unit=2)


def scaled_prepend_recursively(monkeypatch):
    """``scaled_prepend`` with the coaction rebuilt from it: (H1) holds and
    (H3) fails at |m| = 2."""
    scaled_prepend(monkeypatch)
    recursive_coaction(monkeypatch)


def diagonal_prepend_recursively(monkeypatch):
    """c_l(m) q_12^{m_l}, still a character but c_l(e_l) != 1, with the
    coaction rebuilt from it: (H1), (H2) and the product rule of (H3) hold,
    and c_l(e_k) = 1 for k >= l fails."""
    affine_prepend = QuantumSpace.affine_prepend

    def diagonal(self, letter, m):
        c, r = affine_prepend(self, letter, m)
        return c * self.mode.q(1, 2) ** m[letter], r

    monkeypatch.setattr(QuantumSpace, "affine_prepend", diagonal)
    recursive_coaction(monkeypatch)


def moved_target_recursively(monkeypatch):
    """x_2 x_1 x_2 sent to x_1^3 instead of x_1 x_2^2, with its factor, and
    the coaction rebuilt from that: (H1) and the factors of (H3) hold, and
    the target m + e_l of (H3) fails at |m| = 2."""
    affine_prepend = QuantumSpace.affine_prepend

    def moved(self, letter, m):
        c, r = affine_prepend(self, letter, m)
        if letter == 1 and tuple(m) == (1, 1) + (0,) * (self.n - 2):
            return c, (3,) + (0,) * (self.n - 1)
        return c, r

    monkeypatch.setattr(QuantumSpace, "affine_prepend", moved)
    recursive_coaction(monkeypatch)


HYPOTHESIS_CONTROLS = [doubled_unit, scaled_prepend_recursively, diagonal_prepend_recursively, moved_target_recursively]


@pytest.mark.parametrize("n, ell", [(2, 3), (3, 3), (3, 4)])
@pytest.mark.parametrize("control", HYPOTHESIS_CONTROLS)
def test_each_hypothesis_is_checked_where_the_others_hold(monkeypatch, n, ell, control):
    # with (H1) made to hold by construction, each failing part of a
    # hypothesis must turn the lemma off on its own, and the full expansion
    # then decides the verdict, whatever it is
    control(monkeypatch)
    oracle = IdealOracle(n, ParamMode.multi(n))
    lemma = []
    lemma_holds = koszul._lemma_holds

    def recorded(*args):
        lemma.append(lemma_holds(*args))
        return lemma[-1]

    monkeypatch.setattr("qmm.koszul._lemma_holds", recorded)
    verdict = comodule_compat_check(n, ell, oracle)
    assert lemma == [False]
    monkeypatch.setattr("qmm.koszul._lemma_holds", lambda *args: False)
    assert comodule_compat_check(n, ell, oracle) == verdict == (control is doubled_unit)


def test_build_complex_rejects_bad_ell():
    with pytest.raises(ValueError):
        build_complex(2, 0, ParamMode.multi(2))


@pytest.mark.parametrize("ell", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3])
def test_composites_vanish_rejects_a_raised_entry(n, ell):
    # raise one nonzero entry d_i[r][k] by one where row k of d_{i-1} is
    # nonzero: row r of d_i o d_{i-1} then gains that row and cannot vanish
    mode = ParamMode.multi(n)
    complex = build_complex(n, ell, mode)
    maps = complex.maps
    candidates = [
        (i, r, k)
        for i in range(2, ell + 1)
        for r, row in enumerate(maps[i])
        for k, entry in enumerate(row)
        if not entry.is_zero() and any(not x.is_zero() for x in maps[i - 1][k])
    ]
    i, r, k = Random(10 * n + ell).choice(candidates)
    maps[i][r][k] = maps[i][r][k] + mode.one()
    assert not composites_vanish(complex)


@pytest.mark.parametrize("ell", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3])
def test_composites_vanish_sees_an_entry_set_where_none_was_stored(n, ell):
    # the control for sparse rows: a unit put where the closed form leaves
    # d_i[r][k] empty, with row k of d_{i-1} nonzero, makes row r of
    # d_i o d_{i-1} equal to that row, which readers of the stored entries
    # must see
    mode = ParamMode.multi(n)
    complex = build_complex(n, ell, mode)
    maps = complex.maps
    candidates = [
        (i, r, k)
        for i in range(2, ell + 1)
        for r, row in enumerate(maps[i])
        for k, entry in enumerate(row)
        if entry.is_zero() and any(not x.is_zero() for x in maps[i - 1][k])
    ]
    i, r, k = Random(10 * n + ell).choice(candidates)
    assert k not in maps[i][r].entries
    maps[i][r][k] = mode.q(1, 2)
    assert maps[i][r].entries[k] == mode.q(1, 2)
    assert not composites_vanish(complex)
    maps[i][r][k] = mode.zero()  # assigning zero removes the entry again
    assert k not in maps[i][r].entries and composites_vanish(complex)


def test_a_row_reads_like_a_list_and_rejects_columns_outside_it():
    mode = ParamMode.multi(2)
    complex = build_complex(2, 2, mode)
    row = complex.maps[2][0]
    width = len(complex.bases[1])
    assert len(row) == width and list(row) == [row[k] for k in range(width)]
    assert sum(1 for x in row if x) == len(row.entries) > 0
    for k in (width, width + 3, -1, -width):
        with pytest.raises(IndexError):
            row[k]
        with pytest.raises(IndexError):
            row[k] = mode.one()
    assert len(row) == width and all(0 <= k < width for k in row.entries)


def test_no_parameters_to_draw_is_one_exact_run():
    # n = 1 has no q_ij, and every verdict is exact
    mode = ParamMode.multi(1)
    oracle = IdealOracle(1, mode)
    report = verify_master(oracle, 3)
    assert report["pass"] and all(r["residual_terms_before_reduction"] == 0 for r in report["results"])
    assert comodule_compat_check(1, 3, oracle)
    assert check_exactness(build_complex(1, 3, mode)).conclusive
