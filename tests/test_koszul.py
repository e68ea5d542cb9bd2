"""Koszul complex assembly, d^2 = 0, exactness, comodule compatibility."""

import math
from random import Random

import pytest
from test_koszul_reference import reference_rank

from qmm import (
    IdealOracle,
    ParamMode,
    build_complex,
    check_exactness,
    comodule_compat_check,
    composites_vanish,
    euler_characteristic,
    verify_master,
)
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


@pytest.mark.parametrize("n,ell", [(2, 1), (2, 2), (3, 3), (3, 4)])
@pytest.mark.parametrize("exact", [True, False])
def test_comodule_compat_rejects_a_perturbed_differential(monkeypatch, n, ell, exact):
    # the control: one nonzero entry of d_ell times q_12 breaks the square
    # of that column, and the check must say so
    def perturbed(n, ell, mode):
        complex = build_complex(n, ell, mode)
        matrix = complex.maps[ell]
        row, col = next(
            (r, c) for r, entries in enumerate(matrix) for c, x in enumerate(entries) if not x.is_zero()
        )
        matrix[row][col] = matrix[row][col] * mode.q(1, 2)
        return complex

    oracle = IdealOracle(n, ParamMode.multi(n), exact=exact, seed=0, draws=3)
    assert comodule_compat_check(n, ell, oracle)
    monkeypatch.setattr("qmm.koszul.build_complex", perturbed)
    assert not comodule_compat_check(n, ell, oracle)


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
