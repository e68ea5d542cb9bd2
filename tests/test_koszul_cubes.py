"""The pair-cube route of ``qmm koszul`` against the cubes and the full complexes.

``support_sweep`` decides d o d = 0 and the homotopy certificate of K^l on
the singleton and pair cubes e_S, |S| <= min(l, 2), instead of on K^l.
The reduction rests on two hypotheses about the closed form: the factor
c_j(r) of x_j x^r is a unit-valued character of r, and the exterior weight
w(I + (j,)) with I sorted is the product of the pair weights w((i, j)).
The first two tests check them.  ``cube_sweep``, the sweep over every unit
cube e_S with |S| <= l, is the reference for the pair route, and the full
route (``build_complex``, ``composites_vanish`` and ``check_exactness`` on
every K^l) the reference for the CLI's verdicts, exit codes and bytes, on
the intact closed form and on closed forms perturbed so that the checks
fail.  A weight perturbed on a triple alone breaks the pair product; the
pairs cannot see it, and the hypothesis test and the cube reference must.
"""

import io
import json
from contextlib import redirect_stdout
from itertools import combinations, product

import pytest
from test_coaction_reference import modes

from qmm import ParamMode, QuantumSpace, build_complex, check_exactness, composites_vanish, euler_characteristic
from qmm.cli import EXIT_CODES, main
from qmm.koszul import support_sweep, unit_cubes


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_prepend_factor_is_a_unit_valued_character(n):
    for mode in modes(n, seed=80 + n):
        space = QuantumSpace(n, mode)
        one = mode.one()
        degrees = [r for d in range(4) for r in space.affine_basis(d)]
        for j in range(n):
            factor = {r: space.affine_prepend(j, r)[0] for r in degrees}
            assert factor[(0,) * n] == one, (mode, j)
            for r, c in factor.items():
                assert c * c.inv() == one, (mode, j, r)
            for r, s in product(degrees, repeat=2):
                rs = tuple(a + b for a, b in zip(r, s))
                assert space.affine_prepend(j, rs)[0] == factor[r] * factor[s], (mode, j, r, s)


def pair_product_failures(space) -> list:
    """The (I, j), I sorted and j not in I, where w(I + (j,)) differs from
    the product of w((i, j)) over i in I."""
    n, one = space.n, space.mode.one()
    failures = []
    for j in range(1, n + 1):
        pair = {i: space.exterior_weight((i, j)) for i in range(1, n + 1) if i != j}
        others = [i for i in range(1, n + 1) if i != j]
        for size in range(n):
            for I in combinations(others, size):
                expected = one
                for i in I:
                    expected = expected * pair[i]
                if space.exterior_weight(I + (j,)) != expected:
                    failures.append((I, j))
    return failures


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_the_exterior_weight_is_a_product_of_pair_weights(n):
    for mode in modes(n, seed=60 + n):
        assert pair_product_failures(QuantumSpace(n, mode)) == [], mode


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_each_unit_cube_is_the_restriction_of_its_complex(n):
    for mode in modes(n, seed=90 + n):
        seen = 0
        for S, cube in unit_cubes(n, n + 1, mode):
            full = build_complex(n, len(S), mode)
            e_S = tuple(int(a in S) for a in range(1, n + 1))
            for i, basis in enumerate(full.bases):
                on_cube = [(I, r) for I, r in basis if tuple(int(a in I) + b for a, b in zip(range(1, n + 1), r)) == e_S]
                assert sorted(cube.bases[i]) == sorted(on_cube), (mode, S, i)
            for i in range(1, len(S) + 1):
                rows = [full.bases[i].index(key) for key in cube.bases[i]]
                cols = [full.bases[i - 1].index(key) for key in cube.bases[i - 1]]
                assert cube.maps[i] == [[full.maps[i][r][c] for c in cols] for r in rows], (mode, S, i)
            seen += 1
        assert seen == 2**n - 1, mode


def _invert_prepend(monkeypatch):
    prepend = QuantumSpace.affine_prepend

    def inverted(self, j, m):
        c, r = prepend(self, j, m)
        return c.inv(), r

    monkeypatch.setattr(QuantumSpace, "affine_prepend", inverted)


def _square_prepend(monkeypatch):
    prepend = QuantumSpace.affine_prepend

    def squared(self, j, m):
        c, r = prepend(self, j, m)
        return c * c, r

    monkeypatch.setattr(QuantumSpace, "affine_prepend", squared)


def _change_weights(sequences, change):
    def apply(monkeypatch):
        weight = QuantumSpace.exterior_weight

        def changed(self, indices):
            w = weight(self, indices)
            return change(self.mode, w) if tuple(indices) in sequences else w

        monkeypatch.setattr(QuantumSpace, "exterior_weight", changed)

    return apply


# w((2), 1) sits on the edge ({1,2}, r) -> ({2}, r + e_1) of every cube on a
# support holding 1 and 2, w((), 1) on the edge ({1}, r) -> ((), r + e_1) of
# every cube on a support holding 1: h divides by both
CONTROLS = {
    "intact": lambda monkeypatch: None,
    "prepend inverted": _invert_prepend,
    "prepend squared": _square_prepend,
    "weight (2,1) times q_12": _change_weights({(2, 1)}, lambda mode, w: w * mode.q(1, 2)),
    "cube edge (2,1) zeroed": _change_weights({(2, 1)}, lambda mode, w: mode.zero()),
    # the two edges of the two-cube control: d o d = 0 still holds on every
    # cube of size <= 2, so only the certificate fails there
    "cube edges (2,1) and (1) zeroed": _change_weights({(2, 1), (1,)}, lambda mode, w: mode.zero()),
}
# a factor on the triple (2, 3, 1) alone: it sits on the edges of letter 1
# out of J = {1, 2, 3}, so only cubes on supports holding 1, 2 and 3 see it
TRIPLE_ONLY = _change_weights({(2, 3, 1)}, lambda mode, w: w * mode.q(1, 2))
ELLS = range(1, 7)


def cube_sweep(n, ells, mode) -> list:
    """(d o d = 0, certified) for each K^l in ``ells``, from every unit cube
    e_S with |S| <= l: the sweep before the pair reduction."""
    d2: dict = {}  # by |S|: whether d o d = 0 on every cube of that size
    certified: dict = {}  # by |S|: whether the homotopy certifies every one
    for S, cube in unit_cubes(n, max(ells), mode):
        k = len(S)
        d2[k] = composites_vanish(cube) and d2.get(k, True)
        certified[k] = check_exactness(cube).conclusive and certified.get(k, True)
    return [
        (all(v for k, v in d2.items() if k <= ell), all(v for k, v in certified.items() if k <= ell))
        for ell in ells
    ]


def full_route(n, mode) -> list:
    """(d o d = 0, certified) for each K^l, l in ELLS, from the full complex."""
    out = []
    for ell in ELLS:
        complex = build_complex(n, ell, mode)
        out.append((composites_vanish(complex), check_exactness(complex).conclusive))
    return out


def koszul_argv(n, mode) -> list:
    argv = ["koszul", "--n", str(n), "--degree", str(max(ELLS)), "--params", mode.kind, "--output", "json"]
    if mode.kind == "numeric":
        argv += ["--q-assign", ";".join(f"{i},{j}={v}" for (i, j), v in mode.assignment.items())]
    return argv


@pytest.mark.parametrize("control", list(CONTROLS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_the_cube_route_matches_the_full_route(monkeypatch, n, control):
    CONTROLS[control](monkeypatch)
    for mode in modes(n, seed=70 + n):
        expected = full_route(n, mode)
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(koszul_argv(n, mode))
        results = json.loads(out.getvalue())["results"]
        assert [(r["d_squared_zero"], r["conclusive"]) for r in results] == expected, mode
        verdict = all(d2 for d2, _ in expected) if all(c for _, c in expected) else None
        assert code == EXIT_CODES[verdict], mode
        # every control breaks the complex, but n = 1 has no q and no edge
        # (2,1), only the edge (1)
        two_edges = control == "cube edges (2,1) and (1) zeroed"
        assert (verdict is True) == (control == "intact" or n == 1 and not two_edges), mode
        if two_edges:
            assert (True, False) in expected, mode


@pytest.mark.parametrize("control", list(CONTROLS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_the_pair_sweep_matches_the_cube_reference(monkeypatch, n, control):
    CONTROLS[control](monkeypatch)
    ells = range(1, n + 2)
    for mode in modes(n, seed=50 + n):
        assert support_sweep(n, ells, mode) == cube_sweep(n, ells, mode), mode


def test_a_weight_on_a_triple_alone_is_invisible_to_the_pairs(monkeypatch):
    n, ells = 3, range(1, 5)
    TRIPLE_ONLY(monkeypatch)
    for mode in modes(n, seed=53):
        assert pair_product_failures(QuantumSpace(n, mode)) == [((2, 3), 1)], mode
        assert support_sweep(n, ells, mode) == [(True, True)] * 4, mode
        # the pairs pass, the triple fails both checks from K^3 on
        assert cube_sweep(n, ells, mode) == [(True, True)] * 2 + [(False, False)] * 2, mode


def test_the_benchmark_report_is_byte_identical_to_the_full_route():
    n, degree, mode = 4, 5, ParamMode.multi(4)
    results = []
    for ell in range(1, degree + 1):
        complex = build_complex(n, ell, mode)
        entry = check_exactness(complex).to_jsonable()
        entry["d_squared_zero"] = composites_vanish(complex)
        entry["euler_characteristic"] = euler_characteristic(n, ell)
        results.append(entry)
    config = {"n": n, "params": "multi", "seed": 1, "degree": degree}
    report = {"command": "koszul", "config": config, "results": results, "pass": True}
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["koszul", "--n", "4", "--degree", "5", "--seed", "1", "--output", "json"]) == 0
    assert out.getvalue() == json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
