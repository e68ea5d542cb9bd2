"""The K^1 and K^2 route of ``qmm koszul`` against the full complexes.

``support_sweep`` decides d o d = 0 and the homotopy certificate of K^l on
K^min(l, 2), which holds the cubes of the singleton and pair supports,
instead of on K^l.  The reduction rests on two hypotheses about the closed
form: the factor c_j(r) of x_j x^r is a unit-valued character of r, and
the exterior weight w(I + (j,)) with I sorted is the product of the pair
weights w((i, j)).  The first two tests check them.  The full route
(``build_complex``, ``composites_vanish`` and ``check_exactness`` on every
K^l, so on every cube) is the reference for the sweep and for the CLI's
verdicts, exit codes and bytes, on the intact closed form and on closed
forms perturbed so that the checks fail.  A weight perturbed on a triple
alone breaks the pair product; K^1 and K^2 cannot see it, and the
hypothesis test and the full route must.  A recorder pins the route: the
CLI builds K^1 and K^2 at most once each, whatever l.
"""

import io
import json
from contextlib import redirect_stdout
from itertools import combinations, product

import pytest
from test_coaction_reference import modes

from qmm import ParamMode, QuantumSpace, build_complex, check_exactness, composites_vanish, euler_characteristic
from qmm.cli import EXIT_CODES, main
from qmm.koszul import support_sweep


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


def full_route(n, mode, ells=ELLS) -> list:
    """(d o d = 0, certified) for each K^l in ``ells``, from the full complex."""
    out = []
    for ell in ells:
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
    # the full complexes hold every cube; at n = 6 the one-parameter mode,
    # the cheapest, runs through K^7, whose cubes reach every support size,
    # and the other two through K^3
    CONTROLS[control](monkeypatch)
    for mode in modes(n, seed=50 + n):
        ells = range(1, n + 2) if n < 6 or mode.kind == "single" else range(1, 4)
        assert support_sweep(n, ells, mode) == full_route(n, mode, ells), mode


def test_a_weight_on_a_triple_alone_is_invisible_to_the_pairs(monkeypatch):
    n, ells = 3, range(1, 5)
    TRIPLE_ONLY(monkeypatch)
    for mode in modes(n, seed=53):
        assert pair_product_failures(QuantumSpace(n, mode)) == [((2, 3), 1)], mode
        assert support_sweep(n, ells, mode) == [(True, True)] * 4, mode
        # K^1 and K^2 pass, the triple fails both checks from K^3 on
        assert full_route(n, mode, ells) == [(True, True)] * 2 + [(False, False)] * 2, mode


@pytest.mark.parametrize("selection,built", [(["--degree", "16"], [1, 2]), (["--ell", "7"], [2])])
def test_the_sweep_builds_k1_and_k2_once_each(monkeypatch, selection, built):
    calls = []
    build = build_complex

    def recorder(n, ell, mode):
        calls.append((n, ell))
        # fail before building: K^16 at n = 16 would not fit in memory
        assert ell <= 2, f"the sweep built K^{ell}"
        return build(n, ell, mode)

    monkeypatch.setattr("qmm.koszul.build_complex", recorder)
    with redirect_stdout(io.StringIO()):
        assert main(["koszul", "--n", "16", *selection]) == 0
    assert calls == [(16, ell) for ell in built]


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
