"""The twisted identity through the twisted series, against ``verify_twisted``.

``verify_twisted`` builds no twisted series.  By the lemma of the
``macmahon`` module docstring, each degree's twisted residual is the image
of the plain one under the special torus point tau, with the same support
and the same verdict, so it decides the plain residual and checks the twist
exponents as integers.  This module keeps the torus action and the direct
route it replaced (``reference_verify_twisted``: multiply the twisted
series, compare each twisted coefficient with tau of the plain one, decide
the twisted residual) as the reference.  The controls are a twist exponent
off by one at a single m or a single J, and a quantum minor scaled by q.
"""

import json
from dataclasses import dataclass

import pytest

import qmm.macmahon
from qmm import (
    IdealOracle,
    NCPoly,
    ParamMode,
    ParamScalar,
    QuantumSpace,
    bos_series,
    ferm_series,
    qdet,
    twisted_bos_series,
    twisted_ferm_series,
    verify_twisted,
)
from test_cli import run


@dataclass(frozen=True)
class TorusElement:
    """A point (tau, tau') of the torus acting by z_i^j -> c_i d_j^{-1} z_i^j."""

    left: tuple[ParamScalar, ...]
    right: tuple[ParamScalar, ...]


def torus_act(g: TorusElement, p: NCPoly) -> NCPoly:
    """Rescale every word by the product of c_i d_j^{-1} over its letters.
    ``g`` must have n entries on each side for the n of ``p``."""
    z = p.alphabet
    if len(g.left) != z.n or len(g.right) != z.n:
        raise ValueError(
            f"torus point has {len(g.left)} x {len(g.right)} entries, polynomial is for n={z.n}"
        )
    right_inv = [d.inv() for d in g.right]
    terms = {}
    for word, coeff in p.terms.items():
        factor = p.mode.one()
        for letter in word:
            i, j = z.z_indices(letter)
            factor = factor * g.left[i - 1] * right_inv[j - 1]
        c = coeff * factor
        if not c.is_zero():
            terms[word] = c
    return NCPoly(z, p.mode, terms)


def special_torus(n: int, mode: ParamMode) -> TorusElement:
    """tau = (q^{n-1}, q^{n-3}, ..., q^{1-n}), tau' = 1 (one-parameter only)."""
    if mode.kind != "single":
        raise ValueError("the special torus point lives in one-parameter mode")
    q = mode.q(1, 2)
    left = tuple(q ** (n + 1 - 2 * i) for i in range(1, n + 1))
    right = tuple(mode.one() for _ in range(n))
    return TorusElement(left, right)


def residuals(bos, ferm, degree):
    """The coefficients of bos * ferm - 1 up to the degree."""
    prod = bos * ferm
    return [prod[0] - NCPoly.one(prod[0].alphabet, prod[0].mode)] + [prod[k] for k in range(1, degree + 1)]


def reference_verify_twisted(oracle: IdealOracle, degree: int) -> dict:
    """The direct route: each twisted coefficient must be tau of the plain
    one, and each twisted residual must lie in the ideal."""
    space = QuantumSpace(oracle.n, oracle.mode)
    tau = special_torus(space.n, space.mode)
    bos, ferm = bos_series(space, degree).body, ferm_series(space, degree).body
    tbos, tferm = twisted_bos_series(space, degree).body, twisted_ferm_series(space, degree).body
    results = []
    for k, residual in enumerate(residuals(tbos, tferm, degree)):
        match = torus_act(tau, bos[k]) == tbos[k] and torus_act(tau, ferm[k]) == tferm[k]
        results.append({
            "degree": k,
            "residual_terms_before_reduction": residual.support_size(),
            "twist_weights_match_torus": match,
            "pass": match and oracle.contains(residual),
        })
    return {"results": results, "pass": all(r["pass"] for r in results)}


CASES = [(1, 5), (2, 5), (3, 5), (4, 4)]


@pytest.mark.parametrize("n, degree", CASES)
def test_reference_route_matches_verify_twisted(n, degree):
    oracle = IdealOracle(n, ParamMode.single())
    report = verify_twisted(oracle, degree)
    assert report["pass"]
    assert report == reference_verify_twisted(oracle, degree)


@pytest.mark.parametrize("n, degree", CASES)
def test_twisted_residual_is_the_torus_image_of_the_plain_one(n, degree):
    mode = ParamMode.single()
    space = QuantumSpace(n, mode)
    tau = special_torus(n, mode)
    plain = residuals(bos_series(space, degree).body, ferm_series(space, degree).body, degree)
    twisted = residuals(twisted_bos_series(space, degree).body, twisted_ferm_series(space, degree).body, degree)
    for p, t in zip(plain, twisted):
        assert torus_act(tau, p) == t
        assert p.support_size() == t.support_size()


# ---------------------------------------------------------------------------
# controls


def _off_by_one(exponent, key):
    return lambda n, k: exponent(n, k) + (tuple(k) == key)


@pytest.mark.parametrize(
    "name, key, wrong_degree",
    [("bos_twist_exponent", (1, 0, 1), 2), ("bos_twist_exponent", (0, 3, 0), 3),
     ("ferm_twist_exponent", (2,), 1), ("ferm_twist_exponent", (1, 3), 2)],
)
def test_a_twist_exponent_off_at_one_key_fails_exactly_its_degree(monkeypatch, name, key, wrong_degree):
    n, degree = 3, 4
    oracle = IdealOracle(n, ParamMode.single())
    monkeypatch.setattr(f"qmm.macmahon.{name}", _off_by_one(getattr(qmm.macmahon, name), key))
    report = verify_twisted(oracle, degree)
    matches = [r["twist_weights_match_torus"] for r in report["results"]]
    assert matches == [k != wrong_degree for k in range(degree + 1)]
    assert [r["pass"] for r in report["results"]] == matches
    # the direct route sees the same wrong weights at the same degree
    assert [r["twist_weights_match_torus"] for r in reference_verify_twisted(oracle, degree)["results"]] == matches
    code, out, _ = run(["twisted", "--n", str(n), "--degree", str(degree), "--output", "json"])
    assert code == 1
    assert json.loads(out)["pass"] is False


def _first_failure(report):
    return next(r["degree"] for r in report["results"] if not r["pass"])


@pytest.mark.parametrize("subset", [(2,), (1, 3), (1, 2, 3)])
def test_a_scaled_minor_fails_verify_and_twisted_at_the_same_degree(monkeypatch, subset):
    def scaled(Z, J=None):
        det = qdet(Z, J)
        return det.scale(det.mode.q(1, 2)) if tuple(J) == subset else det

    monkeypatch.setattr("qmm.macmahon.qdet", scaled)
    first = []
    for argv in (["verify", "--params", "single"], ["twisted"]):
        code, out, _ = run(argv + ["--n", "3", "--degree", "4", "--output", "json"])
        assert code == 1
        first.append(_first_failure(json.loads(out)))
    assert first == [len(subset)] * 2
    assert _first_failure(reference_verify_twisted(IdealOracle(3, ParamMode.single()), 4)) == len(subset)

