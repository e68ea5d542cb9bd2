"""Koszul complexes of quantum affine space, with exactness certification.

The degree-l complex runs

    0 -> A!*_l -> A!*_{l-1} (x) A_1 -> ... -> A!*_1 (x) A_{l-1} -> A_l -> 0,

with component bases (wedge subset J) x (PBW multidegree r).  The
differential detaches the last tensor factor of each wedge word into the
affine side.  The words of wedge(J) that end in x_j are exactly
wedge(J - j) x_j, scaled by the exterior weight of the sequence
(J - j sorted, then j), which is the product of (-q_ja)^{-1} over a in J
with a > j; and x_j x^r = c_j(r) x^{r + e_j} in A with c_j(r) the product
of q_kj^{r_k} over k < j.  So the differential is, in closed form,

    d(J (x) x^r) = sum over j in J of w(J - j, j) c_j(r) (J - j) (x) x^{r + e_j},

with |J| nonzero entries per column.

Choosing the *last* factor matches the inclusion
A!*_{m+1} (x) V^{(n-1)} -> A!*_m (x) V^{(n)} that induces the differential:
the map is the identity on the underlying tensor words, only the grouping
moves.  That reading is validated rather than assumed: d o d = 0 holds as an
exact matrix identity over the Laurent ring and the complexes are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .param_ring import ParamMode
from .quantum_spaces import QuantumSpace
from .right_quantum import (
    IdealOracle,
    add_products,
    new_echelon,
    packed_triples,
    to_vector,
    verdict_rings,
)


@dataclass
class KoszulComplex:
    """Explicit bases and differential matrices for one complex K^{l,*}.

    ``bases[i]`` lists the (subset, multidegree) pairs spanning the component
    with affine degree i; ``maps[i]`` (1 <= i <= l) is the matrix of the
    differential into that component, rows indexed by ``bases[i]``.
    """

    n: int
    ell: int
    mode: ParamMode
    bases: list
    maps: list

    @property
    def dims(self) -> list[int]:
        return [len(b) for b in self.bases]


def build_complex(n: int, ell: int, mode: ParamMode) -> KoszulComplex:
    if ell < 1:
        raise ValueError("need ell >= 1")
    space = QuantumSpace(n, mode)
    bases = []
    for i in range(ell + 1):
        m = ell - i
        subsets = list(combinations(range(1, n + 1), m)) if m <= n else []
        bases.append([(J, r) for J in subsets for r in space.affine_basis(i)])
    zero = mode.zero()  # shared by every empty entry: scalars are immutable
    maps: list = [None]
    for i in range(1, ell + 1):
        domain, codomain = bases[i - 1], bases[i]
        index = {key: pos for pos, key in enumerate(codomain)}
        matrix = [[zero] * len(domain) for _ in codomain]
        for col, (J, r) in enumerate(domain):
            for j in J:
                I = tuple(a for a in J if a != j)
                c, r2 = space.affine_prepend(j - 1, r)
                matrix[index[(I, r2)]][col] = space.exterior_weight(I + (j,)) * c
        maps.append(matrix)
    return KoszulComplex(n, ell, mode, bases, maps)


def _sparse_rows(matrix) -> list:
    """Each row's nonzero entries as (column, scalar) pairs.

    The maps are dense and mostly zero, so this tests the term dicts
    directly rather than calling ``__bool__`` once per entry.
    """
    return [[(c, x) for c, x in enumerate(row) if x.terms] for row in matrix]


def composites_vanish(complex: KoszulComplex) -> bool:
    """d o d = 0 as an exact identity over the coefficient ring.

    The differentials are sparse, so each row of d_i meets only the nonzero
    entries of the rows of d_{i-1} its own nonzero entries select.  Each map
    is scanned once, as it stands, never from a cached copy.
    """
    zero = complex.mode.zero()
    lower = _sparse_rows(complex.maps[1]) if complex.ell >= 2 else None
    for i in range(2, complex.ell + 1):
        upper = _sparse_rows(complex.maps[i])
        for row in upper:
            acc: dict = {}
            for k, a in row:
                for c, b in lower[k]:
                    acc[c] = acc.get(c, zero) + a * b
            if any(acc.values()):
                return False
        lower = upper
    return True


def euler_characteristic(n: int, ell: int) -> int:
    """Alternating sum of the component dimensions; 0 for every ell >= 1."""
    total = 0
    for i in range(ell + 1):
        dim = math.comb(n, ell - i) * math.comb(n + i - 1, i)
        total += dim if i % 2 == 0 else -dim
    return total


# ---------------------------------------------------------------------------
# exactness


@dataclass
class ExactnessReport:
    """Per-position ranks and homology dimensions of one complex.

    ``conclusive`` is False when rational specializations disagreed on a rank;
    that outcome is surfaced, never resolved silently.
    """

    n: int
    ell: int
    dims: list[int]
    ranks: list | None
    homology: list | None
    mode: str
    seed: int | None
    conclusive: bool

    @property
    def is_exact(self) -> bool:
        return self.conclusive and all(h == 0 for h in self.homology)

    def to_jsonable(self):
        return {
            "n": self.n,
            "ell": self.ell,
            "dims": self.dims,
            "ranks": self.ranks,
            "homology": self.homology,
            "mode": self.mode,
            "seed": self.seed,
            "conclusive": self.conclusive,
        }


def _rank(rows, assignment) -> int:
    """Rank of a scalar matrix given by ``_sparse_rows``, over the Laurent
    ring for ``assignment`` None, else over Q at that specialization.

    The whole map is specialized in one ``to_vector`` call over (row,
    column) keys, so it shares one minimum exponent and each distinct
    exponent tuple is evaluated once; that rescales the map uniformly by a
    unit and changes no rank.
    """
    entries = to_vector((((r, c), x) for r, row in enumerate(rows) for c, x in row), assignment)
    vectors: dict = {}
    for (r, c), x in entries.items():
        vectors.setdefault(r, {})[c] = x
    basis = new_echelon(assignment)
    for vec in vectors.values():
        basis.insert(vec)
    return basis.rank


def check_exactness(
    complex: KoszulComplex,
    exact: bool = False,
    seed: int = 0,
    draws: int = 3,
) -> ExactnessReport:
    """Rank every differential and report homology dimensions.

    Exact mode eliminates fraction-free over the Laurent ring; otherwise the
    ranks are computed over ``draws`` rational specializations which must all
    agree.
    """
    dims = complex.dims
    exact, assignments = verdict_rings(complex.mode, exact, seed, draws)
    mode_str, seed_used = ("exact", None) if exact else (f"specialize(draws={draws})", seed)
    maps = [_sparse_rows(complex.maps[i]) for i in range(1, complex.ell + 1)]
    per_draw = [[_rank(rows, a) for rows in maps] for a in assignments]
    if any(r != per_draw[0] for r in per_draw[1:]):
        return ExactnessReport(
            complex.n, complex.ell, dims, None, None, mode_str, seed_used, conclusive=False
        )
    ranks = per_draw[0]
    bordered = [0] + ranks + [0]
    homology = [dims[i] - bordered[i] - bordered[i + 1] for i in range(complex.ell + 1)]
    return ExactnessReport(
        complex.n, complex.ell, dims, ranks, homology, mode_str, seed_used, conclusive=True
    )


# ---------------------------------------------------------------------------
# comodule compatibility of the differential


def comodule_compat_check(n: int, ell: int, oracle: IdealOracle) -> bool:
    """Whether coaction-then-differential and differential-then-coaction agree
    on every basis vector, coefficientwise modulo the relation ideal.

    Both routes are expanded over the codomain's underlying tensor pairs
    (x-word of the wedge leg, affine multidegree), where the coaction of the
    wedge leg is the free-level tensor coaction and the affine leg coacts
    through its normalized coefficients.  Every coefficient involved is a
    monomial, so both routes are summed straight into one difference of
    flat coefficients, {pair: {z-word: {packed exponent: coefficient}}},
    and each pair's difference is one ``contains_packed`` query.
    """
    mode = oracle.mode
    space = QuantumSpace(n, mode)
    complex = build_complex(n, ell, mode)

    def flat(family: dict) -> dict:
        return {key: packed_triples(p) for key, p in family.items()}

    # each coaction once per call; both caches go with the call
    affine = cache(lambda r: flat(space.coaction_affine(r)))
    tensor = cache(lambda J: flat(space.coaction_tensor_poly(space.wedge_expand(J))))
    for i in range(1, ell + 1):
        domain, codomain = complex.bases[i - 1], complex.bases[i]
        matrix = complex.maps[i]
        for col, (J, r) in enumerate(domain):
            diff: dict = {}
            affine_family = affine(r)
            for w4, left in tensor(J).items():
                prefix, last = w4[:-1], w4[-1]
                for r4, right in affine_family.items():
                    c, r3 = space.affine_prepend(last, r4)
                    add_products(diff.setdefault((prefix, r3), {}), left, right, c.packed().items())
            for row, (I, r2) in enumerate(codomain):
                alpha = matrix[row][col]
                if alpha.is_zero():
                    continue
                scale = (-alpha).packed().items()
                affine_i = affine(r2)
                for w, left in tensor(I).items():
                    for r3, right in affine_i.items():
                        add_products(diff.setdefault((w, r3), {}), left, right, scale)
            for terms in diff.values():
                if any(terms.values()) and not oracle.contains_packed(terms):
                    return False
    return True
