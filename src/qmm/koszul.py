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

Exactness is certified by a contracting homotopy (Priddy).  The complex
splits by alpha = e_J + r into Boolean cubes on supp alpha with unit edges.
With j0 = min supp alpha, h(I, r) is (I + j0, r - e_j0) over the entry of d
between the two when j0 is not in I, and 0 otherwise.  dh + hd = id makes
every cycle z equal to d(hz), so with d o d = 0 the complex is exact over
the Laurent ring itself, which is stronger than a rank over its fraction
field.  The certificate is one-sided: an exact complex with a zero or
non-unit entry on an edge h divides by fails it, as inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cache
from itertools import combinations

from .param_ring import ParamMode
from .quantum_spaces import QuantumSpace
from .right_quantum import IdealOracle, add_products, packed_triples


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


def _columns(matrix, width: int) -> list:
    """Each column's nonzero entries as (row, scalar) pairs.

    The maps are dense and mostly zero, so this tests the term dicts
    directly rather than calling ``__bool__`` once per entry.
    """
    columns: list = [[] for _ in range(width)]
    for r, row in enumerate(matrix):
        for c, x in enumerate(row):
            if x.terms:
                columns[c].append((r, x))
    return columns


def composites_vanish(complex: KoszulComplex) -> bool:
    """d o d = 0 as an exact identity over the coefficient ring.

    The differentials are sparse, so each column of d_{i-1} meets only the
    nonzero entries of the columns of d_i its own nonzero entries select.
    Each map is scanned once, as it stands, never from a cached copy.
    """
    zero = complex.mode.zero()
    dims = complex.dims
    lower = _columns(complex.maps[1], dims[0]) if complex.ell >= 2 else None
    for i in range(2, complex.ell + 1):
        upper = _columns(complex.maps[i], dims[i - 1])
        for column in lower:
            acc: dict = {}
            for k, b in column:
                for r, a in upper[k]:
                    acc[r] = acc.get(r, zero) + a * b
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
    """The exactness verdict on one complex: ``conclusive`` when the
    contracting homotopy certified it, and the homology is then zero at
    every position.  Otherwise nothing is known and ``homology`` is None."""

    n: int
    ell: int
    dims: list[int]
    conclusive: bool

    @property
    def homology(self) -> list | None:
        return [0] * (self.ell + 1) if self.conclusive else None

    def to_jsonable(self):
        return {**asdict(self), "homology": self.homology}


def _homotopy_certifies(complex: KoszulComplex) -> bool:
    """dh + hd = id on every basis vector of every component, exactly, with
    each entry h divides by read from the maps as they stand."""
    bases, maps, ell, dims = complex.bases, complex.maps, complex.ell, complex.dims
    zero, one = complex.mode.zero(), complex.mode.one()
    h: list = [[None] * dims[0]]  # h[i][p]: (position in component i - 1, coefficient) or None
    for i in range(1, ell + 1):
        index = {key: pos for pos, key in enumerate(bases[i - 1])}
        h.append([])
        for p, (I, r) in enumerate(bases[i]):
            j0 = next(k for k, e in enumerate(r, 1) if e)  # r is nonzero for i >= 1
            if I and I[0] <= j0:  # min supp(e_I + r) lies in I: h vanishes
                h[i].append(None)
                continue
            t = index[((j0,) + I, r[:j0 - 1] + (r[j0 - 1] - 1,) + r[j0:])]
            try:
                h[i].append((t, maps[i][p][t].inv()))
            except ValueError:  # zero, or not a unit of the coefficient ring
                return False
    columns = [None] + [_columns(maps[i], dims[i - 1]) for i in range(1, ell + 1)]
    for i in range(ell + 1):
        for p in range(dims[i]):
            acc: dict = {}
            if h[i][p] is not None:  # d(h(v))
                t, s = h[i][p]
                for row, x in columns[i][t]:
                    acc[row] = acc.get(row, zero) + x * s
            if i < ell:  # h(d(v))
                for row, x in columns[i + 1][p]:
                    if h[i + 1][row] is not None:
                        t, s = h[i + 1][row]
                        acc[t] = acc.get(t, zero) + x * s
            if acc.pop(p, zero) != one or any(acc.values()):
                return False
    return True


def check_exactness(complex: KoszulComplex) -> ExactnessReport:
    """Certify exactness by the contracting homotopy of the module docstring."""
    return ExactnessReport(complex.n, complex.ell, complex.dims, _homotopy_certifies(complex))


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
