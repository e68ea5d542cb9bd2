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

Each map is stored sparse, as a list of ``SparseRow``: a row keeps only its
nonzero entries, {column: scalar}, and still reads and assigns like a
dense list (``maps[i][r][k]``).  d o d = 0, dh + hd = id and the comodule
check read only the stored entries, so their cost follows the |J| entries
per column rather than rows times columns, and an entry assigned in place
is seen by every check as it stands.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cache
from itertools import combinations

from .param_ring import ParamMode
from .quantum_spaces import QuantumSpace
from .right_quantum import IdealOracle, add_products, packed_triples


class SparseRow:
    """One row of a differential: its nonzero entries by column, read and
    assigned like a list of ``width`` scalars whose other entries are zero.

    ``entries`` holds {column: nonzero scalar} and is what the checks read,
    so a row costs its nonzero entries, not its width.  ``row[k]`` reads
    ``zero`` where nothing is stored, ``row[k] = x`` stores x or, for a zero
    x, removes the entry, and iterating yields all ``width`` entries in
    column order.  A column outside 0..width-1 raises ``IndexError``.
    """

    __slots__ = ("width", "zero", "entries")

    def __init__(self, width: int, zero, entries=None):
        self.width = width
        self.zero = zero
        self.entries = {} if entries is None else entries

    def _column(self, k: int) -> int:
        if not 0 <= k < self.width:
            raise IndexError(f"column {k} outside a row of width {self.width}")
        return k

    def __len__(self) -> int:
        return self.width

    def __getitem__(self, k: int):
        return self.entries.get(self._column(k), self.zero)

    def __setitem__(self, k: int, value) -> None:
        if value:
            self.entries[self._column(k)] = value
        else:
            self.entries.pop(self._column(k), None)

    def __iter__(self):
        get, zero = self.entries.get, self.zero
        return (get(k, zero) for k in range(self.width))

    def __eq__(self, other):
        if isinstance(other, SparseRow):
            return self.width == other.width and self.entries == other.entries
        try:
            return len(other) == self.width and all(a == b for a, b in zip(self, other))
        except TypeError:
            return NotImplemented

    __hash__ = None

    def copy(self) -> "SparseRow":
        return SparseRow(self.width, self.zero, dict(self.entries))

    def __repr__(self):
        return f"SparseRow({self.width}, {self.entries!r})"


@dataclass
class KoszulComplex:
    """Explicit bases and differential matrices for one complex K^{l,*}.

    ``bases[i]`` lists the (subset, multidegree) pairs spanning the component
    with affine degree i; ``maps[i]`` (1 <= i <= l) is the matrix of the
    differential into that component, a list of ``SparseRow`` indexed by
    ``bases[i]``, with columns indexed by ``bases[i - 1]``.
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
    """The complex K^{ell,*} with its maps in the closed form of the module
    docstring, stored as ``SparseRow`` lists.

    Component i is ordered subset-major, so (I, r) sits at (position of I)
    * (number of multidegrees) + (position of r).  Each weight w(J - j, j)
    is computed once per (J, j) and each factor c_j(r) once per (j, r),
    and every entry is one product of the two.
    """
    if ell < 1:
        raise ValueError("need ell >= 1")
    space = QuantumSpace(n, mode)
    subsets = [list(combinations(range(1, n + 1), ell - i)) if ell - i <= n else [] for i in range(ell + 1)]
    affine = [space.affine_basis(i) for i in range(ell + 1)]
    bases = [[(J, r) for J in subsets[i] for r in affine[i]] for i in range(ell + 1)]
    zero = mode.zero()  # shared by every row: scalars are immutable
    maps: list = [None]
    for i in range(1, ell + 1):
        width = len(affine[i])
        position = {r: pos for pos, r in enumerate(affine[i])}
        # per multidegree r of the domain: (c_j(r), position of r + e_j) by letter j
        prepends = []
        for r in affine[i - 1]:
            factors = [space.affine_prepend(j, r) for j in range(n)]
            prepends.append([(c, position[r2]) for c, r2 in factors])
        offset = {I: pos * width for pos, I in enumerate(subsets[i])}
        rows = [SparseRow(len(bases[i - 1]), zero) for _ in bases[i]]
        col = 0
        for J in subsets[i - 1]:
            faces = []  # (letter id of j, offset of J - j, w(J - j, j)) for j in J
            for j in J:
                I = tuple(a for a in J if a != j)
                faces.append((j - 1, offset[I], space.exterior_weight(I + (j,))))
            for factors in prepends:
                for letter, base, w in faces:
                    c, pos = factors[letter]
                    # a unit times a unit, never zero, so it is stored as it is
                    rows[base + pos].entries[col] = w * c
                col += 1
        maps.append(rows)
    return KoszulComplex(n, ell, mode, bases, maps)


def _columns(matrix, width: int) -> list:
    """Each column's stored entries as (row, scalar) pairs."""
    columns: list = [[] for _ in range(width)]
    for r, row in enumerate(matrix):
        for c, x in row.entries.items():
            columns[c].append((r, x))
    return columns


def composites_vanish(complex: KoszulComplex) -> bool:
    """d o d = 0 as an exact identity over the coefficient ring.

    Row r of d_i o d_{i-1} is the sum over the stored entries (k, a) of row r
    of d_i of a times row k of d_{i-1}, so only stored entries meet.  Each
    map is read as it stands, never from a cached copy.
    """
    maps = complex.maps
    for i in range(2, complex.ell + 1):
        lower = maps[i - 1]
        for row in maps[i]:
            acc: dict = {}
            for k, a in row.entries.items():
                for c, b in lower[k].entries.items():
                    s = acc.get(c)
                    acc[c] = a * b if s is None else s + a * b
            if any(acc.values()):
                return False
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


def check_exactness(complex: KoszulComplex) -> ExactnessReport:
    """Certify exactness by the contracting homotopy of the module
    docstring: dh + hd = id on every component, exactly, with each entry h
    divides by read from the maps as they stand.

    (I + j0, r - e_j0) determines (I, r), since j0 is its smallest index, so
    h is injective: ``back[i][t] = (p, s)`` when h sends basis vector p of
    component i to s times basis vector t of component i - 1.  Row a of
    dh + hd is then read off the stored entries of row a of d_i and of the
    one row of d_{i+1} that h sends to a.
    """
    bases, maps, ell, dims = complex.bases, complex.maps, complex.ell, complex.dims
    zero, one = complex.mode.zero(), complex.mode.one()
    report = ExactnessReport(complex.n, ell, dims, conclusive=False)
    back: list = [{}]
    for i in range(1, ell + 1):
        index = {key: pos for pos, key in enumerate(bases[i - 1])}
        inverse: dict = {}
        for p, (I, r) in enumerate(bases[i]):
            j0 = next(k for k, e in enumerate(r, 1) if e)  # r is nonzero for i >= 1
            if I and I[0] <= j0:  # min supp(e_I + r) lies in I: h vanishes
                continue
            t = index[((j0,) + I, r[:j0 - 1] + (r[j0 - 1] - 1,) + r[j0:])]
            try:
                inverse[t] = (p, maps[i][p][t].inv())
            except ValueError:  # zero, or not a unit of the coefficient ring
                return report
        back.append(inverse)
    back.append({})  # no component above ell
    for i in range(ell + 1):
        for a in range(dims[i]):
            acc: dict = {}
            if i:  # d(h(v_p)) = s d(v_t)
                for t, x in maps[i][a].entries.items():
                    edge = back[i].get(t)
                    if edge is not None:
                        p, s = edge
                        y = acc.get(p)
                        acc[p] = x * s if y is None else y + x * s
            edge = back[i + 1].get(a)
            if edge is not None:  # h(d(v_p)), through the one row h sends to a
                b, s = edge
                for p, x in maps[i + 1][b].entries.items():
                    y = acc.get(p)
                    acc[p] = x * s if y is None else y + x * s
            if acc.pop(a, zero) != one or any(acc.values()):
                return report
    report.conclusive = True
    return report


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
    and each pair's difference is one ``contains_packed`` query.  ``n``
    must be the oracle's.
    """
    if n != oracle.n:
        raise ValueError(f"the complex is for n={n}, the oracle for n={oracle.n}")
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
        columns = _columns(complex.maps[i], len(domain))
        for col, (J, r) in enumerate(domain):
            diff: dict = {}
            affine_family = affine(r)
            for w4, left in tensor(J).items():
                prefix, last = w4[:-1], w4[-1]
                for r4, right in affine_family.items():
                    c, r3 = space.affine_prepend(last, r4)
                    add_products(diff.setdefault((prefix, r3), {}), left, right, c.terms.items())
            for row, alpha in columns[col]:
                I, r2 = codomain[row]
                scale = (-alpha).terms.items()
                affine_i = affine(r2)
                for w, left in tensor(I).items():
                    for r3, right in affine_i.items():
                        add_products(diff.setdefault((w, r3), {}), left, right, scale)
            for terms in diff.values():
                if any(terms.values()) and not oracle.contains_packed(terms):
                    return False
    return True
