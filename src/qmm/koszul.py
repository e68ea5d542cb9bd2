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

Both verdicts on a cube depend only on its support S = supp alpha, so the
unit cube e_S, which lies in K^{|S|}, stands for every cube with support S.
Proof: write r = beta + e_{S - J} on the cube of alpha, with
beta = alpha - e_S fixed.  c_j is a unit-valued character of r, c_j(0) = 1
and c_j(r + s) = c_j(r) c_j(s) (``affine_prepend`` counts letters), so the
edge of letter j, from (J, r) to (J - j, r + e_j), is c_j(beta) times the
edge of letter j on the cube of e_S.  A term of d o d from (J, r) runs
along letters j and k in either order, so both terms carry
c_j(beta) c_k(beta), and their sum vanishes exactly when the sum on e_S
does (a unit cancels).  j0 = min S is the same on both cubes, so h picks
the same edges, and each is a unit exactly when its twin on e_S is.  A term
of dh + hd from v to u runs along one edge of d, of some letter k, and
against one edge of h, of letter j0, so it carries c_k(beta) / c_j0(beta),
which is 1 on the diagonal (k = j0); every entry is a unit times its twin
on e_S, and the diagonal is equal to it.  Every alpha with |alpha| = l has
|supp alpha| <= min(l, n), and every S with 1 <= |S| <= min(l, n) is the
support of some alpha in K^l, so K^l passes either check exactly when
every unit cube e_S with |S| <= l does.

Those cubes are in turn decided by the singletons and the pairs, so
``support_sweep`` builds only K^1 and K^2, which hold the cubes of every
support with |S| <= 2.  On e_S the edge of letter j leaves J (j in J)
with the entry e(J, j) = w(J - j, j) c_j(e_{S - J}).  A square
(J; a < b), a and b in J, has the two paths e(J, a) e(J - a, b) and
e(J, b) e(J - b, a) from J to J - a - b.

(a) d o d = 0 on a cube says that every square anticommutes: its two
paths sum to zero.  The homotopy needs a little more.  With x = min S,
h(J) for x not in J is (J + x) / e(J + x, x), so dh + hd = id says: the
edges of letter x are units (h divides by them), and every square
(J; x, j) anticommutes; the diagonal is then e / e = 1, and the entry at
J + x - j is that square's path sum over the unit e(J + x, x)
e(J + x - j, x).  So on a cube whose edges are units, anticommuting
squares give exactness.

(b) w(I + (j,)) for I sorted is the product of w((i, j)) over i in I:
``exterior_weight`` adds 1 to a pair's exponent per inversion, so it is
one factor (-q_ab)^{-1} per inversion; the inversions of I + (j,) are the
pairs (j, i) with i > j, and w((j,)) = 1.  With c_j a character, e(J, j)
is the product of w((i, j)) over i in J - j and of c_j(e_k) over k in
S - J, one pair factor per other index.  In the square (J; a < b) every
factor that involves a third index lies on both paths, so

    e(J, a) e(J - a, b)  =  common * w((b, a)) c_b(e_a),
    e(J, b) e(J - b, a)  =  common * w((a, b)) c_a(e_b),

with the same ``common``.  The two products after it are the two paths of
the one square of the pair cube e_{a,b}, where they are
(-q_ab)^{-1} q_ab = -1 and 1 * 1 = 1.  So every square of e_S
anticommutes when the square of each pair cube inside S does.  The edges
of letter x = min S are products of w((i, x)) and c_x(e_k), which are
edges h divides by on the pair cubes e_{x,i} and e_{x,k} (x is their
minimum too).  Hence e_S passes d o d = 0, or the homotopy check,
whenever every pair cube inside S passes it.  The pairs are cubes of K^l
for l >= 2, so K^l is decided by the n singletons and the C(n, 2) pairs,
and K^1 by the singletons.  K^1 is the sum of the singleton cubes e_a,
and K^2 of the pair cubes e_{a,b} and the cubes of 2 e_a, one on each
singleton support, so K^l passes either check exactly when K^min(l, 2)
does.  The pair product and the character are properties of the closed
form, not of a given q, and the tests check both; they also show that a
weight off the pair product (a factor on a triple alone) is invisible to
the pairs.

Each map is stored sparse, as a list of ``SparseRow``: a row keeps only its
nonzero entries, {column: scalar}, and still reads and assigns like a
dense list (``maps[i][r][k]``).  d o d = 0, dh + hd = id and the comodule
check read only the stored entries, so their cost follows the |J| entries
per column rather than rows times columns, and an entry assigned in place
is seen by every check as it stands.

The comodule check asks whether d commutes with the coaction of B, on
every basis vector (J, r), coefficientwise modulo the relation ideal I.
Both routes live over the codomain's tensor pairs (x-word w of the wedge
leg, affine multidegree r3): the wedge leg coacts by the free-level tensor
coaction, with L_I[w] the coefficient of wedge(I) at w, and the affine leg
through the coaction on x^r.  Expanding a column in full costs
|J|! n^|J| wedge words times the affine terms, so a column in the closed
form is certified instead.  Write D(r) for the coaction on x^r by target
multidegree, the words of ``coaction_affine(r)`` in the free algebra, and

    M_i(X) = sum over l of z_i^l (x) x_l X,    x_l x^m = c_l(m) x^{m + e_l},

with c_l(m) and the target read off ``affine_prepend``, and put

    E(j, r) = M_j(D(r)) - c_j(r) D(r + e_j).

Say E lies in I (x) A when its coefficient at every target does.  Let
omega_J,j be the coefficient of wedge(J) at the word sorted(J - j) j.  When

    (F)  wedge(J) = sum over j in J of omega_J,j wedge(J - j) x_j

holds in the free algebra, the free coaction, multiplicative on words,
gives L_J[w x_last] = sum over j of omega_J,j L_{J-j}[w] z_j^last.  When
also the stored rows of the column are exactly the closed form
{(J - j, r + e_j): omega_J,j c_j(r)}, the difference of the two routes at
(w, r3) regroups as

    Delta(w, r3) = sum over j in J of omega_J,j L_{J-j}[w] E(j, r)(r3).

I is two-sided, so the column passes once every E(j, r) lies in I (x) A.
On a valid complex every one does: every degree follows from degree 2,
because the coaction is multiplicative (Manin's end(A)).

Lemma.  Suppose that, up to degree l,
  (H1) D(0) = 1 (x) 1 and D(r) = M_i(D(r - e_i)) for i = min supp r,
       exactly in the free algebra;
  (H2) (C): E(j, e_i) lies in I (x) A for every i < j, the C(n, 2)
       elements of degree 2, which say that R_A is a subcomodule of V (x) V;
  (H3) c is a character: c_l(m) is the product of c_l(e_k)^{m_k} over k,
       with target m + e_l, and c_l(e_k) = 1 for k >= l.
Then E(j, r) lies in I (x) A for every j and every r with |r| < l.

Proof, by induction on |r|.  If r = 0, or j <= i = min supp r, then
min supp(r + e_j) = j, so D(r + e_j) = M_j(D(r)) by (H1), and c_j(r) = 1
by (H3), since r lives on indices k >= j: E(j, r) = 0.  Otherwise j > i;
put r' = r - e_i.  Then min supp(r + e_j) = i as well, so by (H1)

    E(j, r) = M_j M_i D(r') - c_j(r) M_i D(r' + e_j).

By (H3), M_j M_i (a (x) x^m) = sum over k, l of
c_k(m) c_l(m) c_k(e_l) z_j^k z_i^l a (x) x^{m + e_k + e_l}.  So at each
target m + e_k + e_l the difference M_j M_i X - c_j(e_i) M_i M_j X is the
coefficient of E(j, e_i) = M_j M_i D(0) - c_j(e_i) M_i M_j D(0) at
e_k + e_l, times the common scalar c_k(m) c_l(m), times a on the right:
it lies in I (x) A by (H2), since I is two-sided.  Next,
M_j D(r') = c_j(r') D(r' + e_j) + E(j, r'), where E(j, r') lies in
I (x) A by induction, and M_i maps I (x) A into itself, since it
multiplies on the left.  Hence, modulo I (x) A,

    E(j, r) = (c_j(e_i) c_j(r') - c_j(r)) M_i D(r' + e_j) = 0

by (H3).  So a column in the closed form with |r| < l passes, which is
what its full expansion would have said.  The check decides (H3) and (H1)
by building the factors and each M_i(D(r - e_i)) once and comparing, with
no normal form, and (H2) by expanding in full the C(n, 2) closed-form
columns ((j,), e_i), i < j, whose differences are the targets of
E(j, e_i); every other column is expanded in full.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cache
from itertools import combinations

from .free_algebra import NCPoly
from .param_ring import EXPONENT_LIMIT, ParamMode
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


def component_dims(n: int, ell: int) -> list[int]:
    """The dimensions of the components of K^{ell,*} in closed form:
    C(n, ell - i) subsets times C(n + i - 1, i) multidegrees."""
    return [math.comb(n, ell - i) * math.comb(n + i - 1, i) for i in range(ell + 1)]


def euler_characteristic(n: int, ell: int) -> int:
    """Alternating sum of the component dimensions; 0 for every ell >= 1."""
    return sum(-dim if i % 2 else dim for i, dim in enumerate(component_dims(n, ell)))


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


def support_sweep(n: int, ells, mode: ParamMode) -> list[tuple[bool, bool]]:
    """(d o d = 0, certified by the homotopy) for each K^ell in ``ells``,
    read off K^min(ell, 2): K^1 holds the cube of each singleton support,
    and K^2 the cube of every support S with |S| <= 2, which by the module
    docstring decides every K^ell with ell >= 2.  Each of K^1 and K^2 is
    built at most once and goes through ``composites_vanish`` and
    ``check_exactness``."""
    verdicts = {}
    for k in sorted({min(ell, 2) for ell in ells}):
        complex = build_complex(n, k, mode)
        verdicts[k] = (composites_vanish(complex), check_exactness(complex).conclusive)
    return [verdicts[min(ell, 2)] for ell in ells]


# ---------------------------------------------------------------------------
# comodule compatibility of the differential


def _face_weights(space: QuantumSpace, J: tuple) -> dict | None:
    """{J - j: (j, omega_J,j)} for j in J when (F) wedge(J) = sum over j in
    J of omega_J,j wedge(J - j) x_j holds exactly in the free algebra,
    omega_J,j read off wedge(J) at the word sorted(J - j) j; None when (F)
    fails."""
    x, mode = space.x, space.mode
    wedge = space.wedge_expand(J)
    rest = NCPoly.zero(x, mode)
    faces = {}
    for j in J:
        face = tuple(a for a in J if a != j)
        omega = wedge.coefficient_of(x.x_word(face + (j,)))
        rest = rest + space.wedge_expand(face) * NCPoly.monomial(x, mode, x.x_word((j,)), omega)
        faces[face] = (j, omega)
    return faces if rest == wedge else None


def _expand_column(oracle: IdealOracle, space: QuantumSpace, affine, tensor, J, r, rows) -> bool:
    """Whether every difference of the column (J, r) lies in the ideal, with
    both routes expanded over the codomain's tensor pairs (x-word of the
    wedge leg, affine multidegree): one ``contains_packed`` query per pair.
    ``rows`` holds the column's stored entries as ((I, r2), alpha)."""
    diff: dict = {}
    affine_family = affine(r)
    for w4, left in tensor(J).items():
        prefix, last = w4[:-1], w4[-1]
        for r4, right in affine_family.items():
            c, r3 = space.affine_prepend(last, r4)
            add_products(diff.setdefault((prefix, r3), {}), left, right, c.terms.items())
    for (I, r2), alpha in rows:
        scale = (-alpha).terms.items()
        affine_i = affine(r2)
        for w, left in tensor(I).items():
            for r3, right in affine_i.items():
                add_products(diff.setdefault((w, r3), {}), left, right, scale)
    return all(oracle.contains_packed(terms) for terms in diff.values() if any(terms.values()))


def _lemma_holds(space: QuantumSpace, ell: int, coaction, prepend, expand) -> bool:
    """Whether (H3), (H2) and (H1) of the multiplicativity lemma (module
    docstring) hold up to degree ``ell``: the factors of ``prepend`` form a
    character, ``expand`` passes each closed-form column ((j,), e_i),
    i < j, whose differences are the targets of E(j, e_i), and every
    ``coaction(r)`` with |r| <= ell is M_i of the one below it, exactly."""
    n, mode = space.n, space.mode
    one = mode.one()
    zero = (0,) * n

    def plus(m, k, step=1):
        return m[:k] + (m[k] + step,) + m[k + 1:]

    e = [plus(zero, k) for k in range(n)]  # e_k by letter id k

    # (H3), by induction on |m|: c_l(0) = 1, c_l(e_k) = 1 for k >= l, and
    # c_l(m) = c_l(m - e_i) c_l(e_i) for i = min supp m, each onto m + e_l
    for degree in range(ell):
        for m in space.affine_basis(degree):
            i = next((k for k, mk in enumerate(m) if mk), n)
            for l in range(n):
                c, target = prepend(l, m)
                if degree > 1:
                    expected = prepend(l, plus(m, i, -1))[0] * prepend(l, e[i])[0]
                else:  # c_l(e_i) for i < l is free
                    expected = one if i >= l else c
                if target != plus(m, l) or c != expected:
                    return False
    # (H2): (C), R_A is a subcomodule of V (x) V
    if ell >= 2:
        for i in range(n):
            for j in range(i + 1, n):
                c, target = prepend(j, e[i])
                if not expand((j + 1,), e[i], [(((), target), c)]):
                    return False

    # (H1): D(0) = 1 (x) 1 and D(r) = M_i(D(r - e_i)), i = min supp r
    def terms(r) -> dict:
        return {t: {w: c.terms for w, c in p.terms.items()} for t, p in coaction(r).items()}

    if terms(zero) != {zero: {b"": one.terms}}:
        return False
    for degree in range(1, ell + 1):
        for r in space.affine_basis(degree):
            i = next(k for k, rk in enumerate(r) if rk)
            built: dict = {}
            for m, p in coaction(plus(r, i, -1)).items():
                top = max((a.bound for a in p.terms.values()), default=0)
                for l in range(n):
                    c, target = prepend(l, m)
                    if len(c.terms) != 1 or top + c.bound >= EXPONENT_LIMIT:
                        return False  # a sum, or keys that could alias: not cleared
                    ((s, b),) = c.terms.items()
                    head = bytes([i * n + l])
                    built.setdefault(target, {}).update(
                        {head + w: {k + s: v * b for k, v in a.terms.items()} for w, a in p.terms.items()}
                    )
            if built != terms(r):
                return False
    return True


def comodule_compat_check(n: int, ell: int, oracle: IdealOracle) -> bool:
    """Whether coaction-then-differential and differential-then-coaction agree
    on every basis vector, coefficientwise modulo the relation ideal.

    A column (J, r) is cleared when (F) holds for J (``_face_weights``), its
    stored rows are exactly the closed form {(J - j, r + e_j):
    omega_J,j c_j(r)} for j in J, and the hypotheses of the multiplicativity
    lemma hold (``_lemma_holds``, at most once per call).  Every other
    column is expanded in full (``_expand_column``), so the verdict is True
    exactly when every difference lies in the ideal, with the maps read as
    they stand.  ``n`` must be the oracle's.
    """
    if n != oracle.n:
        raise ValueError(f"the complex is for n={n}, the oracle for n={oracle.n}")
    mode = oracle.mode
    space = QuantumSpace(n, mode)
    complex = build_complex(n, ell, mode)

    def flat(family: dict) -> dict:
        return {key: packed_triples(p) for key, p in family.items()}

    # each coaction, face split and the lemma once per call; the caches go
    # with the call
    coaction = cache(space.coaction_affine)
    affine = cache(lambda r: flat(coaction(r)))
    tensor = cache(lambda J: flat(space.coaction_tensor_poly(space.wedge_expand(J))))
    faces = cache(lambda J: _face_weights(space, J))
    prepend = cache(space.affine_prepend)

    def expand(J, r, rows) -> bool:
        return _expand_column(oracle, space, affine, tensor, J, r, rows)

    lemma = cache(lambda: _lemma_holds(space, ell, coaction, prepend, expand))

    def closed_form(J, r) -> dict | None:
        split = faces(J)
        if split is None:
            return None
        entries = {}
        for face, (j, omega) in split.items():
            c, target = prepend(j - 1, r)
            entries[face, target] = omega * c
        return entries

    for i in range(1, ell + 1):
        domain, codomain = complex.bases[i - 1], complex.bases[i]
        columns = _columns(complex.maps[i], len(domain))
        for col, (J, r) in enumerate(domain):
            rows = [(codomain[row], alpha) for row, alpha in columns[col]]
            if not (dict(rows) == closed_form(J, r) and lemma()) and not expand(J, r, rows):
                return False
    return True
