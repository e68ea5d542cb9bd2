"""B's relations read off A, against the relations typed out by hand.

``reference_relations`` is B's relation list as it was first written: the
n*C(n, 2) column relations followed by the C(n, 2)^2 cross relations of the
right-quantum matrix, spelled out term by term.  ``build_relations`` reads
them off quantum affine space instead, as the coefficients of the coaction
on A's relations (B = end(A)).  The two share no code, so matching one to
one up to a unit, with equal rewriting rules, checks that the B the oracle
decides in is exactly end(A).  A wrong count rule in A would still give a
consistent B, one that is end of the wrong A; the match against the
reference catches that, and so does the flipped-A control, whose oracle
rejects the master identity.
"""

import math

import pytest
from test_coaction_reference import modes

from qmm import IdealOracle, NCPoly, ParamMode, QuantumSpace, build_relations, verify_master
from qmm.free_algebra import Alphabet
from qmm.right_quantum import rewriting_rules


def column_relation(mode, n, i, j, l):
    """z_j^l z_i^l - q_ij z_i^l z_j^l, for i < j."""
    z = Alphabet("z", n)
    return NCPoly(z, mode, {z.z_word([(j, l), (i, l)]): mode.one(), z.z_word([(i, l), (j, l)]): -mode.q(i, j)})


def cross_relation(mode, n, i, j, k, l):
    """q_ij z_i^k z_j^l - q_kl z_j^l z_i^k - z_j^k z_i^l + q_kl q_ij z_i^l z_j^k,
    for i < j and k < l."""
    z = Alphabet("z", n)
    qij, qkl = mode.q(i, j), mode.q(k, l)
    return NCPoly(z, mode, {
        z.z_word([(i, k), (j, l)]): qij,
        z.z_word([(j, l), (i, k)]): -qkl,
        z.z_word([(j, k), (i, l)]): -mode.one(),
        z.z_word([(i, l), (j, k)]): qkl * qij,
    })


def reference_relations(n, mode):
    """Every column relation, then every cross relation."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    columns = [column_relation(mode, n, i, j, l) for l in range(1, n + 1) for i, j in pairs]
    return columns + [cross_relation(mode, n, i, j, k, l) for i, j in pairs for k, l in pairs]


def unit_mismatches(derived, reference) -> list:
    """The derived relations that are not a unit multiple of exactly one
    reference relation, each reference relation matched once; empty when
    the two lists match one to one up to a unit."""
    by_support = {frozenset(r.terms): r for r in reference}
    if len(by_support) != len(reference) or len(derived) != len(reference):
        return ["the counts or the supports differ"]
    bad = []
    for rel in derived:
        ref = by_support.pop(frozenset(rel.terms), None)
        if ref is None:
            bad.append(rel)
            continue
        lead = max(rel.terms)
        unit = rel.terms[lead] * ref.terms[lead].inv()
        if len(unit.terms) != 1 or ref.scale(unit) != rel:
            bad.append(rel)
    return bad


def rule_mismatches(derived, reference) -> list:
    """The leading words whose rules differ as sets of right-hand terms."""
    a, b = rewriting_rules(derived), rewriting_rules(reference)
    if a.exponent != b.exponent:
        return ["the rule exponents differ"]
    return [lead for lead in set(a) | set(b) if set(a.get(lead, ())) != set(b.get(lead, ()))]


@pytest.mark.parametrize("kind", [0, 1, 2], ids=["multi", "single", "numeric"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_derived_relations_match_the_hand_written_ones(n, kind):
    mode = modes(n, seed=400 + n)[kind]
    derived, reference = build_relations(n, mode), reference_relations(n, mode)
    assert len(derived) == math.comb(n, 2) * math.comb(n + 1, 2)
    assert unit_mismatches(derived, reference) == []
    assert rule_mismatches(derived, reference) == []


def flip_a(monkeypatch):
    """Quantum affine space with every q_ij inverted, x_j x_i = q_ij^{-1} x_i
    x_j: ``affine_normalize`` returns the inverse factor."""
    normalize = QuantumSpace.affine_normalize

    def flipped(self, word):
        c, m = normalize(self, word)
        return c.inv(), m

    monkeypatch.setattr(QuantumSpace, "affine_normalize", flipped)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", ["multi", "single"])
def test_an_oracle_derived_from_a_flipped_a_rejects_the_master_identity(monkeypatch, n, kind):
    # the control: B derived from the wrong A is end of that A, a consistent
    # algebra (its rules are still confluent), but not the B of the series
    mode = ParamMode.multi(n) if kind == "multi" else ParamMode.single()
    flip_a(monkeypatch)
    flipped = build_relations(n, mode)
    oracle = IdealOracle(n, mode)
    monkeypatch.undo()
    reference = reference_relations(n, mode)
    assert unit_mismatches(flipped, reference) != []
    assert rule_mismatches(flipped, reference) != []
    assert [r["pass"] for r in verify_master(oracle, 3)["results"]] == [True, True, False, False]
    assert verify_master(IdealOracle(n, mode), 3)["pass"]
