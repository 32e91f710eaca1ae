from itertools import combinations, islice

import pytest

from morseres import relations
from morseres.complexes import n2_pairs
from morseres.errors import CapacityError
from morseres.extremal import power_generators, single_relation
from morseres.monomials import MonomialIdeal, VariableSet, packed_masks, subset_lcms
from morseres.morse import matching_l2
from morseres.relations import (
    BRUTE_FORCE_CEILING,
    DivRel,
    _held_nontrivial,
    _minimal_masks,
    _set_bits,
    all_relations,
    minimality_audit,
    predicted_minimal_square_relations,
    predicted_square_relations,
    relation_holds,
    square_relation_families,
    verify_square_characterization,
)
from morseres.sampling import random_ideals

R1 = VariableSet("abcdefg")
I1 = MonomialIdeal(R1, [R1.parse(t) for t in ("ab", "bcd", "aef", "cg")])
R2 = VariableSet("abcdef")
I2 = MonomialIdeal(R2, [R2.parse(t) for t in ("ab", "bcd", "aef", "ce")])


def pair_index(q):
    return {p: k + 1 for k, p in enumerate(n2_pairs(q))}


def test_divrel_basics():
    rel = DivRel(1, {2, 3})
    assert not rel.trivial
    assert DivRel(2, {1, 2}).trivial
    assert DivRel(1, {2, 3, 4}).extends(rel)
    assert not DivRel(2, {2, 3, 4}).extends(rel)
    assert DivRel.from_dict(rel.to_dict()) == rel
    with pytest.raises(ValueError):
        DivRel(1, set())


def test_relation_holds_examples():
    assert relation_holds(I1, DivRel(1, {2, 3}))
    assert relation_holds(I1, DivRel(2, {2}))
    assert not relation_holds(I1, DivRel(4, {2, 3}))
    with pytest.raises(ValueError):
        relation_holds(I1, DivRel(5, {1}))
    with pytest.raises(ValueError):
        relation_holds(I1, DivRel(1, {0, 2}))


def test_all_relations_i1():
    report = all_relations(I1)
    assert set(report.minimal) == {DivRel(1, frozenset({2, 3}))}
    assert report.trivial_count == 4 * 2**3
    assert sum(r.trivial for r in report.all) == report.trivial_count
    held = set(report.all)
    assert DivRel(1, frozenset({2, 3, 4})) in held


def test_all_relations_i2():
    report = all_relations(I2)
    assert set(report.minimal) == {
        DivRel(1, frozenset({2, 3})),
        DivRel(4, frozenset({2, 3})),
    }


def test_all_relations_variables_have_no_minimal():
    ring = VariableSet("abcd")
    ideal = MonomialIdeal(ring, [ring.parse(v) for v in "abcd"])
    report = all_relations(ideal)
    assert report.minimal == ()
    nontrivial = [r for r in report.all if not r.trivial]
    assert nontrivial == []


def test_all_relations_agree_with_relation_holds_on_a_square():
    square = I2.power(2).minimalize()
    held = set(all_relations(square).all)
    q = square.q
    for b in range(1, q + 1):
        for mask in range(1, 1 << q):
            rel = DivRel(b, {k + 1 for k in range(q) if mask >> k & 1})
            assert (rel in held) == relation_holds(square, rel), rel


def test_all_relations_capacity():
    ring = VariableSet("abcdefghijklmn")
    ideal = MonomialIdeal(ring, [ring.parse(v) for v in "abcdefghijklm"])
    with pytest.raises(CapacityError):
        all_relations(ideal)


def test_extension_closure_and_report_invariant():
    report = all_relations(I2)
    held = set(report.all)
    minimal = set(report.minimal)
    for rel in held:
        for extra in range(1, 5):
            assert DivRel(rel.b, rel.B | {extra}) in held
        if not rel.trivial and rel not in minimal:
            assert any(rel.extends(m) and rel != m for m in minimal)


def test_predicted_family_one_example():
    idx = pair_index(3)
    rels = predicted_square_relations(3)
    assert DivRel(idx[(1, 2)], {idx[(2, 2)], idx[(1, 3)]}) in rels


def test_predicted_family_3a_example():
    idx = pair_index(3)
    fam = square_relation_families(3, 3)
    expected = {
        DivRel(idx[(1, 1)], {idx[(1, 2)], idx[(1, 3)]}),
        DivRel(idx[(1, 1)], {idx[(1, 2)], idx[(3, 3)]}),
        DivRel(idx[(1, 1)], {idx[(2, 2)], idx[(1, 3)]}),
        DivRel(idx[(1, 1)], {idx[(2, 2)], idx[(3, 3)]}),
    }
    assert expected <= fam["3a"]


def test_predicted_family_4b_example():
    idx = pair_index(4)
    fam = square_relation_families(4, 3)
    for t2 in (4, 2):
        for t3 in (4, 3):
            rel = DivRel(
                idx[(1, 4)],
                {
                    idx[(min(2, t2), max(2, t2))],
                    idx[(min(3, t3), max(3, t3))],
                    idx[(4, 4)],
                },
            )
            assert rel in fam["4b"]


def test_predicted_relations_hold_on_extremal_squares():
    for q, s in ((3, None), (3, 3), (4, 3), (4, 4)):
        rels = single_relation(s) if s else ()
        square = power_generators(q, rels, 2)
        for rel in predicted_square_relations(q, s):
            assert relation_holds(square, rel), (q, s, rel)


def test_predicted_relations_hold_on_random_squares():
    for ideal in random_ideals(10, q=4, s=3, seed=7):
        square = ideal.power(2)
        for rel in predicted_square_relations(4, 3):
            assert relation_holds(square, rel), (ideal, rel)


@pytest.mark.parametrize(
    "q, s, scope, pairs_checked, holds_count",
    [
        (1, None, "taylor", 1, 0),
        (2, None, "taylor", 12, 1),
        (3, None, "taylor", 192, 48),
        (4, 3, "taylor", 5120, 2369),
        (3, 3, "l2", 36, 3),
        (4, 3, "l2", 272, 23),
        (4, 4, "l2", 272, 4),
        (5, 3, "l2", 5360, 560),
        (5, 4, "l2", 5360, 217),
        (5, 5, "l2", 5360, 5),
        (6, 3, "l2", 246432, 26916),
        (4, None, "l2", 272, 0),
        (6, None, "l2", 246432, 0),
        (6, 4, "l2", 246432, 13588),
        (6, 5, "l2", 246432, 5131),
        (6, 6, "l2", 246432, 6),
    ],
)
def test_characterization_sweep_counts(q, s, scope, pairs_checked, holds_count):
    report = verify_square_characterization(q, s, scope)
    assert (report.pairs_checked, report.holds_count, report.counterexamples) == (
        pairs_checked,
        holds_count,
        (),
    )


def test_characterization_reports_wrong_predictions_up_to_the_cap(monkeypatch):
    # predicting no relation misses every one that holds: 23 at (4, 3),
    # 560 at (5, 3) of which the first 32 are kept
    monkeypatch.setattr(relations, "predicted_square_relations", lambda q, s=None: frozenset())
    assert len(verify_square_characterization(4, 3, "l2").counterexamples) == 23
    assert len(verify_square_characterization(5, 3, "l2").counterexamples) == 32


@pytest.mark.parametrize("family, missed", [("3a", 4), ("3b", 32), ("4a", 32), ("4b", 8)])
def test_l2_characterization_reads_each_family(monkeypatch, family, missed):
    # the l2 sweep checks the paper's families themselves: without any one
    # of them, divisibilities that hold on faces of l2(5) go unpredicted
    families = relations.square_relation_families

    def without(q, s=None):
        return {k: v for k, v in families(q, s).items() if k != family}

    monkeypatch.setattr(relations, "square_relation_families", without)
    assert len(verify_square_characterization(5, 3, "l2").counterexamples) == missed


def test_taylor_characterization_reports_wrong_predictions_up_to_the_cap(monkeypatch):
    # the taylor sweeps read the families of the minimality audit: without
    # them every holding relation is missed, 1 at q = 2, 48 at q = 3 and
    # 2369 at (4, 3), of which the first 32 are kept
    monkeypatch.setattr(relations, "predicted_square_relations", lambda q, s=None: frozenset())
    assert len(verify_square_characterization(2, None, "taylor").counterexamples) == 1
    assert len(verify_square_characterization(3, None, "taylor").counterexamples) == 32
    assert len(verify_square_characterization(4, 3, "taylor").counterexamples) == 32


@pytest.mark.parametrize("q, s", [(q, s) for q in range(3, 7) for s in range(3, q + 1)])
def test_matching_pivots_are_predicted_relations(q, s):
    # each pivot sigma is matched through omega(sigma) because that pair
    # generator divides the label of sigma, a relation the paper predicts
    spec, _ = matching_l2(q, s)
    predicted = predicted_square_relations(q, s)
    for sigma in spec.order:
        B = {k + 1 for k in range(sigma.bit_length()) if sigma >> k & 1}
        assert DivRel(spec.omega[sigma] + 1, B) in predicted, (q, s, B)


def test_characterization_specific_instance():
    # the pair (1,1) against {(1,2),(1,3)} inside a star facet
    square = power_generators(4, single_relation(3), 2)
    idx = pair_index(4)
    assert relation_holds(square, DivRel(idx[(1, 1)], {idx[(1, 2)], idx[(1, 3)]}))


def test_characterization_capacity():
    with pytest.raises(CapacityError):
        verify_square_characterization(6, 3, "taylor")
    with pytest.raises(CapacityError):
        verify_square_characterization(7, 3, "l2")
    with pytest.raises(ValueError):
        verify_square_characterization(4, 3, "nope")


def test_minimality_audit_small():
    audit = minimality_audit(3, 3)
    assert audit.matches
    assert audit.brute_minimal == audit.predicted_minimal


def test_minimality_audit_dropped_instances():
    idx5 = pair_index(5)
    kept, dropped = predicted_minimal_square_relations(5, 5)
    extension = DivRel(
        idx5[(1, 2)], {idx5[(2, 3)], idx5[(3, 4)], idx5[(4, 5)], idx5[(2, 2)]}
    )
    base = DivRel(idx5[(1, 2)], {idx5[(2, 3)], idx5[(4, 5)], idx5[(2, 2)]})
    assert extension in dropped
    assert base in kept

    kept4, dropped4 = predicted_minimal_square_relations(5, 4)
    extension4 = DivRel(
        idx5[(1, 5)], {idx5[(2, 5)], idx5[(3, 3)], idx5[(4, 4)], idx5[(5, 5)]}
    )
    base4 = DivRel(idx5[(1, 5)], {idx5[(2, 5)], idx5[(3, 3)], idx5[(4, 4)]})
    assert extension4 in dropped4
    assert base4 in kept4


# (len(kept), len(dropped)) of predicted_minimal_square_relations(q, s)
MINIMAL_SPLIT = {
    (3, 3): (17, 2), (4, 3): (47, 17), (4, 4): (53, 39), (5, 3): (114, 40),
    (5, 4): (137, 179), (5, 5): (154, 556), (6, 3): (230, 71), (6, 4): (312, 463),
    (6, 5): (428, 2274), (6, 6): (522, 8545),
}


@pytest.mark.parametrize("q, s", sorted(MINIMAL_SPLIT))
def test_minimal_split_drops_exactly_the_4b_extensions(q, s):
    # a 4b relation is dropped iff some 4b or 3b relation with its b sits
    # on a proper subset of its B, looked up subset by subset here
    fam = square_relation_families(q, s)
    bases = fam["4b"] | fam["3b"]
    dropped = set()
    for r in fam["4b"]:
        members = sorted(r.B)
        for k in range(1, len(members)):
            if any(DivRel(r.b, sub) in bases for sub in combinations(members, k)):
                dropped.add(r)
                break
    kept = fam["1"] | fam["2"] | fam["3a"] | fam["3b"] | fam["4a"] | (fam["4b"] - dropped)
    assert predicted_minimal_square_relations(q, s) == (kept, dropped)
    assert (len(kept), len(dropped)) == MINIMAL_SPLIT[q, s]


def test_minimality_audit_capacity():
    with pytest.raises(CapacityError):
        minimality_audit(6, 3)


def test_report_serialization():
    report = all_relations(I1)
    data = report.to_dict()
    assert data["schema"] == 1
    assert {"b": 1, "B": [2, 3]} in data["minimal"]


def held_by_subset_lcms(ideal):
    """Per generator b, the nonempty subsets B of the others, as masks,
    whose lcm generator b divides: each read off a table of every
    subset's lcm."""
    masks = packed_masks(ideal.generators)
    table = subset_lcms(masks)
    return [
        {m for m in range(1, 1 << ideal.q) if not m >> b & 1 and not gen & ~table[m]}
        for b, gen in enumerate(masks)
    ]


def minimal_members(held):
    """Minimal members of an up-closed family of masks, by dropping
    each member's elements one at a time."""
    return sorted(m for m in held if not any(m ^ 1 << k in held for k in _set_bits(m)))


def sixteen_edges():
    # 16 edges of the complete graph on 7 vertices, square-free and minimal
    ring = VariableSet("abcdefg")
    edges = islice(combinations("abcdefg", 2), 16)
    return MonomialIdeal(ring, [ring.parse(a + b) for a, b in edges])


BITMAP_CASES = (
    [
        power_generators(q, single_relation(s), p)
        for q in range(3, 6)
        for s in range(3, q + 1)
        for p in (1, 2)
    ]
    + [ideal.power(2).minimalize() for ideal in random_ideals(200, q=4, s=3, seed=5)]
    + [I1.power(2).minimalize(), I2.power(2).minimalize(), sixteen_edges()]
    # a unit generator divides the lcm of every B, the empty one aside
    + [MonomialIdeal(R2, [R2.one(), R2.parse("a"), R2.parse("bc")])]
)


def test_subset_bitmaps_equal_the_subset_lcm_table():
    assert sixteen_edges().q == BRUTE_FORCE_CEILING
    for ideal in BITMAP_CASES:
        held, singles = _held_nontrivial(ideal, BRUTE_FORCE_CEILING)
        for got, want in zip(held, held_by_subset_lcms(ideal), strict=True):
            assert _set_bits(got) == sorted(want), ideal
            assert _set_bits(_minimal_masks(got, singles)) == minimal_members(want), ideal
