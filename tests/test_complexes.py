import os
import random
import subprocess
import sys
from itertools import combinations, islice

import pytest

import morseres
from morseres.complexes import (
    LabeledComplex,
    SimplicialComplex,
    l2,
    n2_pairs,
    submasks,
    taylor,
)
from morseres.errors import CapacityError
from morseres.extremal import power_generators, single_relation
from morseres.monomials import Monomial, MonomialIdeal, VariableSet, packed_masks
from morseres.morse import _critical_cells_l2


def test_n2_pairs_order():
    assert n2_pairs(3) == ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
    assert len(n2_pairs(5)) == 15


def test_taylor_f_vectors():
    assert taylor(4).f_vector() == (1, 4, 6, 4, 1)
    assert taylor(1).facets == (taylor(1).mask([1]),)
    assert len([0, *taylor(3).faces()]) == 8
    for q in range(1, 7):
        assert sum(taylor(q).f_vector()) == 2**q


def test_l2_facets():
    cx = l2(4)
    facets = {cx.members(f) for f in cx.facets}
    block = tuple((i, j) for i in range(1, 5) for j in range(i + 1, 5))
    assert block in facets
    assert len(facets) == 5
    sizes = sorted(len(f) for f in facets)
    assert sizes == [4, 4, 4, 4, 6]


def test_l2_small_q():
    cx2 = l2(2)
    assert {cx2.members(f) for f in cx2.facets} == {
        ((1, 1), (1, 2)),
        ((1, 2), (2, 2)),
    }
    assert cx2.is_face([(1, 2)])
    cx1 = l2(1)
    assert [cx1.members(f) for f in cx1.facets] == [((1, 1),)]


def test_is_face_examples():
    cx = l2(4)
    assert cx.is_face([(1, 2), (1, 3), (2, 3)])
    assert not cx.is_face([(1, 1), (2, 3)])
    assert cx.is_face([])


def test_l2_face_counts_against_brute_force():
    # independent enumeration: subsets of the vertex list contained in a
    # literal facet list
    verts = n2_pairs(3)
    facets = [
        {(1, 2), (1, 3), (2, 3)},
        {(1, 1), (1, 2), (1, 3)},
        {(1, 2), (2, 2), (2, 3)},
        {(1, 3), (2, 3), (3, 3)},
    ]
    brute = set()
    for k in range(1, len(verts) + 1):
        for combo in combinations(verts, k):
            if any(set(combo) <= f for f in facets):
                brute.add(frozenset(combo))
    assert len(brute) == 19
    cx = l2(3)
    mine = {frozenset(cx.members(f)) for f in cx.faces()}
    assert mine == brute
    assert cx.f_vector() == (1, 6, 9, 4)


def test_l2_4_f_vector_and_face_count():
    cx = l2(4)
    assert cx.f_vector() == (1, 10, 27, 32, 19, 6, 1)
    assert sum(1 for _ in cx.faces()) == 95


def test_l2_5_vertex_count():
    assert l2(5).f_vector()[1] == 15


def test_l2_dimension_and_star_block_overlap():
    for q in range(3, 7):
        cx = l2(q)
        assert cx.dim == q * (q - 1) // 2 - 1
        block = cx.mask([(i, j) for i in range(1, q + 1) for j in range(i + 1, q + 1)])
        for i in range(1, q + 1):
            star = cx.mask([(min(i, j), max(i, j)) for j in range(1, q + 1)])
            overlap = cx.members(star & block)
            assert set(overlap) == {(min(i, j), max(i, j)) for j in range(1, q + 1) if j != i}


def test_facet_antichain_normalization():
    cx = SimplicialComplex("abc", ["ab", "a", "abc", "bc"])
    assert [cx.members(f) for f in cx.facets] == [("a", "b", "c")]


def test_faces_deterministic_and_deduplicated():
    cx = l2(3)
    listed = list(cx.faces())
    assert listed == sorted(set(listed), key=lambda x: (x.bit_count(), x))


def test_label_union_property():
    square = power_generators(3, single_relation(3), 2)
    cx = l2(3)
    labels = LabeledComplex(cx, square)
    faces = [0, *cx.faces()]
    for a in faces:
        for b in faces:
            if cx.is_face(a | b):
                assert labels.packed_label(a | b) == labels.packed_label(a) | labels.packed_label(b)


def test_labels_match_lcm_of_and_packed_labels():
    from morseres.monomials import lcm_of, packed_masks
    from morseres.sampling import random_ideals

    cases = [power_generators(4, single_relation(3), 2)]
    cases += [ideal.power(2) for ideal in random_ideals(5, q=4, s=3, seed=29)]
    cx = l2(4)
    for square in cases:
        labels = LabeledComplex(cx, square)
        gens = square.generators
        for f in [0, *cx.faces()]:
            expected = lcm_of(
                (gens[k] for k in range(len(gens)) if f >> k & 1), ring=square.ring
            )
            assert labels.packed_label(f) == packed_masks([expected])[0]


def or_of_vertex_masks(masks, face):
    """The label of ``face`` as the OR of its vertices' masks, one bit at a time."""
    label = 0
    for k, m in enumerate(masks):
        if face >> k & 1:
            label |= m
    return label


@pytest.mark.parametrize("cx", [taylor(1), taylor(2), taylor(5), l2(2)], ids=["1", "2", "5", "l2_2"])
def test_label_tables_split_at_every_vertex_count(cx):
    # one vertex leaves the low table empty; an odd count makes the high
    # table the larger one
    rng = random.Random(len(cx.vertices))
    ring = VariableSet("abcd")
    for _ in range(5):
        gens = [Monomial(ring, [rng.randint(0, 3) for _ in ring.names]) for _ in cx.vertices]
        labels = LabeledComplex(cx, MonomialIdeal(ring, gens))
        masks = packed_masks(gens)
        for f in [0, *cx.faces()]:
            assert labels.packed_label(f) == or_of_vertex_masks(masks, f), f


def test_labels_beyond_the_face_walk_bound():
    # l2(8) cannot list its faces, but its cells can still be labeled
    cx = l2(8)
    with pytest.raises(CapacityError):
        cx.f_vector()
    square = power_generators(8, single_relation(3), 2)
    labels = LabeledComplex(cx, square)
    masks = packed_masks(square.generators)
    for f in islice(_critical_cells_l2(8, 3), 20_000):
        assert labels.packed_label(f) == or_of_vertex_masks(masks, f)


def test_labeled_complex_needs_one_generator_per_vertex():
    ring = VariableSet("ab")
    with pytest.raises(ValueError):
        LabeledComplex(l2(3), MonomialIdeal(ring, [ring.parse("a")]))


def brute_force_faces(cx):
    """Every subset of every facet, sorted by (cardinality, mask)."""
    seen = set()
    for facet in cx.facets:
        bits = [1 << k for k in range(facet.bit_length()) if facet >> k & 1]
        for r in range(len(bits) + 1):
            for combo in combinations(bits, r):
                seen.add(sum(combo))
    return sorted(seen, key=lambda x: (x.bit_count(), x))


def random_complexes(count, seed=5):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 9)
        facets = [[v for v in range(n) if rng.random() < 0.5] for _ in range(rng.randint(1, 5))]
        yield SimplicialComplex(range(n), facets)


def test_face_list_equals_brute_force_enumeration():
    cases = [taylor(q) for q in range(1, 7)] + [l2(q) for q in range(1, 7)]
    for cx in cases + list(random_complexes(12)):
        expected = brute_force_faces(cx)
        assert [0, *cx.faces()] == expected
        # f_0 counts the empty face
        assert cx.f_vector() == tuple(
            sum(1 for f in expected if f.bit_count() == k) for k in range(cx.dim + 2)
        )


@pytest.mark.parametrize("facets, kept", [
    ([], 0),  # the void complex
    ([[]], 1),  # only the empty face
    ([[0, 1, 2], [2, 3, 4]], 2),  # two largest facets of equal size, overlapping
    ([[0, 2, 4], [1, 2, 3], [3, 4], [0, 5]], 4),  # overlapping facets of two sizes
    ([[0, 1, 2, 3], [1, 2], [2, 4]], 2),  # a dominated facet beside an overlapping one
    ([[1, 3, 5, 6], [0, 3, 5], [0, 1, 2, 4, 6], [4, 5]], 4),  # the largest given third
])
def test_face_list_from_the_largest_facet_equals_brute_force(facets, kept):
    cx = SimplicialComplex(range(7), facets)
    assert len(cx.facets) == kept
    assert list(cx.faces()) == [f for f in brute_force_faces(cx) if f]


def test_submasks_walks_every_subset_once():
    for mask in (0, 1, 0b1011, 0b110100):
        got = list(submasks(mask))
        assert len(got) == len(set(got)) == 2 ** mask.bit_count()
        assert all(sub & mask == sub for sub in got)
        assert got[0] == mask and got[-1] == 0


def test_l2_is_memoized():
    assert l2(4) is l2(4)
    assert l2(4) is not l2(5)


def test_import_leaves_l2_cache_empty():
    root = os.path.dirname(os.path.dirname(morseres.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import morseres; print(morseres.complexes.l2.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "0"
