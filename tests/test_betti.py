import ast
import random
import time
from collections import Counter
from itertools import combinations, islice
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from morseres import betti
from morseres.betti import (
    _lane_covers,
    _lattice,
    _minimal_cover,
    _nerve_homology,
    exact_rank,
    gf2_rank,
    graded_betti,
    graded_betti_via_interval,
    homology_dims,
    pd_formula,
)
from morseres.complexes import LabeledComplex, SimplicialComplex, l2
from morseres.errors import CapacityError, NonMinimalIdealError
from morseres.extremal import extremal_generators, power_generators, single_relation
from morseres.monomials import (
    MonomialIdeal,
    VariableSet,
    bit_columns,
    lcm_of,
    packed_masks,
    packed_to_monomial,
    subset_lcms,
)
from morseres.morse import critical_closed_form_l2, critical_counts
from morseres.sampling import random_ideals

R1 = VariableSet("abcdefg")
I1 = MonomialIdeal(R1, [R1.parse(t) for t in ("ab", "bcd", "aef", "cg")])
R2 = VariableSet("abcdef")
I2 = MonomialIdeal(R2, [R2.parse(t) for t in ("ab", "bcd", "aef", "ce")])


def faces_of(cx):
    return [0, *cx.faces()]


def variables_ideal(q):
    ring = VariableSet("abcdefghij"[:q])
    return MonomialIdeal(ring, [ring.parse(v) for v in ring.names])


def test_gf2_rank():
    assert gf2_rank([0b011, 0b101, 0b110]) == 2
    assert gf2_rank([0b001, 0b010, 0b100]) == 3
    assert gf2_rank([0, 0]) == 0


def test_exact_rank():
    cols = [{0: 1, 1: 2}, {0: 2, 1: 4}, {0: 1, 2: 1}]
    assert exact_rank(cols) == 2
    assert exact_rank([{0: 2}, {1: -3}, {0: 1, 1: 1}]) == 2
    assert exact_rank([{}]) == 0
    # a matrix whose GF(2) rank differs from its rational rank
    cols = [{0: 1, 1: 1}, {0: 1, 1: -1}]
    assert exact_rank(cols) == 2
    assert gf2_rank([0b11, 0b11]) == 1


@pytest.mark.parametrize("field", ["gf2", "rational"])
def test_homology_conventions(field):
    # boundary of a triangle: a circle
    circle = SimplicialComplex("abc", ["ab", "bc", "ac"])
    assert homology_dims(faces_of(circle), field) == (0, 0, 1)
    # full simplex: contractible
    simplex = SimplicialComplex("abcd", ["abcd"])
    assert homology_dims(faces_of(simplex), field) == (0, 0, 0, 0, 0)
    # only the empty face
    assert homology_dims([0], field) == (1,)
    # void complex
    assert homology_dims([], field) == ()
    # two points
    assert homology_dims([0, 0b01, 0b10], field) == (0, 1)


def test_torsion_surface_separates_the_fields():
    # 6-vertex non-orientable surface: mod-2 classes invisible over Q,
    # so sign handling in the rational elimination is load-bearing here
    rp2 = SimplicialComplex(
        range(1, 7),
        [
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
            (2, 3, 5), (3, 5, 6), (3, 4, 6), (2, 4, 6), (2, 4, 5),
        ],
    )
    assert homology_dims(faces_of(rp2), "gf2") == (0, 0, 1, 1)
    assert homology_dims(faces_of(rp2), "rational") == (0, 0, 0, 0)
    # ranks, and so the dimensions, do not depend on the face order
    shuffled = faces_of(rp2)
    random.Random(5).shuffle(shuffled)
    assert homology_dims(shuffled, "gf2") == (0, 0, 1, 1)
    assert homology_dims(shuffled, "rational") == (0, 0, 0, 0)


def test_oracle_imports_only_monomials_errors_and_extremal():
    # nothing of the complexes and matchings whose counts it checks
    names = set()
    for node in ast.walk(ast.parse(Path(betti.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    package = {n for n in names if n.startswith((".", "morseres"))}
    assert package <= {".monomials", ".errors", ".extremal"}, package


def test_binomial_betti_for_variables():
    for q in (2, 3, 4):
        ideal = variables_ideal(q)
        expected = tuple(comb(q, i + 1) for i in range(q))
        assert graded_betti(ideal).total() == expected
        assert graded_betti(ideal, "rational").total() == expected


def test_extremal_square_betti_both_fields():
    square = power_generators(4, single_relation(3), 2)
    assert graded_betti(square).total() == (10, 21, 15, 3)
    assert graded_betti(square, "rational").total() == (10, 21, 15, 3)
    e3 = power_generators(3, (), 2)
    assert graded_betti(e3).total() == (6, 9, 4)
    assert graded_betti(e3, "rational").total() == (6, 9, 4)


def test_graded_betti_rejects_non_minimal_input():
    sq2 = I2.power(2)
    with pytest.raises(NonMinimalIdealError, match="minimalize"):
        graded_betti(sq2)


def test_graded_betti_rejects_zero_ideal_and_capacity():
    ring = VariableSet("ab")
    with pytest.raises(ValueError):
        graded_betti(MonomialIdeal(ring, []))
    big = variables_ideal(10)
    with pytest.raises(CapacityError):
        graded_betti(big, cap=8)


@pytest.mark.parametrize("oracle", [graded_betti, graded_betti_via_interval])
def test_both_routes_reject_the_unit_ideal(oracle):
    # 1 packs to the empty lcm, so no lattice element would carry beta_0
    ring = VariableSet("a")
    with pytest.raises(ValueError, match="unit ideal"):
        oracle(MonomialIdeal(ring, [ring.one()]))


@pytest.mark.parametrize("tag", ["f2", "gf(2)", "GF2", "rat", "q", "Rational"])
def test_field_tags_are_gf2_and_rational_only(tag):
    with pytest.raises(ValueError, match="unknown field tag"):
        graded_betti(variables_ideal(2), tag)


def test_graded_entries_locate_first_syzygy():
    ring = VariableSet("xy")
    ideal = MonomialIdeal(ring, [ring.parse("x"), ring.parse("y")])
    table = graded_betti(ideal)
    assert table.total() == (2, 1)
    degrees = {(i, str(m)): v for i, m, v in table.graded_rows()}
    assert degrees == {(0, "x"): 1, (0, "y"): 1, (1, "xy"): 1}


@pytest.mark.parametrize(
    "ring, gens",
    [
        ("abcdef", ("ab", "bcd", "aef", "ce")),
        ("xyz", ("x^40y", "xy^33", "y^2z^7", "z^32")),
        ("abcd", ("a^3b", "b^2c^2", "c^5", "a^2d", "d^3")),
    ],
    ids=["I2", "exponents-above-31", "mixed"],
)
def test_graded_rows_order_by_degree_then_exponents(ring, gens):
    ring = VariableSet(ring)
    ideal = MonomialIdeal(ring, [ring.parse(t) for t in gens])
    for power in (1, 2):
        table = graded_betti(ideal.power(power).minimalize())
        rows = list(table.graded_rows())
        reference = [(i, packed_to_monomial(m, ring), v) for i, m, v in table.entries]
        reference.sort(key=lambda e: (e[0], e[1].degree, e[1].exponents))
        assert rows == reference


def test_lcm_lattice_closure():
    gmasks = packed_masks(I1.generators)
    lattice = _lattice(gmasks)
    assert 0 in lattice
    assert set(gmasks) <= lattice
    for a in lattice:
        for b in lattice:
            assert a | b in lattice


@pytest.mark.parametrize(
    "ideal",
    [I1, I2.power(2).minimalize(), power_generators(4, single_relation(3), 2)],
    ids=["I1", "I2 square", "extremal square q=4 s=3"],
)
def test_lcm_lattice_is_every_subset_lcm(ideal):
    gens = ideal.generators
    brute = packed_masks([
        lcm_of([gens[k] for k in range(len(gens)) if mask >> k & 1], ring=ideal.ring)
        for mask in range(1 << len(gens))
    ])
    assert _lattice(packed_masks(gens)) == set(brute)


def test_oracle_self_agreement_small_instances():
    cases = [
        variables_ideal(3),
        I1,
        I2,
        extremal_generators(4, single_relation(3)),
        extremal_generators(3, single_relation(3)),
    ]
    cases.extend(random_ideals(3, q=4, s=3, seed=11))
    for ideal in cases:
        for field in ("gf2", "rational"):
            direct = graded_betti(ideal, field)
            interval = graded_betti_via_interval(ideal, field)
            assert direct.entries == interval.entries, ideal


def test_first_power_betti_matches_pruned_f_vector():
    from morseres.morse import prune_taylor_first_power

    for q in range(3, 6):
        for s in range(3, q + 1):
            ideal = extremal_generators(q, single_relation(s))
            tail = prune_taylor_first_power(q, s).gamma.f_vector()[1:]
            assert graded_betti(ideal).total() == tail
    # relation sets sharing one index block keep the same pruned shape
    two = extremal_generators(4, [(1, {2, 3}), (4, {2, 3})])
    assert graded_betti(two).total() == (4, 5, 2)


def test_graded_betti_keeps_no_table_alive():
    import gc
    import weakref

    table = graded_betti(power_generators(4, single_relation(3), 2))
    ref = weakref.ref(table)
    del table
    gc.collect()
    assert ref() is None


def test_projective_dimension():
    assert graded_betti(extremal_generators(4, single_relation(3))).projective_dimension == 2
    assert graded_betti(power_generators(4, single_relation(3), 2)).projective_dimension == 3
    assert graded_betti(I2.power(2).minimalize()).projective_dimension == 2


def test_pd_formula_values():
    assert pd_formula(4, 3) == (2, 3)
    assert pd_formula(3, 3) == (1, 2)
    assert pd_formula(5, 3) == (3, 6)
    assert pd_formula(4, 4) == (2, 5)
    with pytest.raises(ValueError):
        pd_formula(3, 2)


def support_of(m, gmasks):
    """Indices of the generators dividing m, by a direct scan."""
    return [k for k, g in enumerate(gmasks) if not g & ~m]


def divisor_faces(m, gmasks, support):
    """The strict-divisor complex at m: every face over `support`, as a
    bitmask of generator indices, whose lcm strictly divides m.  Every
    vertex's generator must divide m."""
    faces = []
    stack = [(0, 0, 0)]
    while stack:
        face, lcm, start = stack.pop()
        faces.append(face)
        for t in range(start, len(support)):
            nlcm = lcm | gmasks[support[t]]
            if nlcm != m:
                stack.append((face | 1 << support[t], nlcm, t + 1))
    return faces


def unmatched(faces, vertices):
    """The faces left by the element matchings of `vertices` in turn:
    each pairs a surviving face F with F ^ v when both survive."""
    for v in vertices:
        alive = set(faces)
        faces = [f for f in faces if f ^ 1 << v not in alive]
    return faces


def collapsed_homology(faces, vertices, field):
    """Each (k, dim H~_{k-1}) with a nonzero dimension of the complex
    `faces`: the survivors' count when the element matchings of
    `vertices` leave one cardinality, ranks otherwise."""
    critical = unmatched(faces, vertices)
    sizes = {f.bit_count() for f in critical}
    if len(sizes) > 1:
        return [(k, v) for k, v in enumerate(homology_dims(faces, field)) if v]
    return [(k, len(critical)) for k in sizes]


def reader_faces(blocks):
    """The faces `_nerve_homology` reads for `blocks`: the index sets
    whose blocks' union is short of the union of all."""
    union = subset_lcms(blocks)
    return [k for k, x in enumerate(union) if x != union[-1]]


def rank_route_entries(ideal, field):
    """Graded Betti entries by ranks on every face of every strict-divisor
    subcomplex, with lcms taken on monomials rather than masks and packed
    only for the result."""
    q = ideal.q
    lcms = {
        face: lcm_of((ideal.generators[k] for k in range(q) if face >> k & 1), ideal.ring)
        for face in range(1 << q)
    }
    entries = []
    for m in set(lcms.values()) - {ideal.ring.one()}:
        faces = [face for face, l in lcms.items() if l != m and l.divides(m)]
        packed = packed_masks([m])[0]
        entries.extend((i, packed, v) for i, v in enumerate(homology_dims(faces, field)) if v)
    return tuple(sorted(entries))


def count_rank_fallbacks(monkeypatch):
    """Patch `betti.homology_dims` to count its calls; returns the list
    that each call appends to."""
    calls = []

    def counted(faces, field="gf2"):
        calls.append(len(faces))
        return homology_dims(faces, field)

    monkeypatch.setattr(betti, "homology_dims", counted)
    return calls


def test_collapse_falls_back_when_critical_faces_span_two_cardinalities(monkeypatch):
    ring = VariableSet("abcdef")
    ideal = MonomialIdeal(ring, [ring.parse(t) for t in ("cdf", "bdf", "abcd", "adf")])
    calls = count_rank_fallbacks(monkeypatch)
    for field in ("gf2", "rational"):
        calls.clear()
        entries = graded_betti(ideal, field).entries
        assert calls, field
        assert entries == rank_route_entries(ideal, field)
        assert entries == graded_betti_via_interval(ideal, field).entries


def test_collapse_matches_rank_route_on_random_ideals_and_squares():
    # draws 18 and 19 need the rank fallback at some lattice elements
    cases = list(random_ideals(20, q=4, s=3, seed=11))
    for ideal in cases[:2] + cases[18:]:
        for case in (ideal, ideal.power(2).minimalize()):
            for field in ("gf2", "rational"):
                assert graded_betti(case, field).entries == rank_route_entries(case, field), case


def assert_entries_are_critical_labels(table, q, s):
    """The resolution by the critical cells is minimal, so beta_{i,m} is
    the number of critical cells of dimension i with label m: here each
    (i, m) is carried by exactly one cell."""
    labels = LabeledComplex(l2(q), power_generators(q, single_relation(s), 2))
    cells = sorted(
        (f.bit_count() - 1, labels.packed_label(f)) for f in critical_closed_form_l2(q, s)
    )
    assert cells == [(i, m) for i, m, _ in table.entries], (q, s)
    assert {v for _, _, v in table.entries} == {1}, (q, s)


@pytest.mark.parametrize("s", [3, 4, 5])
@pytest.mark.parametrize("field", ["gf2", "rational"])
def test_extremal_square_q5_matches_cell_counts(s, field):
    # every q from s to 5, so the parameters cover each 3 <= s <= q <= 5
    for q in range(s, 6):
        table = graded_betti(power_generators(q, single_relation(s), 2), field)
        assert table.total() == critical_counts(q, s)
        assert table.projective_dimension == pd_formula(q, s)[1]
        assert_entries_are_critical_labels(table, q, s)


@pytest.mark.parametrize("s", [3, 4, 5])
def test_extremal_square_q5_needs_no_rank_fallback(monkeypatch, s):
    calls = count_rank_fallbacks(monkeypatch)
    square = power_generators(5, single_relation(s), 2)
    for field in ("gf2", "rational"):
        assert graded_betti(square, field).total() == critical_counts(5, s)
    assert calls == []


@pytest.mark.parametrize("s", [3, 4, 5, 6])
def test_extremal_square_q6_matches_cell_counts_within_budget(s):
    # 21 generators, above the default cap of 15; budget 60 s for each s
    start = time.perf_counter()
    table = graded_betti(power_generators(6, single_relation(s), 2), "gf2", cap=21)
    elapsed = time.perf_counter() - start
    assert table.total() == critical_counts(6, s)
    assert table.projective_dimension == pd_formula(6, s)[1]
    assert_entries_are_critical_labels(table, 6, s)
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds budget 60s"


def minimal_sets(faces, support):
    """The inclusion-minimal sets M_t of a complex over `support`, read
    off its faces: the complements of its facets."""
    alive = set(faces)
    smask = sum(1 << k for k in support)
    return {
        smask & ~f
        for f in faces
        if not any(f | 1 << u in alive for u in support if not f >> u & 1)
    }


def nerve_branches(ideal, fields):
    """At each lattice element that `_minimal_cover` leaves open, the
    reader's entries against the face route's on the strict-divisor
    complex over `fields`, after checking the blocks against the
    complex's own minimal sets; returns how many elements took each
    branch: "none", "one" or "ranks" for complexes whose critical faces
    span no, one or two cardinalities, and "W side" as well for an
    element with more minimal sets than vertices outside U."""
    gmasks = packed_masks(ideal.generators)
    n, cols = len(ideal.ring), bit_columns(gmasks)
    branches = Counter()
    for m in _lattice(gmasks) - {0}:
        r = _minimal_cover(m, n, gmasks, cols)
        if isinstance(r, int):
            continue
        u, blocks = r
        support = support_of(m, gmasks)
        faces = divisor_faces(m, gmasks, support)
        sets = minimal_sets(faces, support)
        others = {b for b in sets if b.bit_count() >= 2}
        assert len(sets) - len(others) == u, (ideal, m)
        wside = [k for k in support if not any(b == 1 << k for b in sets)]
        assert len(others) >= 2 and u + len(wside) == len(support), (ideal, m)
        if len(others) <= len(wside):
            assert sorted(blocks) == sorted(others), (ideal, m)
        else:
            # the incidence read from the W side: block i is the set of
            # j with wside[i] in B_j, so column j of the blocks is B_j
            assert len(blocks) == len(wside), (ideal, m)
            columns = {
                sum(1 << w for w, a in zip(wside, blocks) if a >> j & 1)
                for j in range(len(others))
            }
            assert columns == others, (ideal, m)
            branches["W side"] += 1
        critical = unmatched(reader_faces(blocks), range(len(blocks)))
        branches[("none", "one", "ranks")[min(len({f.bit_count() for f in critical}), 2)]] += 1
        for field in fields:
            face_route = collapsed_homology(faces, support, field)
            reader = _nerve_homology(blocks, field)
            assert [(k + u, v) for k, v in reader] == face_route, (ideal, m, field)
    return branches


@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_nerve_equals_face_route_on_extremal_squares(q):
    fields = ("gf2", "rational") if q <= 5 else ("gf2",)
    for s in range(3, q + 1):
        branches = nerve_branches(power_generators(q, single_relation(s), 2), fields)
        # every open element of an extremal square is read from the B side
        assert set(branches) <= {"none", "one", "ranks"}, (q, s)


def test_nerve_equals_face_route_on_random_squares_in_every_branch():
    branches = Counter()
    for q, count in ((4, 200), (5, 20)):
        for ideal in random_ideals(count, q=q, s=3, seed=0):
            branches += nerve_branches(ideal.power(2).minimalize(), ("gf2", "rational"))
    assert set(branches) == {"none", "one", "ranks", "W side"}, branches


def transposed(sets, width):
    """For each w < width, the set A_w = {j : w in sets[j]} as a bitmask.
    As generators, A_w carries variable j iff w lies in B_j = sets[j], so
    at the product of the variables the set M_j of generators carrying
    j is B_j."""
    return [sum(1 << j for j, b in enumerate(sets) if b >> w & 1) for w in range(width)]


@st.composite
def covering_antichains(draw):
    """An antichain B_1..B_p of sets of at least two elements, covering
    W = range(width) with width <= 7, and the width."""
    width = draw(st.integers(2, 7))
    if width >= 4 and draw(st.booleans()):
        # more sets than elements, all of one size, so an antichain as drawn
        size = draw(st.integers(2, width - 2))
        masks = [sum(1 << k for k in c) for c in combinations(range(width), size)]
        sets = draw(st.lists(
            st.sampled_from(masks), min_size=width + 1, max_size=min(12, len(masks)), unique=True
        ))
    else:
        member = st.sets(st.integers(0, width - 1), min_size=2)
        sets = draw(st.lists(
            member.map(lambda e: sum(1 << k for k in e)), min_size=1, max_size=12, unique=True
        ))
    antichain = [a for a in sets if not any(b != a and not b & ~a for b in sets)]
    # the elements no set holds are dropped, so the sets cover W
    cover = 0
    for a in antichain:
        cover |= a
    kept = [k for k in range(width) if cover >> k & 1]
    return [sum(1 << i for i, k in enumerate(kept) if a >> k & 1) for a in antichain], len(kept)


@settings(max_examples=150, deadline=None)
@given(covering_antichains())
def test_reader_agrees_on_both_sides_of_the_incidence(case):
    sets, width = case
    p = len(sets)
    gmasks = transposed(sets, width)
    # read from the W side, the complex is exactly {F in W : F misses some B_j}
    assert reader_faces(gmasks) == [f for f in range(1 << width) if any(not f & b for b in sets)]
    for field in ("gf2", "rational"):
        assert _nerve_homology(sets, field) == _nerve_homology(gmasks, field), field
    r = _minimal_cover((1 << p) - 1, p, gmasks, bit_columns(gmasks))
    # sets covering W are pairwise disjoint iff their sizes add up to |W|
    if sum(b.bit_count() for b in sets) == width:
        assert r == p
        return
    u, blocks = r
    assert u == 0
    if p <= width:
        assert sorted(blocks) == sorted(sets)
    else:
        # the W side up to the order of the B_j: column j of the blocks is B_j
        assert {sum(1 << w for w, a in enumerate(blocks) if a >> j & 1) for j in range(p)} == set(sets)


def test_six_pairs_of_a_four_set_read_as_k4_from_either_side():
    pairs = [1 << a | 1 << b for a, b in combinations(range(4), 2)]
    gmasks = transposed(pairs, 4)
    u, blocks = _minimal_cover((1 << 6) - 1, 6, gmasks, bit_columns(gmasks))
    # p = 6 > |W| = 4, so the W side is read
    assert u == 0 and len(blocks) == 4
    # G is every set of at most two of the four vertices: the graph K4
    assert reader_faces(blocks) == [f for f in range(16) if f.bit_count() <= 2]
    for field in ("gf2", "rational"):
        for side in (pairs, blocks):
            assert _nerve_homology(side, field) == [(2, 3)], (field, side)


def cover_classes(ideal):
    """The lattice elements that the minimal-cover test settles as cones
    and as spheres, each with its support (and a sphere with its number
    r of minimal sets), and the number it leaves to the reader."""
    gmasks = packed_masks(ideal.generators)
    n, cols = len(ideal.ring), bit_columns(gmasks)
    cones, spheres, rest = [], [], 0
    for m in _lattice(gmasks) - {0}:
        support = support_of(m, gmasks)
        r = _minimal_cover(m, n, gmasks, cols)
        if r == 0:
            cones.append((m, support))
        elif isinstance(r, int):
            spheres.append((m, support, r))
        else:
            rest += 1
    return gmasks, cones, spheres, rest


CONE_CASES = [power_generators(q, single_relation(s), 2) for q, s in ((3, 3), (4, 3), (4, 4))] + [
    case
    for ideal in random_ideals(20, q=4, s=3, seed=11)
    for case in (ideal, ideal.power(2).minimalize())
]


@pytest.mark.parametrize("ideal", CONE_CASES, ids=range(len(CONE_CASES)))
def test_cone_point_test_is_exact(ideal):
    gmasks, cones, _, _ = cover_classes(ideal)
    for m, support in cones:
        faces = divisor_faces(m, gmasks, support)
        for field in ("gf2", "rational"):
            assert not any(homology_dims(faces, field)), (ideal, m, field)


@pytest.mark.parametrize("ideal", CONE_CASES, ids=range(len(CONE_CASES)))
def test_disjoint_minimal_sets_give_one_sphere(ideal):
    gmasks, _, spheres, _ = cover_classes(ideal)
    assert spheres
    for m, support, r in spheres:
        faces = divisor_faces(m, gmasks, support)
        for field in ("gf2", "rational"):
            dims = homology_dims(faces, field)
            assert [(i, v) for i, v in enumerate(dims) if v] == [(r - 1, 1)], (ideal, m, field)


@pytest.mark.parametrize("s", [3, 4, 5])
def test_cone_point_test_finds_a_cone_vertex_at_q5(s):
    # ranks of the 1,944 complexes (up to 30,720 faces) over both fields
    # take minutes; a vertex u with F + u a face for every face F makes
    # the complex a cone, acyclic over every field
    gmasks, cones, _, _ = cover_classes(power_generators(5, single_relation(s), 2))
    for m, support in cones:
        faces = divisor_faces(m, gmasks, support)
        alive = set(faces)
        assert any(all(f | 1 << u in alive for f in faces) for u in support), m


@pytest.mark.parametrize("s", [3, 4, 5])
def test_sphere_facets_complement_disjoint_sets_at_q5(s):
    # ranks take minutes at q = 5; a complex whose facets are the
    # complements of r pairwise disjoint nonempty sets covering the
    # support is the boundary of an (r-1)-simplex by the nerve theorem
    gmasks, _, spheres, _ = cover_classes(power_generators(5, single_relation(s), 2))
    for m, support, r in spheres:
        holes = minimal_sets(divisor_faces(m, gmasks, support), support)
        assert len(holes) == r, m
        union = 0
        for hole in holes:
            assert hole and not hole & union, m
            union |= hole
        assert union == sum(1 << k for k in support), m


def test_cone_point_test_leaves_only_the_betti_lcms(monkeypatch):
    # on the extremal squares every element that is no cone carries a
    # Betti number, and all but a few of them are settled as spheres
    # before the reader is reached
    reached = []

    def cover(m, n, gmasks, cols):
        r = _minimal_cover(m, n, gmasks, cols)
        if not isinstance(r, int):
            reached.append(m)
        return r

    monkeypatch.setattr(betti, "_minimal_cover", cover)
    counts = {}
    for q in range(3, 6):
        for s in range(3, q + 1):
            reached.clear()
            square = power_generators(q, single_relation(s), 2)
            table = graded_betti(square)
            lcms = {m for _, m, _ in table.entries}
            _, _, spheres, rest = cover_classes(square)
            assert len(reached) == rest and set(reached) <= lcms
            assert len(lcms) == len(spheres) + rest
            counts[q, s] = len(lcms), len(reached)
    assert [counts[5, s] for s in (3, 4, 5)] == [(327, 4), (669, 14), (1093, 63)]


def lane_open_count(ideal, size=None):
    """Hand the lattice to the lanes whole, or in pieces of `size`
    elements; every settled lane must agree with `_minimal_cover` (0 for
    a cone, r for a sphere).  Returns how many lanes were left open."""
    gmasks = packed_masks(ideal.generators)
    n, cols = len(ideal.ring), bit_columns(gmasks)
    elements = list(_lattice(gmasks) - {0})
    size = size or len(elements)
    left = 0
    for start in range(0, len(elements), size):
        chunk = elements[start : start + size]
        verdicts = list(_lane_covers(chunk, n, gmasks))
        assert [m for m, _ in verdicts] == chunk
        for m, v in verdicts:
            if v is None:
                left += 1
            else:
                assert v == _minimal_cover(m, n, gmasks, cols), (ideal, m)
    return left


@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_lanes_agree_with_minimal_cover_on_extremal_squares(q):
    left = [lane_open_count(power_generators(q, single_relation(s), 2)) for s in range(3, q + 1)]
    if q == 5:
        # the elements that reach `_minimal_cover` in graded_betti
        assert left == [29, 53, 63]


def test_lanes_agree_with_minimal_cover_on_random_squares():
    for ideal in random_ideals(100, q=4, s=3, seed=7):
        lane_open_count(ideal.power(2).minimalize())


def test_lanes_agree_with_minimal_cover_on_squarefree_first_powers():
    # square-free masks are at most n bits wide, so each lane's own
    # `m >> n` is 0 and all the shift brings in is the next lane's low bits
    ring = VariableSet("abcdefgh")
    narrow = MonomialIdeal(ring, [ring.parse(t) for t in ("ab", "bc", "cd", "ad")])
    cases = [narrow, variables_ideal(5), I1, I2]
    cases += [extremal_generators(q, single_relation(s)) for q in range(3, 7) for s in range(3, q + 1)]
    cases += list(random_ideals(20, q=4, s=3, seed=3))
    for ideal in cases:
        assert max(packed_masks(ideal.generators)).bit_length() <= len(ideal.ring)
        lane_open_count(ideal)


@pytest.mark.parametrize("size", [1, 1024, 1025])
def test_lanes_do_not_depend_on_the_chunk_size(size):
    # 1,667 lattice elements in lanes of 64 bits, 1,024 to a full chunk:
    # one lane per int; a full chunk, then 643 lanes; a full chunk and a
    # short one of 1 (its other lanes 0), then 642 lanes
    assert lane_open_count(power_generators(5, single_relation(5), 2), size) == 63


def test_lanes_wider_than_64_bits_on_the_first_q7_chunks():
    # lanes of 256 bits, 256 to a chunk: the first four chunks
    square = power_generators(7, single_relation(7), 2)
    gmasks = packed_masks(square.generators)
    n, cols = len(square.ring), bit_columns(gmasks)
    lattice = _lattice(gmasks)
    lattice.discard(0)
    chunk = list(islice(lattice, 1024))
    assert max(gmasks).bit_length() > 64
    for m, v in _lane_covers(chunk, n, gmasks):
        assert v is None or v == _minimal_cover(m, n, gmasks, cols), m


@pytest.mark.parametrize("q", [254, 255])
def test_lane_counts_fit_one_byte_below_255_generators(q):
    # the product of q variables is the boundary of a (q-1)-simplex; a
    # count of 255 or more would not fit the byte it is read from, so
    # with 255 generators every lane is left to `_minimal_cover`
    gmasks = [1 << k for k in range(q)]
    top = (1 << q) - 1
    assert _minimal_cover(top, q, gmasks, bit_columns(gmasks)) == q
    verdicts = [v for _, v in _lane_covers([top, 1], q, gmasks)]
    assert verdicts == ([q, 1] if q < 255 else [None, None])
