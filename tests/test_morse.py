import random
from math import comb

import pytest

from morseres.betti import pd_formula
from morseres.complexes import LabeledComplex, SimplicialComplex, _p, l2, submasks, taylor
from morseres.errors import CapacityError
from morseres.extremal import power_generators, single_relation
from morseres.monomials import MonomialIdeal, VariableSet, lcm_of
from morseres.morse import (
    Matching,
    MatchingSpec,
    _checked_up,
    _containment_table,
    _critical_cells_l2,
    _pivot_faces,
    _pivot_tables,
    build_matching,
    critical_cells,
    critical_closed_form_l2,
    critical_counts,
    counts_by_dimension,
    gradient_cell_order,
    is_acyclic,
    is_homogeneous,
    matching_l2,
    morse_complex,
    prune_taylor_first_power,
)
from morseres.sampling import random_ideals


def groups_of(faces, spec):
    """The non-empty groups of faces, keyed by the largest pivot they
    contain, found by scanning ``spec.order``, not the engine's pivot tables."""
    groups = {}
    for f in faces:
        if g := max((i + 1 for i, p in enumerate(spec.order) if p & f == p), default=0):
            groups.setdefault(spec.order[g - 1], set()).add(f)
    return groups


def face(cx, text):
    """'12 13 23' -> mask of {(1,2),(1,3),(2,3)}."""
    return cx.mask([(int(t[0]), int(t[1])) for t in text.split()])


@pytest.fixture(scope="module")
def m43():
    spec, matching = matching_l2(4, 3)
    return spec, matching, spec.complex


def test_pivot_list_and_omega(m43):
    spec, _, cx = m43
    shown = [tuple(cx.members(f)) for f in spec.order]
    assert shown == [
        ((1, 2), (1, 3)),
        ((2, 2), (2, 3)),
        ((2, 3), (3, 3)),
        ((2, 4), (3, 4)),
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
    ]
    omega_vertices = [cx.vertices[spec.omega[f]] for f in spec.order]
    assert omega_vertices == [(1, 1), (1, 2), (1, 3), (1, 4), (1, 4), (1, 4)]


def test_partition_matches_worked_example(m43):
    spec, _, cx = m43
    groups = groups_of(cx.faces(), spec)
    got = {frozenset(cx.members(g)) for g in groups[face(cx, "12 13")]}
    expected = {
        frozenset({(1, 2), (1, 3)}),
        frozenset({(1, 2), (1, 3), (1, 4)}),
        frozenset({(1, 2), (1, 3), (2, 3)}),
        frozenset({(1, 1), (1, 2), (1, 3)}),
        frozenset({(1, 1), (1, 2), (1, 3), (1, 4)}),
        frozenset({(1, 2), (1, 3), (1, 4), (2, 3)}),
    }
    assert got == expected
    assert len(groups[face(cx, "13 24")]) == 16


def test_matched_edges_in_first_group(m43):
    spec, matching, cx = m43
    groups = groups_of(cx.faces(), spec)
    members = groups[face(cx, "12 13")]
    edges = {(big, small) for big, small in matching.pairs if big in members}
    assert edges == {
        (face(cx, "11 12 13"), face(cx, "12 13")),
        (face(cx, "11 12 13 14"), face(cx, "12 13 14")),
    }
    # the type-2 groups are matched away completely
    for key in ("13 24", "12 34"):
        group = groups[face(cx, key)]
        matched = {f for big, small in matching.pairs for f in (big, small)}
        assert group <= matched


def test_critical_cells_formula_equals_incidence(m43):
    spec, matching, cx = m43
    crit = critical_cells(cx.faces(), spec)
    matched = {f for pair in matching.pairs for f in pair}
    assert crit == frozenset(cx.faces()) - matched
    assert crit == critical_closed_form_l2(4, 3)


def closed_form_by_face_filter(q, s):
    """The critical faces as the faces of l2(q) containing no type-1 or
    type-2 pivot, plus the base-and-middle family: the reference the cell
    generator is checked against."""
    cx = l2(q)
    type1, type2, _ = _pivot_faces(q, s)
    survivors = list(cx.faces())
    for pairs, _ in type1 + type2:
        b = cx.mask(pairs)
        survivors = [f for f in survivors if b & f != b]
    base = cx.mask([_p(k, 1) for k in range(2, s + 1)])
    mid = cx.mask([(i, k) for i in range(2, s + 1) for k in range(i + 1, s + 1)])
    tail = cx.mask([(1, j) for j in range(s + 1, q + 1)])
    family = {base | g | t for g in submasks(mid) if g for t in submasks(tail)}
    return frozenset(survivors) | family


PAIRS_Q6 = [(q, s) for q in range(3, 7) for s in range(3, q + 1)]


@pytest.mark.parametrize("q,s", PAIRS_Q6)
def test_cell_generator_equals_face_filter(q, s):
    cells = list(_critical_cells_l2(q, s))
    assert len(cells) == len(set(cells))
    assert frozenset(cells) == closed_form_by_face_filter(q, s)
    assert critical_closed_form_l2(q, s) == frozenset(cells)


@pytest.mark.parametrize("q,s", PAIRS_Q6)
def test_count_polynomial_counts_the_generated_cells(q, s):
    assert critical_counts(q, s) == counts_by_dimension(_critical_cells_l2(q, s))


def test_count_polynomial_degree_is_the_pd_formula():
    for q in range(3, 17):
        for s in range(3, q + 1):
            assert len(critical_counts(q, s)) - 1 == pd_formula(q, s)[1]
    assert sum(critical_counts(7, 3)) == 231_743


@pytest.mark.parametrize("q,s", PAIRS_Q6 + [(7, 3), (7, 7)])
def test_base_and_middle_family_size(q, s):
    # the type-1 blocker at 1 lies in no other critical face
    base = l2(q).mask([(1, k) for k in range(2, s + 1)])
    family = sum(f & base == base for f in _critical_cells_l2(q, s))
    assert family == (2 ** comb(s - 1, 2) - 1) * 2 ** (q - s)


def test_listing_and_counting_bounds():
    with pytest.raises(CapacityError):
        critical_closed_form_l2(8, 3)
    # no vertex is matched: 136 vertices of l2(16)
    assert critical_counts(16, 16)[0] == comb(17, 2)
    with pytest.raises(CapacityError):
        critical_counts(17, 3)
    with pytest.raises(ValueError):
        critical_counts(5, 2)


def test_block_is_critical_when_relation_spans_everything():
    cx = l2(4)
    block = cx.mask([(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
    crit = critical_closed_form_l2(4, 4)
    assert block in crit
    assert block.bit_count() == comb(4, 2)


def test_empty_pivot_list_leaves_everything_critical():
    cx = l2(3)
    spec = MatchingSpec(cx, (), {})
    assert build_matching(cx.faces(), spec).pairs == ()
    assert critical_cells(cx.faces(), spec) == frozenset(cx.faces())


def test_spec_rejects_omega_inside_face():
    cx = l2(3)
    f = face(cx, "12 13")
    with pytest.raises(ValueError):
        MatchingSpec(cx, (f,), {f: cx.vertex_bit((1, 2))})


BAD_EDGES = {
    "not a sub-face": ((0b11, 0b100),),
    "bigger face inside the smaller": ((0b001, 0b011),),
    "face used twice": ((0b111, 0b011), (0b111, 0b101)),
    "smaller face used twice": ((0b011, 0b001), (0b101, 0b001)),
    "bigger in one edge, smaller in another": ((0b111, 0b011), (0b011, 0b001)),
}


def test_matching_validation():
    for pairs in BAD_EDGES.values():
        with pytest.raises(ValueError):
            Matching(pairs)


@pytest.mark.parametrize("name", sorted(BAD_EDGES))
def test_walk_map_validation_rejects_the_same_edges(name):
    """``build_matching`` checks the map it fills through ``_checked_up``,
    which must refuse each bad edge list as ``Matching`` does."""
    pairs = BAD_EDGES[name]
    up = {small: big for big, small in pairs}
    with pytest.raises(ValueError):
        _checked_up(up, len(pairs))


def test_matching_validation_checks_every_engine_edge(monkeypatch):
    from morseres import morse

    checked = []

    def spy(up, edges):
        checked.append((dict(up), edges))
        return _checked_up(up, edges)

    monkeypatch.setattr(morse, "_checked_up", spy)
    _, matching = matching_l2(4, 3)
    assert checked == [(matching.up, len(matching))]


def test_matching_from_one_shot_iterator_keeps_pair_order():
    pairs = [(0b1101, 0b1001), (0b110, 0b100), (0b011, 0b001)]
    matching = Matching(iter(pairs))
    assert matching.pairs == tuple(pairs)
    assert len(matching) == 3


def test_is_acyclic_detects_cyclic_matching():
    cx = SimplicialComplex("abc", ["ab", "bc", "ac"])
    a, b, c = (cx.mask(v) for v in ("a", "b", "c"))
    ab, bc, ac = (cx.mask(v) for v in ("ab", "bc", "ac"))
    cyclic = Matching(((ab, a), (bc, b), (ac, c)))
    assert not is_acyclic(cx.faces(), cyclic)
    fine = Matching(((ab, a), (bc, b)))
    assert is_acyclic(cx.faces(), fine)
    assert is_acyclic(cx.faces(), Matching(()))


class Unread:
    """Faces that fail the test when read."""

    def __iter__(self):
        return self

    def __next__(self):
        raise AssertionError("the faces were read")


def test_acyclic_verdict_leaves_the_faces_unread():
    # no cycle among all matched edges, so the face filter never runs
    for q, s in ((3, 3), (4, 3), (5, 4)):
        _, matching = matching_l2(q, s)
        assert is_acyclic(Unread(), matching)
    cx = SimplicialComplex("abc", ["ab", "bc", "ac"])
    fine = Matching(((cx.mask("ab"), cx.mask("a")), (cx.mask("bc"), cx.mask("b"))))
    assert is_acyclic(Unread(), fine)
    assert is_acyclic(Unread(), Matching(()))
    # a cycle among all matched edges makes the filter read the faces
    cyclic = Matching(((cx.mask("ab"), cx.mask("a")), (cx.mask("bc"), cx.mask("b")),
                       (cx.mask("ac"), cx.mask("c"))))
    with pytest.raises(AssertionError, match="the faces were read"):
        is_acyclic(Unread(), cyclic)


def test_cycle_through_a_smaller_face_outside_the_faces():
    # the triangle's gradient cycle ab -> bc -> ac -> ab climbs from each
    # vertex; with vertex a missing, ab has no way in and the cycle breaks
    cx = SimplicialComplex("abc", ["ab", "bc", "ac"])
    a, b, c, ab, bc, ac = (cx.mask(v) for v in ("a", "b", "c", "ab", "bc", "ac"))
    cyclic = Matching(((ab, a), (bc, b), (ac, c)))
    without_a = [b, c, ab, bc, ac]
    assert is_acyclic(without_a, cyclic)
    assert is_acyclic(iter(without_a), cyclic)
    assert not is_acyclic([a, *without_a], cyclic)
    assert not is_acyclic(iter([a, *without_a]), cyclic)


def test_acyclicity_check_stays_small_next_to_the_matching():
    # the successors of the 13,660 edges at (6, 3) are held as bare ints
    # where there is one, and no set of the faces is built: the traced
    # peak stays well under the matching's own map
    import gc
    import sys
    import tracemalloc

    faces = list(l2(6).faces())
    _, matching = matching_l2(6, 3)
    gc.collect()
    tracemalloc.start()
    try:
        assert is_acyclic(faces, matching)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.35 * sys.getsizeof(matching.up)


def test_homogeneous_for_extremal_and_mislabeled_control():
    spec, matching = matching_l2(4, 3)
    square = power_generators(4, single_relation(3), 2)
    labels = LabeledComplex(spec.complex, square)
    assert is_homogeneous(matching, labels)
    ring = VariableSet("abcdefghij")
    distinct = MonomialIdeal(ring, [ring.parse(v) for v in ring.names])
    assert not is_homogeneous(matching, LabeledComplex(spec.complex, distinct))


def homogeneous_by_monomials(matching, ideal):
    """is_homogeneous by the monomial route: lcm_of over each face's generators."""
    gens = ideal.generators

    def label(face):
        return lcm_of(
            (gens[k] for k in range(face.bit_length()) if face >> k & 1), ring=ideal.ring
        )

    return all(label(big) == label(small) for big, small in matching.pairs)


def test_is_homogeneous_matches_monomial_labels_on_extremal_squares():
    for q in range(3, 6):
        for s in range(3, q + 1):
            spec, matching = matching_l2(q, s)
            square = power_generators(q, single_relation(s), 2)
            assert is_homogeneous(matching, LabeledComplex(spec.complex, square)) is True
            assert homogeneous_by_monomials(matching, square) is True
    spec, matching = matching_l2(4, 3)
    ring = VariableSet("abcdefghij")
    distinct = MonomialIdeal(ring, [ring.parse(v) for v in ring.names])
    assert is_homogeneous(matching, LabeledComplex(spec.complex, distinct)) is False
    assert homogeneous_by_monomials(matching, distinct) is False


def test_is_homogeneous_matches_monomial_labels_on_random_squares():
    # each random ideal satisfies the relation; reversed, it usually does
    # not, so both verdicts occur
    spec, matching = matching_l2(4, 3)
    verdicts = []
    for ideal in random_ideals(200, q=4, s=3, seed=23):
        for gens in (ideal.generators, ideal.generators[::-1]):
            square = MonomialIdeal(ideal.ring, gens).power(2)
            got = is_homogeneous(matching, LabeledComplex(spec.complex, square))
            assert got == homogeneous_by_monomials(matching, square)
            verdicts.append(got)
    assert all(verdicts[::2])
    assert not all(verdicts[1::2])


def test_pivot_list_contains_third_type_for_larger_q():
    spec, _ = matching_l2(5, 3)
    cx = spec.complex
    third = face(cx, "12 13 45")
    assert third in spec.order
    assert cx.vertices[spec.omega[third]] == (1, 5)


def test_shuffled_pivot_order_keeps_critical_set():
    spec, _ = matching_l2(5, 3)
    faces = list(spec.complex.faces())
    baseline = critical_closed_form_l2(5, 3)
    for seed in range(4):
        # shuffle the pivots within each type, keeping type1 < type2 < type3
        order = []
        for group in _pivot_faces(5, 3):
            chunk = list(spec.order[len(order):len(order) + len(group)])
            random.Random(seed * 1009 + len(order)).shuffle(chunk)
            order += chunk
        shuffled = MatchingSpec(spec.complex, tuple(order), spec.omega)
        assert critical_cells(faces, shuffled) == baseline
        assert is_acyclic(faces, build_matching(faces, shuffled))


def test_matched_edges_touching_first_star(m43):
    # any matched edge with an endpoint inside the first star adds the
    # vertex (1,1) on top of the full base {(1,2),...,(1,s)}
    for q, s in ((4, 3), (5, 3), (5, 4)):
        spec, matching = matching_l2(q, s)
        cx = spec.complex
        star1 = cx.mask([(1, j) for j in range(1, q + 1)])
        base = cx.mask([(1, k) for k in range(2, s + 1)])
        e11 = 1 << cx.vertex_bit((1, 1))
        for big, small in matching.pairs:
            if big & star1 == big or small & star1 == small:
                assert big & e11
                assert small == big ^ e11
                assert small & base == base


def test_minimality_gap_under_extremal_labels():
    # critical faces never share a label with a one-smaller subface
    for q in (3, 4, 5):
        for s in range(3, q + 1):
            cx = l2(q)
            labels = LabeledComplex(cx, power_generators(q, single_relation(s), 2))
            for f in critical_closed_form_l2(q, s):
                m = f
                while m:
                    low = m & -m
                    m ^= low
                    assert labels.packed_label(f) != labels.packed_label(f ^ low)


def test_max_critical_cardinality_formula():
    for q in range(3, 7):
        for s in range(3, q + 1):
            top = max(f.bit_count() for f in critical_closed_form_l2(q, s))
            expected = comb(q, 2) if q == s else comb(q, 2) - (q - s + 1)
            assert top == expected


def test_first_power_prune():
    fp = prune_taylor_first_power(4, 3)
    assert fp.gamma.f_vector()[1:] == (4, 5, 2)
    assert prune_taylor_first_power(3, 3).gamma.f_vector()[1:] == (3, 2)
    crit = critical_cells(fp.complex.faces(), fp.spec)
    assert crit == frozenset(fp.gamma.faces())
    assert is_acyclic(fp.complex.faces(), fp.matching)
    # the critical set is closed under inclusion
    for f in crit:
        m = f
        while m:
            low = m & -m
            m ^= low
            if f ^ low:
                assert f ^ low in crit
    # homogeneous for a labeled ideal satisfying the relation
    ring = VariableSet("abcdefg")
    ideal = MonomialIdeal(ring, [ring.parse(t) for t in ("ab", "bcd", "aef", "cg")])
    assert is_homogeneous(fp.matching, LabeledComplex(fp.complex, ideal))
    for q in range(3, 7):
        gamma = prune_taylor_first_power(q, 3).gamma
        assert gamma.dim == q - 2


def test_gradient_paths_from_worked_example(m43):
    spec, matching, cx = m43
    order = gradient_cell_order(4, 3)
    square = face(cx, "12 13 23")
    pyramid = face(cx, "12 13 14 23")
    assert (face(cx, "13 23"), square) in order
    assert (face(cx, "11 12"), square) in order
    assert (face(cx, "11 13"), square) in order
    assert (face(cx, "11 14"), square) not in order
    assert (face(cx, "11 12 14"), pyramid) in order
    assert (face(cx, "11 13 14"), pyramid) in order


def test_cell_order_cases(m43):
    spec, matching, cx = m43
    order = morse_complex(4, 3).order
    square = face(cx, "12 13 23")
    assert (face(cx, "11 13"), square) in order
    assert (face(cx, "11 12"), square) in order
    assert (face(cx, "13 23"), square) in order
    assert (face(cx, "11 14"), square) not in order
    # type (a) target: inclusions only
    tet = face(cx, "13 14 23 34")
    assert (face(cx, "13 14 23"), tet) in order
    assert (face(cx, "12 13 23"), tet) not in order


@pytest.mark.parametrize("q,s", [(q, s) for q in range(3, 7) for s in range(3, q + 1)])
def test_cell_order_matches_gradient_paths(q, s):
    assert morse_complex(q, s).order == gradient_cell_order(q, s)


def test_morse_complex_cells_match_published_lists():
    mc = morse_complex(4, 3)
    cx = l2(4)

    def group(texts):
        return tuple(sorted(face(cx, t) for t in texts))

    assert mc.cells[3] == group(["12 13 14 23", "13 14 23 34", "12 14 23 24"])
    assert mc.cells[2] == group(
        [
            "12 13 23", "13 14 34", "13 14 23", "13 14 11", "12 14 24",
            "12 14 23", "12 14 11", "14 23 34", "14 23 24", "14 34 44",
            "14 24 44", "12 24 22", "12 23 24", "13 34 33", "13 23 34",
        ]
    )
    assert mc.cells[1] == group(
        [
            "12 14", "12 23", "12 24", "12 11", "12 22", "13 14", "13 23",
            "13 34", "13 11", "13 33", "14 24", "14 23", "14 34", "14 11",
            "14 44", "23 24", "23 34", "24 22", "24 44", "34 33", "34 44",
        ]
    )
    assert len(mc.cells[0]) == 10

    pyramid = face(cx, "12 13 14 23")
    under = {sig for sig, tau in mc.order if tau == pyramid}
    assert under == {
        face(cx, "12 13 23"),
        face(cx, "11 12 14"),
        face(cx, "11 13 14"),
        face(cx, "13 14 23"),
        face(cx, "12 14 23"),
    }


def test_euler_characteristic_matches_ambient_complex():
    for q in range(3, 6):
        cx = l2(q)
        fv = cx.f_vector()
        euler_f = sum((-1) ** i * fv[i + 1] for i in range(len(fv) - 1))
        for s in range(3, q + 1):
            counts = critical_counts(q, s)
            euler_c = sum((-1) ** i * c for i, c in enumerate(counts))
            assert euler_c == euler_f


def test_morse_complex_order_sizes_at_q6():
    for s, pairs in ((3, 31719), (6, 246385)):
        mc = morse_complex(6, s)
        assert len(mc.order) == pairs
        assert sum(map(len, mc.cells)) == len(critical_closed_form_l2(6, s))


def test_morse_complex_order_reads_its_own_cells(monkeypatch):
    from morseres import morse

    calls = []
    closed_form = morse.critical_closed_form_l2
    monkeypatch.setattr(
        morse, "critical_closed_form_l2", lambda q, s: calls.append((q, s)) or closed_form(q, s)
    )
    mc = morse_complex(5, 3)
    assert len(mc.order) > 0
    assert len(calls) <= 1


def naive_partition(faces, spec):
    """Group by the largest contained pivot, scanning the order from the top."""
    groups = {}
    for gamma in faces:
        for sigma in reversed(spec.order):
            if sigma & gamma == sigma:
                groups.setdefault(sigma, set()).add(gamma)
                break
    return groups


def naive_matching_and_critical(faces, spec):
    """Matched edges within each group, sorted, and the faces in no edge."""
    groups = naive_partition(faces, spec)
    pairs, critical = [], set(faces)
    for sigma, members in groups.items():
        vbit = 1 << spec.omega[sigma]
        for tau in members:
            if tau & vbit and tau ^ vbit in members:
                pairs.append((tau, tau ^ vbit))
                critical.difference_update(pairs[-1])
    pairs.sort(key=lambda e: (e[0].bit_count(), e[0], e[1]))
    return tuple(pairs), frozenset(critical)


def random_specs(cx, count, seed):
    """Random pivot orders on cx, each holding a pivot on the highest
    vertex bit and a chosen vertex outside every pivot."""
    rng = random.Random(seed)
    n = len(cx.vertices)
    top = 1 << (n - 1)
    faces = [f for f in cx.faces() if f.bit_count() <= 3]
    for _ in range(count):
        order = rng.sample(faces, rng.randint(1, 8))
        if not any(f & top for f in order):
            order.append(rng.choice([f for f in faces if f & top]))
        rng.shuffle(order)
        omega = {}
        for sigma in order:
            omega[sigma] = rng.choice([v for v in range(n) if not sigma >> v & 1])
        yield MatchingSpec(cx, tuple(order), omega)


def groups_by_pivot_tables(faces, spec):
    """The non-empty groups as the engine's face walk finds them: the
    highest bit of the AND of the two pivot tables' entries for a face is
    its largest pivot's place in ``spec.order``, counted from 1."""
    lo, hi, h, low, high = _pivot_tables(spec)
    groups = {}
    for f in faces:
        if g := (lo[f & low] & hi[f >> h & high]).bit_length():
            groups.setdefault(spec.order[g - 1], set()).add(f)
    return groups


def containment_table_per_bit(parts, width):
    """Entry x has bit i set when parts[i] lies in x: each part marks its
    own entry, and then each bit b in turn passes every entry without b
    on to the entry with it, one pass of 2^width entries per bit."""
    table = [0] * (1 << width)
    for i, part in enumerate(parts):
        table[part] |= 1 << i
    for b in range(width):
        bit = 1 << b
        table = [t | table[x ^ bit] if x & bit else t for x, t in enumerate(table)]
    return table


def test_containment_table_equals_the_per_bit_transform():
    rng = random.Random(5)
    assert _containment_table([], 0) == [0]
    assert _containment_table([0, 0], 0) == [0b11]
    for width in range(11):
        assert _containment_table([], width) == [0] * (1 << width)
        for count in (1, 3, 12, 40):
            parts = [rng.getrandbits(width) for _ in range(count)]
            table = _containment_table(parts, width)
            assert table == containment_table_per_bit(parts, width), (width, parts)


@pytest.mark.parametrize("cx", [taylor(5), l2(4)], ids=["taylor5", "l2_4"])
def test_partition_equals_top_down_scan(cx):
    faces = list(cx.faces())
    rng = random.Random(7)
    for spec in random_specs(cx, 25, seed=len(cx.vertices)):
        assert groups_of(faces, spec) == naive_partition(faces, spec)
        subset = [f for f in faces if rng.random() < 0.4]
        assert groups_of(subset, spec) == naive_partition(subset, spec)
        # the program's own lookup, as `_walk` makes it
        for chosen in (faces, subset):
            assert groups_by_pivot_tables(chosen, spec) == naive_partition(chosen, spec)


@pytest.mark.parametrize("cx", [taylor(5), l2(4)], ids=["taylor5", "l2_4"])
def test_engine_equals_reference_on_random_specs(cx):
    faces = list(cx.faces())
    rng = random.Random(8)
    for spec in random_specs(cx, 25, seed=len(cx.vertices) + 1):
        # also on face sets that are not closed under taking subsets
        for chosen in (faces, [f for f in faces if rng.random() < 0.6]):
            pairs, critical = naive_matching_and_critical(chosen, spec)
            matching = build_matching(chosen, spec)
            assert matching.pairs == pairs
            matched = {f for pair in matching.pairs for f in pair}
            cells = critical_cells(chosen, spec)
            assert cells == frozenset(chosen) - matched
            assert cells == critical


@pytest.mark.parametrize("engine", [build_matching, critical_cells])
def test_engine_rejects_faces_out_of_order(engine):
    spec, _ = matching_l2(3, 3)
    faces = list(spec.complex.faces())
    assert engine(faces[:5], spec) is not None
    for bad in (faces[::-1], faces[:5] + faces[4:], [0b11, 0b100]):
        with pytest.raises(ValueError, match="order"):
            engine(bad, spec)


def engine_matches_reference(faces, spec):
    """Both engine calls, each fed ``faces`` by a one-shot generator,
    against the reference matching."""
    pairs, critical = naive_matching_and_critical(faces, spec)
    assert build_matching((f for f in faces), spec).pairs == pairs
    assert critical_cells((f for f in faces), spec) == critical
    return pairs, critical


@pytest.mark.parametrize("cx", [taylor(5), l2(4)], ids=["taylor5", "l2_4"])
def test_walk_edge_families(cx):
    faces = list(cx.faces())
    for spec in random_specs(cx, 10, seed=len(cx.vertices) + 2):
        # a whole cardinality removed: nothing is matched across the gap
        for gap in (1, 2, 3):
            family = [f for f in faces if f.bit_count() != gap]
            pairs, _ = engine_matches_reference(family, spec)
            assert all(big.bit_count() not in (gap, gap + 1) for big, _ in pairs)
        # one cardinality only: no edge, every face critical
        for card in (1, 2, 3):
            level = [f for f in faces if f.bit_count() == card]
            assert engine_matches_reference(level, spec) == ((), frozenset(level))
        assert engine_matches_reference([], spec) == ((), frozenset())


@pytest.mark.parametrize("batch", [1, 2, 3, 7, 64])
def test_walk_batches_do_not_change_the_matching(monkeypatch, batch):
    from morseres import morse

    monkeypatch.setattr(morse, "_WALK_BATCH", batch)
    rng = random.Random(batch)
    for cx in (taylor(5), l2(4)):
        faces = list(cx.faces())
        for spec in random_specs(cx, 5, seed=batch):
            engine_matches_reference(faces, spec)
            engine_matches_reference([f for f in faces if rng.random() < 0.6], spec)
