import random

import pytest
from hypothesis import given, settings, strategies as st

from morseres.errors import CapacityError, RingMismatchError
from morseres.monomials import (
    MAX_MASK_BITS,
    Monomial,
    MonomialIdeal,
    VariableSet,
    degree_vectors,
    lcm_of,
    packed_masks,
    packed_to_monomial,
    subset_lcms,
)

RING = VariableSet("abcdefg")


def m(text):
    return RING.parse(text)


def test_lcm_empty_is_one():
    assert lcm_of([], ring=RING) == RING.one()
    with pytest.raises(ValueError):
        lcm_of([])


def test_lcm_examples():
    assert lcm_of([m("ab"), m("bcd")]) == m("abcd")
    assert lcm_of([m("a^2"), m("ab")]) == m("a^2b")


def test_divides_examples():
    assert RING.one().divides(m("a^3bc"))
    assert m("ab").divides(lcm_of([m("bcd"), m("aef")]))
    assert not m("a^2").divides(m("a"))


def test_product_examples():
    assert m("ab") * RING.one() == m("ab")
    assert m("ab") * m("ab") == m("a^2b^2")


def test_ring_mismatch_raises():
    other = VariableSet("xy")
    with pytest.raises(RingMismatchError):
        m("a").lcm(other.parse("x"))
    with pytest.raises(RingMismatchError):
        m("a").divides(other.parse("x"))
    with pytest.raises(RingMismatchError):
        m("a") * other.parse("x")


def test_parse_greedy_multicharacter_names():
    ring = VariableSet(["y_{2}", "y_{12}", "y_{123}"])
    mono = ring.parse("y_{123}y_{12}^2y_{2}")
    assert mono.exponents == (1, 2, 1)
    assert ring.parse(str(mono)) == mono


def test_parse_backtracks_over_prefix_names():
    ring = VariableSet(["a", "ab", "bc"])
    assert ring.parse("abc") == Monomial(ring, [1, 0, 1])
    assert ring.parse("ab^2bc") == Monomial(ring, [0, 2, 1])


def test_parse_rejects_text_with_two_readings():
    with pytest.raises(ValueError, match="more than one reading"):
        VariableSet(["a", "b", "ab"]).parse("ab")


def readings(text, names):
    """Every split of text into names with optional ^k (brute force)."""
    if not text:
        return [[]]
    out = []
    for name in names:
        if text.startswith(name):
            rest, k = text[len(name):], 1
            if rest.startswith("^"):
                digits = len(rest) - len(rest[1:].lstrip("0123456789")) - 1
                if not digits:
                    continue
                rest, k = rest[1 + digits:], int(rest[1:1 + digits])
            out += [[(name, k)] + tail for tail in readings(rest, names)]
    return out


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.text("ab", min_size=1, max_size=3), min_size=1, max_size=5, unique=True),
    st.data(),
)
def test_str_parse_round_trip(names, data):
    ring = VariableSet(names)
    exps = data.draw(st.lists(st.integers(0, 3), min_size=len(names), max_size=len(names)))
    mono = Monomial(ring, exps)
    text = str(mono)
    if text == "1" or len(readings(text, names)) == 1:
        assert ring.parse(text) == mono
    else:
        with pytest.raises(ValueError, match="more than one reading"):
            ring.parse(text)


def test_parse_rejects_unknown():
    with pytest.raises(ValueError):
        RING.parse("abz")


def test_str_round_trip():
    mono = m("a^2bde^3")
    assert str(mono) == "a^2bde^3"
    assert RING.parse(str(mono)) == mono
    assert str(RING.one()) == "1"


def test_variable_set_rejects_duplicates():
    with pytest.raises(ValueError):
        VariableSet(["a", "a"])


exponents = st.lists(st.integers(min_value=0, max_value=3), min_size=7, max_size=7)


def as_mono(exps):
    return Monomial(RING, exps)


@settings(max_examples=60, deadline=None)
@given(exponents, exponents, exponents)
def test_lcm_laws(e1, e2, e3):
    a, b, c = as_mono(e1), as_mono(e2), as_mono(e3)
    assert a.lcm(a) == a
    assert a.lcm(b) == b.lcm(a)
    assert a.lcm(b).lcm(c) == a.lcm(b.lcm(c))
    assert a.divides(a.lcm(b))


@settings(max_examples=60, deadline=None)
@given(exponents, exponents)
def test_divides_antisymmetry(e1, e2):
    a, b = as_mono(e1), as_mono(e2)
    if a.divides(b) and b.divides(a):
        assert a == b


@settings(max_examples=60, deadline=None)
@given(exponents, exponents)
def test_product_squarefree_needs_disjoint_supports(e1, e2):
    a, b = as_mono(e1), as_mono(e2)
    if (a * b).is_squarefree:
        assert a.is_squarefree and b.is_squarefree
        assert not (a.support & b.support)


def test_degree_vectors_match_pair_order():
    vecs = degree_vectors(3, 2)
    assert vecs == (
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    )
    assert len(degree_vectors(4, 2)) == 10
    assert degree_vectors(4, 1) == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def test_ideal_minimalize_divisibility():
    ideal = MonomialIdeal(RING, [m("ab"), m("abc"), m("cd")])
    assert not ideal.is_minimal
    assert ideal.minimalize().generators == (m("ab"), m("cd"))


def test_ideal_minimalize_keeps_first_duplicate():
    ideal = MonomialIdeal(RING, [m("ab"), m("ab"), m("c")])
    assert ideal.minimalize().generators == (m("ab"), m("c"))


def test_ideal_power_order():
    ideal = MonomialIdeal(RING, [m("a"), m("b"), m("c")])
    sq = ideal.power(2)
    assert [str(g) for g in sq.generators] == ["a^2", "ab", "ac", "b^2", "bc", "c^2"]


def test_ideal_json_round_trip(tmp_path):
    ideal = MonomialIdeal(RING, [m("ab"), m("bcd"), m("aef"), m("cg")])
    path = tmp_path / "ideal.json"
    ideal.save(path)
    loaded = MonomialIdeal.load(path)
    assert loaded == ideal
    assert loaded.to_dict()["schema"] == 1
    assert loaded.to_dict()["generators"] == ["ab", "bcd", "aef", "cg"]


def test_packed_masks_agree_with_monomials():
    ms = [m("a^2b"), m("bc"), m("ac^2d"), m("1")]
    packed = packed_masks(ms)
    for a, pa in zip(ms, packed):
        for b, pb in zip(ms, packed):
            assert (pa & ~pb == 0) == a.divides(b)
            assert pa | pb == packed_masks([a.lcm(b)])[0]


def test_subset_lcms_agree_with_lcm_of():
    ms = [m("a^2b"), m("bc"), m("ac^2d"), m("1"), m("eg^3")]
    table = subset_lcms(packed_masks(ms))
    assert len(table) == 1 << len(ms)
    for x, got in enumerate(table):
        chosen = [g for k, g in enumerate(ms) if x >> k & 1]
        assert got == packed_masks([lcm_of(chosen, ring=RING)])[0]
    assert subset_lcms([]) == [0]


@given(st.lists(st.integers(0, 4), min_size=7, max_size=7))
def test_packed_to_monomial_inverts_packed_masks(exponents):
    mono = Monomial(RING, exponents)
    assert packed_to_monomial(packed_masks([mono])[0], RING) == mono


def per_bit_decode(mask, ring):
    """The exponent of variable v counts the set bits t*n + v, one bit at a time."""
    n = len(ring)
    exps = [0] * n
    while mask:
        low = mask & -mask
        exps[(low.bit_length() - 1) % n] += 1
        mask ^= low
    return Monomial(ring, exps)


def test_layer_decode_equals_per_bit_decode():
    rng = random.Random(19)
    rings = [VariableSet("x"), VariableSet("xy"), RING, VariableSet(f"v{i}" for i in range(70))]
    for ring in rings:
        n = len(ring)
        for _ in range(60):
            monos = [Monomial(ring, [rng.choice((0, 0, 1, 1, 2, 3, 7)) for _ in range(n)])
                     for _ in range(rng.randint(1, 3))]
            masks = packed_masks([*monos, lcm_of(monos)])
            # a mask whose layers are not nested decodes bit by bit too
            scattered = rng.getrandbits(n * rng.randint(1, 4))
            for mask in [*masks, scattered, 0]:
                assert packed_to_monomial(mask, ring) == per_bit_decode(mask, ring)


@given(st.lists(st.integers(0, 4), min_size=7, max_size=7))
def test_packed_masks_set_one_bit_per_unit_of_exponent(exponents):
    # bit t*n + v is set iff the exponent of variable v exceeds t
    expected = sum(1 << (t * 7 + v) for v, e in enumerate(exponents) for t in range(e))
    assert packed_masks([Monomial(RING, exponents)]) == [expected]


def test_packed_masks_bound_their_width():
    ring = VariableSet("xy")
    half = MAX_MASK_BITS // 2
    assert packed_masks([Monomial(ring, [half, 1])])[0].bit_length() == MAX_MASK_BITS - 1
    with pytest.raises(CapacityError, match="bits"):
        packed_masks([Monomial(ring, [1, half + 1])])


@pytest.mark.parametrize(
    "data, message",
    [
        ({"schema": 99, "variables": ["a"], "generators": ["a"]}, "schema"),
        ({"schema": 1, "generators": ["a"]}, "variables"),
        ({"schema": 1, "variables": ["a"]}, "generators"),
        (["a"], "JSON object"),
    ],
)
def test_ideal_from_dict_rejects_bad_documents(data, message):
    with pytest.raises(ValueError, match=message):
        MonomialIdeal.from_dict(data)


@pytest.mark.parametrize("bad", [[1.7, 0, 0, 0, 0, 0, 0], ["2", 0, 0, 0, 0, 0, 0]])
def test_monomial_rejects_non_integer_exponents(bad):
    with pytest.raises(TypeError):
        Monomial(RING, bad)
    with pytest.raises(TypeError):
        Monomial(VariableSet("ab"), bad[:2])


def test_monomial_keeps_its_value_checks():
    with pytest.raises(ValueError, match="non-negative"):
        Monomial(RING, [0, -1, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="length"):
        Monomial(RING, [1, 0])
    assert Monomial(VariableSet(()), ()).exponents == ()


def test_every_constructor_route_still_builds_monomials():
    from morseres.extremal import extremal_generators, power_generators, single_relation
    from morseres.sampling import random_ideals

    assert Monomial(RING, (True, 0, 0, 0, 0, 0, 0)) == RING.parse("a")
    assert Monomial(RING, iter([1, 0, 0, 0, 0, 0, 2])) == m("ag^2")
    assert RING.one().exponents == (0,) * 7
    assert Monomial(RING, [0, 1, 0, 0, 0, 0, 0]) == RING.parse("b")
    assert RING.parse("a^2c").exponents == (2, 0, 1, 0, 0, 0, 0)
    assert (m("ab") * m("bc")).exponents == (1, 2, 1, 0, 0, 0, 0)
    assert m("a^2b").lcm(m("bc^3")).exponents == (2, 1, 3, 0, 0, 0, 0)
    assert packed_to_monomial(packed_masks([m("a^3d")])[0], RING) == m("a^3d")
    assert [str(g) for g in extremal_generators(3, single_relation(3)).generators] == [
        "y_{12}y_{13}y_{123}", "y_{2}y_{12}y_{23}y_{123}", "y_{3}y_{13}y_{23}y_{123}"
    ]
    assert power_generators(3, single_relation(3), 2).q == 6
    for g in next(random_ideals(1, 4, 3, seed=3)).generators:
        assert g.is_squarefree and g.degree >= 2


def divides_brute_force(gens):
    """Redundant generator positions by Monomial.divides (first duplicate wins)."""
    return [
        any(i != j and h.divides(g) and (h != g or j < i) for j, h in enumerate(gens))
        for i, g in enumerate(gens)
    ]


small_monomials = st.lists(st.integers(0, 2), min_size=7, max_size=7).map(as_mono)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.one_of(small_monomials, st.just(RING.one())), max_size=7).flatmap(
        lambda gens: st.permutations(gens + gens[: len(gens) // 2])
    )
)
def test_minimality_matches_divides_brute_force(gens):
    ideal = MonomialIdeal(RING, gens)
    redundant = divides_brute_force(gens)
    assert ideal.is_minimal == (not any(redundant))
    kept = tuple(g for g, r in zip(gens, redundant) if not r)
    assert ideal.minimalize().generators == kept
    assert ideal.minimalize().is_minimal


def test_minimality_edge_cases():
    one = RING.one()
    assert MonomialIdeal(RING, []).is_minimal
    assert MonomialIdeal(RING, [one]).is_minimal
    assert not MonomialIdeal(RING, [m("ab"), one]).is_minimal
    assert MonomialIdeal(RING, [m("ab"), one, one]).minimalize().generators == (one,)
    assert MonomialIdeal(RING, [m("a^2"), m("a"), m("a^2")]).minimalize().generators == (m("a"),)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_monomials, max_size=5), st.integers(1, 3))
def test_power_matches_repeated_products(gens, r):
    ideal = MonomialIdeal(RING, gens)
    expected = []
    for vec in degree_vectors(len(gens), r):
        prod = RING.one()
        for g, a in zip(gens, vec):
            for _ in range(a):
                prod = prod * g
        expected.append(prod)
    assert ideal.power(r).generators == tuple(expected)
