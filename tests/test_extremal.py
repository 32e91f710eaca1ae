import time
from itertools import combinations

import pytest

from morseres.betti import pd_formula
from morseres.errors import CapacityError
from morseres.extremal import (
    MAX_Q,
    admissible_subsets,
    check_qs,
    extremal_generators,
    power_generators,
    single_relation,
    subset_name,
)
from morseres.monomials import MonomialIdeal, lcm_of
from morseres.morse import matching_l2
from morseres.relations import (
    DivRel,
    minimal_relations,
    relation_holds,
    square_relation_families,
)
from morseres.sampling import random_ideals


def test_admissible_subsets_one_relation():
    subsets = admissible_subsets(4, single_relation(3))
    assert len(subsets) == 13
    excluded = {frozenset({1}), frozenset({1, 4})}
    universe = {
        frozenset(c) for k in range(1, 5) for c in combinations(range(1, 5), k)
    }
    assert set(subsets) == universe - excluded


def test_admissible_subsets_empty_relations():
    assert len(admissible_subsets(3)) == 7
    for q in range(1, 7):
        assert len(admissible_subsets(q)) == 2**q - 1


def test_admissible_subsets_two_relations():
    subsets = admissible_subsets(4, [(1, {2, 3}), (4, {2, 3})])
    assert len(subsets) == 12
    gone = {frozenset({1}), frozenset({4}), frozenset({1, 4})}
    assert not gone & set(subsets)


def test_admissible_subsets_canonical_order():
    subsets = admissible_subsets(3)
    assert [tuple(sorted(a)) for a in subsets] == [
        (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3),
    ]


def test_input_validation():
    with pytest.raises(ValueError):
        admissible_subsets(3, [(5, {1, 2})])
    with pytest.raises(CapacityError):
        admissible_subsets(17)
    with pytest.raises(ValueError):
        power_generators(4, [(1, {2})], 2)


def test_generators_match_printed_example():
    ideal = extremal_generators(4, single_relation(3))
    printed = [
        "y_{12}y_{13}y_{123}y_{124}y_{134}y_{1234}",
        "y_{2}y_{12}y_{23}y_{24}y_{123}y_{124}y_{234}y_{1234}",
        "y_{3}y_{13}y_{23}y_{34}y_{123}y_{134}y_{234}y_{1234}",
        "y_{4}y_{24}y_{34}y_{124}y_{134}y_{234}y_{1234}",
    ]
    assert [str(g) for g in ideal.generators] == printed
    assert relation_holds(ideal, DivRel(1, {2, 3}))


def test_first_two_generators_multiply():
    ideal = extremal_generators(4, single_relation(3))
    e1, e2 = ideal.generators[0], ideal.generators[1]
    expected = ideal.ring.parse(
        "y_{2}y_{12}^2y_{13}y_{23}y_{24}y_{123}^2y_{124}^2y_{134}y_{234}y_{1234}^2"
    )
    assert e1 * e2 == expected


def test_small_empty_relation_generators():
    ideal = extremal_generators(2)
    assert [str(g) for g in ideal.generators] == ["y_{1}y_{12}", "y_{2}y_{12}"]


def test_generators_squarefree_and_distinct():
    for q in range(2, 6):
        for rels in ((), single_relation(3) if q >= 3 else ()):
            ideal = extremal_generators(q, rels)
            assert all(g.is_squarefree for g in ideal.generators)
            assert len(set(ideal.generators)) == q


def test_power_counts():
    assert power_generators(4, single_relation(3), 2).q == 10
    assert power_generators(4, single_relation(3), 1).generators == extremal_generators(
        4, single_relation(3)
    ).generators
    assert power_generators(3, (), 2).q == 6
    assert power_generators(3, (), 2).is_minimal


def test_extremal_satisfies_requested_relations():
    rels = [(1, {2, 3}), (4, {2, 3})]
    ideal = extremal_generators(4, rels)
    for b, B in rels:
        assert relation_holds(ideal, DivRel(b, B))


@pytest.mark.parametrize("q", range(3, 7))
def test_minimal_relations_are_exactly_the_requested_ones(q):
    assert minimal_relations(extremal_generators(q)) == frozenset()
    for s in range(3, q + 1):
        ideal = extremal_generators(q, single_relation(s))
        assert minimal_relations(ideal) == frozenset({DivRel(1, frozenset(range(2, s + 1)))})


@pytest.mark.parametrize(
    "q,s,J",
    [(4, 3, (4,)), (5, 3, (4, 5)), (5, 4, (5,)), (6, 3, (5,)), (6, 4, (5, 6))],
)
def test_equal_b_set_divisibility_matches_brute_force(q, s, J):
    # relations (b, {2..s}) for b in {1} | J: generator i divides the lcm
    # of a subset avoiding it exactly when i is a related index and the
    # subset covers 2..s
    B = frozenset(range(2, s + 1))
    rels = [(1, B)] + [(b, B) for b in J]
    ideal = extremal_generators(q, rels)
    related = {1} | set(J)
    for mask in range(1 << q):
        sigma = {k + 1 for k in range(q) if mask >> k & 1}
        target = lcm_of([ideal.generators[k - 1] for k in sigma], ring=ideal.ring)
        for i in range(1, q + 1):
            if i in sigma:
                continue
            brute = ideal.generators[i - 1].divides(target)
            predicted = i in related and B <= sigma
            assert brute == predicted, (i, sigma)


def test_subset_name_rendering():
    assert subset_name({1, 3, 4}, 4) == "y_{134}"
    assert subset_name({2}, 4) == "y_{2}"
    assert subset_name({1, 12}, 12) == "y_{1,12}"


def test_subset_names_stay_distinct_up_to_max_q():
    # without one separator per ideal, {12} and {1, 2} both read y_{12}
    assert subset_name({12}, 12) != subset_name({1, 2}, 12)
    rels = single_relation(3)
    ring = extremal_generators(MAX_Q, rels).ring
    assert len(set(ring.names)) == len(ring) == len(admissible_subsets(MAX_Q, rels))
    assert power_generators(12, rels, 2).q == 78


def test_extremal_ideal_file_reads_back_within_budget(tmp_path):
    # 1,791 subset variables: a parse that tries every name at every
    # position of each generator's text takes about 50 s on this ideal
    # on a 2-core host
    ideal = extremal_generators(11, single_relation(3))
    path = tmp_path / "e11.json"
    ideal.save(path)
    start = time.perf_counter()
    back = MonomialIdeal.load(path)
    elapsed = time.perf_counter() - start
    assert back.generators == ideal.generators
    assert elapsed < 2, f"load took {elapsed:.2f}s, budget 2s"


@pytest.mark.parametrize("q, s", [(4, 2), (3, 4), (2, 2), (5, 6)])
def test_every_caller_rejects_s_outside_3_to_q(q, s):
    def draw(q, s):
        return next(random_ideals(1, q, s))

    for call in (check_qs, pd_formula, draw, matching_l2, square_relation_families):
        with pytest.raises(ValueError, match="need 3 <= s <= q"):
            call(q, s)


def test_check_qs_accepts_the_range():
    for q in range(3, 8):
        for s in range(3, q + 1):
            check_qs(q, s)
