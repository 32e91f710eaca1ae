"""Construction of relation-extremal square-free ideals and their powers.

Given divisibility relations (b, B) on indices 1..q, the extremal ideal
has one square-free generator per index, built from subset-indexed
variables y_A.  Its generators satisfy exactly the requested relations.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .errors import CapacityError, InvariantViolation
from .monomials import Monomial, MonomialIdeal, VariableSet

MAX_Q = 16


def normalize_relations(relations) -> tuple[tuple[int, frozenset[int]], ...]:
    """Check (b, iterable) pairs and freeze each index set."""
    out = []
    for b, B in relations or ():
        B = frozenset(int(x) for x in B)
        if not B:
            raise ValueError("relation needs a non-empty index set")
        out.append((int(b), B))
    return tuple(out)


def _check_range(q: int, relations) -> None:
    if q < 1:
        raise ValueError("q must be >= 1")
    if q > MAX_Q:
        raise CapacityError(f"q={q} exceeds the subset-variable bound q <= {MAX_Q}")
    for b, B in relations:
        if not 1 <= b <= q or not all(1 <= x <= q for x in B):
            raise ValueError(f"relation ({b}, {sorted(B)}) has indices outside 1..{q}")


def subset_name(members: Iterable[int], q: int) -> str:
    """y_A for a subset A of 1..q; with q >= 10 members are comma
    separated, so that y_{1,2} and y_{12} stay distinct."""
    sep = "," if q > 9 else ""
    return "y_{" + sep.join(map(str, sorted(members))) + "}"


def admissible_subsets(q: int, relations=()) -> tuple[frozenset[int], ...]:
    """Non-empty A in 1..q such that each relation (b, B) has b not in A
    or A meeting B.  Canonical order: by cardinality, then sorted members."""
    rels = normalize_relations(relations)
    _check_range(q, rels)
    out = []
    for k in range(1, q + 1):
        for combo in combinations(range(1, q + 1), k):
            A = frozenset(combo)
            if all(b not in A or A & B for b, B in rels):
                out.append(A)
    return tuple(out)


def extremal_generators(q: int, relations=()) -> MonomialIdeal:
    """The square-free extremal ideal for the given relations.

    Generator i is the product of y_A over admissible A containing i;
    the ring holds exactly the admissible subset variables.
    """
    subsets = admissible_subsets(q, relations)
    ring = VariableSet(subset_name(A, q) for A in subsets)
    gens = []
    for i in range(1, q + 1):
        exps = tuple(1 if i in A else 0 for A in subsets)
        gens.append(Monomial(ring, exps))
    return MonomialIdeal(ring, gens)


def power_generators(q: int, relations=(), r: int = 2) -> MonomialIdeal:
    """Products of r extremal generators, one per degree vector.

    With every relation touching at least two indices these products are
    pairwise distinct and generate the power minimally; a collision is
    reported as an invariant violation.
    """
    rels = normalize_relations(relations)
    if r < 1:
        raise ValueError("power must be >= 1")
    for b, B in rels:
        if len(B) < 2:
            raise ValueError(f"relation ({b}, {sorted(B)}) needs |B| >= 2 for powers")
    ideal = extremal_generators(q, rels)
    power = ideal.power(r)
    if len(set(power.generators)) != len(power.generators):
        raise InvariantViolation(
            f"power generators collide for q={q}, r={r}, relations={rels}"
        )
    return power


def single_relation(s: int) -> tuple[tuple[int, frozenset[int]], ...]:
    """The one-relation set (1, {2..s})."""
    if s < 3:
        raise ValueError("s must be >= 3")
    return ((1, frozenset(range(2, s + 1))),)


def check_qs(q: int, s: int) -> None:
    """Reject (q, s) unless 3 <= s <= q, the range in which the relation
    (1, {2..s}) on q generators is studied."""
    if not 3 <= s <= q:
        raise ValueError(f"need 3 <= s <= q (got q={q}, s={s})")
