"""Seeded generation of square-free ideals satisfying a divisibility
relation, for randomized property suites."""

from __future__ import annotations

import random
from typing import Iterator

from .extremal import check_qs
from .monomials import MonomialIdeal, VariableSet, minimal_indices, packed_to_monomial

LETTERS = "abcdefghijklmnop"
# draws tried before giving up
MAX_TRIES = 10_000


def random_squarefree_ideal(
    rng: random.Random, q: int = 4, s: int = 3, num_vars: int = 6
) -> MonomialIdeal:
    """A minimally generated square-free ideal on q generators whose
    first generator divides lcm of generators 2..s, drawn from ``rng``.

    Generators 2..q are random square-free monomials, generator 1 is a
    random divisor of the lcm of generators 2..s, and draws are rejected
    until the generating set is minimal.
    """
    check_qs(q, s)
    if not 2 <= num_vars <= len(LETTERS):
        raise ValueError(f"num_vars must be in 2..{len(LETTERS)}; generators need two variables")
    ring = VariableSet(LETTERS[:num_vars])

    # square-free monomials as variable bitmasks, which are also their
    # packed masks (every exponent is at most 1)
    def draw_from(indices):
        while True:
            picked = [v for v in indices if rng.random() < 0.5]
            if len(picked) >= 2:
                return sum(1 << v for v in picked)

    for _ in range(MAX_TRIES):
        rest = [draw_from(range(num_vars)) for _ in range(q - 1)]
        target = 0
        for g in rest[: s - 1]:
            target |= g
        if target.bit_count() < 2:
            continue
        first = draw_from([v for v in range(num_vars) if target >> v & 1])
        masks = [first] + rest
        if len(minimal_indices(masks)) == q:
            return MonomialIdeal(ring, [packed_to_monomial(g, ring) for g in masks])
    raise RuntimeError("failed to draw a minimal ideal; widen num_vars")


def random_ideals(
    trials: int,
    q: int = 4,
    s: int = 3,
    seed: int = 0,
    num_vars: int = 6,
) -> Iterator[MonomialIdeal]:
    """A deterministic stream of `trials` ideals for one seed."""
    rng = random.Random(seed)
    for _ in range(trials):
        yield random_squarefree_ideal(rng, q, s, num_vars)
