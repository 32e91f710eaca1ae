"""Discrete Morse matchings: the generic engine, the specific matching
that prunes the pair complex under one divisibility relation, gradient
paths and the resulting cell order.

The critical cells of that matching are also read straight from their
description, which splits them into three disjoint parts, in two ways:
``critical_closed_form_l2`` builds each cell as an OR of precomputed
parts (q <= 7), and ``critical_counts`` counts them by dimension from
their count polynomial (q <= 16).  Neither lists a face of the pair
complex or shares code with the engine's face walk, which
``matching_l2`` and ``is_acyclic`` use and which the two are checked
against.

Faces are bitmasks over the ambient complex's vertex list; the empty
face is excluded from matchings (it is always critical and carries no
cell of the resolution).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, islice, product
from math import comb
from operator import eq, or_, xor
from typing import Iterable, Iterator, Mapping

from .complexes import LabeledComplex, SimplicialComplex, _p, l2, submasks, taylor
from .errors import CapacityError
from .extremal import MAX_Q, check_qs


@dataclass(frozen=True)
class MatchingSpec:
    """A totally ordered list of pivot faces and a vertex choice per
    pivot, with the chosen vertex outside its face."""

    complex: SimplicialComplex
    order: tuple[int, ...]
    omega: Mapping[int, int]

    def __post_init__(self):
        for sigma in self.order:
            v = self.omega[sigma]
            if sigma >> v & 1:
                raise ValueError(
                    f"omega assigns vertex bit {v} inside its own face {sigma:b}"
                )


class Matching:
    """Directed matched edges (bigger, smaller), each face used once,
    stored as the map ``up`` from each smaller face to its bigger
    partner, in the order the edges were given.  Every edge is checked
    by ``_checked_up``, which also checks each matching that
    ``build_matching`` makes, so no way of building one skips a rule."""

    __slots__ = ("up",)

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        up: dict[int, int] = {}
        count = 0
        for count, (big, small) in enumerate(pairs, 1):
            up[small] = big
        self.up = _checked_up(up, count)

    def __len__(self) -> int:
        return len(self.up)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((big, small) for small, big in self.up.items())


def _checked_up(up: dict[int, int], edges: int) -> dict[int, int]:
    """``up``, the map of the ``edges`` matched edges from smaller to
    bigger face, once every edge drops exactly one vertex and no face
    lies in two edges (a repeated smaller face left fewer keys than
    edges); ``ValueError`` otherwise."""
    for small, big in up.items():
        # faces one vertex apart differ in one bit, the smaller face being
        # the lower int
        if small >= big or (big ^ small).bit_count() != 1:
            raise ValueError("matched edge must drop exactly one vertex")
    # sorted, a repeated bigger face sits beside its twin; a set of them
    # would hold 932,928 faces (32 MiB) at (7, 3)
    bigger = sorted(up.values())
    if (
        len(up) != edges
        or any(map(eq, bigger, islice(bigger, 1, None)))
        or not up.keys().isdisjoint(bigger)
    ):
        raise ValueError("a face occurs in more than one matched edge")
    return up


def _containment_table(parts: list[int], width: int) -> list[int]:
    """Entry x (a ``width``-bit mask) has bit i set when parts[i] lies in x."""
    table = [0] * (1 << width)
    for i, part in enumerate(parts):
        table[part] |= 1 << i
    for b in range(width):
        bit = 1 << b
        table = [t | table[x ^ bit] if x & bit else t for x, t in enumerate(table)]
    return table


def _pivot_tables(spec: MatchingSpec) -> tuple[list[int], list[int], int, int, int]:
    """Containment tables over the low and the high half of the pivots'
    support, with the half width and the two halves' masks: a face holds
    the pivots ``lo[face & low] & hi[face >> h & high]``, as bits over the
    order."""
    order = spec.order
    width = max(order, default=0).bit_length()
    h = width // 2
    low, high = (1 << h) - 1, (1 << (width - h)) - 1
    lo = _containment_table([sigma & low for sigma in order], h)
    hi = _containment_table([sigma >> h for sigma in order], width - h)
    return lo, hi, h, low, high


# faces read per batch of ``_walk``; one batch per cardinality (up to
# 172,391 edges at (7, 3)) lifted the peak of the engine's run at (7, 3)
# by 1.6 MB, while 4,096 faces keep each batch list within 32 KiB
_WALK_BATCH = 4096


def _walk(
    faces: Iterable[int], spec: MatchingSpec
) -> Iterator[tuple[list[int], list[int], list[int]]]:
    """One pass over ``faces``, handing over one batch per ``_WALK_BATCH``
    faces read: the bigger faces of the matched edges settled in it, in
    (cardinality, mask) order, their smaller faces in the same order, and
    the faces settled as unmatched.

    A face tau is matched to tau ^ v, v being the chosen vertex of tau's
    group, the group of its largest pivot in ``spec.order`` (read from
    the pivot tables, whose AND has bit i set for each pivot i in tau);
    tau ^ v is in that group too, as v lies outside its pivot.  Faces
    come in strictly increasing (cardinality, mask) order, so only the
    faces one cardinality below that lack their v are held, each mapped
    to itself so that an edge reuses the stored int; a held face is
    matched from one cardinality up or not at all.  The faces need not
    be closed under subsets, and across a missing cardinality nothing is
    matched."""
    lo, hi, h, low, high = _pivot_tables(spec)
    vbits = [0] + [1 << spec.omega[sigma] for sigma in spec.order]
    below, level = {}, {}
    card, last = 0, -1
    faces = iter(faces)
    while batch := list(islice(faces, _WALK_BATCH)):
        bigs, smalls, free = [], [], []
        for tau in batch:
            c = tau.bit_count()
            if c != card or tau <= last:
                if c <= card:
                    raise ValueError("faces must come in increasing (cardinality, mask) order")
                free += below
                below, level, card = level, {}, c
            last = tau
            v = vbits[(lo[tau & low] & hi[tau >> h & high]).bit_length()]
            if tau & v:
                small = below.pop(tau ^ v, None)
                if small is None:
                    free.append(tau)
                else:
                    bigs.append(tau)
                    smalls.append(small)
            elif v:
                level[tau] = tau
            else:
                free.append(tau)
        yield bigs, smalls, free
    yield [], [], [*below, *level]


def build_matching(faces: Iterable[int], spec: MatchingSpec) -> Matching:
    """Within each group, match tau to tau minus the chosen vertex when
    both are faces.  The map ``up`` is filled a batch of the walk at a
    time and checked once, as ``Matching`` checks its edges."""
    up: dict[int, int] = {}
    edges = 0
    for bigs, smalls, _ in _walk(faces, spec):
        up.update(zip(smalls, bigs))
        edges += len(bigs)
    matching = Matching.__new__(Matching)
    matching.up = _checked_up(up, edges)
    return matching


def critical_cells(faces: Iterable[int], spec: MatchingSpec) -> frozenset[int]:
    """The faces that ``build_matching`` leaves unmatched."""
    return frozenset(chain.from_iterable(free for _, _, free in _walk(faces, spec)))


def _bit_table(width: int, shift: int) -> list[tuple[int, ...]]:
    """Entry x (a ``width``-bit mask) lists the single bits of x, each
    shifted left by ``shift``."""
    table = [()]
    for x in range(1, 1 << width):
        table.append(table[x & (x - 1)] + ((x & -x) << shift,))
    return table


def is_acyclic(faces: Iterable[int], matching: Matching) -> bool:
    """No directed cycle after reversing the matched edges.

    A cycle climbs a reversed matched edge and then drops along an
    inclusion, over and over, so it stays within two adjacent
    cardinalities and passes through bigger partners only: big leads to
    up[big ^ u] for every vertex u of big whose removal leaves a face
    matched upward, other than big's own partner.  The search checks
    that digraph for a cycle, with two cuts that keep the verdict exact
    for any matching:

    - Only swaps that can close a cycle are probed.  Let W be the set of
      vertices the matched edges add.  Along an edge big -> big' =
      up[big ^ u], the vertex w' that big' adds is not in big (else
      w' = u and big' = big), so |big' & W| = |big & W| + 1 - [u in W].
      No edge lowers |big & W| and a cycle returns to its start, so each
      of its edges has u in W, and u, not being the vertex big adds, in
      big's smaller face: only the bits of small & W are probed, and
      big's own partner is never hit.
    - A bigger partner whose smaller face is not a face has no incoming
      edge, so it lies on no cycle: the smaller faces of the partners
      that have successors are tested against ``faces`` in one pass, and
      the partners whose smaller face is missing lose their successors.

    The successors are gathered by a plain loop over the probed bits,
    one ``up.get`` per probe: before Python 3.12 a comprehension costs a
    function call per edge.
    """
    up = matching.up
    if not up:
        return True
    added = reduce(or_, map(xor, up, up.values()))  # W, the vertices the edges add
    # the bits of small & W are read from two half-width tables
    width = added.bit_length()
    h = width // 2
    low = (1 << h) - 1
    lo, hi = _bit_table(h, 0), _bit_table(width - h, h)
    get = up.get
    succ: dict[int, tuple[int, ...]] = {}
    sources: set[int] = set()
    for small, big in up.items():
        x = small & added
        # tuples of ints, unlike lists, leave the cyclic GC's scans, and
        # the empty one is shared by the 773,976 edges at (7, 3) that have
        # no successor
        out = ()
        for bit in lo[x & low] + hi[x >> h]:
            nxt = get(big ^ bit)
            if nxt is not None:
                out += (nxt,)
        if out:
            succ[big] = out
            sources.add(small)
    # what is left are the smaller faces that are not faces
    sources.difference_update(faces)
    for small in sources:
        del succ[up[small]]
    del sources

    # a node is on the current path, still in succ (unvisited), or finished
    on_path: set[int] = set()
    while succ:
        start, out = succ.popitem()
        on_path.add(start)
        stack = [(start, iter(out))]
        while stack:
            node, it = stack[-1]
            for nxt in it:
                if nxt in on_path:
                    return False
                out = succ.pop(nxt, None)
                if out is not None:
                    on_path.add(nxt)
                    stack.append((nxt, iter(out)))
                    break
            else:
                on_path.remove(node)
                stack.pop()
    return True


def is_homogeneous(matching: Matching, labels: LabeledComplex) -> bool:
    """Every matched edge joins faces with equal lcm labels."""
    label = labels.packed_label
    return all(label(big) == label(small) for small, big in matching.up.items())


# ---------------------------------------------------------------------------
# The matching on the pair complex for one relation (1, {2..s})
# ---------------------------------------------------------------------------


def _pivot_faces(q: int, s: int):
    """The pivot faces by type, each as (pair list, j)."""
    ks = range(2, s + 1)
    type1 = [([_p(k, j) for k in ks], j) for j in range(1, q + 1)]
    type2 = []
    for j in range(s + 1, q + 1):
        for t in product((1, j), repeat=len(ks)):
            if 1 in t and j in t:
                type2.append(([_p(k, tk) for k, tk in zip(ks, t)], j))
    type3 = []
    for u in range(s + 1, q + 1):
        for j in range(u + 1, q + 1):
            type3.append(([_p(k, 1) for k in ks] + [(u, j)], j))
    return type1, type2, type3


def matching_l2(q: int, s: int) -> tuple[MatchingSpec, Matching]:
    """The matching that prunes the pair complex given (1, {2..s}).

    Pivot faces come in three types ordered type1 < type2 < type3; ties
    within a type are broken by sorted vertex lists (the critical set
    does not depend on the choice).  The chosen vertex is always the
    pair (1, j) for the face's j.
    """
    check_qs(q, s)
    cx = l2(q)
    order = []
    omega = {}
    for group in _pivot_faces(q, s):
        for pairs, j in sorted(group, key=lambda fj: tuple(sorted(fj[0]))):
            mask = cx.mask(pairs)
            order.append(mask)
            omega[mask] = cx.vertex_bit((1, j))
    spec = MatchingSpec(cx, tuple(order), omega)
    return spec, build_matching(cx.faces(), spec)


def _regions(q: int, s: int):
    cx = l2(q)
    base = cx.mask([_p(k, 1) for k in range(2, s + 1)])
    mid = cx.mask([(i, k) for i in range(2, s + 1) for k in range(i + 1, s + 1)])
    tail = cx.mask([(1, j) for j in range(s + 1, q + 1)])
    return cx, base, mid, tail


CLOSED_FORM_QMAX = 7  # the largest q at which the critical cells are listed
COUNT_QMAX = MAX_Q  # the largest q at which they are counted


def _sums(*parts: list[int]) -> list[int]:
    """Every OR of one mask from each part, the parts lying on disjoint bits."""
    acc = [0]
    for part in parts:
        acc = [a | p for a in acc for p in part]
    return acc


def _critical_cells_l2(q: int, s: int) -> Iterator[int]:
    """Each critical face of ``matching_l2(q, s)`` once, streamed from the
    three disjoint parts of its description (see ``critical_counts``): no
    face of ``l2(q)`` is listed and no blocker is tested, so any q can be
    streamed."""
    cx, base, mid, tail = _regions(q, s)
    ks, js = range(2, s + 1), range(s + 1, q + 1)
    full = (1 << (s - 1)) - 1

    def edges_to(j: int) -> list[int]:
        """Entry x: the pairs (k, j) for the k in {2..s} at x's bits."""
        return [
            cx.mask([_p(k, j) for n, k in enumerate(ks) if x >> n & 1]) for x in range(full + 1)
        ]

    ones = edges_to(1)
    # block faces with no blocker: A = {k : (1, k) in the face} is not all
    # of {2..s}, and for each j > s the edges (k, j) miss some k outside A;
    # the other block edges are free
    frees = list(submasks(mid | tail | cx.mask([(i, j) for i in js for j in js if i < j])))
    to_tail = [edges_to(j) for j in js]
    for a in range(full):
        miss = full ^ a
        allowed = ([e for x, e in enumerate(t) if miss & ~x] for t in to_tail)
        for core in _sums([ones[a]], *allowed):
            # frees ends with 0, and the empty face is no cell
            yield from map(core.__or__, frees if core else frees[:-1])
    # star faces holding a loop (i, i) but not i's type-1 blocker
    for i in range(1, q + 1):
        loop = cx.mask([(i, i)])
        rest = cx.mask([_p(k, i) for k in ks]) & ~loop
        other = cx.mask([_p(i, j) for j in range(1, q + 1)]) & ~(loop | rest)
        yield from _sums([loop], list(submasks(rest))[1:], list(submasks(other)))
    # the base-and-middle family: a non-empty middle, any tail
    yield from _sums([base], list(submasks(mid))[:-1], list(submasks(tail)))


def critical_closed_form_l2(q: int, s: int) -> frozenset[int]:
    """The critical faces of ``matching_l2(q, s)`` read from their
    description, for q <= ``CLOSED_FORM_QMAX`` (``CapacityError`` above:
    (8, 3) alone has 20,120,287 cells)."""
    check_qs(q, s)
    if q > CLOSED_FORM_QMAX:
        raise CapacityError(f"critical cells listed at q <= {CLOSED_FORM_QMAX} (got q={q})")
    return frozenset(_critical_cells_l2(q, s))


def critical_counts(q: int, s: int) -> tuple[int, ...]:
    """The number of critical faces of ``matching_l2(q, s)`` per dimension,
    up to the top one, with no cell listed: entry d is the coefficient of
    x^(d+1) in their count polynomial, so the top dimension is its degree
    minus one.  Bounded at q <= ``COUNT_QMAX``.

    A face of ``l2(q)`` is a graph on [q] inside the block (no loop), or
    a loop (i, i) with edges at i.  Let r = s - 1, u = q - s and
    free = C(r,2) + u + C(u,2).  The critical faces split into three
    disjoint parts, each counted by cardinality (x marks a vertex):

    - Block faces with no blocker.  Let A be the set of k in {2..s} with
      (1, k) in the face; A = {2..s} is the type-1 blocker at 1.  For
      each j > s the type-1 and type-2 blockers at j lie in the face
      exactly when its edges (k, j) cover {2..s} \\ A.  The C(r,2) middle
      edges, the u edges (1, j) and the C(u,2) edges among j > s are
      free: ``sum_{a<r} C(r,a) x^a (1+x)^free [(1+x)^r - x^(r-a) (1+x)^a]^u``.
    - Star faces holding a loop (i, i) but not i's type-1 blocker
      {(k, i) : k in 2..s}, the only blocker inside i's star: each is
      ``x (1+x)^(q-1)`` minus ``x^(r+1) (1+x)^(q-1-r)`` for i = 1 or
      i > s, and minus ``x^r (1+x)^(q-r)`` for 2 <= i <= s, whose
      blocker holds the loop.
    - The base-and-middle family, the base {(1, k) : k in 2..s} plus a
      non-empty set of middle edges (k, k') in {2..s} plus any tail
      edges (1, j), j > s: ``x^r ((1+x)^C(r,2) - 1) (1+x)^u``.

    The sum is taken at x = 2^n, n the number of vertices of ``l2(q)``:
    every coefficient counts faces, so it is below 2^n and is read back as
    one n-bit digit.  The constant term, the empty face, is dropped.
    """
    check_qs(q, s)
    if q > COUNT_QMAX:
        raise CapacityError(f"critical cells counted at q <= {COUNT_QMAX} (got q={q})")
    r, u = s - 1, q - s
    free = comb(r, 2) + u + comb(u, 2)
    n = q * (q + 1) // 2
    x = 1 << n

    def p(e: int) -> int:
        return (1 + x) ** e

    block = sum(comb(r, a) * x**a * p(free) * (p(r) - x ** (r - a) * p(a)) ** u for a in range(r))
    stars = q * x * p(q - 1) - (1 + u) * x ** (r + 1) * p(q - 1 - r) - r * x**r * p(q - r)
    family = x**r * (p(comb(r, 2)) - 1) * p(u)
    value = (block + stars + family) >> n
    coeffs = []
    while value:
        coeffs.append(value & (x - 1))
        value >>= n
    return tuple(coeffs)


def counts_by_dimension(cells: Iterable[int]) -> tuple[int, ...]:
    """Number of faces per dimension (cardinality minus one), up to the
    top dimension."""
    counts = Counter(f.bit_count() - 1 for f in cells)
    return tuple(counts[d] for d in range(max(counts) + 1))


@dataclass(frozen=True)
class FirstPowerPrune:
    """Pruned simplex for the first power: all faces avoiding {2..s},
    together with the matching that removes the rest."""

    complex: SimplicialComplex
    gamma: SimplicialComplex
    spec: MatchingSpec
    matching: Matching


def prune_taylor_first_power(q: int, s: int) -> FirstPowerPrune:
    check_qs(q, s)
    tx = taylor(q)
    sigma = tx.mask(range(2, s + 1))
    spec = MatchingSpec(tx, (sigma,), {sigma: tx.vertex_bit(1)})
    gamma = SimplicialComplex(
        tx.vertices,
        [[v for v in range(1, q + 1) if v != k] for k in range(2, s + 1)],
    )
    return FirstPowerPrune(tx, gamma, spec, build_matching(tx.faces(), spec))


# ---------------------------------------------------------------------------
# Gradient paths and the order among critical cells
# ---------------------------------------------------------------------------


def gradient_cell_order(q: int, s: int) -> frozenset[tuple[int, int]]:
    """The cell order by gradient-path reachability: the pairs (sigma,
    tau) of faces unmatched by ``matching_l2(q, s)``, sigma one dimension
    below tau and reached from it by a walk that drops to a facet and
    climbs that facet's matched edge, over and over."""
    _, matching = matching_l2(q, s)
    up = matching.up
    bigger = set(up.values())
    order = set()
    for tau in l2(q).faces():
        # a single vertex has only the empty face below it
        if tau in up or tau in bigger or tau.bit_count() < 2:
            continue
        seen = {tau}
        stack = [tau]
        while stack:
            big = stack.pop()
            for facet in [big ^ 1 << v for v in range(big.bit_length()) if big >> v & 1]:
                upper = up.get(facet)
                if upper is None:
                    if facet not in bigger:
                        order.add((facet, tau))
                elif upper not in seen:
                    seen.add(upper)
                    stack.append(upper)
    return frozenset(order)


def _lower_cells(regions, s: int, tau: int) -> list[int]:
    """The faces one dimension below tau whose cells lie under tau's
    cell: its facets, and, when tau is of the base-and-middle form with
    a single middle vertex, that vertex swapped for (1, 1) with one of
    (1, 2)..(1, s) dropped.  ``regions`` is ``_regions(q, s)``."""
    out = [tau ^ 1 << v for v in range(tau.bit_length()) if tau >> v & 1]
    cx, base, mid, tail = regions
    gamma = tau & mid
    if tau & base == base and tau & ~(base | mid | tail) == 0 and gamma.bit_count() == 1:
        core = tau ^ gamma | 1 << cx.vertex_bit((1, 1))
        out += [core ^ 1 << cx.vertex_bit((1, ell)) for ell in range(2, s + 1)]
    return out


MORSE_COMPLEX_QMAX = 6  # the largest q at which morse_complex lists cells


@dataclass(frozen=True)
class MorseComplex:
    """Critical cells of the pair complex ``l2(q)`` given (1, {2..s}),
    grouped by dimension."""

    q: int
    s: int
    cells: tuple[tuple[int, ...], ...]

    @cached_property
    def order(self) -> frozenset[tuple[int, int]]:
        """The order relation (sigma, tau) among cells of adjacent
        dimensions, generated per cell from ``cells`` on first read."""
        critical = {f for group in self.cells for f in group}
        regions = _regions(self.q, self.s)
        return frozenset(
            (sigma, tau)
            for tau in critical
            for sigma in _lower_cells(regions, self.s, tau)
            if sigma in critical
        )


def morse_complex(q: int, s: int) -> MorseComplex:
    """Cells of the pruned complex from the closed form; the order is
    built when first read."""
    check_qs(q, s)
    if q > MORSE_COMPLEX_QMAX:
        raise CapacityError(f"morse complex bounded at q <= {MORSE_COMPLEX_QMAX} (got q={q})")
    critical = critical_closed_form_l2(q, s)
    top = max(f.bit_count() for f in critical)
    cells = tuple(
        tuple(sorted(f for f in critical if f.bit_count() == d + 1))
        for d in range(top)
    )
    return MorseComplex(q, s, cells)
