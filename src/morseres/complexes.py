"""Simplicial complexes: the full simplex on generators, the complex of
generator pairs used for second powers, face enumeration and lcm labels.

Faces are plain integers: bitmasks over the complex's vertex list.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError
from .monomials import MonomialIdeal, packed_masks, subset_lcms

# bound on the subsets walked to list a complex's faces (sum of 2^|facet|);
# l2(7) walks 2,098,048
FACE_WALK_LIMIT = 1 << 22


def n2_pairs(q: int) -> tuple[tuple[int, int], ...]:
    """Multiset pairs (i, j) with 1 <= i <= j <= q in lexicographic order."""
    return tuple((i, j) for i in range(1, q + 1) for j in range(i, q + 1))


def _p(i: int, j: int) -> tuple[int, int]:
    """The pair vertex of generators i and j, smaller index first."""
    return (i, j) if i <= j else (j, i)


def submasks(mask: int) -> Iterator[int]:
    """Every subset of ``mask``, from ``mask`` itself down to 0."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


class SimplicialComplex:
    """Facet-defined complex over an ordered vertex list.

    Facets are normalized to an antichain (dominated facets dropped).
    A face is any subset of a facet, encoded as a bitmask whose bit k
    refers to ``vertices[k]``.
    """

    def __init__(self, vertices: Sequence, facets: Iterable[Iterable]):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("vertices must be distinct")
        self._index = {v: k for k, v in enumerate(self.vertices)}
        raw = []
        for f in facets:
            raw.append(f if isinstance(f, int) else self.mask(f))
        maximal = []
        for m in sorted(set(raw), key=lambda x: (-x.bit_count(), x)):
            if not any(m & big == m for big in maximal):
                maximal.append(m)
        if len(maximal) > 1 and 0 in maximal:
            maximal.remove(0)
        self.facets = tuple(sorted(maximal, key=lambda x: (x.bit_count(), x)))

    def mask(self, labels: Iterable) -> int:
        m = 0
        for v in labels:
            m |= 1 << self._index[v]
        return m

    def members(self, face: int) -> tuple:
        return tuple(self.vertices[k] for k in range(len(self.vertices)) if face >> k & 1)

    def vertex_bit(self, label) -> int:
        return self._index[label]

    @property
    def is_void(self) -> bool:
        return not self.facets

    def is_face(self, face) -> bool:
        if not isinstance(face, int):
            face = self.mask(face)
        return any(face & f == face for f in self.facets)

    @cached_property
    def _face_list(self) -> tuple[int, ...]:
        walk = sum(1 << facet.bit_count() for facet in self.facets)
        if walk > FACE_WALK_LIMIT:
            raise CapacityError(
                f"listing faces walks {walk} facet subsets, above the bound {FACE_WALK_LIMIT}"
            )
        if self.is_void:
            return ()
        *rest, top = self.facets
        # the subsets of the largest facet, one list per cardinality, by
        # doubling over its bits from the lowest: each new bit tops every
        # face so far, so each level stays in increasing mask order; the
        # levels are extended from the top down, each reading the one
        # below before it grows
        levels, bits = [[0]], top
        while bits:
            bit = bits & -bits
            levels.append([])
            for k in range(len(levels) - 1, 0, -1):
                levels[k] += [f | bit for f in levels[k - 1]]
            bits ^= bit
        # the other facets add only their subsets the largest one misses,
        # which leave each level nearly sorted
        for sub in {sub for facet in rest for sub in submasks(facet) if sub | top != top}:
            levels[sub.bit_count()].append(sub)
        for level in levels:
            level.sort()
        return tuple(chain.from_iterable(levels[1:]))

    def faces(self) -> Iterator[int]:
        """Each non-empty face exactly once, ordered by (cardinality, mask)."""
        return iter(self._face_list)

    def f_vector(self) -> tuple[int, ...]:
        """(f_0, f_1, ..., f_{d+1}) with f_0 = 1 for the empty face."""
        if self.is_void:
            return (0,)
        counts = [1] + [0] * (self.dim + 1)
        for m in self._face_list:
            counts[m.bit_count()] += 1
        return tuple(counts)

    @property
    def dim(self) -> int:
        return max(f.bit_count() for f in self.facets) - 1


def taylor(q: int) -> SimplicialComplex:
    """Full simplex on generator indices 1..q."""
    if q < 1:
        raise ValueError("q must be >= 1")
    verts = tuple(range(1, q + 1))
    return SimplicialComplex(verts, [verts])


@lru_cache(maxsize=32)
def l2(q: int) -> SimplicialComplex:
    """Complex on the pair vertices (i, j), i <= j, supporting resolutions
    of second powers of square-free ideals on q generators.

    Facets: the block of all square-free pairs {(i, j) : i < j} and, for
    each i, the star {(i, j) : j in 1..q}.  For q <= 2 normalization
    leaves only the stars.

    Memoized: every call with the same q returns one shared instance, so
    its face list is built once per process.  Callers must not mutate it.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    verts = n2_pairs(q)
    block = [(i, j) for i in range(1, q + 1) for j in range(i + 1, q + 1)]
    stars = [
        [(min(i, j), max(i, j)) for j in range(1, q + 1)]
        for i in range(1, q + 1)
    ]
    return SimplicialComplex(verts, [block] + stars)


class LabeledComplex:
    """Complex plus one monomial generator per vertex; faces are labeled
    with the lcm of their vertex labels, the OR of the generators' packed
    masks, read from two subset-lcm tables: one over the low half of the
    vertex bits and one over the high half (2^14 entries each at
    ``l2(7)``)."""

    __slots__ = ("_lo", "_hi", "_h", "_low")

    def __init__(self, complex: SimplicialComplex, ideal: MonomialIdeal):
        if len(ideal.generators) != len(complex.vertices):
            raise ValueError("need exactly one generator per vertex")
        masks = packed_masks(ideal.generators)
        h = len(masks) // 2
        self._h, self._low = h, (1 << h) - 1
        self._lo, self._hi = subset_lcms(masks[:h]), subset_lcms(masks[h:])

    def packed_label(self, face: int) -> int:
        """The label of ``face`` as a packed mask (see ``packed_masks``)."""
        return self._lo[face & self._low] | self._hi[face >> self._h]
