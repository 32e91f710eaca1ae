"""Independent Betti-number oracle.

Graded Betti numbers are read off reduced homology of the subcomplex of
the full generator simplex whose lcm labels strictly divide a fixed lcm
value m.  A face's lcm falls short of m iff the face avoids the set M_t of
generators carrying some top exponent bit t of m, so the facets are the
complements of the inclusion-minimal M_t.  A vertex in no minimal M_t
lies in every facet, so the subcomplex is a cone and m is skipped; when
the r minimal sets are pairwise disjoint and cover the support, the
subcomplex is the boundary of an (r-1)-simplex by the nerve theorem, so
beta_{r-1,m} = 1 over every field.  Both are read off the generators'
masks before any face is listed, in one pass over the generators per
element that also gives the support (the generators dividing m).

Every remaining element is settled on a smaller complex.  Let U be the
vertices with a unique top (each {u} a minimal M_t), W the rest of the
support, and B_1..B_p the other minimal sets, each of at least two
vertices inside W.  A face misses some {u} or misses some B_j, so the
subcomplex is the union of the boundary of the simplex on U joined with
the simplex on W and the simplex on U joined with the link G of U, the
faces of W that miss some B_j.  Both pieces are cones meeting in the
boundary of U joined with G, so the subcomplex is the |U|-fold
suspension of G, and beta_{i,m} = dim H~_{i-1-|U|}(G) over every field.
G and its nerve N, the index sets S of [p] whose B_j do not cover W,
are the two Dowker complexes of the relation "w lies outside B_j"
(Dowker, *Homology groups of relations*; Bjorner, *Topological
methods*), so they have the same homology.  One reader lists either:
given blocks, the index sets whose blocks' union falls short of the
union of all.  With the B_j as blocks that is N, on 2^p candidate
faces; with A_w = {j : w in B_j}, a subset F of W is listed iff its A_w
miss some j, that is, iff F misses B_j, so that is G itself, on 2^|W|
candidate faces.  The smaller side is read.

The complex is then collapsed by sequential element matchings: for each
index v in turn, a surviving face F is paired with F + v when both
survive.  A sequence of element matchings is acyclic (Jonsson,
*Simplicial Complexes of Graphs*), so the survivors are the cells of a
Morse complex with the same homology.  When every survivor has one
cardinality k the Morse complex has zero differentials and H~_{k-1} is
the number of survivors over every field; otherwise the listed faces go
through the rank route below.  A face is a bitmask in every route; 0 is
the empty face.  The matchings use only the generators' divisibility,
nothing of the pair complex or its matching in `morse`, so the oracle
stays independent of the counts it checks.

The cone and sphere tests run on a chunk of lattice elements at a time,
each element one lane of W bits in a single int of about 8 KiB (1,024
lanes of 64 bits, or 256 of 256 bits), so one bitwise operation serves
the whole chunk.  Every mask and every m >> n fits in W - 1 bits,
which leaves each lane's top bit as a guard: adding 2^(W-1) - 1 to every
lane sets a lane's guard bit iff the lane is nonzero, and since no lane
then reaches 2^W no carry crosses into the next lane, so this nonzero
test is exact.  The lanes settle every element whose tops are all
carried by vertices with a unique top, or that has a cone point; only
the others (29 to 63 per extremal square at q = 5) go through the
scalar test, which stays the tests' reference, and on to the reader.

A second route through order complexes of open lcm intervals is kept
for cross-checking.  Ranks are computed exactly: bitsets over GF(2) and
fraction-free integer elimination for the rationals.  No floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, repeat
from math import comb, gcd
from operator import methodcaller
from typing import Collection, Iterator, Sequence

from .errors import CapacityError, NonMinimalIdealError
from .extremal import check_qs
from .monomials import (
    Monomial,
    MonomialIdeal,
    VariableSet,
    bit_columns,
    packed_masks,
    packed_to_monomial,
    subset_lcms,
)

GF2 = "gf2"
RATIONAL = "rational"

DEFAULT_GENERATOR_CAP = 15
# the interval route lists chains of the lcm lattice, up to 2^q elements
INTERVAL_GENERATOR_CAP = 6


def normalize_field(field: str) -> str:
    if field not in (GF2, RATIONAL):
        raise ValueError(f"unknown field tag {field!r}")
    return field


def gf2_rank(columns: Sequence[int]) -> int:
    """Rank of a matrix whose columns are bitmasks of row indices."""
    pivots: dict[int, int] = {}
    rank = 0
    for col in columns:
        while col:
            low = col & -col
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                rank += 1
                break
            col ^= piv
    return rank


def exact_rank(columns: Sequence[dict[int, int]]) -> int:
    """Rank over the rationals of sparse integer columns, by
    fraction-free elimination with gcd normalization."""
    pivots: list[tuple[int, int, dict[int, int]]] = []
    rank = 0
    for col in columns:
        col = {r: v for r, v in col.items() if v}
        for prow, pval, pcol in pivots:
            cv = col.get(prow)
            if not cv:
                continue
            new = {r: v * pval for r, v in col.items()}
            for r, v in pcol.items():
                new[r] = new.get(r, 0) - cv * v
            col = {r: v for r, v in new.items() if v}
            if col:
                g = gcd(*col.values())
                if g > 1:
                    col = {r: v // g for r, v in col.items()}
        if col:
            prow = min(col, key=lambda r: (abs(col[r]) != 1, abs(col[r]), r))
            pivots.append((prow, col[prow], col))
            rank += 1
    return rank


def _boundary_rank(upper: Sequence[int], lower_index: dict[int, int], field: str) -> int:
    """Rank of the boundary map from the bitmask faces `upper` to the
    faces indexed by `lower_index`.  Dropping vertex `low` from `face`
    has sign (-1)^(number of vertices of `face` below `low`)."""
    cols = []
    for face in upper:
        col = {}
        rest = face
        while rest:
            low = rest & -rest
            rest ^= low
            col[lower_index[face ^ low]] = -1 if (face & (low - 1)).bit_count() & 1 else 1
        cols.append(col)
    if field == GF2:
        return gf2_rank([sum(1 << r for r in col) for col in cols])
    return exact_rank(cols)


def homology_dims(faces: Sequence[int], field: str = GF2) -> tuple[int, ...]:
    """Reduced homology dimensions of an inclusion-closed face list.

    Faces are vertex bitmasks in any order; 0 is the empty face.
    Returns (dim H~_{-1}, dim H~_0, ...).  A void input (no faces at
    all) yields all zeros; the list [0] yields H~_{-1} = 1.
    """
    field = normalize_field(field)
    if not faces:
        return ()
    by_card: dict[int, list[int]] = {}
    for f in faces:
        by_card.setdefault(f.bit_count(), []).append(f)
    top = max(by_card)
    counts = [len(by_card.get(k, ())) for k in range(top + 1)]
    ranks = [0] * (top + 2)
    if counts[0] and top >= 1 and counts[1]:
        ranks[1] = 1
    for k in range(2, top + 1):
        index = {f: i for i, f in enumerate(by_card.get(k - 1, ()))}
        ranks[k] = _boundary_rank(by_card.get(k, ()), index, field)
    return tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(top + 1))


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers over the lcm lattice.  Each entry is
    (i, packed lcm, beta_i) with the lcm packed as by `packed_masks`
    over `ring`; entries are in plain tuple order."""

    ring: VariableSet
    field: str
    q: int
    entries: tuple[tuple[int, int, int], ...]

    def total(self) -> tuple[int, ...]:
        """Total Betti numbers per homological degree, up to the top one."""
        acc: dict[int, int] = {}
        for i, _, v in self.entries:
            acc[i] = acc.get(i, 0) + v
        return tuple(acc.get(i, 0) for i in range(max(acc, default=0) + 1))

    @property
    def projective_dimension(self) -> int:
        return max(i for i, _, v in self.entries if v)

    def graded_rows(self) -> Iterator[tuple[int, Monomial, int]]:
        """The entries with each lcm as a monomial, ordered by i, then
        the lcm's degree, then its exponent vector, each monomial built
        only as its row is read.

        The order is read off the packed lcm: its degree is the popcount,
        and its exponent vector the base-2^b digits, variable 0 first, of
        the sum over its layers of n bits (n variables, b the bit length
        of the top exponent), each layer's bits spread to b-bit digits."""
        n = len(self.ring)
        unit = (1 << n) - 1
        top = -(-max((m.bit_length() for _, m, _ in self.entries), default=0) // n)
        b = top.bit_length()
        spread = str.maketrans({"0": "0" * b, "1": "0" * (b - 1) + "1"})

        def key(entry: tuple[int, int, int]) -> tuple[int, int, int]:
            i, m, _ = entry
            degree = m.bit_count()
            exps = 0
            while m:
                exps += int(format(m & unit, f"0{n}b")[::-1].translate(spread), 2)
                m >>= n
            return i, degree, exps

        for i, m, v in sorted(self.entries, key=key):
            yield i, packed_to_monomial(m, self.ring), v

    def to_dict(self) -> dict:
        """The summary: totals and pd, with no monomial built."""
        return {
            "schema": 1,
            "field": self.field,
            "generators": self.q,
            "total": list(self.total()),
            "projectiveDimension": self.projective_dimension,
        }


def _validate_ideal(ideal: MonomialIdeal, cap: int) -> None:
    if ideal.q == 0:
        raise ValueError("the zero ideal has no Betti table")
    if not ideal.is_minimal:
        raise NonMinimalIdealError(
            "generators are not minimal; call minimalize() and retry"
        )
    if any(g.degree == 0 for g in ideal.generators):
        raise ValueError("the unit ideal (a generator equal to 1) has no Betti table")
    if ideal.q > cap:
        raise CapacityError(
            f"{ideal.q} generators exceeds the homology bound ({cap})"
        )


def _lattice(gmasks: Sequence[int]) -> set[int]:
    """Packed lcms of all generator subsets, the empty one (0) included."""
    lattice = {0}
    for g in gmasks:
        lattice |= {m | g for m in lattice}
    return lattice


def _nerve_homology(blocks: Sequence[int], field: str) -> list[tuple[int, int]]:
    """Each (k, dim H~_{k-1}) with a nonzero dimension, of the complex
    whose faces are the index sets, as bitmasks, whose blocks' union is
    short of the union of all `blocks`: listed off a table of unions
    built by doubling, collapsed by the element matchings of the indices
    in turn, and ranked only when the survivors span two cardinalities
    (see the module docstring)."""
    union = subset_lcms(blocks)
    faces = [k for k, x in enumerate(union) if x != union[-1]]
    critical = faces
    for v in range(len(blocks)):
        alive = set(critical)
        critical = [f for f in critical if f ^ 1 << v not in alive]
    sizes = {f.bit_count() for f in critical}
    if len(sizes) > 1:
        return [(k, v) for k, v in enumerate(homology_dims(faces, field)) if v]
    return [(k, len(critical)) for k in sizes]


def _minimal_cover(
    m: int, n: int, gmasks: Sequence[int], cols: dict[int, int]
) -> int | tuple[int, list[int]]:
    """The reduced homology of the strict-divisor subcomplex at m when
    its inclusion-minimal sets M_t settle it: 0 for a cone (zero over
    every field), r >= 1 for the boundary of an (r-1)-simplex
    (H~_{r-2} = 1 over every field).  Otherwise (u, blocks): the number
    u of vertices with a unique top, and blocks whose `_nerve_homology`
    in degree k - 1 - u gives H~_{k-1} of the subcomplex.  They are the
    other minimal sets B_1..B_p when p <= |W|, W the support vertices
    without a unique top, and otherwise the sets A_w = {j : w in B_j}
    for each w in W, read from the same incidence (see the module
    docstring).

    A face F over the support has an lcm below m iff it misses some top
    exponent bit t of m (over n variables), that is, avoids the set M_t
    of support generators carrying t.  The facets are the complements of
    the inclusion-minimal M_t, so a support vertex in no minimal M_t is
    a cone point.  Otherwise the r minimal sets cover the support, and
    when they are pairwise disjoint any r - 1 facets meet in a simplex
    while all r meet in nothing: by the nerve theorem the complex is an
    (r-2)-sphere.  A top with a unique attainer u gives the minimal set
    {u}, and no other M_t containing u is minimal, so only the tops that
    no such u carries are compared for minimality.

    One pass over the generators finds the support and the bits that
    at least two support generators carry, so the tops with a unique
    attainer are the tops outside those bits.  The cone and sphere tests
    then read only the support generators' masks, and an element each
    of whose tops is carried by a vertex with a unique top, as most
    are, is settled at once.  The pass forms no complement: bitwise
    operations on the negative ints that complements are cost more than
    on the masks themselves.
    """
    tops = m ^ (m & (m >> n))
    smask = once = twice = 0
    support = []
    for k, g in enumerate(gmasks):
        if g | m == m:
            twice |= once & g
            once |= g
            smask |= 1 << k
            support.append(g)
    unique = tops ^ (tops & twice)
    r = carried = 0
    for g in support:
        if g & unique:
            r += 1
            carried |= g
    rest = tops ^ (tops & carried)
    if not rest:
        return r if r == len(support) else 0
    # the vertices with a unique top, as indices, read off the support
    # mask in step with the support list; a vertex carrying neither a
    # unique top nor a top in `rest` is a cone point, as each M_t holding
    # it also holds some u with a unique top, so strictly contains {u}
    live = unique | rest
    umask = 0
    bits = smask
    for g in support:
        low = bits & -bits
        bits ^= low
        if not g & live:
            return 0
        if g & unique:
            umask |= low
    covered = umask
    disjoint = True
    sets = set()
    while rest:
        low = rest & -rest
        rest ^= low
        sets.add(cols[low] & smask)
    minimal = []
    for a in sets:
        if not any(b != a and not b & ~a for b in sets):
            disjoint = disjoint and not a & covered
            covered |= a
            minimal.append(a)
    if covered != smask:
        return 0
    if disjoint:
        return r + len(minimal)
    wmask = smask ^ umask
    if len(minimal) <= wmask.bit_count():
        return r, minimal
    wside = [w for w in range(wmask.bit_length()) if wmask >> w & 1]
    return r, [sum(1 << j for j, b in enumerate(minimal) if b >> w & 1) for w in wside]


# bytes of one lane int in `_lane_covers`: 1,024 lanes of 64 bits, 256
# of 256 bits.  A chunk's working set, about 90 such ints, then stays
# under 1 MB; 1,024 lanes of 256 bits raise the q = 7 minimality peak.
_CHUNK_BYTES = 8192


def _lane_covers(
    elements: Collection[int], n: int, gmasks: Sequence[int]
) -> Iterator[tuple[int, int | None]]:
    """The fast path of `_minimal_cover` on `elements`, a chunk at a time:
    each element with 0 for a cone, r >= 1 for a sphere, or None for an
    element that `_minimal_cover` must settle, or hand to
    `_nerve_homology`.

    The elements are lanes of W bits in one int, W - 1 bits enough for
    every mask and for ``m >> n``, and the top bit of each lane is a
    guard.  With every lane below 2^(W-1), adding 2^(W-1) - 1 to each
    lane sets its guard iff the lane is nonzero, and subtracting a lane
    from 2^(W-1) keeps the guard iff the lane is zero; neither carries
    into the next lane.  A guard bit t becomes the lane mask
    ``t - (t >> (W-1))``, and each generator is spread over the lanes
    once, so no step multiplies: a product by a W-bit mask costs about
    W/30 times a bitwise step.  A sphere's r is its support size, read
    from each lane's lowest byte with 255 marking an open lane, so with
    255 or more generators every lane is left open.
    """
    if len(gmasks) >= 255:
        yield from zip(elements, repeat(None))
        return
    w8 = (max(max(g.bit_length() for g in gmasks), n) + 8) // 8
    w, lanes = 8 * w8, max(1, min(len(elements), _CHUNK_BYTES // w8))
    size = lanes * w8

    def spread(x: int) -> int:
        return int.from_bytes(x.to_bytes(w8, "little") * lanes, "little")

    ones = spread(1)
    guard = ones << (w - 1)
    half = guard - ones
    # m >> n, with the bits shifted in from the next lane cleared
    own = spread((1 << (w - n)) - 1)
    spread_gmasks = [spread(g) for g in gmasks]
    rest_of = iter(elements)
    # a short last chunk leaves its high lanes 0, which are dropped
    while chunk := list(islice(rest_of, lanes)):
        m = int.from_bytes(b"".join(map(methodcaller("to_bytes", w8, "little"), chunk)), "little")
        outside = m ^ ((1 << 8 * size) - 1)
        once = twice = count = 0
        support = []
        for mask in spread_gmasks:
            # the guard of each lane whose element g divides, then g in those lanes
            t = (guard - (mask & outside)) & guard
            low = t >> (w - 1)
            gs = mask & (t - low)
            count += low
            twice |= once & gs
            once |= gs
            support.append((t, gs))
        tops = m ^ (m & m >> n & own)
        unique = tops ^ (tops & twice)
        carried = 0
        for _, gs in support:
            t = ((gs & unique) + half) & guard
            carried |= gs & (t - (t >> (w - 1)))
        rest = tops ^ (tops & carried)
        # a support vertex with no top in `unique | rest` is a cone point;
        # when rest is 0 that is a vertex with no unique top, so r < count
        live = unique | rest
        cone = 0
        for t, gs in support:
            cone |= t ^ (((gs & live) + half) & guard)
        cone >>= w - 1
        closed = ((guard - rest) & guard) >> (w - 1)
        sphere = closed ^ (closed & cone)
        unsettled = ones ^ (closed | cone)
        codes = (count & sphere * 255 | unsettled * 255).to_bytes(size, "little")
        yield from zip(chunk, [None if c == 255 else c for c in codes[: len(chunk) * w8 : w8]])


def graded_betti(
    ideal: MonomialIdeal, field: str = GF2, cap: int = DEFAULT_GENERATOR_CAP
) -> BettiTable:
    """Graded Betti numbers from homology of strict-divisor subcomplexes
    of the generator simplex, one per lcm-lattice element: the cover
    test, then the suspended complex read by `_nerve_homology`."""
    field = normalize_field(field)
    _validate_ideal(ideal, cap)
    gmasks = packed_masks(ideal.generators)
    n = len(ideal.ring)
    cols = bit_columns(gmasks)
    entries = []
    lattice = _lattice(gmasks)
    lattice.discard(0)
    for m, r in _lane_covers(lattice, n, gmasks):
        if r is None:
            r = _minimal_cover(m, n, gmasks, cols)
        if isinstance(r, int):
            if r:
                entries.append((r - 1, m, 1))
            continue
        u, blocks = r
        entries.extend((k + u, m, v) for k, v in _nerve_homology(blocks, field))
    entries.sort()
    return BettiTable(ideal.ring, field, ideal.q, tuple(entries))


def graded_betti_via_interval(ideal: MonomialIdeal, field: str = GF2) -> BettiTable:
    """The same table via order complexes of open lcm-lattice intervals;
    an independent formulation used to cross-check the strict-divisor
    route on small inputs."""
    field = normalize_field(field)
    _validate_ideal(ideal, INTERVAL_GENERATOR_CAP)
    lattice = sorted(_lattice(packed_masks(ideal.generators)))
    entries = []
    for m in lattice[1:]:
        inside = [x for x in lattice if x and x != m and not x & ~m]
        # sorted packed ints are a linear extension of divisibility (a
        # divisor is a bit subset, so no larger as an int), so chains can
        # be grown in increasing index order, as bitmasks over `inside`
        below = [
            {t for t in range(k) if not inside[t] & ~inside[k]}
            for k in range(len(inside))
        ]
        chains = []
        stack = [(0, tuple(range(len(inside))))]
        while stack:
            chain, candidates = stack.pop()
            chains.append(chain)
            for k in candidates:
                stack.append(
                    (chain | 1 << k, tuple(t for t in candidates if t > k and k in below[t]))
                )
        entries.extend((i, m, v) for i, v in enumerate(homology_dims(chains, field)) if v)
    return BettiTable(ideal.ring, field, ideal.q, tuple(sorted(entries)))


def pd_formula(q: int, s: int) -> tuple[int, int]:
    """Projective dimensions of the extremal ideal and of its square for
    one relation (1, {2..s}): (q - 2, C(q,2) - (q - s + 2)) and when
    q = s the second entry is C(q,2) - 1."""
    check_qs(q, s)
    first = q - 2
    second = comb(q, 2) - (q - s + 2) if q > s else comb(q, 2) - 1
    return first, second
