"""Divisibility relations on monomial ideals and on their squares.

A relation (b, B) states that generator b divides the lcm of the
generators indexed by B.  This module detects relations by brute force,
generates the predicted relation families for squares of ideals with a
single relation (1, {2..s}), and verifies the predicted
characterizations exhaustively against the extremal ideals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from . import extremal
from .complexes import LabeledComplex, _p, l2, n2_pairs, taylor
from .errors import CapacityError
from .monomials import MonomialIdeal, bit_columns, lcm_of, packed_masks

BRUTE_FORCE_LIMIT = 12
# all_relations holds every relation that holds in memory: about 240 MB
# at 14 generators, four to five times more for each two more
BRUTE_FORCE_CEILING = 16
# the largest q of each verify_square_characterization scope and of minimality_audit
SCOPE_QMAX = {"taylor": 5, "l2": 6}
AUDIT_QMAX = 5


@dataclass(frozen=True)
class DivRel:
    """Generator b divides lcm of the generators indexed by B."""

    b: int
    B: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "B", frozenset(int(x) for x in self.B))
        if not self.B:
            raise ValueError("B must be non-empty")

    @property
    def trivial(self) -> bool:
        return self.b in self.B

    def extends(self, other: "DivRel") -> bool:
        return self.b == other.b and other.B <= self.B

    def sort_key(self):
        return (self.b, tuple(sorted(self.B)))

    def to_dict(self) -> dict:
        return {"b": self.b, "B": sorted(self.B)}

    @classmethod
    def from_dict(cls, data: dict) -> "DivRel":
        return cls(int(data["b"]), frozenset(data["B"]))

    def __repr__(self) -> str:
        return f"DivRel({self.b}, {{{', '.join(map(str, sorted(self.B)))}}})"


@dataclass(frozen=True)
class RelationReport:
    all: tuple[DivRel, ...]
    minimal: tuple[DivRel, ...]
    trivial_count: int

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "all": [r.to_dict() for r in self.all],
            "minimal": [r.to_dict() for r in self.minimal],
            "trivialCount": self.trivial_count,
        }


def relation_holds(ideal: MonomialIdeal, rel: DivRel) -> bool:
    q = ideal.q
    if not 1 <= rel.b <= q or not all(1 <= x <= q for x in rel.B):
        raise ValueError(f"relation {rel!r} has indices outside 1..{q}")
    gens = ideal.generators
    target = lcm_of([gens[i - 1] for i in rel.B], ring=ideal.ring)
    return gens[rel.b - 1].divides(target)


def _missing(c: int, g: int) -> int:
    """The 2^g-bit int whose bit B is set iff the subset B of range(g),
    as a bitmask, misses c: built by doubling over the indices outside c."""
    x = 1
    for i in range(g):
        if not c >> i & 1:
            x |= x << (1 << i)
    return x


def _held_nontrivial(ideal: MonomialIdeal, limit: int) -> tuple[list[int], list[int]]:
    """Per generator b (0-based), the nonempty subsets B of the other
    generators whose lcm generator b divides, as a 2^g-bit int with bit B
    set for each such B; and per generator i, the subsets that miss i,
    in the same form.

    Generator b divides lcm(B) iff B meets the set C_t of generators
    carrying t for every bit t of b's mask, so B fails iff it misses some
    C_t: the held subsets are the B missing b, minus an OR of bitmaps
    built once per distinct C_t.
    """
    g = ideal.q
    if g > limit:
        raise CapacityError(
            f"{g} generators exceeds the brute-force relation bound ({limit})"
        )
    masks = packed_masks(ideal.generators)
    cols = bit_columns(masks)
    misses = {c: _missing(c, g) for c in set(cols.values())}
    singles = [_missing(1 << i, g) for i in range(g)]
    held = []
    for b, gen in enumerate(masks):
        # the empty B is no relation's
        short = 1
        for c in {c for t, c in cols.items() if gen & t}:
            short |= misses[c]
        held.append(singles[b] & ~short)
    return held, singles


def _minimal_masks(held: int, singles: list[int]) -> int:
    """The minimal members of an up-closed family of subsets, held as a
    bitmap as by `_held_nontrivial`: the B with no B - {i} in the family."""
    above = 0
    for i, miss in enumerate(singles):
        above |= (held & miss) << (1 << i)
    return held & ~above


def _set_bits(x: int) -> list[int]:
    """The positions of the set bits of x, in increasing order."""
    digits = format(x, "b")[::-1]
    out = []
    k = digits.find("1")
    while k >= 0:
        out.append(k)
        k = digits.find("1", k + 1)
    return out


def _mask_members(m: int) -> frozenset[int]:
    return frozenset(k + 1 for k in range(m.bit_length()) if m >> k & 1)


def minimal_relations(ideal: MonomialIdeal, limit: int = BRUTE_FORCE_LIMIT) -> frozenset[DivRel]:
    """Brute-force minimal divisibility relations (non-trivial, with no
    held relation on a proper subset)."""
    held, singles = _held_nontrivial(ideal, limit)
    return frozenset(
        DivRel(b + 1, _mask_members(m))
        for b, got in enumerate(held)
        for m in _set_bits(_minimal_masks(got, singles))
    )


def all_relations(ideal: MonomialIdeal, limit: int = BRUTE_FORCE_LIMIT) -> RelationReport:
    """Every relation (b, B) that holds, the minimal ones, and the count
    of trivial ones (b in B, which always hold)."""
    held, singles = _held_nontrivial(ideal, limit)
    full = (1 << (1 << ideal.q)) - 1
    rels = []
    minimal = []
    trivial_count = 0
    for b, got in enumerate(held):
        trivial = _set_bits(full ^ singles[b])
        trivial_count += len(trivial)
        rels.extend(DivRel(b + 1, _mask_members(m)) for m in trivial + _set_bits(got))
        least = _set_bits(_minimal_masks(got, singles))
        minimal.extend(DivRel(b + 1, _mask_members(m)) for m in least)
    rels.sort(key=DivRel.sort_key)
    minimal.sort(key=DivRel.sort_key)
    return RelationReport(tuple(rels), tuple(minimal), trivial_count)


# ---------------------------------------------------------------------------
# Predicted relations between the generators of a square
# ---------------------------------------------------------------------------


def _pair_index(q: int) -> dict[tuple[int, int], int]:
    return {p: k + 1 for k, p in enumerate(n2_pairs(q))}


def square_relation_families(q: int, s: int | None = None) -> dict[str, frozenset[DivRel]]:
    """The relation families on the generators of a square, keyed
    "1", "2", "3a", "3b", "4a", "4b".

    Families 1 and 2 hold for any square-free ideal; the rest assume the
    ideal satisfies (1, {2..s}).  Indices refer to the canonical order
    of pair generators.
    """
    if s is not None:
        extremal.check_qs(q, s)
    idx = _pair_index(q)
    fam: dict[str, set[DivRel]] = {k: set() for k in ("1", "2", "3a", "3b", "4a", "4b")}

    for i in range(1, q + 1):
        for j in range(i + 1, q + 1):
            for a in range(1, q + 1):
                if a not in (i, j):
                    fam["1"].add(DivRel(idx[(i, j)], {idx[(j, j)], idx[_p(i, a)]}))
            for b in range(1, q + 1):
                if b != i:
                    fam["2"].add(DivRel(idx[(i, j)], {idx[(i, i)], idx[_p(j, b)]}))

    if s is not None:
        ks = range(2, s + 1)

        # (3a): j = 1, t_k in {1, k}
        for t in product(*[(1, k) for k in ks]):
            B = {idx[_p(k, tk)] for k, tk in zip(ks, t)}
            fam["3a"].add(DivRel(idx[(1, 1)], B))

        for j in range(s + 1, q + 1):
            # (3b): j > s, t_k in {1, j, k}, j among the t_k
            for t in product(*[(1, j, k) for k in ks]):
                if j in t:
                    B = {idx[_p(k, tk)] for k, tk in zip(ks, t)}
                    fam["3b"].add(DivRel(idx[(1, j)], B))
            # (4a): u > s, u != j, t_k in {1, k}
            for u in range(s + 1, q + 1):
                if u == j:
                    continue
                for t in product(*[(1, k) for k in ks]):
                    B = {idx[_p(k, tk)] for k, tk in zip(ks, t)}
                    B.add(idx[_p(u, j)])
                    fam["4a"].add(DivRel(idx[(1, j)], B))

        # (4b): j = u > 1, t_k > 1
        for j in range(2, q + 1):
            for t in product(range(2, q + 1), repeat=len(ks)):
                B = {idx[_p(k, tk)] for k, tk in zip(ks, t)}
                B.add(idx[(j, j)])
                fam["4b"].add(DivRel(idx[(1, j)], B))

    return {k: frozenset(v) for k, v in fam.items()}


def predicted_square_relations(q: int, s: int | None = None) -> frozenset[DivRel]:
    fam = square_relation_families(q, s)
    out: set[DivRel] = set()
    for rels in fam.values():
        out |= rels
    return frozenset(out)


def predicted_minimal_square_relations(
    q: int, s: int | None = None
) -> tuple[frozenset[DivRel], frozenset[DivRel]]:
    """(predicted minimal set, relations of family 4b dropped as
    extensions of another 4b or a 3b relation)."""
    fam = square_relation_families(q, s)
    kept = set(fam["1"] | fam["2"] | fam["3a"] | fam["3b"] | fam["4a"])
    dropped = set()
    bases: dict[int, list[frozenset[int]]] = {}
    for o in fam["4b"] | fam["3b"]:
        bases.setdefault(o.b, []).append(o.B)
    for r in fam["4b"]:
        if any(B < r.B for B in bases[r.b]):
            dropped.add(r)
        else:
            kept.add(r)
    return frozenset(kept), frozenset(dropped)


# ---------------------------------------------------------------------------
# Exhaustive verification of the divisibility characterizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharacterizationReport:
    pairs_checked: int
    holds_count: int
    counterexamples: tuple = field(default=())


def verify_square_characterization(
    q: int, s: int | None, scope: str
) -> CharacterizationReport:
    """Compare brute-force divisibility of pair generators against the
    predicted relations, over every admissible (vertex, face) pair: v's
    generator is predicted to divide the label of sigma when some
    predicted relation (v, B) has B inside sigma.

    scope "taylor" sweeps all subsets of the pair vertices and scope "l2"
    the faces of the pair complex, each up to its ``SCOPE_QMAX``.
    """
    if scope not in SCOPE_QMAX:
        raise ValueError("scope must be 'taylor' or 'l2'")
    if q > SCOPE_QMAX[scope]:
        raise CapacityError(f"{scope} scope bounded at q <= {SCOPE_QMAX[scope]} (got q={q})")

    rels = extremal.single_relation(s) if s is not None else ()
    square = extremal.extremal_generators(q, rels).power(2)
    pairs = n2_pairs(q)
    cx = taylor(len(pairs)) if scope == "taylor" else l2(q)
    labeled = LabeledComplex(cx, square)
    pmasks = packed_masks(square.generators)
    # a B that is no face lies in no face: dropping it keeps every verdict and keeps needs short
    needs = [[] for _ in pairs]
    for r in predicted_square_relations(q, s):
        mask = sum(1 << (k - 1) for k in r.B)
        if cx.is_face(mask):
            needs[r.b - 1].append(mask)

    checked = holds = 0
    bad = []
    for f in cx.faces():
        rest = f
        while rest:
            low = rest & -rest
            rest ^= low
            sigma, v = f ^ low, low.bit_length() - 1
            brute = not pmasks[v] & ~labeled.packed_label(sigma)
            holds += brute
            if brute != any(not need & ~sigma for need in needs[v]):
                if len(bad) < 32:
                    members = tuple(p for k, p in enumerate(pairs) if sigma >> k & 1)
                    bad.append((pairs[v], members))
            checked += 1
    return CharacterizationReport(checked, holds, tuple(bad))


@dataclass(frozen=True)
class AuditReport:
    brute_minimal: frozenset[DivRel]
    predicted_minimal: frozenset[DivRel]
    dropped_4b: frozenset[DivRel]

    @property
    def matches(self) -> bool:
        return self.brute_minimal == self.predicted_minimal


def minimality_audit(q: int, s: int) -> AuditReport:
    """Brute-force minimal relations of the extremal square versus the
    predicted minimal families (with the 4b extension filter)."""
    if not 3 <= s <= q <= AUDIT_QMAX:
        raise CapacityError(
            f"minimality audit bounded at 3 <= s <= q <= {AUDIT_QMAX} (got q={q}, s={s})"
        )
    square = extremal.power_generators(q, extremal.single_relation(s), 2)
    brute = minimal_relations(square, limit=BRUTE_FORCE_CEILING)
    predicted, dropped = predicted_minimal_square_relations(q, s)
    return AuditReport(brute, predicted, dropped)
