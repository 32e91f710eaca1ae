"""Exact monomial arithmetic over finite named variable sets.

Monomials are exponent vectors over an immutable, ordered variable set.
Everything here is pure and hashable, so values can be shared freely.
"""

from __future__ import annotations

import json
import operator
import re
from itertools import combinations_with_replacement
from typing import Iterable, Sequence

from .errors import CapacityError, RingMismatchError

# The widest packed mask (largest exponent times the number of variables)
# that `packed_masks` builds: 2^20 bits is 128 KiB per mask.
MAX_MASK_BITS = 1 << 20


class VariableSet:
    """Ordered collection of distinct variable names.

    The order is fixed at construction and defines the positions of
    exponent vectors.
    """

    __slots__ = ("names", "_index", "_trie")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        if any(not n for n in names):
            raise ValueError("variable names must be non-empty strings")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        self._trie = None

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, VariableSet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VariableSet({list(self.names)!r})"

    def one(self) -> "Monomial":
        return Monomial(self, (0,) * len(self.names))

    def parse(self, text: str) -> "Monomial":
        """Parse juxtaposed variable names with optional ``^k`` exponents.

        Every split of the text into names is considered, so names that
        are prefixes of one another (``y_{12}`` and ``y_{123}``, or
        ``a``, ``ab`` and ``bc``) coexist.  ``1`` denotes the empty
        product.  Text with no reading, or with more than one, raises
        ``ValueError``.  The names starting at each position are found
        by walking a trie of the names, so the work grows with the text,
        not with the number of names.
        """
        s = re.sub(r"[\s*·]+", "", text)
        if s in ("", "1"):
            return self.one()
        if self._trie is None:
            # each node maps a character to the next node, and "" to the
            # name that ends there
            self._trie = {}
            for name in self.names:
                node = self._trie
                for ch in name:
                    node = node.setdefault(ch, {})
                node[""] = name
        # readings[pos]: number of readings of s[pos:], capped at 2;
        # first[pos]: (name, exponent, end) of one of them
        exponent = re.compile(r"\^(\d+)")
        n = len(s)
        readings = [0] * n + [1]
        first: list[tuple[str, int, int] | None] = [None] * (n + 1)
        for pos in range(n - 1, -1, -1):
            node, stop = self._trie, pos
            while stop < n and (node := node.get(s[stop])) is not None:
                stop += 1
                name = node.get("")
                if name is None:
                    continue
                end, k = stop, 1
                m = exponent.match(s, end)
                if m:
                    k, end = int(m.group(1)), m.end()
                elif s.startswith("^", end):
                    continue
                if readings[end]:
                    readings[pos] = min(2, readings[pos] + readings[end])
                    first[pos] = first[pos] or (name, k, end)
        if readings[0] == 0:
            raise ValueError(f"cannot read {text!r} as a product of {list(self.names)}")
        if readings[0] > 1:
            raise ValueError(f"{text!r} has more than one reading over {list(self.names)}")
        exps = [0] * len(self.names)
        pos = 0
        while pos < n:
            name, k, pos = first[pos]
            exps[self._index[name]] += k
        return Monomial(self, exps)


class Monomial:
    """Exponent vector over a :class:`VariableSet`; the zero vector is 1."""

    __slots__ = ("ring", "exponents")

    def __init__(self, ring: VariableSet, exponents: Sequence[int]):
        # operator.index rejects floats and strings with TypeError
        exponents = tuple(map(operator.index, exponents))
        if len(exponents) != len(ring):
            raise ValueError("exponent vector length must equal variable count")
        if exponents and min(exponents) < 0:
            raise ValueError("exponents must be non-negative")
        self.ring = ring
        self.exponents = exponents

    def _check(self, other: "Monomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("monomials live over different variable sets")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Monomial)
            and self.ring == other.ring
            and self.exponents == other.exponents
        )

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __repr__(self) -> str:
        return f"Monomial({self})"

    def __str__(self) -> str:
        parts = []
        for name, e in zip(self.ring.names, self.exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "".join(parts) or "1"

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(self.ring, tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(self.ring, tuple(max(a, b) for a, b in zip(self.exponents, other.exponents)))

    def divides(self, other: "Monomial") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    @property
    def support(self) -> frozenset:
        return frozenset(i for i, e in enumerate(self.exponents) if e)


def lcm_of(monomials: Iterable[Monomial], ring: VariableSet | None = None) -> Monomial:
    """Componentwise maximum; the lcm of the empty collection is 1."""
    acc = None
    for m in monomials:
        acc = m if acc is None else acc.lcm(m)
    if acc is None:
        if ring is None:
            raise ValueError("lcm of the empty collection needs an explicit ring")
        return ring.one()
    return acc


def degree_vectors(q: int, r: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of length q summing to r, in descending
    lexicographic order.

    For r = 2 this matches the order of pairs (i, j), i <= j, sorted
    lexicographically, so power-generator indices line up with pair
    vertices.
    """
    out = []
    for combo in combinations_with_replacement(range(q), r):
        v = [0] * q
        for i in combo:
            v[i] += 1
        out.append(tuple(v))
    return tuple(out)


class MonomialIdeal:
    """Ordered list of monomial generators; order defines indices 1..q.

    Duplicate or mutually divisible generators are allowed (some callers
    index relations by generator slots); :meth:`minimalize` produces the
    minimal view.
    """

    __slots__ = ("ring", "generators")

    def __init__(self, ring: VariableSet, generators: Iterable[Monomial]):
        generators = tuple(generators)
        for g in generators:
            if g.ring != ring:
                raise RingMismatchError("generator over a different variable set")
        self.ring = ring
        self.generators = generators

    @property
    def q(self) -> int:
        return len(self.generators)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.ring == other.ring
            and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.generators))

    def __repr__(self) -> str:
        return f"MonomialIdeal({', '.join(map(str, self.generators))})"

    @property
    def is_minimal(self) -> bool:
        return len(minimal_indices(packed_masks(self.generators))) == self.q

    def minimalize(self) -> "MonomialIdeal":
        """Drop generators divisible by another generator (first duplicate wins)."""
        gs = self.generators
        return MonomialIdeal(self.ring, [gs[i] for i in minimal_indices(packed_masks(gs))])

    def power(self, r: int) -> "MonomialIdeal":
        """Products of r generators, ordered by :func:`degree_vectors`."""
        if r < 1:
            raise ValueError("power must be >= 1")
        # combinations_with_replacement yields the index multisets of
        # degree_vectors in the same order
        return MonomialIdeal(self.ring, [
            Monomial(self.ring, map(sum, zip(*(g.exponents for g in combo))))
            for combo in combinations_with_replacement(self.generators, r)
        ])

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "variables": list(self.ring.names),
            "generators": [str(g) for g in self.generators],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MonomialIdeal":
        """Inverse of :meth:`to_dict`; a missing ``"schema"`` reads as 1."""
        if not isinstance(data, dict):
            raise ValueError("an ideal must be a JSON object")
        schema = data.get("schema", 1)
        if schema != 1:
            raise ValueError(f"unsupported ideal schema {schema!r} (expected 1)")
        missing = [k for k in ("variables", "generators") if k not in data]
        if missing:
            raise ValueError(f"ideal is missing {', '.join(map(repr, missing))}")
        for k in ("variables", "generators"):
            if not isinstance(data[k], list) or not all(isinstance(x, str) for x in data[k]):
                raise ValueError(f"ideal {k!r} must be a list of strings")
        ring = VariableSet(data["variables"])
        return cls(ring, [ring.parse(g) for g in data["generators"]])

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "MonomialIdeal":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def packed_masks(monomials: Sequence[Monomial]) -> list[int]:
    """Exponent vectors packed into one int per monomial: bit ``t*n + v``
    is set iff the exponent of variable v exceeds t, for n variables.
    lcm is then ``a | b`` and divisibility ``a & ~b == 0``.  A mask
    wider than ``MAX_MASK_BITS`` raises `CapacityError` before it is built.
    """
    packed = []
    for m in monomials:
        n = len(m.exponents)
        width = max(m.exponents, default=0) * n
        if width > MAX_MASK_BITS:
            raise CapacityError(
                f"{m} needs a packed mask of {width} bits, above the bound of {MAX_MASK_BITS}"
            )
        # exponent e of variable v sets bits v, v + n, ..., v + (e - 1) * n:
        # the repunit (2^(e*n) - 1) / (2^n - 1) in base 2^n, shifted by v
        unit = (1 << n) - 1
        bits = 0
        for v, e in enumerate(m.exponents):
            if e:
                bits |= ((1 << e * n) - 1) // unit << v
        packed.append(bits)
    return packed


def subset_lcms(masks: Sequence[int]) -> list[int]:
    """Packed lcm of every subset of ``masks``, indexed by the subset's
    bitmask: doubling over the masks, each one is joined to every subset
    of those before it."""
    table = [0]
    for g in masks:
        table += [m | g for m in table]
    return table


def bit_columns(masks: Sequence[int]) -> dict[int, int]:
    """For each bit set in some packed mask, keyed by that bit as an int,
    the bitmask of the indices of the masks that have it."""
    cols: dict[int, int] = {}
    for k, g in enumerate(masks):
        while g:
            low = g & -g
            g ^= low
            cols[low] = cols.get(low, 0) | 1 << k
    return cols


# the digits "0" and "1" of a binary string as the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def packed_to_monomial(mask: int, ring: VariableSet) -> Monomial:
    """Inverse of :func:`packed_masks` for one mask over ``ring``: the
    exponent of variable v counts the layers of n bits (n variables)
    that hold bit v.  Each layer is read whole, through its binary digits
    as n bytes of 0 or 1, so the work grows with the layers, not with the
    set bits."""
    if not mask:
        return ring.one()
    n = len(ring)
    unit = (1 << n) - 1
    exps = None
    while mask:
        layer = format(mask & unit, f"0{n}b").encode().translate(_BIT_BYTES)[::-1]
        exps = layer if exps is None else list(map(operator.add, exps, layer))
        mask >>= n
    return Monomial(ring, exps)


def minimal_indices(masks: Sequence[int]) -> list[int]:
    """Indices of the packed masks that no other mask divides; of equal
    masks only the first is kept."""
    kept = []
    for i, g in enumerate(masks):
        for j, h in enumerate(masks):
            if not h & ~g and (h != g or j < i):
                break
        else:
            kept.append(i)
    return kept
