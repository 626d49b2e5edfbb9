"""Finite binary relations between ordered carriers, with the usual
relation algebra: composition, converse, complement, identity, inverse
images and kernels of maps.

A relation is stored as one int row per left element, the form in which
the fixpoint engines compute it; its set of name pairs is built on read.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import or_
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import Record, ValidationError

Ref = Hashable

# maps the characters of a binary numeral to the bytes 0 and 1
_BITS = bytes.maketrans(b"01", b"\0\1")


def _bits(row: int) -> bytes:
    """A flag byte per bit of `row`, lowest first, up to its highest set bit."""
    return bin(row)[:1:-1].encode().translate(_BITS)


class Relation(Record):
    """A set of ordered pairs between two finite carriers.

    Carriers are ordered tuples of distinct elements (declaration order),
    and bit y of `rows[x]` is set when (left[x], right[y]) is related; the
    methods are integer operations on these rows.  `ordered_pairs` walks
    the rows in carrier order, so downstream algorithms are deterministic;
    `pairs` is the same set as a frozenset, built anew on every read.
    `==` and `hash` compare carriers and rows, that is, pair sets.
    """

    left: tuple[Ref, ...]
    right: tuple[Ref, ...]
    rows: tuple[int, ...]

    def __init__(self, left: Sequence[Ref], right: Sequence[Ref], pairs: Iterable[tuple[Ref, Ref]]):
        left, right = tuple(left), tuple(right)
        lpos = dict(zip(left, range(len(left))))
        rpos = lpos if right == left else dict(zip(right, range(len(right))))
        if len(lpos) < len(left) or len(rpos) < len(right):
            raise ValidationError("a carrier lists an element twice")
        rows = [0] * len(left)
        for x, y in pairs:
            if x not in lpos or y not in rpos:
                raise ValidationError(f"pair ({x!r}, {y!r}) leaves the carriers")
            rows[lpos[x]] |= 1 << rpos[y]
        # frozen: set the fields past __setattr__; the positions are not
        # fields, so `==`, `hash` and `repr` ignore them
        vars(self).update(left=left, right=right, rows=tuple(rows), _lpos=lpos, _rpos=rpos)

    @classmethod
    def from_rows(cls, left: Sequence[Ref], right: Sequence[Ref], rows: Iterable[int]) -> "Relation":
        """The relation of the pairs (left[x], right[y]) for each bit y of
        rows[x]; checks that there is a row per left element, within right."""
        rel, rows = cls(left, right, ()), tuple(rows)
        if len(rows) != len(rel.left) or rows and (min(rows) < 0 or max(rows) >> len(rel.right)):
            raise ValidationError("rows must be one per left element, within the right carrier")
        vars(rel)["rows"] = rows
        return rel

    @classmethod
    def square(cls, carrier: Sequence[Ref], pairs: Iterable[tuple[Ref, Ref]]) -> "Relation":
        return cls(carrier, carrier, pairs)

    @classmethod
    def identity(cls, carrier: Sequence[Ref]) -> "Relation":
        return cls.from_rows(carrier, carrier, (1 << k for k in range(len(carrier))))

    @classmethod
    def total(cls, carrier: Sequence[Ref]) -> "Relation":
        return cls.from_rows(carrier, carrier, [(1 << len(carrier)) - 1] * len(carrier))

    def __contains__(self, pair) -> bool:
        x, y = pair
        k, j = self._lpos.get(x), self._rpos.get(y)
        return k is not None and j is not None and self.rows[k] >> j & 1 == 1

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    @property
    def pairs(self) -> frozenset:
        return frozenset(self.ordered_pairs())

    @property
    def is_square(self) -> bool:
        return self.left == self.right

    def ordered_pairs(self) -> list[tuple[Ref, Ref]]:
        return [(x, y) for x, row in zip(self.left, self.rows) for y in compress(self.right, _bits(row))]

    def converse(self) -> "Relation":
        """The transpose: the pairs (y, x) for each pair (x, y)."""
        cols = [0] * len(self.right)
        for k, row in enumerate(self.rows):
            for j in compress(range(len(cols)), _bits(row)):
                cols[j] |= 1 << k
        return Relation.from_rows(self.right, self.left, cols)

    def complement(self) -> "Relation":
        full = (1 << len(self.right)) - 1
        return Relation.from_rows(self.left, self.right, [full ^ row for row in self.rows])

    def compose(self, other: "Relation") -> "Relation":
        """Relational composition: pairs (x, z) with some y related on both
        sides.  The middle carriers must hold the same elements, in any
        order."""
        if set(self.right) != set(other.left):
            raise ValidationError("composition requires matching middle carriers")
        # other's rows, listed in the order of self's right carrier
        middle = [other.rows[other._lpos[y]] for y in self.right]
        rows = [reduce(or_, compress(middle, _bits(row)), 0) for row in self.rows]
        return Relation.from_rows(self.left, other.right, rows)

    def union(self, other: "Relation") -> "Relation":
        if self.left != other.left or self.right != other.right:
            raise ValidationError("union requires identical carriers")
        return Relation.from_rows(self.left, self.right, map(or_, self.rows, other.rows))

    def reflexive_closure(self) -> "Relation":
        if not self.is_square:
            raise ValidationError("reflexive closure needs a square relation")
        return Relation.from_rows(self.left, self.right, (row | 1 << k for k, row in enumerate(self.rows)))

    def is_reflexive(self) -> bool:
        return self.is_square and all(row >> k & 1 for k, row in enumerate(self.rows))

    def is_symmetric(self) -> bool:
        return all((y, x) in self for x, y in self.ordered_pairs())

    def domain(self) -> frozenset:
        return frozenset(compress(self.left, self.rows))

    def codomain(self) -> frozenset:
        return frozenset(compress(self.right, _bits(reduce(or_, self.rows, 0))))


def inverse_image(f: Mapping[Ref, Ref], rel: Relation) -> Relation:
    """Pull a relation on the target of `f` back to f's domain: pairs
    (x1, x2) with (f(x1), f(x2)) related.  That is the composite of f's
    graph, the relation and the converse of f's graph."""
    targets = set(rel.left) | set(rel.right)
    for x, y in f.items():
        if y not in targets:
            raise ValidationError(f"{f[x]!r} is outside the relation's carriers")
    into_left, into_right = (
        Relation(tuple(f), side, [(x, y) for x, y in f.items() if y in pos])
        for side, pos in ((rel.left, rel._lpos), (rel.right, rel._rpos))
    )
    return into_left.compose(rel).compose(into_right.converse())


def kernel_relation(f: Mapping[Ref, Ref]) -> Relation:
    """Pairs of the domain that f maps to the same value: the inverse image
    of equality on f's values."""
    return inverse_image(f, Relation.identity(tuple(dict.fromkeys(f.values()))))
