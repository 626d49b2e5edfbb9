"""Finite binary relations between ordered carriers, with the usual
relation algebra: composition, converse, identity, inverse images and
kernels of maps."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import ValidationError

Ref = Hashable


@dataclass(frozen=True)
class Relation:
    """A set of ordered pairs between two finite carriers.

    Carriers are ordered tuples (declaration order); all iteration over a
    relation's pairs goes through `ordered_pairs` so that downstream
    algorithms are deterministic.
    """

    left: tuple[Ref, ...]
    right: tuple[Ref, ...]
    pairs: frozenset

    def __post_init__(self):
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        lset, rset = set(self.left), set(self.right)
        for x, y in self.pairs:
            if x not in lset or y not in rset:
                raise ValidationError(f"pair ({x!r}, {y!r}) leaves the carriers")

    @classmethod
    def square(cls, carrier: Sequence[Ref], pairs: Iterable[tuple[Ref, Ref]]) -> "Relation":
        carrier = tuple(carrier)
        return cls(carrier, carrier, frozenset(pairs))

    @classmethod
    def engine_square(
        cls, carrier: tuple[Ref, ...], pairs: Iterable[tuple[Ref, Ref]]
    ) -> "Relation":
        """`square` for pairs an engine drew from `carrier` itself: skips
        the constructor's check of every pair against the carriers."""
        rel = object.__new__(cls)
        object.__setattr__(rel, "left", carrier)
        object.__setattr__(rel, "right", carrier)
        object.__setattr__(rel, "pairs", frozenset(pairs))
        return rel

    @classmethod
    def identity(cls, carrier: Sequence[Ref]) -> "Relation":
        carrier = tuple(carrier)
        return cls(carrier, carrier, frozenset((x, x) for x in carrier))

    @classmethod
    def total(cls, carrier: Sequence[Ref]) -> "Relation":
        carrier = tuple(carrier)
        return cls(carrier, carrier, frozenset((x, y) for x in carrier for y in carrier))

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def is_square(self) -> bool:
        return self.left == self.right

    def ordered_pairs(self):
        li = {x: k for k, x in enumerate(self.left)}
        ri = {y: k for k, y in enumerate(self.right)}
        return sorted(self.pairs, key=lambda p: (li[p[0]], ri[p[1]]))

    def converse(self) -> "Relation":
        return Relation(self.right, self.left, frozenset((y, x) for x, y in self.pairs))

    def compose(self, other: "Relation") -> "Relation":
        """Relational composition: pairs (x, z) with some y related on both
        sides.  The middle carriers must agree."""
        if set(self.right) != set(other.left):
            raise ValidationError("composition requires matching middle carriers")
        by_left: dict[Ref, set] = {}
        for y, z in other.pairs:
            by_left.setdefault(y, set()).add(z)
        pairs = {(x, z) for x, y in self.pairs for z in by_left.get(y, ())}
        return Relation(self.left, other.right, frozenset(pairs))

    def union(self, other: "Relation") -> "Relation":
        if self.left != other.left or self.right != other.right:
            raise ValidationError("union requires identical carriers")
        return Relation(self.left, self.right, self.pairs | other.pairs)

    def reflexive_closure(self) -> "Relation":
        if not self.is_square:
            raise ValidationError("reflexive closure needs a square relation")
        return Relation(self.left, self.right, self.pairs | {(x, x) for x in self.left})

    def is_reflexive(self) -> bool:
        return self.is_square and all((x, x) in self.pairs for x in self.left)

    def is_symmetric(self) -> bool:
        return all((y, x) in self.pairs for x, y in self.pairs)

    def domain(self) -> frozenset:
        return frozenset(x for x, _ in self.pairs)

    def codomain(self) -> frozenset:
        return frozenset(y for _, y in self.pairs)


def inverse_image(f: Mapping[Ref, Ref], rel: Relation) -> Relation:
    """Pull a relation on the target of `f` back to f's domain: pairs
    (x1, x2) with (f(x1), f(x2)) related."""
    carrier = tuple(f.keys())
    targets = set(rel.left) | set(rel.right)
    for x, y in f.items():
        if y not in targets:
            raise ValidationError(f"{f[x]!r} is outside the relation's carriers")
    pairs = frozenset(
        (x1, x2) for x1 in carrier for x2 in carrier if (f[x1], f[x2]) in rel.pairs
    )
    return Relation(carrier, carrier, pairs)


def kernel_relation(f: Mapping[Ref, Ref]) -> Relation:
    """Pairs of the domain that f maps to the same value."""
    carrier = tuple(f.keys())
    pairs = frozenset((x1, x2) for x1 in carrier for x2 in carrier if f[x1] == f[x2])
    return Relation(carrier, carrier, pairs)
