"""State maps between machines and their structure checks.

A state map can commute with the transition structure exactly (strict), up
to adding behaviour at the image (lax: the target carries at least the
mapped transitions), or up to removing it (oplax).  `lax_identify` decides
whether two states can be merged by any lax map at all, by closing the
forced identifications and looking for an output clash.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import ContractError, ValidationError
from .machines import (
    PartialMealyMachine,
    SuspensionAutomaton,
    distinct_names,
    map_structure,
    order_failures,
)
from .relations import Relation, kernel_relation

Machine = Union[PartialMealyMachine, SuspensionAutomaton]

KINDS = ("strict", "lax", "oplax")


@dataclass(frozen=True)
class StateMap:
    """A total map between the state sets of two machines over shared
    alphabets."""

    source: Machine
    target: Machine
    mapping: Mapping[str, str]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "mapping", dict(self.mapping))
        if type(self.source) is not type(self.target):
            raise ContractError("state maps require machines of the same kind")
        if set(self.source.inputs) != set(self.target.inputs) or set(
            self.source.outputs
        ) != set(self.target.outputs):
            raise ContractError("state maps require shared alphabets")
        for s in self.source.states:
            if s not in self.mapping:
                raise ValidationError(f"map is not total: missing {s!r}")
        for s, t in self.mapping.items():
            if s not in self.source.index:
                raise ValidationError(f"map defined on unknown state {s!r}")
            if t not in self.target.index:
                raise ValidationError(f"map sends {s!r} outside the target")

    def __call__(self, state: str) -> str:
        return self.mapping[state]


@dataclass(frozen=True)
class Violation:
    """One point where a morphism check fails: the source state, whether
    the offending symbol is an input or an output, and the symbol."""

    state: str
    side: str  # "in" or "out"
    symbol: str
    note: str


@dataclass(frozen=True)
class MorphismReport:
    kind: str
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_morphism(h: StateMap, kind: str) -> MorphismReport:
    """Check a state map as a strict, lax or oplax morphism.

    Lax compares the mapped one-step behaviour below the image's, oplax
    above it, strict requires equality.  Every failure is reported with
    the concrete state and symbol, in state declaration order.
    """
    if kind not in KINDS:
        raise ContractError(f"unknown morphism kind {kind!r}")
    found: dict[tuple[str, str, str], str] = {}
    for x in h.source.states:
        mapped = map_structure(h.source.successors(x), h.mapping)
        image = h.target.successors(h(x))
        if kind in ("lax", "strict"):
            for side, symbol in order_failures(mapped, image):
                found.setdefault((x, side, symbol), "not matched at image")
        if kind in ("oplax", "strict"):
            for side, symbol in order_failures(image, mapped):
                found.setdefault((x, side, symbol), "not matched at source")
    return MorphismReport(kind, tuple(Violation(*key, note) for key, note in found.items()))


def kernel(h: StateMap) -> Relation:
    """States of the source identified by the map."""
    return kernel_relation({s: h(s) for s in h.source.states})


def restrict_along(h: StateMap) -> PartialMealyMachine:
    """Shrink the source of an oplax map until the map commutes exactly.

    Every source transition whose image has no counterpart is dropped; the
    result is pointwise below the original source and turns h into a
    strict morphism.  Only Mealy machines support this: the
    suspension-automaton order is not known to allow it, so those are
    refused.
    """
    if not isinstance(h.source, PartialMealyMachine):
        raise ContractError(
            "restriction is only available for Mealy machines; the suspension "
            "order is not known to be restricting"
        )
    report = check_morphism(h, "oplax")
    if not report.ok:
        first = report.violations[0]
        raise ContractError(
            f"map is not oplax: state {first.state!r} on {first.side} {first.symbol!r}"
        )
    m = h.source
    delta = {
        (s, i): e
        for (s, i), e in m.delta.items()
        if h.target.delta.get((h(s), i)) is not None
    }
    return PartialMealyMachine(m.name + "'", m.inputs, m.outputs, m.states, delta)


# ---------------------------------------------------------------------------
# merging two states by a lax map


@dataclass(frozen=True)
class MergeStep:
    """One forced identification, with the input word that forced it
    (empty for the requested pair itself)."""

    left: str
    right: str
    word: tuple[str, ...]


@dataclass(frozen=True)
class Conflict:
    """Merging the requested pair forces two states with a common input but
    different outputs into the same class, so no lax map whatsoever can
    identify the pair."""

    merges: tuple[MergeStep, ...]
    left_state: str
    right_state: str
    input: str
    left_output: str
    right_output: str
    word: tuple[str, ...]


@dataclass(frozen=True)
class Quotient:
    """The merged machine and the projection onto it; the projection is a
    lax morphism identifying the requested pair."""

    machine: PartialMealyMachine
    projection: StateMap
    classes: tuple[tuple[str, ...], ...]


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.members = {x: [x] for x in items}

    def find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        # keep the earlier-declared representative for determinism
        self.parent[rb] = ra
        self.members[ra].extend(self.members.pop(rb))


def lax_identify(m: PartialMealyMachine, x: str, y: str) -> Union[Quotient, Conflict]:
    """Decide whether some lax morphism can identify x and y.

    Closes the smallest equivalence containing (x, y) under forced
    successor identifications (breadth-first, inputs in declaration
    order).  Any class containing two states with a common input but
    different outputs yields a Conflict with the forcing chain; otherwise
    the quotient machine itself provides the identifying lax map.

    Each quotient state is named by joining its class's members with "+".
    Where such names coincide (merging a and b beside a state named a+b),
    the later class in declaration order gets primes appended until its
    name is new ("a+b'").
    """
    m.check_state(x)
    m.check_state(y)
    uf = _UnionFind(m.states)
    merges: list[MergeStep] = []
    queue: deque[tuple[str, str, tuple[str, ...]]] = deque()

    def union(a: str, b: str, word: tuple[str, ...]) -> None:
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            return
        merges.append(MergeStep(a, b, word))
        # every pair across the two classes carries its own constraints;
        # the generating pair goes first, the rest in declaration order
        cross = sorted(
            ((u, v) for u in uf.members[ra] for v in uf.members[rb]),
            key=lambda p: (m.index[p[0]], m.index[p[1]]),
        )
        uf.union(ra, rb)
        queue.append((a, b, word))
        for u, v in cross:
            if (u, v) != (a, b):
                queue.append((u, v, word))

    union(x, y, ())
    while queue:
        u, v, word = queue.popleft()
        for i in m.inputs:
            du, dv = m.delta.get((u, i)), m.delta.get((v, i))
            if du is None or dv is None:
                continue
            if du[0] != dv[0]:
                return Conflict(
                    tuple(merges), u, v, i, du[0], dv[0], word + (i,)
                )
            union(du[1], dv[1], word + (i,))

    classes: dict[str, list[str]] = {}
    for s in m.states:
        classes.setdefault(uf.find(s), []).append(s)
    class_list = sorted(
        (tuple(members) for members in classes.values()), key=lambda c: m.index[c[0]]
    )
    class_names = distinct_names("+".join(c) for c in class_list)
    names = {uf.find(c[0]): n for c, n in zip(class_list, class_names)}
    proj = {s: names[uf.find(s)] for s in m.states}

    delta: dict[tuple[str, str], tuple[str, str]] = {}
    for (src, i), (o, dst) in m.delta.items():
        step = (o, proj[dst])
        known = delta.setdefault((proj[src], i), step)
        if known != step:
            # cannot happen: processing every cross-class pair makes the
            # closure a congruence, so members agree up to the projection
            raise AssertionError(
                f"quotient not well-defined at ({proj[src]}, {i}): {known} vs {step}"
            )
    quotient = PartialMealyMachine(
        m.name + "-quotient",
        m.inputs,
        m.outputs,
        tuple(class_names),
        delta,
    )
    projection = StateMap(m, quotient, proj)
    return Quotient(quotient, projection, tuple(class_list))
