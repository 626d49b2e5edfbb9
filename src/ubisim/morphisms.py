"""State maps between machines and their structure checks.

A state map can commute with the transition structure exactly (strict), up
to adding behaviour at the image (lax: the target carries at least the
mapped transitions), or up to removing it (oplax).  `lax_identify` decides
whether two states can be merged by any lax map at all, by closing the
forced identifications and looking for an output clash.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, Union

from .errors import ContractError, Record, ValidationError
from .machines import (
    PartialMealyMachine,
    SuspensionAutomaton,
    _same_shape,
    _tables_of,
    distinct_names,
    order_failures,
)
from .relations import Relation, kernel_relation

Machine = Union[PartialMealyMachine, SuspensionAutomaton]

KINDS = ("strict", "lax", "oplax")


class StateMap(Record):
    """A total map between the state sets of two machines over shared
    alphabets."""

    source: Machine
    target: Machine
    mapping: Mapping[str, str]
    name: str = ""

    def _check(self):
        vars(self)["mapping"] = dict(self.mapping)
        _same_shape(self.source, self.target, "StateMap")
        mapping, target = self.mapping, self.target.index
        if mapping.keys() == self.source.index.keys() and target.keys() >= set(mapping.values()):
            return
        for s in self.source.states:  # a check fails: find the first fault in order
            if s not in self.mapping:
                raise ValidationError(f"map is not total: missing {s!r}")
        for s, t in self.mapping.items():
            if s not in self.source.index:
                raise ValidationError(f"map defined on unknown state {s!r}")
            if t not in self.target.index:
                raise ValidationError(f"map sends {s!r} outside the target")

    def __call__(self, state: str) -> str:
        return self.mapping[state]


class Violation(Record):
    """One point where a morphism check fails: the source state, whether
    the offending symbol is an input or an output, and the symbol."""

    state: str
    side: str  # "in" or "out"
    symbol: str
    note: str


class MorphismReport(Record):
    kind: str
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_morphism(h: StateMap, kind: str) -> MorphismReport:
    """Check a state map as a strict, lax or oplax morphism.

    Lax compares the mapped one-step behaviour below the image's, oplax
    above it, strict requires equality: `order_failures` with the map as
    the link, so no mapped copy is built.  Every failure is reported with
    the concrete state and symbol, in state declaration order.
    """
    if kind not in KINDS:
        raise ContractError(f"unknown morphism kind {kind!r}")
    f = h.mapping
    found: dict[tuple[str, str, str], str] = {}
    for x in h.source.states:
        t, image = h.source.successors(x), h.target.successors(f[x])
        if kind in ("lax", "strict"):
            for side, symbol in order_failures(t, image, lambda a, b: f[a] == b):
                found.setdefault((x, side, symbol), "not matched at image")
        if kind in ("oplax", "strict"):
            for side, symbol in order_failures(image, t, lambda b, a: b == f[a]):
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
    _tables_of(h.source, PartialMealyMachine, "restrict_along")
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


class MergeStep(Record):
    """One forced identification, with the input word that forced it
    (empty for the requested pair itself)."""

    left: str
    right: str
    word: tuple[str, ...]


class Conflict(Record):
    """Merging the requested pair forces two states with a common input but
    different outputs into the same class, so no lax map whatsoever can
    identify the pair.

    `merges` is the chain of forced identifications in the order they were
    made; the last one joins the two classes that clash.  `left_state` and
    `right_state` are the clashing members of those classes, which both
    move on `input`, with `left_output` and `right_output`.  `word` is the
    forcing word of the last merge followed by `input`
    (`merges[-1].word + (input,)`); it is not a path from the requested
    states to the clashing states, which may lie anywhere in their classes.
    """

    merges: tuple[MergeStep, ...]
    left_state: str
    right_state: str
    input: str
    left_output: str
    right_output: str
    word: tuple[str, ...]


class Quotient(Record):
    """The merged machine and the projection onto it; the projection is a
    lax morphism identifying the requested pair."""

    machine: PartialMealyMachine
    projection: StateMap
    classes: tuple[tuple[str, ...], ...]


def lax_identify(m: PartialMealyMachine, x: str, y: str) -> Union[Quotient, Conflict]:
    """Decide whether some lax morphism can identify x and y.

    Closes the smallest equivalence containing (x, y) under forced
    successor identifications: a congruence closure on state positions
    (Hopcroft and Karp), near-linear in states times inputs.  Each class
    keeps one member that moves on each input; joining two classes
    compares those members input by input, and where both move, their
    outputs must agree and their successors get joined next (breadth-first,
    inputs in declaration order).  An output clash yields a Conflict with
    the forcing chain; otherwise the quotient machine itself provides the
    identifying lax map.

    Each quotient state is named by joining its class's members with "+".
    Where such names coincide (merging a and b beside a state named a+b),
    the later class in declaration order gets primes appended until its
    name is new ("a+b'").
    """
    succ, out = _tables_of(m, PartialMealyMachine, "lax_identify")
    start = m.check_state(x), m.check_state(y)
    states, inputs = m.states, m.inputs
    parent = list(range(len(states)))
    # per class root and input, a member that moves on that input, or -1
    mover = [[s if row[s] >= 0 else -1 for row in succ] for s in range(len(states))]

    def find(s: int) -> int:
        while parent[s] != s:
            parent[s] = s = parent[parent[s]]
        return s

    merges: list[MergeStep] = []
    queue = deque([(*start, ())])
    while queue:
        a, b, word = queue.popleft()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        merges.append(MergeStep(states[a], states[b], word))
        for k, (u, v) in enumerate(zip(mover[ra], mover[rb])):
            if u >= 0 and v >= 0:
                if out[k][u] != out[k][v]:
                    return Conflict(
                        tuple(merges), states[u], states[v], inputs[k],
                        out[k][u], out[k][v], word + (inputs[k],),
                    )
                queue.append((succ[k][u], succ[k][v], word + (inputs[k],)))
        # the earlier-declared root stays; the merged-in side's movers win
        root, gone = min(ra, rb), max(ra, rb)
        parent[gone] = root
        mover[root] = [g if g >= 0 else r for r, g in zip(mover[root], mover[gone])]

    # in declaration order, so the classes come ordered by first member
    classes: dict[int, list[str]] = {}
    for s, name in enumerate(states):
        classes.setdefault(find(s), []).append(name)
    class_names = distinct_names("+".join(c) for c in classes.values())
    names = dict(zip(classes, class_names))
    proj = {name: names[find(s)] for s, name in enumerate(states)}
    delta = {
        (names[r], inputs[k]): (out[k][u], names[find(succ[k][u])])
        for r in classes
        for k, u in enumerate(mover[r])
        if u >= 0
    }
    quotient = PartialMealyMachine(
        m.name + "-quotient",
        m.inputs,
        m.outputs,
        tuple(class_names),
        delta,
    )
    projection = StateMap(m, quotient, proj)
    return Quotient(quotient, projection, tuple(map(tuple, classes.values())))
