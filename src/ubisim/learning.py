"""Observation trees and the black-box teacher of the active learning game.

The learner only ever sees input/output sequences; everything it knows is
stored in an observation tree, a prefix-closed partial Mealy machine whose
states are the access words of the queries performed so far.  Apartness of
tree states only ever grows as more observations arrive, which is what
makes it the useful notion during learning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from .bisim import _flagged_pairs, _mealy_dead
from .errors import ContractError, ObservationConflictError, ValidationError
from .machines import PartialMealyMachine
from .morphisms import StateMap
from .relations import Relation

ROOT_ID = "ε"  # printable id for the empty access word


def node_id(word: Sequence[str]) -> str:
    return ".".join(word) if word else ROOT_ID


@dataclass(frozen=True)
class ObservationTree:
    """All query responses gathered so far, as a tree of access words.

    `edges` maps (access word, input) to the observed output; the successor
    is the extended access word, so the tree shape and prefix closure hold
    by construction.  Trees are immutable: `record` returns a new tree.
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    edges: Mapping[tuple[tuple[str, ...], str], str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "edges", dict(self.edges))

    @classmethod
    def empty(cls, inputs: Sequence[str], outputs: Sequence[str]) -> "ObservationTree":
        return cls(tuple(inputs), tuple(outputs), {})

    def record(self, word: Sequence[str], outs: Sequence[str]) -> "ObservationTree":
        """Extend the tree with one query response.

        Re-recording a prefix must reproduce the outputs already stored; a
        clash means the observations cannot come from one machine and
        raises, carrying the offending prefix.
        """
        word, outs = tuple(word), tuple(outs)
        if len(word) != len(outs):
            raise ContractError("word and outputs must have the same length")
        for i in word:
            if i not in self.inputs:
                raise ValidationError(f"unknown input symbol {i!r}")
        for o in outs:
            if o not in self.outputs:
                raise ValidationError(f"unknown output symbol {o!r}")
        edges = dict(self.edges)
        for k in range(len(word)):
            prefix, i, o = word[:k], word[k], outs[k]
            known = edges.get((prefix, i))
            if known is not None and known != o:
                raise ObservationConflictError(
                    f"output clash on {node_id(word[: k + 1])}: recorded {known!r}, got {o!r}",
                    prefix=word[: k + 1],
                )
            edges[(prefix, i)] = o
        return ObservationTree(self.inputs, self.outputs, edges)

    def words(self) -> list[tuple[str, ...]]:
        """All access words, shortest first, then by input declaration order."""
        found = {()}
        for (prefix, i) in self.edges:
            found.add(prefix + (i,))
        index = {i: k for k, i in enumerate(self.inputs)}
        return sorted(found, key=lambda w: (len(w), tuple(index[i] for i in w)))

    def output_along(self, word: Sequence[str]) -> Optional[tuple[str, ...]]:
        """The recorded output sequence for a word, or None if any step of
        it has not been observed."""
        word = tuple(word)
        outs = []
        for k in range(len(word)):
            o = self.edges.get((word[:k], word[k]))
            if o is None:
                return None
            outs.append(o)
        return tuple(outs)

    def as_machine(self, name: str = "tree") -> PartialMealyMachine:
        """The tree as a partial Mealy machine with access-word state ids,
        so every relation and morphism operation applies unchanged."""
        for i in self.inputs:
            if "." in i:
                raise ValidationError("input symbols must not contain '.'")
        words = self.words()
        delta = {
            (node_id(prefix), i): (o, node_id(prefix + (i,)))
            for (prefix, i), o in self.edges.items()
        }
        return PartialMealyMachine(
            name, self.inputs, self.outputs, tuple(node_id(w) for w in words), delta
        )

    @property
    def root(self) -> str:
        return ROOT_ID


class Teacher:
    """The black box of the learning game.

    Holds a hidden machine and answers output queries from a fixed initial
    state, counting them; after each query the box is back at the initial
    state.  The hidden machine is deliberately not part of the public
    surface; `_hidden` exists for tests that need ground truth.
    """

    def __init__(self, hidden: PartialMealyMachine, initial: str):
        hidden.check_state(initial)
        self._hidden = hidden
        self._initial = initial
        self._count = 0

    @property
    def inputs(self) -> tuple[str, ...]:
        return self._hidden.inputs

    @property
    def outputs(self) -> tuple[str, ...]:
        return self._hidden.outputs

    @property
    def queries(self) -> int:
        return self._count

    def output_query(self, word: Sequence[str]) -> tuple[str, ...]:
        """The outputs along the run of `word` from the initial state, one
        per input symbol."""
        word = tuple(word)
        if not word:
            raise ContractError("output queries need a non-empty word")
        current = self._initial
        outs = []
        for i in word:
            step = self._hidden.transition(current, i)
            if step is None:
                raise ContractError(
                    f"hidden machine has no transition for {i!r} after {outs!r}"
                )
            o, current = step
            outs.append(o)
        self._count += 1
        return tuple(outs)


def query_and_record(tree: ObservationTree, teacher: Teacher, word: Sequence[str]) -> ObservationTree:
    return tree.record(word, teacher.output_query(word))


def tree_apartness_frontier(tree: ObservationTree) -> Relation:
    """All pairs of tree states that are provably apart; the complement of
    uncertain bisimilarity on the tree's machine.  Recording further
    observations can only grow this relation."""
    machine = tree.as_machine()
    apart = _flagged_pairs(machine.states, _mealy_dead(machine))
    return Relation.square(machine.states, apart)


@dataclass(frozen=True)
class TreeConflict:
    """The shortest access word at which no matching transition exists in
    the hypothesis."""

    word: tuple[str, ...]


def find_lax_morphism_from_tree(
    tree: ObservationTree, hypothesis: PartialMealyMachine, root_target: str
) -> Union[StateMap, TreeConflict]:
    """The unique lax morphism from the tree into a hypothesis sending the
    root to `root_target`, if it exists.

    Because the source is a tree, the images propagate deterministically
    along edges; each tree edge must be matched at the image with the same
    output.  On failure, the shortest unmatched access word is returned.
    """
    hypothesis.check_state(root_target)
    if set(tree.inputs) != set(hypothesis.inputs) or set(tree.outputs) != set(
        hypothesis.outputs
    ):
        raise ContractError("tree and hypothesis must share alphabets")
    images: dict[tuple[str, ...], str] = {(): root_target}
    for word in tree.words():
        if word == ():
            continue
        prefix, i = word[:-1], word[-1]
        o = tree.edges[(prefix, i)]
        step = hypothesis.delta.get((images[prefix], i))
        if step is None or step[0] != o:
            return TreeConflict(word)
        images[word] = step[1]
    machine = tree.as_machine()
    return StateMap(machine, hypothesis, {node_id(w): q for w, q in images.items()})
