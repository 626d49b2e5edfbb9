"""Observation trees and the black-box teacher of the active learning game.

The learner only ever sees input/output sequences; everything it knows is
stored in an observation tree, a prefix-closed partial Mealy machine whose
states are the access words of the queries performed so far.  Apartness of
tree states only ever grows as more observations arrive, which is what
makes it the useful notion during learning.

A tree stores its nodes by position, in the order they were first
observed, so a parent always comes before its children.  One
breadth-first walk per tree ranks the edges into its nodes, names the
nodes and indexes the names; access words, the tree's machine, the
apartness frontier and lax morphisms out of the tree read them, and `==`
compares the ranked edges, the tree's canonical form.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

from .errors import ContractError, ObservationConflictError, Record, ValidationError
from .machines import PartialMealyMachine, _shared_alphabets, _tables_of, _unique, _walk, distinct_names
from .relations import Relation

if TYPE_CHECKING:
    from .morphisms import StateMap

ROOT_ID = "ε"  # printable id for the empty access word


def node_id(word: Sequence[str]) -> str:
    return ".".join(word) if word else ROOT_ID


class ObservationTree:
    """All query responses gathered so far, as a tree of nodes.

    Node 0 is the root.  `_into[p]` is the edge into node p: its parent's
    position, the position in `inputs` of its input, and its output (the
    root has (-1, -1, None)).  `_children[p][k]` is the position of p's
    child on inputs[k], or -1 where nothing has been observed.  The tree
    shape and prefix closure hold by construction.

    Trees are immutable: `record` returns a new tree.  Positions follow
    the order of recording, but `==` compares the alphabets and the
    ranked edges, which list the observations breadth first, so the same
    observations recorded in any order give equal trees.  Ranks, names
    and the names' index come from one breadth-first walk per tree, on
    first use; `as_machine` builds the tree's machine from them.
    """

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]

    def __init__(self, inputs: Sequence[str], outputs: Sequence[str]):
        """The tree with only its root: nothing observed yet."""
        inputs, outputs = tuple(inputs), tuple(outputs)
        # frozen: set the fields past __setattr__
        vars(self).update(
            inputs=inputs, outputs=outputs,
            _ipos=_unique(inputs, "input symbol"), _opos=_unique(outputs, "output symbol"),
            _into=[(-1, -1, None)], _children=[(-1,) * len(inputs)],
        )

    @classmethod
    def empty(cls, inputs: Sequence[str], outputs: Sequence[str]) -> "ObservationTree":
        return cls(inputs, outputs)

    def record(self, word: Sequence[str], outs: Sequence[str]) -> "ObservationTree":
        """Extend the tree with one query response.

        Re-recording a prefix must reproduce the outputs already stored; a
        clash means the observations cannot come from one machine and
        raises, carrying the offending prefix.  A response that adds no
        node returns this tree.
        """
        word, outs = tuple(word), tuple(outs)
        if len(word) != len(outs):
            raise ContractError("word and outputs must have the same length")
        labels = list(map(self._ipos.get, word))
        if None in labels:
            raise ValidationError(f"unknown input symbol {word[labels.index(None)]!r}")
        for o in outs:
            if o not in self._opos:
                raise ValidationError(f"unknown output symbol {o!r}")
        node = 0
        for k, (i, o) in enumerate(zip(labels, outs)):
            child = self._children[node][i]
            if child < 0:
                break
            known = self._into[child][2]
            if known != o:
                raise ObservationConflictError(
                    f"output clash on {node_id(word[: k + 1])}: recorded {known!r}, got {o!r}",
                    prefix=word[: k + 1],
                )
            node = child
        else:
            return self
        into, children = self._into[:], self._children[:]
        leaf = (-1,) * len(self.inputs)
        for i, o in zip(labels[k:], outs[k:]):
            new = len(into)
            row = list(children[node])
            row[i] = new
            children[node] = tuple(row)
            into.append((node, i, o))
            children.append(leaf)
            node = new
        tree = object.__new__(ObservationTree)
        vars(tree).update(
            inputs=self.inputs, outputs=self.outputs, _ipos=self._ipos, _opos=self._opos,
            _into=into, _children=children,
        )
        return tree

    def __getattr__(self, name: str):
        """Reached only for attributes not set: the first read of `_ranked`,
        `_names` or `_index` runs one breadth-first walk that sets all three.
        `_ranked` lists the edge into each non-root node in `words()` order,
        as the parent's rank, the input's position in `inputs` and the
        output (entry r - 1 is the edge into rank r; the root's rank is 0).
        `_names` holds each node's access word joined by `node_id`, built
        from its parent's, made distinct by `distinct_names` (inputs "i.j"
        and "i" "j", or an input "ε", get primes); `_index` maps each name
        to its rank."""
        if name not in ("_ranked", "_names", "_index"):
            raise AttributeError(f"'ObservationTree' object has no attribute {name!r}")
        order, ranked, names, into, children, inputs = [0], [], [ROOT_ID], self._into, self._children, self.inputs
        for q, p in enumerate(order):  # the lists grow while read
            for k, c in enumerate(children[p]):
                if c >= 0:
                    order.append(c)
                    ranked.append((q, k, into[c][2]))
                    names.append(f"{names[q]}.{inputs[k]}" if q else inputs[k])
        names = tuple(distinct_names(names))
        vars(self).update(_ranked=ranked, _names=names, _index=dict(zip(names, range(len(names)))))
        return vars(self)[name]

    def words(self) -> list[tuple[str, ...]]:
        """All access words, shortest first, then by input declaration order."""
        words = [()]
        for q, k, _ in self._ranked:
            words.append(words[q] + (self.inputs[k],))
        return words

    @property
    def edges(self) -> dict[tuple[tuple[str, ...], str], str]:
        """The observations: (access word, input) -> output, in `words()`
        order of the extended word."""
        words = self.words()
        return {(words[q], self.inputs[k]): o for q, k, o in self._ranked}

    def output_along(self, word: Sequence[str]) -> Optional[tuple[str, ...]]:
        """The recorded output sequence for a word, or None if any step of
        it has not been observed."""
        node, outs = 0, []
        for i in word:
            k = self._ipos.get(i)
            node = -1 if k is None else self._children[node][k]
            if node < 0:
                return None
            outs.append(self._into[node][2])
        return tuple(outs)

    def as_machine(self) -> PartialMealyMachine:
        """The tree as a partial Mealy machine named "tree", whose states are
        the `_names` of the access words in `words()` order, indexed by
        `_index`, so every relation and morphism operation applies.  Its
        tables are filled in one pass over the ranked edges, without the
        constructor's per-transition checks, which the tree guarantees:
        one edge per node and input, with the node's rank as successor.
        Its `delta` is built from them when first read."""
        n = len(self._ranked) + 1
        succ = [[-1] * n for _ in self.inputs]
        out: list[list[Optional[str]]] = [[None] * n for _ in self.inputs]
        for r, (q, k, o) in enumerate(self._ranked, 1):
            succ[k][q], out[k][q] = r, o
        return PartialMealyMachine._from_tables("tree", self.inputs, self.outputs, self._names, (succ, out),
                                                (self._ipos, self._opos, self._index))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ObservationTree):
            return NotImplemented
        return (self.inputs, self.outputs, self._ranked) == (other.inputs, other.outputs, other._ranked)

    def __repr__(self) -> str:
        return f"ObservationTree(inputs={self.inputs!r}, outputs={self.outputs!r}, edges={self.edges!r})"

    # immutable like a record, but compared by its observations, and unhashable
    __setattr__, __delattr__ = Record.__setattr__, Record.__delattr__


class Teacher:
    """The black box of the learning game.

    Holds a hidden machine and answers output queries from a fixed initial
    state, counting the queries and their symbols; after each query the
    box is back at the initial state.  The hidden machine is deliberately
    not part of the public surface; `_hidden` exists for tests that need
    ground truth.
    """

    def __init__(self, hidden: PartialMealyMachine, initial: str):
        _tables_of(hidden, PartialMealyMachine, "Teacher")
        self._start = hidden.check_state(initial)
        self._hidden = hidden
        self._count = 0
        self._symbols = 0

    @property
    def queries(self) -> int:
        return self._count

    @property
    def symbols(self) -> int:
        """The total length of the queries answered so far."""
        return self._symbols

    def output_query(self, word: Sequence[str]) -> tuple[str, ...]:
        """The outputs along the run of `word` from the initial state, one
        per input symbol."""
        word = tuple(word)
        if not word:
            raise ContractError("output queries need a non-empty word")
        x, outs = _walk(self._hidden, self._start, word)
        if x < 0:
            raise ContractError(f"hidden machine has no transition for {word[len(outs)]!r} after {outs!r}")
        self._count += 1
        self._symbols += len(word)
        return tuple(outs)


def query_and_record(tree: ObservationTree, teacher: Teacher, word: Sequence[str]) -> ObservationTree:
    return tree.record(word, teacher.output_query(word))


def tree_apartness_frontier(tree: ObservationTree) -> Relation:
    """All pairs of tree states that are provably apart; the complement of
    uncertain bisimilarity on the tree's machine, over the states of
    `as_machine()`.  Recording further observations can only grow this
    relation.

    On a tree the pair (x, z) depends only on the deeper pairs (x·i, z·i),
    so the least fixpoint is one pass over the nodes in reverse
    breadth-first order:

        apart[x] = OR_i (differ_i[o] | lift_i(apart[x·i] & ends_i[o]))

    where o = out(x·i), differ_i[o] is the row of the nodes whose i-edge
    outputs something other than o, ends_i[o] the row of the nodes at the
    end of an i-edge that outputs o, and lift_i maps each set bit to its
    parent, through a table of parent bits.  Only agreeing children are
    lifted: the parent of an i-child whose edge outputs another symbol is
    in differ_i[o] already.  The cost is O(n·|I|) operations on n-bit rows
    plus one step per set bit among the agreeing children; the lift never
    scans a whole row.
    """
    ranked = tree._ranked
    moves = [0] * len(tree.inputs)  # nodes with an i-edge
    says: list[dict] = [{} for _ in tree.inputs]  # output -> nodes whose i-edge outputs it
    ends: list[dict] = [{} for _ in tree.inputs]  # output -> nodes at the end of an i-edge with it
    up = [0]  # the parent's bit, by rank
    for r, (q, i, o) in enumerate(ranked, 1):
        bit = 1 << q
        up.append(bit)
        moves[i] |= bit
        says[i][o] = says[i].get(o, 0) | bit
        ends[i][o] = ends[i].get(o, 0) | 1 << r
    apart = [0] * (len(ranked) + 1)
    for r in range(len(ranked), 0, -1):  # children come after their parents
        q, i, o = ranked[r - 1]
        row, below = moves[i] ^ says[i][o], apart[r] & ends[i][o]
        while below:  # highest set bit first
            b = below.bit_length() - 1
            row |= up[b]
            below ^= 1 << b
        apart[q] |= row
    return Relation.from_rows(tree._names, tree._names, apart)


class TreeConflict(Record):
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
    The images are propagated as positions over the tree's breadth-first
    ranks, through the hypothesis's tables; states are named only in the
    final map, and access words are built only for a conflict.  The map's
    source is `tree.as_machine()`.
    """
    from .morphisms import StateMap  # only here: `learn-demo` needs no morphisms
    succ, out = _tables_of(hypothesis, PartialMealyMachine, "find_lax_morphism_from_tree")
    images = [hypothesis.check_state(root_target)]
    _shared_alphabets(tree, hypothesis, "find_lax_morphism_from_tree")
    at = [hypothesis.input_index[i] for i in tree.inputs]  # the hypothesis's position of each tree input
    for r, (q, k, o) in enumerate(tree._ranked, 1):  # parents first, shortest words first
        x, k = images[q], at[k]
        if out[k][x] != o:  # None where the hypothesis has no transition
            return TreeConflict(tree.words()[r])
        images.append(succ[k][x])
    return StateMap(tree.as_machine(), hypothesis, dict(zip(tree._names, map(hypothesis.states.__getitem__, images))))
