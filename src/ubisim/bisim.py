"""Greatest-fixpoint decision procedures.

Uncertain bisimilarity, bisimilarity and ioco compatibility are greatest
fixpoints on pairs of states.  Uncertain bisimilarity and ioco
compatibility are not transitive, so partition refinement would be
unsound for them: each is computed through its complement, the least
fixpoint of "this pair is apart", by backward propagation.  The pairs
that break a clause on their own are seeded, and each dead pair kills
the pairs that reach it through a label (for ioco's existential output
clause, once the last of their common outputs leads to a dead pair).
Every (pair, label) is reached once, so each relation takes
O(n^2 * |labels|) steps for n states (Liu and Smolka, "Simple linear-time
algorithms for minimal fixed points", ICALP 1998).  Bisimilarity is an
equivalence, so partition refinement computes it on classes of states,
in whole rounds that re-key every state at C speed (Moore,
"Gedanken-experiments on sequential machines", 1956): at most n rounds
of O(n * |inputs|) steps each, the same O(n^2 * |inputs|) bound.  A
predecessor worklist (Kanellakis and Smolka, 1990) would re-examine only
the states whose successors moved, which pays off only on chains and
cycles, where each round splits one class; the machines this library
serves split many classes a round, and the whole rounds alone are as
fast on them.  The definition of uncertain bisimilarity is in `lifting`;
the tests check these engines against references built on it, in
`tests/references.py`.

The dead pairs are kept as rows, one Python int per state x whose bit y
stands for the pair (x, y), and they propagate a row at a time: the bits
a row gains reach the rows of its predecessors through one gather per
label.  A label keeps a table of one byte per state for each block of
255 states, and `bytes.translate` maps the table through the gained bits
to a string of 0s and 1s that `int(..., 2)` reads as the row of states
stepping into them: one C-level pass over n bytes per block, whatever
the number of bits (BENCH_pr33.json).  A step is then an integer
operation on an n-bit row, done in C a machine word at a time, where the
pair-at-a-time propagation paid a Python loop iteration per pair.  The
engines read each machine's dense successor arrays from its `tables()`,
which the machine filled while it validated its transitions.  Rows are
what a `Relation` stores, so the engines hand theirs over as they are.
"""

from __future__ import annotations

from collections import deque
from functools import cache, reduce
from operator import or_
from typing import Optional, Sequence

from .errors import Record, ValidationError
from .machines import PartialMealyMachine, SuspensionAutomaton, _check_carriers, _tables_of
from .relations import Relation


class ApartnessWitness(Record):
    """A word on which two states' semantics are both defined but differ."""

    word: tuple[str, ...]
    left_output: str
    right_output: str

    def _check(self):
        if not self.word:
            raise ValidationError("an apartness witness needs a non-empty word")
        if self.left_output == self.right_output:
            raise ValidationError("an apartness witness needs differing outputs")


def _predecessors(n: int, succ: list[int]) -> tuple[list[list[int]], list[bytes], int]:
    """Per state b, the states that step to b; per block of 255 states
    from j = 0, 255, ..., the successor table; and the row of all states
    that step somewhere.  A table holds succ[x] - j for each state x, from
    the highest state down, and 255 where x steps nowhere or outside the
    block, so that translating it through the block's bits of a row D and
    reading the result in base 2 gives the states that step into D."""
    pred: list[list[int]] = [[] for _ in range(n)]
    for x, d in enumerate(succ):
        if d >= 0:
            pred[d].append(x)
    down = succ[::-1]
    tables = [bytes(d - j if j <= d < j + 255 else 255 for d in down) for j in range(0, n, 255)]
    return pred, tables, sum(int(t.translate(_ALL), 2) for t in tables)


_ALL = b"1" * 255 + b"0"  # every state of a block, none for the sentinel 255


def _dead_pairs(
    n: int,
    universal: Sequence[list[int]],
    seeds: list[int],
    existential: Sequence[list[int]] = (),
) -> list[int]:
    """The complement of a greatest fixpoint on the pairs of states 0..n-1,
    as one row per state x: an int whose bit y is set when (x, y) is dead.

    Each label's successor array gives the state reached from every state,
    or -1.  A pair dies when it is set in `seeds`; when a `universal` label
    leads both its states to a dead pair; or, if there are `existential`
    labels, when every such label both states share leads to a dead pair
    (or they share none).

    The dead pairs are a least fixpoint, found by propagating each death
    backwards once, a row at a time.  When row a gains the bits D, the
    states a label leads to a are pred[a], and the states it leads into D
    are one gather per block through its successor tables
    (`_predecessors`), so every x in pred[a] gains its new pairs in one
    operation per block.  Only the bits a row gains are queued, merged
    while the row waits.  Each (pair, label) is reached once, and a run
    takes O(n^2 * labels) operations on n-bit rows: a row has at most n
    deltas, each one C-level pass over n bytes per label and block, and
    one operation per predecessor.  Rows are first taken in depth-first
    post-order, so a row waits for the rows its states step to: on a
    one-input cycle, whose pairs die one bit per row at a time, each row
    is then taken about once rather than once per bit.

    For an existential label each state keeps the row of partners with
    which the label still leads to a live pair; a pair dies when no
    label's row keeps it, an OR over those labels' rows per step.  Beside
    the n rows, the predecessor lists and successor tables take
    O(n * labels) memory per block.
    """
    full = (1 << n) - 1
    labels = []  # per label and block: pred, the block's start and table, and live rows
    for k, succ in enumerate([*universal, *existential]):
        pred, tables, defined = _predecessors(n, succ)
        # an existential label's live row of x: the partners y with which
        # it leads x to a live pair
        rows = None if k < len(universal) else [defined if d >= 0 else 0 for d in succ]
        labels += [(pred, j, table, rows) for j, table in zip(range(0, n, 255), tables)]
    live = [rows for _, j, _, rows in labels if j == 0 and rows is not None]
    dead = list(seeds)
    if live:  # a pair kept live by no existential label is dead
        dead = [row | full ^ reduce(or_, kept) for row, kept in zip(dead, zip(*live))]
    pending = list(dead)  # the bits of each row not yet propagated
    queue = deque(x for x in _post_order(n, [*universal, *existential]) if pending[x])
    push = queue.append
    while queue:
        a = queue.popleft()
        delta, pending[a] = pending[a], 0
        flags = bin(delta)[:1:-1].encode()  # flags[y]: is bit y set
        for pred, j, table, rows in labels:
            xs = pred[a]
            if not xs:
                continue
            # the block's bits of delta, and b"0" for the sentinel 255
            hit = int(table.translate(flags[j : j + 255].ljust(256, b"0")), 2)
            for x in xs if hit else ():
                if rows is None:  # universal: every pair led into delta dies
                    new = hit & ~dead[x]
                else:  # existential: the pairs that lose their last live label
                    # hit is still within rows[x]: the label leads x and
                    # each y to one pair, and each pair enters one delta
                    rows[x] ^= hit
                    kept = dead[x]
                    for other in live:
                        kept |= other[x]
                    new = hit & ~kept
                if new:
                    dead[x] |= new
                    if not pending[x]:
                        push(x)
                    pending[x] |= new
    return dead


def _post_order(n: int, labels: Sequence[list[int]]) -> list[int]:
    """The states 0..n-1 in depth-first post-order along the successors of
    all labels: each state after the states it reaches, but around cycles."""
    steps = list(zip(*labels)) if labels else [()] * n  # per state, its successors
    seen = bytearray(n)
    order: list[int] = []
    for root in range(n):
        if not seen[root]:
            seen[root] = 1
            stack = [(root, iter(steps[root]))]
            while stack:
                x, nexts = stack[-1]
                for d in nexts:
                    if d >= 0 and not seen[d]:
                        seen[d] = 1
                        stack.append((d, iter(steps[d])))
                        break
                else:
                    stack.pop()
                    order.append(x)
    return order


def _differing(keys: list) -> list[int]:
    """Per state, the row of states whose key differs from its own; a None
    key differs from nothing."""
    classes: dict = {}
    for x, k in enumerate(keys):
        if k is not None:
            classes[k] = classes.get(k, 0) | 1 << x
    keyed = sum(classes.values())
    return [0 if k is None else keyed ^ classes[k] for k in keys]


def _live(states: Sequence[str], dead: list[int]) -> Relation:
    """The relation on `states` of the pairs outside the rows `dead`."""
    full = (1 << len(states)) - 1
    return Relation.from_rows(states, states, map(full.__xor__, dead))


def _mealy_dead(m: PartialMealyMachine) -> list[int]:
    """The rows of pairs outside uncertain bisimilarity.  Seeds are the
    pairs whose outputs differ on a common input."""
    succ, out = _tables_of(m, PartialMealyMachine, "uncertain_bisimilarity")
    n = len(m.states)
    seeds = [0] * n
    for rows in map(_differing, out):
        seeds = list(map(or_, seeds, rows))
    return _dead_pairs(n, succ, seeds)


def uncertain_bisimilarity(m: PartialMealyMachine) -> Relation:
    """The greatest relation under which related states never conflict:
    whenever both have a transition on the same input, the outputs agree
    and the successors are related again."""
    return _live(m.states, _mealy_dead(m))


def _equivalence(states: Sequence[str], cls: list[int], count: int) -> Relation:
    """The equivalence on `states` whose class ids 0..count-1 are cls[x]
    per state x (entries of `cls` past the states are ignored)."""
    cls = cls[: len(states)]
    rows = [0] * count
    for x, c in enumerate(cls):
        rows[c] |= 1 << x
    return Relation.from_rows(states, states, map(rows.__getitem__, cls))


def bisimilarity(m: PartialMealyMachine) -> Relation:
    """Ordinary bisimilarity: related states must have transitions on
    exactly the same inputs, with equal outputs and related successors.

    Partition refinement by whole rounds (Moore), from the classes of equal
    outputs per input (None where undefined).  Each round renumbers every
    state by its class and its successor classes per input (-1 where
    undefined), with C-level `map` and `zip`.  A round that splits no
    class gives the answer; one that leaves each state alone in its class
    gives the identity.  Each other round adds a class, so at most n rounds
    pass, each O(n * |inputs|): O(n^2 * |inputs|) steps.
    """
    succ, out = _tables_of(m, PartialMealyMachine, "bisimilarity")
    n = len(m.states)
    ids: dict = {}
    cls = [ids.setdefault(key, len(ids)) for key in (zip(*out) if out else [()] * n)]
    cls.append(-1)  # cls[-1]: the class of an undefined successor
    get = cls.__getitem__
    while True:  # renumbered in order of first appearance
        count, ids = len(ids), {}
        cls[:n] = [ids.setdefault(key, len(ids)) for key in zip(cls[:n], *[map(get, s) for s in succ])]
        if len(ids) == count:
            return _equivalence(m.states, cls, count)
        if len(ids) == n:
            return Relation.identity(m.states)


def ioco_compatibility(a: SuspensionAutomaton) -> Relation:
    """The greatest relation on a suspension automaton under which related
    states agree on common-input futures and share at least one output
    with related successors."""
    ins, outs = _tables_of(a, SuspensionAutomaton, "ioco_compatibility")
    dead = _dead_pairs(len(a.states), ins, [0] * len(a.states), outs)
    return _live(a.states, dead)


def apartness_witness(m: PartialMealyMachine, x: str, y: str) -> Optional[ApartnessWitness]:
    """A minimal-length word separating x from y, or None when the two
    states are uncertain bisimilar.

    Searches the product of the two runs breadth-first, following only
    inputs on which both states move; ties between equally short words are
    broken by input declaration order.
    """
    succ, out = _tables_of(m, PartialMealyMachine, "apartness_witness")
    start = m.check_state(x), m.check_state(y)
    queue, seen = deque([(*start, ())]), {start}
    while queue:
        u, v, word = queue.popleft()
        for i, step, says in zip(m.inputs, succ, out):
            nxt = (step[u], step[v])
            if nxt[0] < 0 or nxt[1] < 0:
                continue
            if says[u] != says[v]:
                return ApartnessWitness(word + (i,), says[u], says[v])
            if nxt not in seen:
                seen.add(nxt)
                queue.append((*nxt, word + (i,)))
    return None


def relation_is_ioco_compatibility(a: SuspensionAutomaton, rel: Relation) -> bool:
    """Clause-by-clause check of the compatibility conditions for an
    arbitrary relation on a suspension automaton."""
    _tables_of(a, SuspensionAutomaton, "relation_is_ioco_compatibility")
    _check_carriers(rel, a, a, "relation_is_ioco_compatibility")
    successors = cache(a.successors)  # each state's structure, built once
    for x, y in rel.ordered_pairs():
        t, s = successors(x), successors(y)
        for dx, dy in zip(t.in_entries, s.in_entries):
            if dx is not None and dy is not None and (dx, dy) not in rel:
                return False
        for dx, dy in zip(t.out_entries, s.out_entries):  # a common output to a related pair
            if dx is not None and dy is not None and (dx, dy) in rel:
                break
        else:
            return False
    return True
