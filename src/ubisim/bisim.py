"""Greatest-fixpoint decision procedures.

Uncertain bisimilarity, bisimilarity and ioco compatibility are greatest
fixpoints on pairs of states.  Each is computed through its complement,
the least fixpoint of "this pair is apart", by backward propagation: the
pairs that break a clause on their own are seeded into a worklist, and
each dead pair kills the pairs that reach it through a label (for ioco's
existential output clause, once the last of their common outputs leads
to a dead pair).  Every (pair, label) is visited at most once, so each
relation costs O(n^2 * |labels|) for n states (Liu and Smolka, "Simple
linear-time algorithms for minimal fixed points", ICALP 1998).
Uncertain bisimilarity is not transitive, so partition refinement would
be unsound; the pairwise propagation is the algorithm of record.  The
round-based fixpoint `_shrink_rounds` stays as the tests' reference.

`semantic_oracle_uncertain` is a deliberately separate decision path used
to cross-check the fixpoint engine: it compares word semantics directly,
either by exhaustive word enumeration (within a budget) or by a search of
the both-defined product graph.
"""

from __future__ import annotations

import itertools
import logging
import os
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import ValidationError
from .lifting import in_uncertain_lifting
from .machines import PartialMealyMachine, SuspensionAutomaton, eval_semantics
from .relations import Relation

log = logging.getLogger(__name__)

DEFAULT_ORACLE_BUDGET = 20_000
ORACLE_BUDGET_ENV = "UBISIM_ORACLE_BUDGET"


@dataclass(frozen=True)
class ApartnessWitness:
    """A word on which two states' semantics are both defined but differ."""

    word: tuple[str, ...]
    left_output: str
    right_output: str

    def __post_init__(self):
        if not self.word:
            raise ValidationError("an apartness witness needs a non-empty word")
        if self.left_output == self.right_output:
            raise ValidationError("an apartness witness needs differing outputs")


def _shrink_rounds(
    states: tuple[str, ...], violates: Callable[[str, str, frozenset], bool]
) -> Iterator[frozenset]:
    """Yield the pair set of every round, starting from the full product,
    until a round removes nothing.  Costs O(rounds * n^2 * |labels|); the
    tests check the propagation engine below against it."""
    current = frozenset((x, y) for x in states for y in states)
    yield current
    while True:
        removed = {p for p in current if violates(p[0], p[1], current)}
        if not removed:
            return
        current = current - removed
        yield current


def _predecessors(n: int, succ: list[int]) -> list[list[int]]:
    pred: list[list[int]] = [[] for _ in range(n)]
    for x, d in enumerate(succ):
        if d >= 0:
            pred[d].append(x)
    return pred


def _dead_pairs(
    n: int,
    universal: Sequence[list[int]],
    seeds: Iterable[int],
    existential: Sequence[list[int]] = (),
) -> bytearray:
    """The complement of a greatest fixpoint on the pairs of states 0..n-1,
    as a flag per pair indexed x*n+y.

    Each label's successor array gives the state reached from every state,
    or -1.  A pair dies when it is a seed; when a `universal` label leads
    both its states to a dead pair; or, if there are `existential` labels,
    when every such label both states share leads to a dead pair (or they
    share none).  The dead pairs are a least fixpoint, found by propagating
    each death backwards once: the pairs led to a dead (a, b) by a label
    are pred[a] x pred[b], so over the whole run every (pair, label) is
    visited at most once, O(n^2 * labels).  Beside the n^2 pair flags (and
    support counts), the predecessor lists take O(n * labels) memory.
    """
    dead = bytearray(n * n)
    queue: deque[int] = deque()
    universal_preds = [_predecessors(n, succ) for succ in universal]
    existential_preds = [_predecessors(n, succ) for succ in existential]
    if existential:
        # support: the shared existential labels whose successor pair lives
        support = [0] * (n * n)
        for succ in existential:
            defined = [x for x in range(n) if succ[x] >= 0]
            for x in defined:
                row = x * n
                for y in defined:
                    support[row + y] += 1
        seeds = itertools.chain(seeds, (p for p, c in enumerate(support) if not c))
    push, pop = queue.append, queue.popleft
    for p in seeds:
        if not dead[p]:
            dead[p] = 1
            push(p)
    while queue:
        a, b = divmod(pop(), n)
        for pred in universal_preds:
            pa, pb = pred[a], pred[b]
            if pa and pb:
                for x in pa:
                    row = x * n
                    for y in pb:
                        p = row + y
                        if not dead[p]:
                            dead[p] = 1
                            push(p)
        for pred in existential_preds:
            pa, pb = pred[a], pred[b]
            if pa and pb:
                for x in pa:
                    row = x * n
                    for y in pb:
                        p = row + y
                        support[p] -= 1
                        if not support[p] and not dead[p]:
                            dead[p] = 1
                            push(p)
    return dead


def _differing(n: int, keys: list) -> Iterator[int]:
    """The pairs x*n+y of states whose keys differ, skipping None keys."""
    groups: dict = {}
    for x, k in enumerate(keys):
        if k is not None:
            groups.setdefault(k, []).append(x)
    members = list(groups.values())
    for g in members:
        for h in members:
            if g is not h:
                for x in g:
                    row = x * n
                    for y in h:
                        yield row + y


def _mealy_dead(m: PartialMealyMachine, same_inputs: bool = False) -> bytearray:
    """The pairs outside uncertain bisimilarity, or outside bisimilarity
    with `same_inputs`.  Seeds are the pairs whose outputs differ on a
    common input and, with `same_inputs`, those whose sets of defined
    inputs differ."""
    index = {s: k for k, s in enumerate(m.states)}
    pos = {i: k for k, i in enumerate(m.inputs)}
    n = len(m.states)
    succ = [[-1] * n for _ in m.inputs]
    out: list[list] = [[None] * n for _ in m.inputs]
    for (src, i), (o, dst) in m.delta.items():
        k, x = pos[i], index[src]
        succ[k][x] = index[dst]
        out[k][x] = o
    seeds = [_differing(n, outputs) for outputs in out]
    if same_inputs:
        seeds.append(_differing(n, [tuple(s[x] >= 0 for s in succ) for x in range(n)]))
    return _dead_pairs(n, succ, itertools.chain.from_iterable(seeds))


def _flagged_pairs(states: tuple[str, ...], flags: bytes) -> frozenset:
    """The pairs (states[x], states[y]) whose flag at x*n+y is 1."""
    n = len(states)
    return frozenset(
        (x, y)
        for k, x in enumerate(states)
        for y in itertools.compress(states, flags[k * n:(k + 1) * n])
    )


# swaps the byte flags 0 and 1, turning dead pairs into surviving ones
_FLIP = bytes([1, 0]) + bytes(254)


def _surviving(states: tuple[str, ...], dead: bytearray) -> Relation:
    return Relation.square(states, _flagged_pairs(states, dead.translate(_FLIP)))


def uncertain_bisimilarity(m: PartialMealyMachine) -> Relation:
    """The greatest relation under which related states never conflict:
    whenever both have a transition on the same input, the outputs agree
    and the successors are related again."""
    return _surviving(m.states, _mealy_dead(m))


def bisimilarity(m: PartialMealyMachine) -> Relation:
    """Ordinary bisimilarity: related states must have transitions on
    exactly the same inputs, with equal outputs and related successors."""
    return _surviving(m.states, _mealy_dead(m, same_inputs=True))


def ioco_compatibility(a: SuspensionAutomaton) -> Relation:
    """The greatest relation on a suspension automaton under which related
    states agree on common-input futures and share at least one output
    with related successors."""
    index = {s: k for k, s in enumerate(a.states)}
    n = len(a.states)

    def successors(labels, trans):
        pos = {label: k for k, label in enumerate(labels)}
        succ = [[-1] * n for _ in labels]
        for (src, label), dst in trans.items():
            succ[pos[label]][index[src]] = index[dst]
        return succ

    dead = _dead_pairs(n, successors(a.inputs, a.din), (), successors(a.outputs, a.dout))
    return _surviving(a.states, dead)


def apartness_witness(m: PartialMealyMachine, x: str, y: str) -> Optional[ApartnessWitness]:
    """A minimal-length word separating x from y, or None when the two
    states are uncertain bisimilar.

    Searches the product of the two runs breadth-first, following only
    inputs on which both states move; ties between equally short words are
    broken by input declaration order.
    """
    m.check_state(x)
    m.check_state(y)
    queue = deque([(x, y, ())])
    seen = {(x, y)}
    while queue:
        u, v, word = queue.popleft()
        for i in m.inputs:
            du, dv = m.delta.get((u, i)), m.delta.get((v, i))
            if du is None or dv is None:
                continue
            if du[0] != dv[0]:
                return ApartnessWitness(word + (i,), du[0], dv[0])
            nxt = (du[1], dv[1])
            if nxt not in seen:
                seen.add(nxt)
                queue.append((du[1], dv[1], word + (i,)))
    return None


def _oracle_budget(budget: Optional[int]) -> int:
    if budget is not None:
        return budget
    return int(os.environ.get(ORACLE_BUDGET_ENV, DEFAULT_ORACLE_BUDGET))


def semantic_oracle_uncertain(
    m: PartialMealyMachine, x: str, y: str, budget: Optional[int] = None
) -> bool:
    """Decide compatibility of x and y at the level of word semantics.

    Enumerates every word up to length |states|^2 and requires agreement
    whenever both semantics are defined.  When the word count exceeds the
    budget (parameter, else the UBISIM_ORACLE_BUDGET environment variable,
    else a default), falls back to a reachability search of the
    both-defined product graph and logs that it did so.
    """
    m.check_state(x)
    m.check_state(y)
    max_len = len(m.states) ** 2
    budget = _oracle_budget(budget)
    n = len(m.inputs)
    total, power = 0, 1
    for _ in range(max_len):
        power *= n
        total += power
        if total > budget:
            break
    if total <= budget:
        for length in range(1, max_len + 1):
            for word in itertools.product(m.inputs, repeat=length):
                ox = eval_semantics(m, x, word)
                oy = eval_semantics(m, y, word)
                if ox is not None and oy is not None and ox != oy:
                    return False
        return True

    log.info(
        "oracle word budget exceeded (%d > %d); using product-graph reachability",
        total, budget,
    )
    # both-defined product reachability: a conflicting edge refutes
    stack = [(x, y)]
    seen = {(x, y)}
    while stack:
        u, v = stack.pop()
        for i in m.inputs:
            du, dv = m.delta.get((u, i)), m.delta.get((v, i))
            if du is None or dv is None:
                continue
            if du[0] != dv[0]:
                return False
            nxt = (du[1], dv[1])
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def relation_is_uncertain_bisimulation(m: PartialMealyMachine, rel: Relation) -> bool:
    """Check an arbitrary relation (not necessarily the greatest one): every
    related pair's one-step behaviours must be related by the uncertain
    lifting of the relation itself."""
    if set(rel.left) - set(m.states) or set(rel.right) - set(m.states):
        raise ValidationError("relation carrier leaves the machine's state set")
    square = Relation.square(m.states, rel.pairs)
    return all(
        in_uncertain_lifting(square, m.successors(x), m.successors(y))
        for x, y in square.ordered_pairs()
    )


def relation_is_ioco_compatibility(a: SuspensionAutomaton, rel: Relation) -> bool:
    """Clause-by-clause check of the compatibility conditions for an
    arbitrary relation on a suspension automaton."""
    if set(rel.left) - set(a.states) or set(rel.right) - set(a.states):
        raise ValidationError("relation carrier leaves the automaton's state set")
    for x, y in rel.pairs:
        for i in a.inputs:
            dx, dy = a.din.get((x, i)), a.din.get((y, i))
            if dx is not None and dy is not None and (dx, dy) not in rel.pairs:
                return False
        if not any(
            (x, o) in a.dout and (y, o) in a.dout and (a.dout[(x, o)], a.dout[(y, o)]) in rel.pairs
            for o in a.outputs
        ):
            return False
    return True
