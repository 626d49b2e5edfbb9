"""Membership tests for relation liftings over successor structures.

`in_lifting` decides membership in the canonical lifting of a relation:
two successor structures are related when they are built the same way from
relation-linked states.  `in_uncertain_lifting` additionally allows both
sides to first grow along the successor-structure order, so structures are
related as soon as their known parts do not conflict.

The uncertain lifting defines uncertain bisimilarity, and
`relation_is_uncertain_bisimulation` checks a relation against that
definition directly.  The references that the tests check `bisim` and this
module against (the round fixpoint, the word oracle, completion search and
the stability scan) live with the tests, in `tests/references.py`.
"""

from __future__ import annotations

import functools
from typing import Callable

from .errors import ContractError
from .machines import (
    MealySuccessors,
    PartialMealyMachine,
    PowSuccessors,
    SaSuccessors,
    Successors,
    _check_carriers,
)
from .relations import Relation


def _check_args(rel: Relation, *pair: Successors) -> None:
    """Refuse a relation that is not on a single carrier, and a pair of
    structures of different kinds, over alphabets in different orders (the
    liftings pair entries by position), or with a successor outside it."""
    if not rel.is_square:
        raise ContractError("lifting membership needs a relation on a single carrier")
    if pair:
        t, s = pair
        if type(t) is not type(s) or any(getattr(t, a, ()) != getattr(s, a, ()) for a in ("inputs", "outputs")):
            raise ContractError("lifting membership needs two structures of one kind over one alphabet order")
    if not rel._lpos.keys() >= {ref for t in pair for ref in t.refs()}:
        stray = next(ref for t in pair for ref in t.refs() if ref not in rel._lpos)  # the first, t's before s's
        raise ContractError(f"successor {stray!r} is outside the relation's carrier")


def in_lifting(rel: Relation, t: Successors, s: Successors) -> bool:
    """Canonical lifting membership, position by position (`_check_args`
    gives t and s one alphabet order).

    Mealy: t and s are defined on exactly the same inputs, with equal
    outputs and relation-linked successors.  Suspension: same defined
    inputs and outputs, successors linked, and an output on both sides.
    Powerset: every element of t has a partner in s and vice versa.
    """
    _check_args(rel, t, s)
    if isinstance(t, PowSuccessors):
        return (all(any((x, y) in rel for y in s.elems) for x in t.elems)
                and all(any((x, y) in rel for x in t.elems) for y in s.elems))
    if isinstance(t, MealySuccessors):
        return all((te is None) == (se is None) and (te is None or te[0] == se[0] and (te[1], se[1]) in rel)
                   for te, se in zip(t.entries, s.entries))
    if not (t.has_output and s.has_output):
        return False  # a witness must itself have a non-empty output part
    return all((te is None) == (se is None) and (te is None or (te, se) in rel)
               for te, se in zip(t.in_entries + t.out_entries, s.in_entries + s.out_entries))


def in_uncertain_lifting(rel: Relation, t: Successors, s: Successors) -> bool:
    """Uncertain lifting membership, decided directly (no enumeration).

    Mealy: on inputs where both sides are known, outputs must agree and
    successors be linked; where only one side is known, its successor must
    have some partner in the relation (the missing side can still be
    completed).  Suspension: the input part behaves like Mealy inputs and
    the output part needs one common output with linked successors, since
    completions may only remove outputs but never all of them.  Powerset:
    every element needs some partner anywhere in the carrier.
    """
    _check_args(rel, t, s)
    return _uncertain_linked(rel, rel.domain(), rel.codomain(), t, s)


def _uncertain_linked(rel: Relation, dom: frozenset, cod: frozenset, t: Successors, s: Successors) -> bool:
    """`in_uncertain_lifting` on checked arguments, given rel's domain and
    codomain, so that a check of many pairs computes them once."""
    if isinstance(t, PowSuccessors):
        return all(x in dom for x in t.elems) and all(y in cod for y in s.elems)
    if isinstance(t, MealySuccessors):
        # outputs agree where both sides move; then only successors matter
        if any(te[0] != se[0] for te, se in zip(t.entries, s.entries) if te and se):
            return False
        steps = [(te[1] if te else None, se[1] if se else None) for te, se in zip(t.entries, s.entries)]
    else:
        steps = zip(t.in_entries, s.in_entries)
    for te, se in steps:
        if te is not None and se is not None:
            linked = (te, se) in rel
        else:  # the known side, if any, needs some partner
            linked = (te is None or te in dom) and (se is None or se in cod)
        if not linked:
            return False
    return isinstance(t, MealySuccessors) or any(
        te is not None and se is not None and (te, se) in rel
        for te, se in zip(t.out_entries, s.out_entries)
    )


# ---------------------------------------------------------------------------
# uncertain bisimulations by the definition


def _refuses(m: PartialMealyMachine) -> Callable[[str, str, frozenset], bool]:
    """Whether the uncertain lifting of a pair set refuses the steps of
    (x, y), called as `violates(x, y, pairs)`, the form the tests' round
    fixpoint takes.  Builds a set's relation, domain and codomain once, not
    once per pair."""
    succ = {s: m.successors(s) for s in m.states}

    @functools.lru_cache(maxsize=1)
    def lifted(pairs: frozenset) -> tuple[Relation, frozenset, frozenset]:
        rel = Relation.square(m.states, pairs)
        return rel, rel.domain(), rel.codomain()

    return lambda x, y, pairs: not _uncertain_linked(*lifted(pairs), succ[x], succ[y])


def relation_is_uncertain_bisimulation(m: PartialMealyMachine, rel: Relation) -> bool:
    """Check an arbitrary relation (not necessarily the greatest one): every
    related pair's one-step behaviours must be related by the uncertain
    lifting of the relation itself."""
    _check_carriers(rel, m, m, "relation_is_uncertain_bisimulation")
    pairs, refuses = rel.pairs, _refuses(m)
    return not any(refuses(x, y, pairs) for x, y in pairs)
