"""Membership tests for relation liftings over successor structures.

`in_lifting` decides membership in the canonical lifting of a relation:
two successor structures are related when they are built the same way from
relation-linked states.  `in_uncertain_lifting` additionally allows both
sides to first grow along the successor-structure order, so structures are
related as soon as their known parts do not conflict.

The uncertain lifting defines uncertain bisimilarity.  This module holds
the definition, decided directly (used everywhere), and its references,
which the tests check `bisim` against: membership by brute-force search
over completions (desk-scale only), the round fixpoint `_shrink_rounds`,
and the word oracle, which past its budget answers by that fixpoint.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterator, Mapping, Sequence

from .errors import ContractError, EnumerationLimitError, ValidationError
from .machines import (
    MealySuccessors,
    PartialMealyMachine,
    PowSuccessors,
    Ref,
    SaSuccessors,
    Successors,
    _check_carriers,
    _tables_of,
    eval_semantics,
    map_structure,
    order_failures,
)
from .relations import Relation, inverse_image


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
    for ref in itertools.chain.from_iterable(t.refs() for t in pair):
        if ref not in rel._lpos:
            raise ContractError(f"successor {ref!r} is outside the relation's carrier")


def in_lifting(rel: Relation, t: Successors, s: Successors) -> bool:
    """Canonical lifting membership.

    Mealy: t and s are defined on exactly the same inputs, with equal
    outputs and relation-linked successors.  Suspension: same defined
    inputs and outputs, successors linked.  Powerset: every element of t
    has a partner in s and vice versa.
    """
    _check_args(rel, t, s)
    if isinstance(t, SaSuccessors) and not (t.has_output and s.has_output):
        return False  # a witness must itself have a non-empty output part
    if not isinstance(t, PowSuccessors):
        # each side's entries are matched by the other's, through rel
        there = order_failures(t, s, lambda a, b: (a, b) in rel)
        back = order_failures(s, t, lambda a, b: (b, a) in rel)
        return next(there, None) is None and next(back, None) is None
    left_ok = all(any((x, y) in rel for y in s.elems) for x in t.elems)
    right_ok = all(any((x, y) in rel for x in t.elems) for y in s.elems)
    return left_ok and right_ok


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
# uncertain bisimulations by the definition: relation check, rounds, words

DEFAULT_ORACLE_BUDGET = 20_000


def _refuses(m: PartialMealyMachine) -> Callable[[str, str, frozenset], bool]:
    """`violates` for `_shrink_rounds`: whether the uncertain lifting of a
    pair set refuses the steps of (x, y).  Builds a set's relation, domain
    and codomain once, not once per pair."""
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


def _shrink_rounds(
    states: tuple[str, ...], violates: Callable[[str, str, frozenset], bool]
) -> Iterator[frozenset]:
    """Yield the pair set of every round, starting from the full product,
    until a round removes nothing.  Costs O(rounds * n^2 * |labels|); the
    tests check the propagation engine of `bisim` against it."""
    current = frozenset((x, y) for x in states for y in states)
    yield current
    while True:
        removed = {p for p in current if violates(p[0], p[1], current)}
        if not removed:
            return
        current = current - removed
        yield current


# the last machine the oracle fell back on, and its fixpoint: machines are
# unhashable, so the one entry is keyed by identity, and holding the
# machine keeps its id from being reused
_last_fixpoint: tuple = (None, frozenset())


def semantic_oracle_uncertain(
    m: PartialMealyMachine, x: str, y: str, budget: int = DEFAULT_ORACLE_BUDGET
) -> bool:
    """Decide compatibility of x and y at the level of word semantics.

    Enumerates every word up to length |states|^2 and requires agreement
    whenever both semantics are defined, depth first, extending only the
    words on which both states have a run.  When the word count exceeds the
    budget, answers by the greatest fixpoint of the uncertain lifting
    instead, computed by rounds that drop the pairs the lifting refuses,
    and logs that it did so.  The fixpoint is computed once for a run of
    calls on the same machine.
    """
    global _last_fixpoint
    _tables_of(m, PartialMealyMachine, "semantic_oracle_uncertain")
    m.check_state(x)
    m.check_state(y)
    max_len = len(m.states) ** 2
    n = len(m.inputs)
    total, power = 0, 1
    for _ in range(max_len):
        power *= n
        total += power
        if total > budget:
            break
    if total <= budget:
        words = [(i,) for i in m.inputs]
        while words:
            word = words.pop()
            ox, oy = eval_semantics(m, x, word), eval_semantics(m, y, word)
            if ox is not None and oy is not None:
                if ox != oy:
                    return False
                if len(word) < max_len:
                    words += [(*word, i) for i in m.inputs]
        return True

    import logging  # for this line only, so that importing the module loads no logging

    logging.getLogger(__name__).info("oracle word budget exceeded (%d > %d); using the uncertain "
                                     "lifting's greatest fixpoint", total, budget)
    last, final = _last_fixpoint
    if last is not m:
        *_, final = _shrink_rounds(m.states, _refuses(m))
        _last_fixpoint = (m, final)
    return (x, y) in final


# ---------------------------------------------------------------------------
# enumeration: all structures, completions, and the brute-force oracle

COMPLETION_CARRIER_CAP = 4


def all_mealy_successors(inputs, outputs, carrier) -> list[MealySuccessors]:
    """Every Mealy successor structure: the completions of the one with no
    known entry."""
    inputs = tuple(inputs)
    return list(completions(MealySuccessors(inputs, (None,) * len(inputs)), carrier, outputs))


def all_sa_successors(inputs, outputs, carrier) -> list[SaSuccessors]:
    """Every suspension successor structure with a non-empty output part."""
    inputs, outputs, carrier = tuple(inputs), tuple(outputs), tuple(carrier)
    in_choices = [None] + list(carrier)
    out_combos = [
        combo
        for combo in itertools.product(in_choices, repeat=len(outputs))
        if any(e is not None for e in combo)
    ]
    return [
        SaSuccessors(inputs, outputs, ins, outs)
        for ins in itertools.product(in_choices, repeat=len(inputs))
        for outs in out_combos
    ]


def all_pow_successors(carrier) -> list[PowSuccessors]:
    """Every successor set: the completions of the empty one."""
    return list(completions(PowSuccessors(frozenset()), carrier))


def completions(t: Successors, carrier, outputs=None):
    """All structures above t in the successor-structure order.

    Mealy completions fill unknown entries (needs the output alphabet);
    suspension completions fill inputs and drop outputs, keeping at least
    one; powerset completions are supersets within the carrier.
    """
    carrier = tuple(carrier)
    if isinstance(t, MealySuccessors):
        if outputs is None:
            raise ContractError("Mealy completions need the output alphabet")
        choices = [None] + [(o, x) for o in outputs for x in carrier]
        per_input = [[e] if e is not None else choices for e in t.entries]
        for combo in itertools.product(*per_input):
            yield MealySuccessors(t.inputs, combo)
        return
    if isinstance(t, SaSuccessors):
        per_input = [[e] if e is not None else [None] + list(carrier) for e in t.in_entries]
        per_output = [[e, None] if e is not None else [None] for e in t.out_entries]
        for ins in itertools.product(*per_input):
            for outs in itertools.product(*per_output):
                if any(e is not None for e in outs):
                    yield SaSuccessors(t.inputs, t.outputs, ins, outs)
        return
    if isinstance(t, PowSuccessors):
        extra = [x for x in carrier if x not in t.elems]
        for k in range(len(extra) + 1):
            for add in itertools.combinations(extra, k):
                yield PowSuccessors(t.elems | frozenset(add))
        return
    raise ContractError(f"unsupported structure kind {type(t).__name__}")


def in_uncertain_lifting_enumerated(
    rel: Relation, t: Successors, s: Successors, outputs=None
) -> bool:
    """Uncertain lifting membership by brute force: search for completions
    of both sides that land in the canonical lifting.  Independent of
    `in_uncertain_lifting`; capped at small carriers."""
    _check_args(rel, t, s)
    if len(rel.left) > COMPLETION_CARRIER_CAP:
        raise EnumerationLimitError(
            f"completion search is capped at carriers of size {COMPLETION_CARRIER_CAP}"
        )
    for t2 in completions(t, rel.left, outputs):
        for s2 in completions(s, rel.left, outputs):
            if in_lifting(rel, t2, s2):
                return True
    return False


# ---------------------------------------------------------------------------
# the stability check

STABILITY_CARRIER_CAP = 3
STABILITY_ALPHABET_CAP = 2


def stability_check(
    f: Mapping[Ref, Ref],
    rel: Relation,
    *,
    variant: str = "mealy",
    inputs: Sequence[str] = (),
    outputs: Sequence[str] = (),
    report: bool = False,
):
    """Check that the uncertain lifting commutes with inverse images along
    `f` for the relation `rel` on f's target.

    One inclusion always holds; the check enumerates every pair of
    successor structures over f's domain and hunts for a pair that is
    related after mapping through f but not before.  Returns a boolean, or
    with report=True the first violating pair (None when stable).
    """
    _check_args(rel)
    domain = tuple(f.keys())
    if len(domain) > STABILITY_CARRIER_CAP:
        raise EnumerationLimitError(
            f"stability check is capped at carriers of size {STABILITY_CARRIER_CAP}"
        )
    if variant in ("mealy", "sa") and (
        len(inputs) > STABILITY_ALPHABET_CAP or len(outputs) > STABILITY_ALPHABET_CAP
    ):
        raise EnumerationLimitError(
            f"stability check is capped at alphabets of size {STABILITY_ALPHABET_CAP}"
        )
    if variant == "mealy":
        structs = all_mealy_successors(inputs, outputs, domain)
    elif variant == "sa":
        structs = all_sa_successors(inputs, outputs, domain)
    elif variant == "pow":
        structs = all_pow_successors(domain)
    else:
        raise ValidationError(f"unknown variant {variant!r}")

    pulled = inverse_image(f, rel)
    violation = next(
        ((t, s) for t in structs for s in structs
         if in_uncertain_lifting(pulled, t, s) != in_uncertain_lifting(rel, map_structure(t, f), map_structure(s, f))),
        None,
    )
    return violation if report else violation is None
