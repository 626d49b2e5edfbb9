"""Membership tests for relation liftings over successor structures.

`in_lifting` decides membership in the canonical lifting of a relation:
two successor structures are related when they are built the same way from
relation-linked states.  `in_uncertain_lifting` additionally allows both
sides to first grow along the successor-structure order, so structures are
related as soon as their known parts do not conflict.

The uncertain membership test has two independent implementations: a
direct characterization (used everywhere) and a brute-force search over
completions (desk-scale only, used as an oracle in tests).
"""

from __future__ import annotations

import itertools
from typing import Mapping, Optional, Sequence

from .errors import ContractError, EnumerationLimitError, ValidationError
from .machines import (
    MealySuccessors,
    PowSuccessors,
    Ref,
    SaSuccessors,
    Successors,
    check_same_shape,
    map_structure,
    order_failures,
)
from .relations import Relation, inverse_image


def _check_square(rel: Relation) -> None:
    if not rel.is_square:
        raise ContractError("lifting membership needs a relation on a single carrier")


def _check_refs(rel: Relation, *structs: Successors) -> None:
    carrier = set(rel.left)
    for t in structs:
        for ref in t.refs():
            if ref not in carrier:
                raise ContractError(f"successor {ref!r} is outside the relation's carrier")


def in_lifting(rel: Relation, t: Successors, s: Successors) -> bool:
    """Canonical lifting membership.

    Mealy: t and s are defined on exactly the same inputs, with equal
    outputs and relation-linked successors.  Suspension: same defined
    inputs and outputs, successors linked.  Powerset: every element of t
    has a partner in s and vice versa.
    """
    _check_square(rel)
    check_same_shape(t, s)
    _check_refs(rel, t, s)
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
    _check_square(rel)
    check_same_shape(t, s)
    _check_refs(rel, t, s)
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
# enumeration: all structures, completions, and the brute-force oracle

COMPLETION_CARRIER_CAP = 4


def all_mealy_successors(inputs, outputs, carrier) -> list[MealySuccessors]:
    inputs, outputs, carrier = tuple(inputs), tuple(outputs), tuple(carrier)
    choices = [None] + [(o, x) for o in outputs for x in carrier]
    return [MealySuccessors(inputs, combo) for combo in itertools.product(choices, repeat=len(inputs))]


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
    carrier = tuple(carrier)
    return [
        PowSuccessors(frozenset(sub))
        for k in range(len(carrier) + 1)
        for sub in itertools.combinations(carrier, k)
    ]


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
        per_input = [
            [e] if e is not None else [None] + [(o, x) for o in outputs for x in carrier]
            for e in t.entries
        ]
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
    _check_square(rel)
    check_same_shape(t, s)
    _check_refs(rel, t, s)
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
    _check_square(rel)
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
    violation: Optional[tuple[Successors, Successors]] = None
    for t in structs:
        for s in structs:
            before = in_uncertain_lifting(pulled, t, s)
            after = in_uncertain_lifting(rel, map_structure(t, f), map_structure(s, f))
            if before != after:
                violation = (t, s)
                break
        if violation:
            break
    if report:
        return violation
    return violation is None
