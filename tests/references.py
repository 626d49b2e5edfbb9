"""References for the uncertain lifting and the relation it defines, which
the tests check the library against: the word oracle, which past its budget
answers by the round fixpoint `_shrink_rounds`; completion search over
successor structures; and the stability scan.  All are desk-scale only, and
they share no code with the propagation engine of `ubisim.bisim`: they are
built on the definitions in `ubisim.lifting`.
"""

from __future__ import annotations

import itertools
import logging
from typing import Callable, Iterator, Mapping, Sequence

from ubisim import ContractError, UbisimError, ValidationError
from ubisim.lifting import _check_args, _refuses, in_lifting, in_uncertain_lifting
from ubisim.machines import (
    MealySuccessors,
    PartialMealyMachine,
    PowSuccessors,
    Ref,
    SaSuccessors,
    Successors,
    _tables_of,
    eval_semantics,
    map_structure,
)
from ubisim.relations import Relation, inverse_image

DEFAULT_ORACLE_BUDGET = 20_000


class EnumerationLimitError(UbisimError):
    """An exhaustive check was asked to enumerate beyond its size cap."""


# ---------------------------------------------------------------------------
# uncertain bisimilarity by the definition: rounds and words


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
