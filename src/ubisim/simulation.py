"""Simulation relations, span witnesses, and joint-simulator synthesis.

Two span-shaped notions of simulation are supported.  In the first, both
projections of the span may be oplax/lax; in the second the left
projection must commute exactly.  On Mealy machines the two notions pick
out exactly the same relations: a relation is a simulation iff every
transition of the left state is matched, with the same input and output,
by the right state.  For suspension automata the relational form
alternates: inputs are matched left to right, outputs right to left.

`joint_simulator` turns a compatible pair of states into a single state
of a synthesized machine that simulates both; conversely, a pair with no
joint simulator is provably apart.

Everything here works on successor structures, so one code path serves
both machine kinds.  Simulation checks are `order_failures` with the
relation as the link between successors, span-witness checks with each
projection, as `morphisms.check_morphism` with its map: none builds a
renamed copy of a structure.  Span synthesis and joint simulators share
one joining step, `_joint`: the structure of a pair of states over pairs
of successors.
"""

from __future__ import annotations

from functools import cache
from typing import Mapping, Optional, Union

from .errors import ContractError, Record
from .machines import (
    MealySuccessors,
    PartialMealyMachine,
    SaSuccessors,
    SuspensionAutomaton,
    _MEALY_OR_SA,
    _check_carriers,
    _same_kind,
    _same_shape,
    _tables_of,
    assemble,
    distinct_names,
    map_structure,
    order_failures,
)
from .relations import Relation

Machine = Union[PartialMealyMachine, SuspensionAutomaton]

STYLES = ("hj", "openmap")


def _style(style: str) -> str:
    if style not in STYLES:
        raise ContractError(f"unknown simulation style {style!r}")
    return style


def simulation_violation(
    rel: Relation, src: Machine, dst: Machine
) -> Optional[tuple[str, str, str]]:
    """The first pair and symbol breaking the simulation conditions, or
    None when the relation is a simulation."""
    _same_shape(src, dst, "simulation_violation")
    _check_carriers(rel, src, dst, "simulation_violation")
    linked = lambda a, b: (a, b) in rel  # noqa: E731
    left = {x: src.successors(x) for x in rel.domain()}
    right = {z: dst.successors(z) for z in rel.codomain()}
    for x, z in rel.ordered_pairs():
        for _, symbol in order_failures(left[x], right[z], linked):
            return (x, z, symbol)
    return None


def check_simulation(rel: Relation, src: Machine, dst: Machine) -> bool:
    """Decide whether `rel` is a simulation from src into dst.  Both span
    styles carve out the same relations on the supported machine kinds, so
    none is asked for: a style matters only to `witness_violations`."""
    return simulation_violation(rel, src, dst) is None


# ---------------------------------------------------------------------------
# span witnesses


class SimulationWitness(Record):
    """A simulation relation together with an optional span structure: a
    one-step behaviour over the relation's pairs whose projections realize
    the declared style (hj: left oplax, right lax; openmap: left strict,
    right lax)."""

    relation: Relation
    structure: Optional[Mapping[tuple[str, str], MealySuccessors | SaSuccessors]]
    style: str

    def _check(self):
        vars(self)["style"] = _style(self.style)
        if self.structure is not None:
            vars(self)["structure"] = dict(self.structure)


def _is_pair(r) -> bool:
    """Whether a successor is a pair a relation can look up: a 2-tuple of
    hashable members."""
    try:
        hash(r)
    except TypeError:
        return False
    return isinstance(r, tuple) and len(r) == 2


def witness_violations(w: SimulationWitness, src: Machine, dst: Machine) -> list[str]:
    """Validate a span witness against its declared style.  Returns a list
    of human-readable problems, empty when the witness checks out.  A
    successor that is no pair leaves the relation and stops its pair's
    projection checks."""
    _same_shape(src, dst, "witness_violations")
    _check_carriers(w.relation, src, dst, "witness_violations")
    if w.structure is None:
        return ["witness carries no span structure"]
    problems = []
    for pair in w.relation.ordered_pairs():
        struct = w.structure.get(pair)
        if struct is None:
            problems.append(f"no structure for pair {pair}")
            continue
        csrc = src.successors(pair[0])
        try:
            _same_kind(struct, csrc, "witness_violations")
        except ContractError:
            problems.append(f"structure of {pair} is not a {type(csrc).__name__} over the machines' alphabets")
            continue
        strays = [r for r in struct.refs() if not (_is_pair(r) and r in w.relation)]
        problems += [f"structure of {pair} leaves the relation at {r}" for r in strays]
        if not all(map(_is_pair, strays)):
            continue  # a successor that is not a pair has no projections
        oplax = not any(order_failures(csrc, struct, lambda a, r: a == r[0]))
        if w.style == "openmap":  # strict: below and above
            if not oplax or any(order_failures(struct, csrc, lambda r, a: r[0] == a)):
                problems.append(f"left projection not strict at {pair}")
        elif not oplax:
            problems.append(f"left projection not oplax at {pair}")
        if any(order_failures(struct, dst.successors(pair[1]), lambda r, b: r[1] == b)):
            problems.append(f"right projection not lax at {pair}")
    return problems


def hj_to_openmap(w: SimulationWitness, src: Machine, dst: Machine) -> SimulationWitness:
    """Convert a valid span witness with oplax left projection into one
    whose left projection commutes exactly, by deleting the structure
    entries that the left state does not carry.  Mealy machines only: the
    suspension order is not known to allow this restriction."""
    _tables_of(src, PartialMealyMachine, "hj_to_openmap")
    if w.style != "hj":
        raise ContractError("conversion starts from a hughes-jacobs witness")
    problems = witness_violations(w, src, dst)
    if problems:
        raise ContractError("witness does not validate: " + problems[0])
    structure = {
        pair: MealySuccessors(t.inputs, tuple(
            e if (pair[0], i) in src.delta else None for i, e in zip(t.inputs, t.entries)
        ))
        for pair, t in w.structure.items()
    }
    return SimulationWitness(w.relation, structure, "openmap")


# ---------------------------------------------------------------------------
# span structure synthesis


class SpanFailure(Record):
    pair: tuple[str, str]
    symbol: str
    reason: str  # "output-mismatch" or "successor-missing"


def synthesize_span_structure(machine: Machine, rel: Relation):
    """Build the joining one-step structure over a reflexive relation.

    Mealy: where both states move on an input, the joint step pairs the
    successors (the outputs must agree); where one moves, the joint step
    duplicates its successor; where neither moves the step is unknown.
    Suspension automata treat inputs the same way, and keep exactly the
    common outputs whose successor pair is already in the relation: an
    output kept only one-sidedly could force a pair the relation does not
    contain.

    Returns a mapping from pairs to structures whose projections are both
    oplax, or the first SpanFailure: output mismatches are reported before
    missing successor pairs.
    """
    _tables_of(machine, _MEALY_OR_SA, "synthesize_span_structure")
    if not rel.is_reflexive():
        raise ContractError("span synthesis needs a reflexive relation")
    _check_carriers(rel, machine, machine, "synthesize_span_structure")

    related = lambda a, b: (a, b) in rel  # noqa: E731
    successors = cache(machine.successors)  # each state's structure, built once
    first: dict[str, SpanFailure] = {}
    structure = {}
    for x, y in rel.ordered_pairs():
        structure[x, y], failures = _joint(successors(x), successors(y), related)
        for reason, symbol in failures:
            first.setdefault(reason, SpanFailure((x, y), symbol, reason))
    return first.get("output-mismatch") or first.get("successor-missing") or structure


def _joint(t, s, related):
    """The joining structure of two states' structures t and s over
    successor pairs, and where it fails as (reason, symbol).

    An input on which both states move yields the pair of successors, unless
    the outputs differ ("output-mismatch") or the pair is not `related`
    ("successor-missing"); an input on which one state moves duplicates its
    successor.  Suspension outputs are kept where both states produce them
    with `related` successors; keeping none is a failure on the symbol "".
    t and s come from one machine: they list one alphabet in one order, so
    their entries join by position.
    """
    failures = []
    if isinstance(t, MealySuccessors):
        entries = []
        for i, dx, dy in zip(t.inputs, t.entries, s.entries):
            if dx is None or dy is None:
                e = dx or dy
                entries.append(None if e is None else (e[0], (e[1], e[1])))
            elif dx[0] != dy[0] or not related(dx[1], dy[1]):
                failures.append(("output-mismatch" if dx[0] != dy[0] else "successor-missing", i))
                entries.append(None)
            else:
                entries.append((dx[0], (dx[1], dy[1])))
        return MealySuccessors(t.inputs, tuple(entries)), failures
    ins = []
    for i, dx, dy in zip(t.inputs, t.in_entries, s.in_entries):
        if dx is None or dy is None:
            d = dy if dx is None else dx
            ins.append(None if d is None else (d, d))
        elif related(dx, dy):
            ins.append((dx, dy))
        else:
            failures.append(("successor-missing", i))
            ins.append(None)
    outs = tuple([None if dx is None or dy is None or not related(dx, dy) else (dx, dy)
                  for dx, dy in zip(t.out_entries, s.out_entries)])
    if not any(outs):
        failures.append(("successor-missing", ""))
    return SaSuccessors(t.inputs, t.outputs, tuple(ins), outs), failures


# ---------------------------------------------------------------------------
# joint simulators


class JointSimulator(Record):
    """A synthesized machine with a state that simulates both requested
    states, together with the two simulation relations and span witnesses
    certifying them."""

    machine: Machine
    state: str
    left: Relation
    right: Relation
    left_witness: SimulationWitness
    right_witness: SimulationWitness


def joint_simulator(m: Machine, x: str, y: str):
    """Synthesize a single simulator for two states.

    For Mealy machines: if the pair is apart, the apartness witness is
    returned instead.  Otherwise the joint machine is built on the pairs
    reachable from (x, y) under the joining dynamics (which includes the
    needed diagonal states), and its start pair simulates x and y at once.
    For suspension automata the same construction runs over the
    compatibility relation, keeping only common outputs whose successor
    pair is compatible; an incompatible pair yields None.

    The joint state of u and v is named "(u|v)".  Where such names coincide
    (the pairs (a|b, c) and (a, b|c)), the pair reached later in
    breadth-first order gets primes appended until its name is new
    ("(a|b|c)'"); the start pair keeps its plain name.
    """
    from .bisim import apartness_witness, ioco_compatibility  # only here: `simulate` needs no bisim
    _tables_of(m, _MEALY_OR_SA, "joint_simulator")
    m.check_state(x)
    m.check_state(y)
    if isinstance(m, PartialMealyMachine):
        apart = apartness_witness(m, x, y)
        if apart is not None:
            return apart
        # a pair that is not apart agrees on every output it can reach
        related = lambda u, v: True  # noqa: E731
    else:
        compatible = ioco_compatibility(m)
        if (x, y) not in compatible:
            return None
        related = lambda u, v: (u, v) in compatible  # noqa: E731

    successors = cache(m.successors)  # each state's structure, built once
    structs = {}
    queue = [(x, y)]
    for pair in queue:  # breadth-first: the queue grows while it is read
        if pair not in structs:
            structs[pair] = _joint(successors(pair[0]), successors(pair[1]), related)[0]
            queue.extend(structs[pair].refs())
    names = dict(zip(structs, distinct_names(f"({u}|{v})" for u, v in structs)))
    join = assemble(m, "join", [(names[p], map_structure(t, names)) for p, t in structs.items()])

    def witness(k: int) -> SimulationWitness:
        # "the join state simulates its k-th component", following the
        # join machine's own transitions
        f = {p: (p[k], names[p]) for p in structs}
        rel = Relation(m.states, join.states, frozenset(f.values()))
        return SimulationWitness(rel, {f[p]: map_structure(t, f) for p, t in structs.items()}, "hj")

    lw, rw = witness(0), witness(1)
    return JointSimulator(join, names[(x, y)], lw.relation, rw.relation, lw, rw)
