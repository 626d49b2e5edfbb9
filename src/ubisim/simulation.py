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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Optional, Union

from .bisim import apartness_witness, ioco_compatibility
from .errors import ContractError, ValidationError
from .machines import (
    MealySuccessors,
    PartialMealyMachine,
    SaSuccessors,
    SuspensionAutomaton,
    order_leq,
)
from .relations import Relation

Machine = Union[PartialMealyMachine, SuspensionAutomaton]

STYLES = {"hj": "hj", "hughes-jacobs": "hj", "openmap": "openmap", "open-map": "openmap"}


def _style(style: str) -> str:
    try:
        return STYLES[style]
    except KeyError:
        raise ContractError(f"unknown simulation style {style!r}") from None


def pair_state(u: str, v: str) -> str:
    return f"({u}|{v})"


def _check_rel(rel: Relation, src: Machine, dst: Machine) -> None:
    if type(src) is not type(dst):
        raise ContractError("simulation requires machines of the same kind")
    if set(src.inputs) != set(dst.inputs) or set(src.outputs) != set(dst.outputs):
        raise ContractError("simulation requires shared alphabets")
    if set(rel.left) - set(src.states) or set(rel.right) - set(dst.states):
        raise ValidationError("relation carrier leaves the machines' state sets")


def simulation_violation(
    rel: Relation, src: Machine, dst: Machine
) -> Optional[tuple[str, str, str]]:
    """The first pair and symbol breaking the simulation conditions, or
    None when the relation is a simulation."""
    _check_rel(rel, src, dst)
    if isinstance(src, PartialMealyMachine):
        for x, z in rel.ordered_pairs():
            for i in src.inputs:
                dx = src.delta.get((x, i))
                if dx is None:
                    continue
                dz = dst.delta.get((z, i))
                if dz is None or dz[0] != dx[0] or (dx[1], dz[1]) not in rel.pairs:
                    return (x, z, i)
        return None
    for x, z in rel.ordered_pairs():
        for i in src.inputs:
            dx = src.din.get((x, i))
            if dx is None:
                continue
            dz = dst.din.get((z, i))
            if dz is None or (dx, dz) not in rel.pairs:
                return (x, z, i)
        for o in dst.outputs:
            dz = dst.dout.get((z, o))
            if dz is None:
                continue
            dx = src.dout.get((x, o))
            if dx is None or (dx, dz) not in rel.pairs:
                return (x, z, o)
    return None


def check_simulation(rel: Relation, src: Machine, dst: Machine, style: str = "hj") -> bool:
    """Decide whether `rel` is a simulation from src into dst.

    The style is accepted for symmetry with witness checking; on the
    supported machine kinds both styles carve out the same relations, so
    it does not influence the verdict.
    """
    _style(style)
    return simulation_violation(rel, src, dst) is None


# ---------------------------------------------------------------------------
# span witnesses


@dataclass(frozen=True)
class SimulationWitness:
    """A simulation relation together with an optional span structure: a
    one-step behaviour over the relation's pairs whose projections realize
    the declared style (hj: left oplax, right lax; openmap: left strict,
    right lax)."""

    relation: Relation
    structure: Optional[Mapping[tuple[str, str], MealySuccessors | SaSuccessors]]
    style: str

    def __post_init__(self):
        object.__setattr__(self, "style", _style(self.style))
        if self.structure is not None:
            object.__setattr__(self, "structure", dict(self.structure))


def _project(struct, k: int):
    """Project a structure over pairs to one over plain states."""
    if isinstance(struct, MealySuccessors):
        return MealySuccessors(
            struct.inputs,
            tuple(None if e is None else (e[0], e[1][k]) for e in struct.entries),
        )
    return SaSuccessors(
        struct.inputs,
        struct.outputs,
        tuple(None if e is None else e[k] for e in struct.in_entries),
        tuple(None if e is None else e[k] for e in struct.out_entries),
    )


def witness_violations(w: SimulationWitness, src: Machine, dst: Machine) -> list[str]:
    """Validate a span witness against its declared style.  Returns a list
    of human-readable problems, empty when the witness checks out."""
    _check_rel(w.relation, src, dst)
    if w.structure is None:
        return ["witness carries no span structure"]
    problems = []
    for pair in w.relation.ordered_pairs():
        struct = w.structure.get(pair)
        if struct is None:
            problems.append(f"no structure for pair {pair}")
            continue
        for ref in struct.refs():
            if ref not in w.relation.pairs:
                problems.append(f"structure of {pair} leaves the relation at {ref}")
        left = _project(struct, 0)
        right = _project(struct, 1)
        csrc = src.successors(pair[0])
        cdst = dst.successors(pair[1])
        if w.style == "openmap":
            if left != csrc:
                problems.append(f"left projection not strict at {pair}")
        else:
            if not order_leq(csrc, left):
                problems.append(f"left projection not oplax at {pair}")
        if not order_leq(right, cdst):
            problems.append(f"right projection not lax at {pair}")
    return problems


def hj_to_openmap(w: SimulationWitness, src: Machine, dst: Machine) -> SimulationWitness:
    """Convert a valid span witness with oplax left projection into one
    whose left projection commutes exactly, by deleting the structure
    entries that the left state does not carry.  Mealy machines only: the
    suspension order is not known to allow this restriction."""
    if not isinstance(src, PartialMealyMachine):
        raise ContractError(
            "openmap conversion is only available for Mealy machines; the "
            "suspension order is not known to be restricting"
        )
    if w.style != "hj":
        raise ContractError("conversion starts from a hughes-jacobs witness")
    problems = witness_violations(w, src, dst)
    if problems:
        raise ContractError("witness does not validate: " + problems[0])
    structure = {}
    for pair, struct in w.structure.items():
        csrc = src.successors(pair[0])
        entries = tuple(
            None if csrc.entries[k] is None else struct.entries[k]
            for k in range(len(struct.entries))
        )
        structure[pair] = MealySuccessors(struct.inputs, entries)
    return SimulationWitness(w.relation, structure, "openmap")


# ---------------------------------------------------------------------------
# span structure synthesis


@dataclass(frozen=True)
class SpanFailure:
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
    if not rel.is_reflexive():
        raise ContractError("span synthesis needs a reflexive relation")
    if set(rel.left) - set(machine.states):
        raise ValidationError("relation carrier leaves the machine's state set")

    mismatch: Optional[SpanFailure] = None
    missing: Optional[SpanFailure] = None
    structure = {}
    for x, y in rel.ordered_pairs():
        if isinstance(machine, PartialMealyMachine):
            entries = {}
            for i in machine.inputs:
                dx, dy = machine.delta.get((x, i)), machine.delta.get((y, i))
                if dx is not None and dy is not None:
                    if dx[0] != dy[0]:
                        mismatch = mismatch or SpanFailure((x, y), i, "output-mismatch")
                        continue
                    if (dx[1], dy[1]) not in rel.pairs:
                        missing = missing or SpanFailure((x, y), i, "successor-missing")
                        continue
                    entries[i] = (dx[0], (dx[1], dy[1]))
                elif dx is not None:
                    entries[i] = (dx[0], (dx[1], dx[1]))
                elif dy is not None:
                    entries[i] = (dy[0], (dy[1], dy[1]))
            structure[(x, y)] = MealySuccessors.make(machine.inputs, entries)
        else:
            ins, outs = {}, {}
            for i in machine.inputs:
                dx, dy = machine.din.get((x, i)), machine.din.get((y, i))
                if dx is not None and dy is not None:
                    if (dx, dy) not in rel.pairs:
                        missing = missing or SpanFailure((x, y), i, "successor-missing")
                        continue
                    ins[i] = (dx, dy)
                elif dx is not None:
                    ins[i] = (dx, dx)
                elif dy is not None:
                    ins[i] = (dy, dy)
            for o in machine.outputs:
                dx, dy = machine.dout.get((x, o)), machine.dout.get((y, o))
                if dx is not None and dy is not None and (dx, dy) in rel.pairs:
                    outs[o] = (dx, dy)
            if not outs:
                missing = missing or SpanFailure((x, y), "", "successor-missing")
                continue
            structure[(x, y)] = SaSuccessors.make(machine.inputs, machine.outputs, ins, outs)
    if mismatch is not None:
        return mismatch
    if missing is not None:
        return missing
    return structure


# ---------------------------------------------------------------------------
# joint simulators


@dataclass(frozen=True)
class JointSimulator:
    """A synthesized machine with a state that simulates both requested
    states, together with the two simulation relations and span witnesses
    certifying them."""

    machine: Machine
    state: str
    left: Relation
    right: Relation
    left_witness: SimulationWitness
    right_witness: SimulationWitness


def _join_reachable(step, start):
    """Breadth-first closure of pair states under the joint dynamics."""
    order = [start]
    seen = {start}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        for nxt in step(pair):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    return order


def _witnesses(m: Machine, join: Machine, carrier, left: bool) -> SimulationWitness:
    """Span witness for 'the join state simulates its left (or right)
    component': the structure follows the join machine's own transitions."""
    k = 0 if left else 1
    by_name = {pair_state(*p): p for p in carrier}
    rel_pairs = [(pair[k], pair_state(*pair)) for pair in carrier]
    rel = Relation(m.states, join.states, frozenset(rel_pairs))
    structure = {}
    for pair in carrier:
        u = pair[k]
        name = pair_state(*pair)
        if isinstance(m, PartialMealyMachine):
            entries = {}
            for i in m.inputs:
                dj = join.delta.get((name, i))
                if dj is None:
                    continue
                o, succ_name = dj
                entries[i] = (o, (by_name[succ_name][k], succ_name))
            structure[(u, name)] = MealySuccessors.make(m.inputs, entries)
        else:
            ins, outs = {}, {}
            for i in m.inputs:
                dj = join.din.get((name, i))
                if dj is not None:
                    ins[i] = (by_name[dj][k], dj)
            for o in m.outputs:
                dj = join.dout.get((name, o))
                if dj is not None:
                    outs[o] = (by_name[dj][k], dj)
            structure[(u, name)] = SaSuccessors.make(m.inputs, m.outputs, ins, outs)
    return SimulationWitness(rel, structure, "hj")


def joint_simulator(m: Machine, x: str, y: str):
    """Synthesize a single simulator for two states.

    For Mealy machines: if the pair is apart, the apartness witness is
    returned instead.  Otherwise the joint machine is built on the pairs
    reachable from (x, y) under the joining dynamics (which includes the
    needed diagonal states), and its start pair simulates x and y at once.
    For suspension automata the same construction runs over the
    compatibility relation, keeping only common outputs whose successor
    pair is compatible; an incompatible pair yields None.
    """
    m.check_state(x)
    m.check_state(y)
    if isinstance(m, PartialMealyMachine):
        witness = apartness_witness(m, x, y)
        if witness is not None:
            return witness

        def step(pair):
            u, v = pair
            for i in m.inputs:
                du, dv = m.delta.get((u, i)), m.delta.get((v, i))
                if du is not None and dv is not None:
                    yield (du[1], dv[1])
                elif du is not None:
                    yield (du[1], du[1])
                elif dv is not None:
                    yield (dv[1], dv[1])

        carrier = _join_reachable(step, (x, y))
        delta = {}
        for u, v in carrier:
            for i in m.inputs:
                du, dv = m.delta.get((u, i)), m.delta.get((v, i))
                if du is not None and dv is not None:
                    delta[(pair_state(u, v), i)] = (du[0], pair_state(du[1], dv[1]))
                elif du is not None:
                    delta[(pair_state(u, v), i)] = (du[0], pair_state(du[1], du[1]))
                elif dv is not None:
                    delta[(pair_state(u, v), i)] = (dv[0], pair_state(dv[1], dv[1]))
        join = PartialMealyMachine(
            "join",
            m.inputs,
            m.outputs,
            tuple(pair_state(u, v) for u, v in carrier),
            delta,
        )
    else:
        compatible = ioco_compatibility(m)
        if (x, y) not in compatible:
            return None

        def step(pair):
            u, v = pair
            for i in m.inputs:
                du, dv = m.din.get((u, i)), m.din.get((v, i))
                if du is not None and dv is not None:
                    yield (du, dv)
                elif du is not None:
                    yield (du, du)
                elif dv is not None:
                    yield (dv, dv)
            for o in m.outputs:
                du, dv = m.dout.get((u, o)), m.dout.get((v, o))
                if du is not None and dv is not None and (du, dv) in compatible:
                    yield (du, dv)

        carrier = _join_reachable(step, (x, y))
        din, dout = {}, {}
        for u, v in carrier:
            for i in m.inputs:
                du, dv = m.din.get((u, i)), m.din.get((v, i))
                if du is not None and dv is not None:
                    din[(pair_state(u, v), i)] = pair_state(du, dv)
                elif du is not None:
                    din[(pair_state(u, v), i)] = pair_state(du, du)
                elif dv is not None:
                    din[(pair_state(u, v), i)] = pair_state(dv, dv)
            for o in m.outputs:
                du, dv = m.dout.get((u, o)), m.dout.get((v, o))
                if du is not None and dv is not None and (du, dv) in compatible:
                    dout[(pair_state(u, v), o)] = pair_state(du, dv)
        join = SuspensionAutomaton(
            "join",
            m.inputs,
            m.outputs,
            tuple(pair_state(u, v) for u, v in carrier),
            din,
            dout,
        )

    lw = _witnesses(m, join, carrier, left=True)
    rw = _witnesses(m, join, carrier, left=False)
    return JointSimulator(join, pair_state(x, y), lw.relation, rw.relation, lw, rw)
