"""State machine models and their one-step successor structures.

Three system kinds are supported:

* partial Mealy machines, where a (state, input) pair either yields an
  output and a successor or is still unknown;
* suspension automata, deterministic transition systems whose labels are
  split into inputs and outputs, with every state offering at least one
  output transition;
* finite powerset systems (plain branching successor sets).

Each kind comes with a "successor structure": the one-step behaviour of a
single state, detached from the machine.  Successor structures are ordered
(`order_leq`): a smaller structure is one that might still grow into the
larger one as more behaviour gets observed.  For Mealy structures the order
fills in unknown entries, for suspension structures inputs may be added and
outputs removed, for powerset structures it is plain inclusion.

A machine is read through three views: its transition dicts (`delta`, or
`din` and `dout`), read by the machine classes, `render`, `restrict_along`
and `hj_to_openmap`; its `tables()`, read by the engines and by `_walk`,
the one word walk; and each state's structure, `successors(state)`, read
by everything else.  So the kind distinctions live here: `order_failures`
lists the symbols at which one structure is not below another (with
equality of successors, or any link between them), `map_structure`
renames successors, and `assemble` builds a machine of a given kind from
one structure per state.

Each machine numbers its states once, when it is built: `index` maps each
state to its position in `states`, and state checks look it up (a Mealy
machine's `input_index` does the same for `inputs`).  The pass that
validates the transitions also fills the dense arrays over those
positions that `tables()` returns, the same read-only lists on every call.
Machines and structures are `Record`s.  The indexes and the tables are
attributes, not fields: they take no part in `repr` or `==`, and
`replace` builds them anew, since it goes through the constructor.

A constructed machine stores both its transition dicts and its tables.
One trusted builder, `PartialMealyMachine._from_tables`, makes a Mealy
machine from tables its caller filled and checked transition by
transition; it has two callers, `textfmt.parse` (one check per `trans`
line) and `ObservationTree.as_machine` (the tree's ranks guarantee the
checks).  It checks only repeated names and, for a total machine, holes,
and stores the tables alone: such a machine's `delta` is read back from
them on first use, state-major with inputs in declaration order, and
then kept.
"""

from __future__ import annotations

import operator
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import ContractError, Record, ValidationError

# Successor references are opaque: plain state ids inside machines, state
# pairs inside span structures.
Ref = Hashable


def _unique(items: Sequence, what: str, index: Optional[dict] = None) -> dict:
    """Each item's position; refuses repeats.  A caller that has built
    `index` as `dict(zip(items, range(len(items))))` passes it, and it is
    returned when it shows no repeat."""
    if index is not None and len(index) == len(items):
        return index
    index = {}
    for k, it in enumerate(items):
        if index.setdefault(it, k) != k:
            raise ValidationError(f"duplicate {what}: {it!r}")
    return index


def _refuse_hole(states: Sequence[str], inputs: Sequence[str], succ: list[list[int]]) -> None:
    """Refuse the first missing transition, state-major, of a machine
    declared total."""
    for s, row in zip(states, zip(*succ)):
        if -1 in row:
            raise ValidationError(f"machine declared total but {s!r} has no transition on {inputs[row.index(-1)]!r}")


def _sa_table(index: dict, labels: dict, trans: Mapping, what: str) -> list[list[int]]:
    """Per label, each state's successor position in `trans`, -1 where it
    has none; refuses unknown states and labels."""
    rows = [[-1] * len(index) for _ in labels]
    for (src, label), dst in trans.items():
        x, d = index.get(src), index.get(dst)
        if x is None or d is None:
            raise ValidationError(f"{what} transition {src!r} -{label}-> {dst!r} uses unknown state")
        k = labels.get(label)
        if k is None:
            raise ValidationError(f"{what} transition on unknown symbol {label!r}")
        rows[k][x] = d
    return rows


def distinct_names(names: Iterable[str]) -> list[str]:
    """Make synthesized state names unique: each first occurrence is kept,
    and each later repeat gets primes (') appended until it differs from
    every given name and every name already chosen."""
    names = list(names)
    taken, chosen, out = set(names), set(), []
    if len(taken) == len(names):
        return names
    for n in names:
        if n in chosen:
            while n in taken:
                n += "'"
            taken.add(n)
        chosen.add(n)
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# successor structures


class MealySuccessors(Record):
    """One-step behaviour of a Mealy state.

    `entries` is aligned with `inputs`; each entry is either a pair
    (output, successor) or None for a transition that is not (yet) known.
    Unknown entries are stored explicitly so that totality over the
    alphabet is checkable.
    """

    inputs: tuple[str, ...]
    entries: tuple[Optional[tuple[str, Ref]], ...]

    def _check(self):
        if len(self.inputs) != len(self.entries):
            raise ValidationError("entries must align with the input alphabet")

    @classmethod
    def make(cls, inputs: Sequence[str], mapping: Mapping[str, tuple[str, Ref]]) -> "MealySuccessors":
        inputs = tuple(inputs)
        for i in mapping:
            if i not in inputs:
                raise ValidationError(f"unknown input symbol {i!r}")
        return cls(inputs, tuple(mapping.get(i) for i in inputs))

    def entry(self, i: str) -> Optional[tuple[str, Ref]]:
        try:
            return self.entries[self.inputs.index(i)]
        except ValueError:
            raise ValidationError(f"unknown input symbol {i!r}") from None

    def defined(self) -> Iterator[tuple[str, tuple[str, Ref]]]:
        for i, e in zip(self.inputs, self.entries):
            if e is not None:
                yield i, e

    def refs(self) -> Iterator[Ref]:
        return (e[1] for e in self.entries if e is not None)


class SaSuccessors(Record):
    """One-step behaviour of a suspension-automaton state: a partial input
    successor map and a partial output successor map.  Inside an automaton
    the output part must be non-empty (non-blocking)."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    in_entries: tuple[Optional[Ref], ...]
    out_entries: tuple[Optional[Ref], ...]

    def _check(self):
        if len(self.inputs) != len(self.in_entries) or len(self.outputs) != len(self.out_entries):
            raise ValidationError("entries must align with the alphabets")

    @classmethod
    def make(cls, inputs, outputs, ins: Mapping[str, Ref], outs: Mapping[str, Ref]) -> "SaSuccessors":
        inputs, outputs = tuple(inputs), tuple(outputs)
        for a in ins:
            if a not in inputs:
                raise ValidationError(f"unknown input symbol {a!r}")
        for o in outs:
            if o not in outputs:
                raise ValidationError(f"unknown output symbol {o!r}")
        return cls(
            inputs,
            outputs,
            tuple(ins.get(a) for a in inputs),
            tuple(outs.get(o) for o in outputs),
        )

    def input_entry(self, a: str) -> Optional[Ref]:
        try:
            return self.in_entries[self.inputs.index(a)]
        except ValueError:
            raise ValidationError(f"unknown input symbol {a!r}") from None

    def output_entry(self, o: str) -> Optional[Ref]:
        try:
            return self.out_entries[self.outputs.index(o)]
        except ValueError:
            raise ValidationError(f"unknown output symbol {o!r}") from None

    def defined_inputs(self) -> Iterator[tuple[str, Ref]]:
        for a, e in zip(self.inputs, self.in_entries):
            if e is not None:
                yield a, e

    def defined_outputs(self) -> Iterator[tuple[str, Ref]]:
        for o, e in zip(self.outputs, self.out_entries):
            if e is not None:
                yield o, e

    @property
    def has_output(self) -> bool:
        return any(e is not None for e in self.out_entries)

    def refs(self) -> Iterator[Ref]:
        return (e for e in self.in_entries + self.out_entries if e is not None)


class PowSuccessors(Record):
    """One-step behaviour of a powerset-system state: its successor set."""

    elems: frozenset

    def _check(self):
        vars(self)["elems"] = frozenset(self.elems)

    def refs(self) -> Iterator[Ref]:
        return iter(self.elems)


Successors = MealySuccessors | SaSuccessors | PowSuccessors


def order_failures(
    t: MealySuccessors | SaSuccessors,
    s: MealySuccessors | SaSuccessors,
    linked: Callable[[Ref, Ref], bool] = operator.eq,
) -> Iterator[tuple[str, str]]:
    """Yield ("in", symbol) or ("out", symbol) wherever t is not below s.

    An entry of t is matched by s when s has an entry for the same symbol
    with the same output (Mealy) and `linked(t's successor, s's successor)`.
    Mealy: every known entry of t must be matched.  Suspension: t's inputs
    must be matched by s, and s's outputs by t.  Inputs come in t's alphabet
    order, then outputs in s's.  With equality as `linked`, no failure means
    t is below s; with a relation, it is the one-step simulation condition.
    """
    if isinstance(t, MealySuccessors):
        for i, e in zip(t.inputs, t.entries):
            if e is not None:
                se = s.entry(i)
                if se is None or se[0] != e[0] or not linked(e[1], se[1]):
                    yield "in", i
    elif isinstance(t, SaSuccessors):
        for a, e in zip(t.inputs, t.in_entries):
            if e is not None:
                se = s.input_entry(a)
                if se is None or not linked(e, se):
                    yield "in", a
        for o, se in zip(s.outputs, s.out_entries):
            if se is not None:
                e = t.output_entry(o)
                if e is None or not linked(e, se):
                    yield "out", o
    else:
        raise ContractError(f"no per-symbol order on {type(t).__name__}")


def order_leq(t: Successors, s: Successors) -> bool:
    """Decide t below s in the successor-structure order of t's kind.

    Mealy: every known entry of t must be the corresponding entry of s.
    Suspension: t's input map is a sub-map of s's, and s's output map is a
    sub-map of t's (inputs may be added going up, outputs removed).
    Powerset: subset inclusion.

    Both arguments must be of one kind over alphabets equal as sets
    (`_same_kind`), and are compared symbol by symbol; callers are
    responsible for using a common successor carrier.
    """
    _same_kind(t, s, "order_leq")
    if isinstance(t, PowSuccessors):
        return t.elems <= s.elems
    return next(order_failures(t, s), None) is None


def map_structure(t: Successors, f: Mapping[Ref, Ref]) -> Successors:
    """Apply a state map to all successor references of a structure."""
    if isinstance(t, MealySuccessors):
        return MealySuccessors(
            t.inputs,
            tuple(None if e is None else (e[0], f[e[1]]) for e in t.entries),
        )
    if isinstance(t, SaSuccessors):
        return SaSuccessors(
            t.inputs,
            t.outputs,
            tuple(None if e is None else f[e] for e in t.in_entries),
            tuple(None if e is None else f[e] for e in t.out_entries),
        )
    return PowSuccessors(frozenset(f[x] for x in t.elems))


# ---------------------------------------------------------------------------
# machines


class PartialMealyMachine(Record):
    """A finite Mealy machine with a partial transition map.

    `delta` maps (state, input) to (output, successor); absent keys are the
    unknown transitions.  A machine constructed with total=True must have
    delta defined on all of states x inputs.  `index` and `input_index`
    map each state and each input to its position in `states` or `inputs`.
    """

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    states: tuple[str, ...]
    delta: Mapping[tuple[str, str], tuple[str, str]]
    total: bool = False

    def _check(self):
        vars(self).update(inputs=tuple(self.inputs), outputs=tuple(self.outputs), states=tuple(self.states),
                          delta=dict(self.delta))
        inputs = _unique(self.inputs, "input symbol")
        outputs = _unique(self.outputs, "output symbol")
        index = _unique(self.states, "state")
        succ = [[-1] * len(index) for _ in inputs]
        out: list[list[Optional[str]]] = [[None] * len(index) for _ in inputs]
        for (src, i), (o, dst) in self.delta.items():
            x, k = index.get(src), inputs.get(i)
            if x is None:
                raise ValidationError(f"transition from unknown state {src!r}")
            if k is None:
                raise ValidationError(f"transition on unknown input {i!r}")
            if o not in outputs:
                raise ValidationError(f"transition with unknown output {o!r}")
            d = index.get(dst)
            if d is None:
                raise ValidationError(f"transition to unknown state {dst!r}")
            succ[k][x], out[k][x] = d, o
        if self.total:
            _refuse_hole(self.states, self.inputs, succ)
        vars(self).update(index=index, input_index=inputs, _tables=(succ, out))

    @classmethod
    def _from_tables(cls, name: str, inputs: tuple, outputs: tuple, states: tuple,
                     succ: list[list[int]], out: list[list[Optional[str]]], total: bool = False,
                     input_index: Optional[dict] = None, index: Optional[dict] = None):
        """The machine whose `tables()` are `succ` and `out`, filled by a
        caller that checked each transition: the parser, line by line, or
        an observation tree, from its ranks.  It checks only what single
        transitions cannot show: repeated input, output and state names,
        in that order, then a hole in a machine declared total.  A caller
        may pass the input and state positions it has, as `_unique` takes
        them.  No `delta` is stored; it is read back on first use."""
        input_index = _unique(inputs, "input symbol", input_index)
        _unique(outputs, "output symbol")
        index = _unique(states, "state", index)
        if total:
            _refuse_hole(states, inputs, succ)
        machine = object.__new__(cls)
        vars(machine).update(name=name, inputs=inputs, outputs=outputs, states=states, total=total,
                             index=index, input_index=input_index, _tables=(succ, out))
        return machine

    def __getattr__(self, name: str):
        # reached only for attributes not set: a machine built by
        # `_from_tables` reads its `delta` back, state-major, and keeps it
        if name != "delta" or "_tables" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        (succ, out), states, inputs = self._tables, self.states, self.inputs
        delta = vars(self)["delta"] = {
            (s, i): (out[k][x], states[d])
            for x, s in enumerate(states) for k, i in enumerate(inputs) if (d := succ[k][x]) >= 0
        }
        return delta

    def check_state(self, state: str) -> None:
        if state not in self.index:
            raise ValidationError(f"unknown state {state!r} in machine {self.name!r}")

    def successors(self, state: str) -> MealySuccessors:
        self.check_state(state)
        return MealySuccessors(
            self.inputs, tuple([self.delta.get((state, i)) for i in self.inputs])
        )

    def tables(self) -> tuple[list[list[int]], list[list[Optional[str]]]]:
        """Per input, each state's successor position (-1 when unknown) and
        output (None when unknown), as [input][state].  The machine was
        built with them; every call returns the same lists, which are
        read-only."""
        return self._tables


class SuspensionAutomaton(Record):
    """A finite suspension automaton: partial input successors `din`, partial
    output successors `dout`, with every state non-blocking (at least one
    output transition).  `index` maps each state to its position in
    `states`."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    states: tuple[str, ...]
    din: Mapping[tuple[str, str], str]
    dout: Mapping[tuple[str, str], str]

    def _check(self):
        vars(self).update(inputs=tuple(self.inputs), outputs=tuple(self.outputs), states=tuple(self.states),
                          din=dict(self.din), dout=dict(self.dout))
        inputs = _unique(self.inputs, "input symbol")
        outputs = _unique(self.outputs, "output symbol")
        index = _unique(self.states, "state")
        ins = _sa_table(index, inputs, self.din, "input")
        outs = _sa_table(index, outputs, self.dout, "output")
        for x, s in enumerate(self.states):
            if all(row[x] < 0 for row in outs):
                raise ValidationError(f"blocking state {s!r}: no output transition")
        vars(self).update(index=index, _tables=(ins, outs))

    def check_state(self, state: str) -> None:
        if state not in self.index:
            raise ValidationError(f"unknown state {state!r} in automaton {self.name!r}")

    def successors(self, state: str) -> SaSuccessors:
        self.check_state(state)
        return SaSuccessors(
            self.inputs,
            self.outputs,
            tuple([self.din.get((state, a)) for a in self.inputs]),
            tuple([self.dout.get((state, o)) for o in self.outputs]),
        )

    def tables(self) -> tuple[list[list[int]], list[list[int]]]:
        """Per input, then per output, each state's successor position (-1
        when there is none), as [label][state].  The constructor built them;
        every call returns the same lists, which are read-only."""
        return self._tables


class PowersetSystem(Record):
    """A finitely branching successor system: each state maps to a finite
    set of successor states.  `index` maps each state to its position in
    `states`."""

    name: str
    states: tuple[str, ...]
    succ: Mapping[str, frozenset]

    def _check(self):
        states = tuple(self.states)
        vars(self).update(states=states, succ={s: frozenset(v) for s, v in dict(self.succ).items()},
                          index=_unique(states, "state"))
        for s, nexts in self.succ.items():
            if s not in self.index or not nexts <= self.index.keys():
                raise ValidationError(f"successor set of {s!r} leaves the state set")

    def successors(self, state: str) -> PowSuccessors:
        if state not in self.index:
            raise ValidationError(f"unknown state {state!r} in system {self.name!r}")
        return PowSuccessors(self.succ.get(state, frozenset()))


_MEALY_OR_SA = (PartialMealyMachine, SuspensionAutomaton)


def _named(machine) -> str:
    name = getattr(machine, "name", None)  # an observation tree or a structure has none
    return type(machine).__name__ + ("" if name is None else f" {name!r}")


def _tables_of(machine, kind, operation: str):
    """`machine.tables()` for an operation defined on machines of `kind` (a
    class, or a tuple of classes) alone; any other machine raises
    ContractError naming the operation, the kind it needs and the machine."""
    if not isinstance(machine, kind):
        need = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise ContractError(f"{operation} needs a {need}, got {_named(machine)}")
    return machine.tables()


def _same_shape(first, second, operation: str) -> None:
    """Refuse powerset systems, then what `_same_kind` refuses."""
    _tables_of(first, _MEALY_OR_SA, operation)
    _same_kind(first, second, operation)


def _same_kind(first, second, operation: str) -> None:
    """Refuse two machines (or structures) of different kinds, and
    alphabets that differ as sets (`_shared_alphabets`)."""
    if type(second) is not type(first):
        raise ContractError(f"{operation} needs two machines of one kind, got {_named(first)} and {_named(second)}")
    _shared_alphabets(first, second, operation)


def _shared_alphabets(first, second, operation: str) -> None:
    """Refuse input or output alphabets that differ as sets; a missing
    alphabet (a powerset system's, a Mealy structure's outputs) is empty."""
    for what in ("input", "output"):
        if set(getattr(first, what + "s", ())) != set(getattr(second, what + "s", ())):
            raise ContractError(f"{operation} needs shared {what} alphabets, got {_named(first)} and {_named(second)}")


def _check_carriers(rel, src, dst, operation: str) -> None:
    """Refuse a relation whose left carrier leaves `src`'s states, or right carrier `dst`'s."""
    for side, carrier, m in (("left", rel.left, src), ("right", rel.right, dst)):
        for stray in (s for s in carrier if s not in m.index):  # the first one
            raise ValidationError(f"{operation} needs the relation's {side} carrier within the states "
                                  f"of {_named(m)}, got {stray!r}")


# ---------------------------------------------------------------------------
# word semantics


def _walk(machine: PartialMealyMachine, x: int, word: Sequence[str]) -> tuple[int, list[str]]:
    """The position `word` reaches from position x, or -1 at a missing
    transition, and the outputs of the transitions taken before it; an
    unknown input raises when the walk reaches it.  `run`, `eval_semantics`
    and the learning `Teacher` read this one walk, after checking the
    machine's kind and the start state."""
    (succ, out), at, outs = machine._tables, machine.input_index, []
    try:
        for i in word:
            k = at[i]
            d = succ[k][x]
            if d < 0:
                return -1, outs
            outs.append(out[k][x])
            x = d
    except KeyError:
        raise ValidationError(f"unknown input symbol {i!r}") from None
    return x, outs


def run(machine: PartialMealyMachine, state: str, word: Sequence[str]) -> Optional[str]:
    """Follow `word` from `state`; the reached state, or None as soon as a
    transition is missing.  The empty word returns `state` itself."""
    _tables_of(machine, PartialMealyMachine, "run")
    machine.check_state(state)
    x, _ = _walk(machine, machine.index[state], word)
    return None if x < 0 else machine.states[x]


def eval_semantics(machine: PartialMealyMachine, state: str, word: Sequence[str]) -> Optional[str]:
    """The output of the final transition when running `word` from `state`,
    or None if some transition along the way is missing.

    Rejects the empty word: there is no final transition to read an output
    from.
    """
    word = tuple(word)
    if not word:
        raise ContractError("eval_semantics requires a non-empty word")
    _tables_of(machine, PartialMealyMachine, "eval_semantics")
    machine.check_state(state)
    x, outs = _walk(machine, machine.index[state], word)
    return None if x < 0 else outs[-1]


# ---------------------------------------------------------------------------
# assembling machines, and disjoint unions


def assemble(like, name: str, items: Iterable[tuple[str, Successors]], total: bool = False):
    """A machine of `like`'s kind and alphabets with the given states, in
    order, each with its successor structure over those states.  `total`
    declares a Mealy machine total; other kinds ignore it."""
    items = list(items)
    states = tuple(state for state, _ in items)
    if isinstance(like, PartialMealyMachine):
        delta = {(x, i): e for x, t in items for i, e in t.defined()}
        return PartialMealyMachine(name, like.inputs, like.outputs, states, delta, total)
    if isinstance(like, SuspensionAutomaton):
        din = {(x, a): r for x, t in items for a, r in t.defined_inputs()}
        dout = {(x, o): r for x, t in items for o, r in t.defined_outputs()}
        return SuspensionAutomaton(name, like.inputs, like.outputs, states, din, dout)
    if isinstance(like, PowersetSystem):
        return PowersetSystem(name, states, {x: t.elems for x, t in items})
    raise ContractError(f"unsupported machine kind {type(like).__name__}")


def disjoint_union(first, second, *rest):
    """Combine machines of one kind into one machine on the tagged union of
    their state sets.  Their alphabets must be equal as sets; the union
    lists the symbols in the first machine's order.

    States are renamed to "<machineName>.<state>" so that witnesses stay
    readable across machines; a machine given more than once gets numbered
    names ("q1", "q2").  Where two renamed states would still coincide (a
    state "b.c" of machine "a" and a state "c" of machine "a.b"), the later
    one gets primes appended until its name is new ("a.b.c'").  Returns the
    combined machine and one rename map per argument.
    """
    parts = [first, second, *rest]
    for p in parts[1:]:
        _same_kind(first, p, "disjoint_union")
    names = [p.name for p in parts]
    prefixes = [n if names.count(n) == 1 else f"{n}{names[:k].count(n) + 1}" for k, n in enumerate(names)]
    unique = iter(distinct_names(f"{pre}.{s}" for pre, p in zip(prefixes, parts) for s in p.states))
    renames = tuple({s: next(unique) for s in p.states} for p in parts)
    combined = assemble(
        first,
        "+".join(p.name for p in parts),
        [(r[s], map_structure(p.successors(s), r)) for p, r in zip(parts, renames) for s in p.states],
        isinstance(first, PartialMealyMachine) and all(p.total for p in parts),
    )
    return combined, renames
