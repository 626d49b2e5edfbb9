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

A Mealy machine or suspension automaton is read through two views: its
`tables()`, read by the engines and by `_walk`, the one word walk; and
each state's structure, `successors(state)`, read by everything else.
So the kind distinctions live here: `order_failures` lists the symbols
at which one structure is not below another (with equality of
successors, or any link between them), `map_structure` renames
successors, and `assemble` builds a machine of a given kind from one
structure per state.

Each machine numbers its states once, when it is built: `index` maps each
state to its position in `states`, and state checks look it up
(`input_index` does the same for `inputs`).  Machines and structures are
`Record`s.  The indexes and the tables are attributes, not fields: they
take no part in `repr` or `==`, and `replace` builds them anew, since it
goes through the constructor.

One storage rule holds for both kinds: a machine keeps its indexes and
its tables, and nothing else of its transitions.  Its transition dicts
(`delta`, or `din` and `dout`) stay fields, read by `==`, `render`,
`restrict_along` and `hj_to_openmap`: each is read back from the tables
on first use, state-major with symbols in declaration order, and kept.
The constructor fills the tables from the caller's dicts, checking each
transition, and keeps no dict.  `_from_tables` takes tables its caller
has checked transition by transition: `textfmt.parse`, line by line, and
`ObservationTree.as_machine`, whose ranks guarantee the checks.  Both end
in one finishing step: repeated names, then a hole in a machine declared
total or a blocking state.
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


class _Tabled(Record):
    """The fields, indexes and tables of a Mealy machine or suspension
    automaton; a kind names its transition dicts in `_dicts`."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    states: tuple[str, ...]
    _dicts = ()

    def _check(self):
        # the constructor's: the caller's dicts fill the tables, and none is kept
        given = [vars(self).pop(name) for name in self._dicts]
        vars(self).update(inputs=tuple(self.inputs), outputs=tuple(self.outputs), states=tuple(self.states))
        at = _unique(self.inputs, "input symbol"), _unique(self.outputs, "output symbol"), _unique(self.states, "state")
        self._finish(self._fill(*at, *given), *at)

    @classmethod
    def _from_tables(cls, name: str, inputs: tuple, outputs: tuple, states: tuple, tables: tuple,
                     positions: Sequence[Optional[dict]] = (), **fields):
        """The machine whose `tables()` are `tables`, each transition in
        them checked by the caller, which may pass the input, output and
        state positions it has, as `_unique` takes them, and the kind's
        further fields (a Mealy machine's `total`)."""
        machine = object.__new__(cls)
        vars(machine).update(cls._defaults, name=name, inputs=inputs, outputs=outputs, states=states, **fields)
        machine._finish(tables, *positions)
        return machine

    def _finish(self, tables: tuple, inputs=None, outputs=None, states=None) -> None:
        """Both builders' last step: refuse repeated input, output and state
        names, in that order, then the kind's `_refuse_gap`."""
        inputs = _unique(self.inputs, "input symbol", inputs)
        _unique(self.outputs, "output symbol", outputs)
        states = _unique(self.states, "state", states)
        self._refuse_gap(tables)
        vars(self).update(index=states, input_index=inputs, _tables=tables)

    def __getattr__(self, name: str):
        # reached only for attributes not set: a transition dict is read
        # back, state-major with symbols in declaration order, and kept
        if name not in self._dicts:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = vars(self)[name] = self._read_back(name)
        return value

    def check_state(self, state: str) -> int:
        """The state's position; refuses a state the machine lacks."""
        x = self.index.get(state)
        if x is None:
            raise ValidationError(f"unknown state {state!r} in {self._noun} {self.name!r}")
        return x

    def tables(self):
        """Per label, as [label][state], each state's successor position,
        -1 where there is none: a Mealy machine's per input, then its
        outputs per input (None where unknown); an automaton's per input,
        then per output.  Every call returns the same lists, which are
        read-only."""
        return self._tables


class PartialMealyMachine(_Tabled):
    """A finite Mealy machine with a partial transition map.

    `delta` maps (state, input) to (output, successor); absent keys are the
    unknown transitions.  A machine constructed with total=True must have
    delta defined on all of states x inputs.  `index` and `input_index`
    map each state and each input to its position in `states` or `inputs`.
    """

    delta: Mapping[tuple[str, str], tuple[str, str]]
    total: bool = False
    _dicts, _noun = ("delta",), "machine"

    def _fill(self, inputs: dict, outputs: dict, index: dict, delta: Mapping) -> tuple:
        succ = [[-1] * len(index) for _ in inputs]
        out: list[list[Optional[str]]] = [[None] * len(index) for _ in inputs]
        for (src, i), (o, dst) in delta.items():
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
        return succ, out

    def _refuse_gap(self, tables: tuple) -> None:
        # the first missing transition, state-major, of a machine declared total
        if self.total:
            for s, column in zip(self.states, zip(*tables[0])):
                if -1 in column:
                    raise ValidationError(f"machine declared total but {s!r} has no transition on "
                                          f"{self.inputs[column.index(-1)]!r}")

    def _read_back(self, name: str) -> dict:
        (succ, out), states = self._tables, self.states
        return {(s, i): (out[k][x], states[d])
                for x, s in enumerate(states) for k, i in enumerate(self.inputs) if (d := succ[k][x]) >= 0}

    def successors(self, state: str) -> MealySuccessors:
        x, (succ, out), states = self.check_state(state), self._tables, self.states
        return MealySuccessors(self.inputs, tuple([None if (d := row[x]) < 0 else (o[x], states[d])
                                                   for row, o in zip(succ, out)]))


class SuspensionAutomaton(_Tabled):
    """A finite suspension automaton: partial input successors `din`, partial
    output successors `dout`, with every state non-blocking (at least one
    output transition).  `index` maps each state to its position in
    `states`."""

    din: Mapping[tuple[str, str], str]
    dout: Mapping[tuple[str, str], str]
    _dicts, _noun = ("din", "dout"), "automaton"

    def _fill(self, inputs: dict, outputs: dict, index: dict, din: Mapping, dout: Mapping) -> tuple:
        tables = ([[-1] * len(index) for _ in inputs], [[-1] * len(index) for _ in outputs])
        for what, labels, trans, rows in zip(("input", "output"), (inputs, outputs), (din, dout), tables):
            for (src, label), dst in trans.items():
                x, d = index.get(src), index.get(dst)
                if x is None or d is None:
                    raise ValidationError(f"{what} transition {src!r} -{label}-> {dst!r} uses unknown state")
                k = labels.get(label)
                if k is None:
                    raise ValidationError(f"{what} transition on unknown symbol {label!r}")
                rows[k][x] = d
        return tables

    def _refuse_gap(self, tables: tuple) -> None:
        # a state without output transitions, which a machine without outputs has
        for x, s in enumerate(self.states):
            if all(row[x] < 0 for row in tables[1]):
                raise ValidationError(f"blocking state {s!r}: no output transition")

    def _read_back(self, name: str) -> dict:
        rows, labels = (self._tables[0], self.inputs) if name == "din" else (self._tables[1], self.outputs)
        states = self.states
        return {(s, a): states[d] for x, s in enumerate(states) for k, a in enumerate(labels) if (d := rows[k][x]) >= 0}

    def successors(self, state: str) -> SaSuccessors:
        x, states, (ins, outs) = self.check_state(state), self.states, self._tables
        return SaSuccessors(self.inputs, self.outputs, tuple([None if (d := row[x]) < 0 else states[d] for row in ins]),
                            tuple([None if (d := row[x]) < 0 else states[d] for row in outs]))


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
    x, _ = _walk(machine, machine.check_state(state), word)
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
    x, outs = _walk(machine, machine.check_state(state), word)
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
