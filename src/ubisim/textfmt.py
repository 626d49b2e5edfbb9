"""Line-based text format for machines, state maps and relations.

A document is a sequence of sections.  Tokens are whitespace-separated;
'#' starts a comment running to the end of the line; blank lines are
ignored.  Section grammar:

    mealy <name>            (or: total-mealy <name>)
    inputs <tok>+
    outputs <tok>+
    states <tok>+
    trans <src> <in> <out> <dst>        # absent (src, in) = unknown

    sa <name>
    inputs <tok>+
    outputs <tok>+
    states <tok>+
    itrans <src> <in> <dst>
    otrans <src> <out> <dst>

    map <name> from <m1> to <m2>
    pair <srcState> <dstState>          # one per line, total over m1

    rel <name> on <m1> [x <m2>]
    pair <s> <t>

Names must be unique in a file and references must resolve.  `render`
produces a canonical form that `parse` maps back to the same document.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from .errors import ParseError, Record, UbisimError, ValidationError
from .machines import PartialMealyMachine, SuspensionAutomaton, _MEALY_OR_SA, _tables_of
from .relations import Relation

if TYPE_CHECKING:
    from .morphisms import StateMap


class RelDecl(Record):
    name: str
    left_machine: str
    right_machine: str
    relation: Relation


class MapDecl(Record):
    name: str
    source_machine: str
    target_machine: str
    statemap: StateMap


Section = Union[PartialMealyMachine, SuspensionAutomaton, RelDecl, MapDecl]


class Document(Record):
    sections: tuple[Section, ...]

    def machines(self) -> dict[str, Union[PartialMealyMachine, SuspensionAutomaton]]:
        return {
            s.name: s
            for s in self.sections
            if isinstance(s, (PartialMealyMachine, SuspensionAutomaton))
        }

    def maps(self) -> dict[str, MapDecl]:
        return {s.name: s for s in self.sections if isinstance(s, MapDecl)}

    def rels(self) -> dict[str, RelDecl]:
        return {s.name: s for s in self.sections if isinstance(s, RelDecl)}


# ---------------------------------------------------------------------------
# parsing


# each machine section's class and further fields, and per table of its
# `tables()` the list of labels it is over and its blank entry
_KINDS = {
    "mealy": (PartialMealyMachine, {}, (("inputs", -1), ("inputs", None))),
    "total-mealy": (PartialMealyMachine, {"total": True}, (("inputs", -1), ("inputs", None))),
    "sa": (SuspensionAutomaton, {}, (("inputs", -1), ("outputs", -1))),
}


class _MachineBuilder:
    def __init__(self, kind: str, name: str, line: int):
        self.kind = kind
        self.name = name
        self.line = line
        self.lists: dict[str, tuple[str, ...]] = {}  # the inputs, outputs and states lines
        self.pos = {key: {} for key in ("inputs", "outputs", "states")}  # each name's position, filled as declared
        # the section's `tables()`, each allocated once its states and its labels are declared
        self.tables: tuple[list[list], list[list]] = ([], [])

    def need(self, what, line) -> dict:
        if what not in self.lists:
            raise ParseError(f"{what} must be declared before use", line)
        return self.pos[what]

    def feed(self, key: str, args: list[str], line: int) -> None:
        if key in ("inputs", "outputs", "states"):
            if key in self.lists:
                raise ParseError(f"duplicate {key} line", line)
            if not args:
                raise ParseError(f"empty {key} list", line)
            self.lists[key] = tuple(args)
            self.pos[key].update(zip(args, range(len(args))))
            for table, (labels, blank) in zip(self.tables, _KINDS[self.kind][2]):
                if key in (labels, "states") and labels in self.lists and "states" in self.lists:
                    table += ([blank] * len(self.lists["states"]) for _ in self.lists[labels])
            return
        # `parse` writes every valid transition line into the tables itself:
        # what is left is a repeat
        if key == "trans":
            if self.kind == "sa":
                raise ParseError("trans line outside a mealy section", line)
            if len(args) != 4:
                raise ParseError("trans needs <src> <in> <out> <dst>", line)
            for tok, what in zip(args, ("state", "input", "output", "state")):
                self._check(tok, what, what + "s", line)
            raise ParseError(f"duplicate transition for ({args[0]}, {args[1]})", line)
        if key in ("itrans", "otrans"):
            if self.kind != "sa":
                raise ParseError(f"{key} line outside an sa section", line)
            if len(args) != 3:
                raise ParseError(f"{key} needs <src> <sym> <dst>", line)
            src, sym, dst = args
            self._check(src, "state", "states", line)
            self._check(dst, "state", "states", line)
            self._check(sym, "symbol", "inputs" if key == "itrans" else "outputs", line)
            raise ParseError(f"duplicate {key} for ({src}, {sym})", line)
        raise ParseError(f"unexpected {key!r} in a machine section", line)

    def _check(self, tok, what, key, line):
        if tok not in self.need(key, line):
            raise ParseError(f"undeclared {what} {tok!r}", line)

    def build(self) -> Union[PartialMealyMachine, SuspensionAutomaton]:
        for what in ("inputs", "outputs", "states"):
            self.need(what, self.line)
        cls, fields, _ = _KINDS[self.kind]
        try:
            return cls._from_tables(self.name, *(self.lists[key] for key in self.pos), self.tables,
                                    tuple(self.pos.values()), **fields)
        except UbisimError as exc:
            raise ParseError(str(exc), self.line) from None


class _PairsBuilder:
    def __init__(self, kind, name, machines, left, right, line):
        self.kind = kind  # "map" or "rel"
        self.name = name
        self.left = left
        self.right = right
        self.line = line
        self.pairs: list[tuple[str, str]] = []
        self.sources: set[str] = set()
        self.machines = machines
        for mname in (left, right):
            if mname not in machines:
                raise ParseError(f"unknown machine {mname!r}", line)

    def feed(self, key, args, line):
        if key != "pair" or len(args) != 2:
            raise ParseError(f"expected 'pair <s> <t>' in a {self.kind} section", line)
        s, t = args
        if s not in self.machines[self.left].index:
            raise ParseError(f"undeclared state {s!r} in machine {self.left!r}", line)
        if t not in self.machines[self.right].index:
            raise ParseError(f"undeclared state {t!r} in machine {self.right!r}", line)
        if self.kind == "map" and s in self.sources:
            raise ParseError(f"duplicate map entry for {s!r}", line)
        self.sources.add(s)
        self.pairs.append((s, t))

    def build(self) -> Union[MapDecl, RelDecl]:
        left_m, right_m = self.machines[self.left], self.machines[self.right]
        if self.kind == "rel":
            return RelDecl(
                self.name,
                self.left,
                self.right,
                Relation(left_m.states, right_m.states, frozenset(self.pairs)),
            )
        from .morphisms import StateMap  # only files with a map section load it

        try:
            statemap = StateMap(left_m, right_m, dict(self.pairs), name=self.name)
        except UbisimError as exc:
            raise ParseError(str(exc), self.line) from None
        return MapDecl(self.name, self.left, self.right, statemap)


_SECTION_KEYS = (*_KINDS, "map", "rel")


def parse(text: str) -> Document:
    """Parse a document; raises ParseError with a line number on any
    undeclared symbol or state, duplicate transition, blocking suspension
    state, non-total map, or malformed line.  Lines end at line feeds
    alone, so a form feed or U+2028 in a comment stays in the comment."""
    sections: list[Section] = []
    names: set[str] = set()
    machines: dict[str, Union[PartialMealyMachine, SuspensionAutomaton]] = {}
    builder: Union[_MachineBuilder, _PairsBuilder, None] = None
    # the open machine section's positions of declared names (a mealy one's
    # inputs and outputs only) and a mealy one's tables; an sa one's are in
    # `labels`, per keyword: its symbols' positions and its table
    states = inputs = outputs = labels = {}
    succ = out = []

    def close():
        if builder is not None:
            sections.append(builder.build())
            if isinstance(builder, _MachineBuilder):
                machines[builder.name] = sections[-1]

    for lineno, raw in enumerate(text.split("\n"), start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        toks = raw.split()
        if len(toks) == 5 and toks[0] == "trans":
            # one test accepts a valid line and writes it into the section's
            # tables, where a filled slot is a repeat: every transition is
            # checked once, here, and `feed` reports what is wrong with any
            # other line
            _, src, i, o, dst = toks
            x, k, d = states.get(src), inputs.get(i), states.get(dst)
            if x is not None and k is not None and d is not None and o in outputs and succ[k][x] < 0:
                succ[k][x], out[k][x] = d, o
                continue
        elif len(toks) == 4 and toks[0] in labels:  # the same for itrans and otrans lines
            (at, rows), (_, src, a, dst) = labels[toks[0]], toks
            x, k, d = states.get(src), at.get(a), states.get(dst)
            if x is not None and k is not None and d is not None and rows[k][x] < 0:
                rows[k][x] = d
                continue
        if not toks:
            continue
        key, args = toks[0], toks[1:]
        if key in _SECTION_KEYS:
            close()
            states = inputs = outputs = labels = {}
            if not args:
                raise ParseError(f"{key} section needs a name", lineno)
            name = args[0]
            if name in names:
                raise ParseError(f"duplicate section name {name!r}", lineno)
            names.add(name)
            if key in _KINDS:
                if len(args) != 1:
                    raise ParseError(f"{key} takes exactly one name", lineno)
                builder = _MachineBuilder(key, name, lineno)
                inputs, outputs, states = builder.pos.values()
                succ, out = builder.tables
                if key == "sa":
                    labels, inputs, outputs = {"itrans": (inputs, succ), "otrans": (outputs, out)}, {}, {}
            else:
                if key == "rel" and len(args) == 3:
                    args += ["x", args[2]]  # a rel on one machine
                if len(args) != 5 or args[1::2] != (["from", "to"] if key == "map" else ["on", "x"]):
                    form = "from <m1> to <m2>" if key == "map" else "on <m1> [x <m2>]"
                    raise ParseError(f"expected '{key} <name> {form}'", lineno)
                builder = _PairsBuilder(key, name, machines, args[2], args[4], lineno)
            continue
        if builder is None:
            raise ParseError(f"unexpected {key!r} outside any section", lineno)
        builder.feed(key, args, lineno)
    close()
    return Document(tuple(sections))


def parse_file(path) -> Document:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse(fh.read())


# ---------------------------------------------------------------------------
# rendering


def _writable(what: str, names) -> None:
    """Refuse the first name that `parse` would not read back as one token."""
    for name in names:
        if name.split() != [name] or "#" in name:
            raise ValidationError(f"cannot render {what} {name!r}: a name is one token, without '#'")


def _render_machine(m: Union[PartialMealyMachine, SuspensionAutomaton]) -> list[str]:
    _tables_of(m, _MEALY_OR_SA, "render")
    _writable("section name", (m.name,))
    if isinstance(m, SuspensionAutomaton):
        head, rows = "sa", (("itrans", m.din, m.inputs), ("otrans", m.dout, m.outputs))
    else:
        trans = {key: f"{o} {dst}" for key, (o, dst) in m.delta.items()}
        head, rows = "total-mealy" if m.total else "mealy", (("trans", trans, m.inputs),)
    lines = [f"{head} {m.name}"]
    for key, what in (("inputs", "input symbol"), ("outputs", "output symbol"), ("states", "state")):
        names = getattr(m, key)
        if not names:
            raise ValidationError(f"cannot render section {m.name!r}: its {key} list is empty")
        _writable(what, names)
        lines.append(f"{key} {' '.join(names)}")
    for keyword, table, symbols in rows:  # state-major, in declaration order
        lines += [f"{keyword} {s} {a} {v}" for s in m.states for a in symbols if (v := table.get((s, a))) is not None]
    return lines


def render(doc: Document) -> str:
    """Canonical text for a document: transitions and pairs emitted in
    declaration order, one blank line between sections.  Raises
    ContractError on a section that is a machine of another kind, and
    ValidationError on what `parse` would refuse or read back otherwise:
    a name that is empty or holds whitespace or '#', an empty inputs,
    outputs or states list, a second section of one name, a map or rel
    section that names no earlier machine section, a map whose state map
    does not run between the machines it names, and a rel whose carriers
    are not their states tuples, in order."""
    chunks, earlier = [], {}
    for section in doc.sections:
        if isinstance(section, MapDecl):
            named = section.source_machine, section.target_machine
            ends = {"source": section.statemap.source, "target": section.statemap.target}
            lines = [f"map {section.name} from {named[0]} to {named[1]}",
                     *(f"pair {s} {section.statemap(s)}" for s in section.statemap.source.states)]
        elif isinstance(section, RelDecl):
            named = section.left_machine, section.right_machine
            ends = {"left carrier": section.relation.left, "right carrier": section.relation.right}
            lines = [f"rel {section.name} on {named[0]}" + ("" if named[0] == named[1] else f" x {named[1]}"),
                     *(f"pair {s} {t}" for s, t in section.relation.ordered_pairs())]
        else:
            named, ends, lines = (), {}, _render_machine(section)
        _writable("section name", (section.name,))
        for stray in (n for n in named if not isinstance(earlier.get(n), _MEALY_OR_SA)):  # the first one
            raise ValidationError(f"cannot render section {section.name!r}: no earlier machine section is {stray!r}")
        # `parse` builds a map's state map between the named machines, and a
        # rel's carriers from their states tuples
        of_rel = isinstance(section, RelDecl)
        for (side, end), name in zip(ends.items(), named):
            if end != (earlier[name].states if of_rel else earlier[name]):
                raise ValidationError(f"cannot render section {section.name!r}: its {side} is not "
                                      f"{'the states of ' if of_rel else ''}machine {name!r}")
        if section.name in earlier:
            raise ValidationError(f"cannot render section {section.name!r}: an earlier section has that name")
        earlier[section.name] = section
        chunks.append(lines)
    return "\n\n".join("\n".join(chunk) for chunk in chunks) + "\n"
