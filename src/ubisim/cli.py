"""Command-line front end.

Exit codes: 0 when the queried relation holds or the check passes, 1 when
it is refuted (with a witness on stdout), 2 for usage, read or parse
errors, and for a machine of a kind the operation is not defined on.
The first token of the first stdout line is a stable, machine-readable
verdict.

States are addressed as "<machine>:<state>", where the machine is the
longest prefix before a ":" that names a machine of the file; when the two
addresses name different machines, the tool works on their disjoint union.

Every subcommand parses a file, so the parsing layer (`errors`,
`machines`, `textfmt`) is imported here.  The rest of the library loads
only in the handlers that run it: a handler reads those names as
attributes of this module (`_cli.name`), which the module `__getattr__`
resolves through the package's table on first use and keeps as globals.
A name rebound on this module is therefore what the handlers call.

The subcommands are the rows of one table, `_COMMANDS`; the argument
parser built from it is made once per process and reused by every `main`.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import ubisim

from .errors import UbisimError, ValidationError
from .machines import disjoint_union
from .textfmt import Document, parse_file, render

_cli = sys.modules[__name__]


def __getattr__(name):
    if name not in ubisim.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(ubisim, name)
    return value


def _read(path: str) -> Document:
    """The document in the file at `path`; a file that cannot be read as
    UTF-8 text raises ValidationError naming the path."""
    try:
        return parse_file(path)
    except OSError as exc:
        raise ValidationError(f"cannot read {path!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ValidationError(f"cannot read {path!r}: not UTF-8 text") from None


def _named(table: dict, name: str, kind: str):
    """The entry `name` of one of a document's tables of machines, maps or
    relations; `kind` names the table in the error."""
    if name not in table:
        raise ValidationError(f"no {kind} named {name!r} in the file")
    return table[name]


def _address(machines: dict, addr: str):
    """The machine and the state that "<machine>:<state>" names: the machine
    is the longest prefix before a ":" that names one, else the text before
    the first ":"; the state must be one of the machine's."""
    named = [k for k, c in enumerate(addr) if c == ":" and addr[:k] in machines and addr[k + 1:]]
    k = max(named, default=addr.find(":"))
    machine, state = addr[:k], addr[k + 1:]
    if k <= 0 or not state:
        raise ValidationError(f"expected <machine>:<state>, got {addr!r}")
    machine = _named(machines, machine, "machine")
    machine.check_state(state)
    return machine, state


def _resolve_pair(args):
    """The machine and the two states that `args.state1` and `args.state2`
    address in `args.file`: the disjoint union when they live in different
    machines."""
    machines = _read(args.file).machines()
    (left, s1), (right, s2) = _address(machines, args.state1), _address(machines, args.state2)
    if left is right:
        return left, s1, s2
    combined, (ren1, ren2) = disjoint_union(left, right)
    return combined, ren1[s1], ren2[s2]


def _print_machine(machine) -> None:
    print(render(Document((machine,))), end="")


def _witness_line(w: ubisim.ApartnessWitness) -> str:
    return "APART " + " ".join(w.word) + f" {w.left_output} {w.right_output}"


def _print_violations(report) -> int:
    for v in report.violations:
        print(f"VIOLATION {v.state} {v.side} {v.symbol}")
    return 1


# ---------------------------------------------------------------------------
# subcommands


def _cmd_witness(args) -> int:
    """`witness`, and `check uncertain`, which prints the verdict alone."""
    machine, x, y = _resolve_pair(args)
    w = _cli.apartness_witness(machine, x, y)
    if w is None:
        print("UNCERTAIN-BISIMILAR")
        return 0
    print("APART" if args.command == "check" else _witness_line(w))
    return 1


def _cmd_relation(args) -> int:
    """`bisim` and `ioco-compat`: the relation that `args.relation` names,
    under a heading spelled from that name."""
    doc = _read(args.file)
    machine = _named(doc.machines(), args.machine, "machine")
    rel = getattr(_cli, args.relation)(machine)
    print(f"{args.relation.upper().replace('_', '-')} {machine.name} {len(rel)}")
    for x, y in rel.ordered_pairs():
        print(f"pair {x} {y}")
    return 0


def _cmd_morphism(args) -> int:
    doc = _read(args.file)
    report = _cli.check_morphism(_named(doc.maps(), args.map, "map").statemap, args.kind)
    if report.ok:
        print("OK")
        return 0
    return _print_violations(report)


def _cmd_identify(args) -> int:
    machine, x, y = _resolve_pair(args)
    result = _cli.lax_identify(machine, x, y)
    if isinstance(result, _cli.Conflict):
        for step in result.merges:
            print(f"merge {step.left} {step.right}")
        print(f"conflict {result.input} {result.left_output} {result.right_output}")
        return 1
    print("QUOTIENT")
    _print_machine(result.machine)
    return 0


def _cmd_join(args) -> int:
    machine, x, y = _resolve_pair(args)
    result = _cli.joint_simulator(machine, x, y)
    if isinstance(result, _cli.ApartnessWitness):
        print(_witness_line(result))
        return 1
    if result is None:
        print("INCOMPATIBLE")
        return 1
    _print_machine(result.machine)
    return 0


def _cmd_restrict(args) -> int:
    doc = _read(args.file)
    statemap = _named(doc.maps(), args.map, "map").statemap
    report = _cli.check_morphism(statemap, "oplax")
    if not report.ok:
        return _print_violations(report)
    _print_machine(_cli.restrict_along(statemap))
    return 0


def _cmd_simulate(args) -> int:
    doc = _read(args.file)
    decl = _named(doc.rels(), args.rel, "relation")
    machines = doc.machines()
    src, dst = machines[decl.left_machine], machines[decl.right_machine]
    violation = _cli.simulation_violation(decl.relation, src, dst)
    if violation is None:
        print("SIMULATION")
        return 0
    x, y, symbol = violation
    print(f"NOT-SIMULATION {x} {y} {symbol}")
    return 1


def _cmd_learn_demo(args) -> int:
    # the file is the longest prefix before a ":" that is a file, else the text before the last ":"
    files = [k for k, c in enumerate(args.hidden) if c == ":" and os.path.isfile(args.hidden[:k])]
    k = max(files, default=args.hidden.rfind(":"))
    path, name = args.hidden[:k], args.hidden[k + 1:]
    if k <= 0 or not name:
        raise ValidationError(f"expected <file>:<machine>, got {args.hidden!r}")
    hidden = _named(_read(path).machines(), name, "machine")
    teacher = _cli.Teacher(hidden, hidden.states[0])
    tree = _cli.ObservationTree.empty(hidden.inputs, hidden.outputs)
    for chunk in args.queries.split(","):
        word = tuple(chunk.split())
        if not word:
            raise ValidationError("queries must be non-empty words")
        tree = _cli.query_and_record(tree, teacher, word)
    _print_machine(tree.as_machine())
    frontier = _cli.tree_apartness_frontier(tree)
    for x, y in frontier.ordered_pairs():
        print(f"apart {x} {y}")
    print(f"queries {teacher.queries}")
    return 0


# ---------------------------------------------------------------------------
# parser


_FILE = ("file", {})
_PAIR = (_FILE, ("state1", {"metavar": "m:s1"}), ("state2", {"metavar": "m:s2"}))

# each subcommand in `--help` order: name, help line, arguments as (name or flag, `add_argument`
# keywords), handler, and the defaults the handler reads besides `func`
_COMMANDS = (
    ("check", "decide a compatibility relation between two states",
     (("mode", {"choices": ["uncertain"]}), *_PAIR), _cmd_witness, {}),
    ("witness", "minimal separating word for two states", _PAIR, _cmd_witness, {}),
    ("bisim", "bisimilarity relation of a machine", (_FILE, ("machine", {})),
     _cmd_relation, {"relation": "bisimilarity"}),
    ("ioco-compat", "compatibility relation of a suspension automaton", (_FILE, ("machine", {})),
     _cmd_relation, {"relation": "ioco_compatibility"}),
    ("morphism", "check a state map as a morphism",
     (_FILE, ("map", {}), ("--kind", {"choices": ["strict", "lax", "oplax"], "required": True})),
     _cmd_morphism, {}),
    ("identify", "merge two states by a lax map, or show the conflict", _PAIR, _cmd_identify, {}),
    ("join", "synthesize a joint simulator for two states", _PAIR, _cmd_join, {}),
    ("restrict", "shrink the source of an oplax map until it commutes", (_FILE, ("map", {})),
     _cmd_restrict, {}),
    ("simulate", "check a declared relation as a simulation", (_FILE, ("rel", {})), _cmd_simulate, {}),
    ("learn-demo", "run output queries and show the observation tree",
     (("--hidden", {"required": True, "metavar": "file:machine"}),
      ("--queries", {"required": True, "metavar": "w1,w2,..."})), _cmd_learn_demo, {}),
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ubisim", description="compatibility relations on partially observed state machines")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_line, arguments, func, defaults in _COMMANDS:
        p = sub.add_parser(name, help=help_line)
        for arg, options in arguments:
            p.add_argument(arg, **options)
        p.set_defaults(func=func, **defaults)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UbisimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console script
    raise SystemExit(main())
