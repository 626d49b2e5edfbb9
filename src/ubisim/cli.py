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
"""

from __future__ import annotations

import argparse
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


def _resolve_pair(doc: Document, addr1: str, addr2: str):
    """Resolve two state addresses to one machine and two of its states,
    forming the disjoint union when they live in different machines."""
    machines = doc.machines()
    (left, s1), (right, s2) = _address(machines, addr1), _address(machines, addr2)
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
    doc = _read(args.file)
    machine, x, y = _resolve_pair(doc, args.state1, args.state2)
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
    doc = _read(args.file)
    machine, x, y = _resolve_pair(doc, args.state1, args.state2)
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
    doc = _read(args.file)
    machine, x, y = _resolve_pair(doc, args.state1, args.state2)
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
    path, sep, name = args.hidden.rpartition(":")
    if not sep or not path or not name:
        raise ValidationError(f"expected <file>:<machine>, got {args.hidden!r}")
    doc = _read(path)
    hidden = _named(doc.machines(), name, "machine")
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


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ubisim",
        description="compatibility relations on partially observed state machines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide a compatibility relation between two states")
    p.add_argument("mode", choices=["uncertain"])
    p.add_argument("file")
    p.add_argument("state1", metavar="m:s1")
    p.add_argument("state2", metavar="m:s2")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("witness", help="minimal separating word for two states")
    p.add_argument("file")
    p.add_argument("state1", metavar="m:s1")
    p.add_argument("state2", metavar="m:s2")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("bisim", help="bisimilarity relation of a machine")
    p.add_argument("file")
    p.add_argument("machine")
    p.set_defaults(func=_cmd_relation, relation="bisimilarity")

    p = sub.add_parser("ioco-compat", help="compatibility relation of a suspension automaton")
    p.add_argument("file")
    p.add_argument("machine")
    p.set_defaults(func=_cmd_relation, relation="ioco_compatibility")

    p = sub.add_parser("morphism", help="check a state map as a morphism")
    p.add_argument("file")
    p.add_argument("map")
    p.add_argument("--kind", choices=["strict", "lax", "oplax"], required=True)
    p.set_defaults(func=_cmd_morphism)

    p = sub.add_parser("identify", help="merge two states by a lax map, or show the conflict")
    p.add_argument("file")
    p.add_argument("state1", metavar="m:s1")
    p.add_argument("state2", metavar="m:s2")
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("join", help="synthesize a joint simulator for two states")
    p.add_argument("file")
    p.add_argument("state1", metavar="m:s1")
    p.add_argument("state2", metavar="m:s2")
    p.set_defaults(func=_cmd_join)

    p = sub.add_parser("restrict", help="shrink the source of an oplax map until it commutes")
    p.add_argument("file")
    p.add_argument("map")
    p.set_defaults(func=_cmd_restrict)

    p = sub.add_parser("simulate", help="check a declared relation as a simulation")
    p.add_argument("file")
    p.add_argument("rel")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("learn-demo", help="run output queries and show the observation tree")
    p.add_argument("--hidden", required=True, metavar="file:machine")
    p.add_argument("--queries", required=True, metavar="w1,w2,...")
    p.set_defaults(func=_cmd_learn_demo)

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
