"""Command-line front end.

Exit codes: 0 when the queried relation holds or the check passes, 1 when
it is refuted (with a witness on stdout), 2 for usage or parse errors.
The first token of the first stdout line is a stable, machine-readable
verdict.

States are addressed as "<machine>:<state>"; when the two addresses name
different machines of one file, the tool works on their disjoint union.
"""

from __future__ import annotations

import argparse
import sys

# No subcommand calls uncertain_bisimilarity (`check` asks about one pair
# only), but bench/worker.py traces the CLI by wrapping each name this
# module imports from the library, so the name stays importable here.
from .bisim import (  # noqa: F401
    ApartnessWitness,
    apartness_witness,
    bisimilarity,
    ioco_compatibility,
    uncertain_bisimilarity,
)
from .errors import UbisimError, ValidationError
from .learning import ObservationTree, Teacher, query_and_record, tree_apartness_frontier
from .machines import PartialMealyMachine, SuspensionAutomaton, disjoint_union
from .morphisms import Conflict, check_morphism, lax_identify, restrict_along
from .simulation import joint_simulator, simulation_violation
from .textfmt import Document, parse_file, render


def _split_address(addr: str) -> tuple[str, str]:
    machine, sep, state = addr.partition(":")
    if not sep or not machine or not state:
        raise ValidationError(f"expected <machine>:<state>, got {addr!r}")
    return machine, state


def _get_machine(doc: Document, name: str):
    machines = doc.machines()
    if name not in machines:
        raise ValidationError(f"no machine named {name!r} in the file")
    return machines[name]


def _resolve_pair(doc: Document, addr1: str, addr2: str):
    """Resolve two state addresses to one machine and two of its states,
    forming the disjoint union when they live in different machines."""
    m1, s1 = _split_address(addr1)
    m2, s2 = _split_address(addr2)
    left = _get_machine(doc, m1)
    if m1 == m2:
        left.check_state(s1)
        left.check_state(s2)
        return left, s1, s2
    right = _get_machine(doc, m2)
    combined, (ren1, ren2) = disjoint_union(left, right)
    if s1 not in ren1:
        raise ValidationError(f"unknown state {s1!r} in machine {m1!r}")
    if s2 not in ren2:
        raise ValidationError(f"unknown state {s2!r} in machine {m2!r}")
    return combined, ren1[s1], ren2[s2]


def _print_machine(machine) -> None:
    print(render(Document((machine,))), end="")


def _witness_line(w: ApartnessWitness) -> str:
    return "APART " + " ".join(w.word) + f" {w.left_output} {w.right_output}"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_check(args) -> int:
    doc = parse_file(args.file)
    machine, x, y = _resolve_pair(doc, args.state1, args.state2)
    if not isinstance(machine, PartialMealyMachine):
        raise ValidationError("uncertain check needs mealy machines")
    if apartness_witness(machine, x, y) is None:
        print("UNCERTAIN-BISIMILAR")
        return 0
    print("APART")
    return 1


def _cmd_witness(args) -> int:
    doc = parse_file(args.file)
    machine, x, y = _resolve_pair(doc, args.state1, args.state2)
    if not isinstance(machine, PartialMealyMachine):
        raise ValidationError("witness needs mealy machines")
    w = apartness_witness(machine, x, y)
    if w is None:
        print("UNCERTAIN-BISIMILAR")
        return 0
    print(_witness_line(w))
    return 1


def _cmd_bisim(args) -> int:
    doc = parse_file(args.file)
    machine = _get_machine(doc, args.machine)
    if not isinstance(machine, PartialMealyMachine):
        raise ValidationError("bisim needs a mealy machine")
    rel = bisimilarity(machine)
    print(f"BISIMILARITY {machine.name} {len(rel)}")
    for x, y in rel.ordered_pairs():
        print(f"pair {x} {y}")
    return 0


def _cmd_ioco_compat(args) -> int:
    doc = parse_file(args.file)
    machine = _get_machine(doc, args.machine)
    if not isinstance(machine, SuspensionAutomaton):
        raise ValidationError("ioco-compat needs a suspension automaton")
    rel = ioco_compatibility(machine)
    print(f"IOCO-COMPATIBILITY {machine.name} {len(rel)}")
    for x, y in rel.ordered_pairs():
        print(f"pair {x} {y}")
    return 0


def _cmd_morphism(args) -> int:
    doc = parse_file(args.file)
    maps = doc.maps()
    if args.map not in maps:
        raise ValidationError(f"no map named {args.map!r} in the file")
    report = check_morphism(maps[args.map].statemap, args.kind)
    if report.ok:
        print("OK")
        return 0
    for v in report.violations:
        print(f"VIOLATION {v.state} {v.side} {v.symbol}")
    return 1


def _cmd_identify(args) -> int:
    doc = parse_file(args.file)
    machine, x, y = _resolve_pair(doc, args.state1, args.state2)
    if not isinstance(machine, PartialMealyMachine):
        raise ValidationError("identify needs mealy machines")
    result = lax_identify(machine, x, y)
    if isinstance(result, Conflict):
        for step in result.merges:
            print(f"merge {step.left} {step.right}")
        print(f"conflict {result.input} {result.left_output} {result.right_output}")
        return 1
    print("QUOTIENT")
    _print_machine(result.machine)
    return 0


def _cmd_join(args) -> int:
    doc = parse_file(args.file)
    machine, x, y = _resolve_pair(doc, args.state1, args.state2)
    result = joint_simulator(machine, x, y)
    if isinstance(result, ApartnessWitness):
        print(_witness_line(result))
        return 1
    if result is None:
        print("INCOMPATIBLE")
        return 1
    _print_machine(result.machine)
    return 0


def _cmd_restrict(args) -> int:
    doc = parse_file(args.file)
    maps = doc.maps()
    if args.map not in maps:
        raise ValidationError(f"no map named {args.map!r} in the file")
    statemap = maps[args.map].statemap
    report = check_morphism(statemap, "oplax")
    if not report.ok:
        for v in report.violations:
            print(f"VIOLATION {v.state} {v.side} {v.symbol}")
        return 1
    _print_machine(restrict_along(statemap))
    return 0


def _cmd_simulate(args) -> int:
    doc = parse_file(args.file)
    rels = doc.rels()
    if args.rel not in rels:
        raise ValidationError(f"no relation named {args.rel!r} in the file")
    decl = rels[args.rel]
    machines = doc.machines()
    src, dst = machines[decl.left_machine], machines[decl.right_machine]
    violation = simulation_violation(decl.relation, src, dst)
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
    doc = parse_file(path)
    hidden = _get_machine(doc, name)
    if not isinstance(hidden, PartialMealyMachine):
        raise ValidationError("learn-demo needs a mealy machine")
    teacher = Teacher(hidden, hidden.states[0])
    tree = ObservationTree.empty(hidden.inputs, hidden.outputs)
    for chunk in args.queries.split(","):
        word = tuple(chunk.split())
        if not word:
            raise ValidationError("queries must be non-empty words")
        tree = query_and_record(tree, teacher, word)
    _print_machine(tree.as_machine())
    frontier = tree_apartness_frontier(tree)
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
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("witness", help="minimal separating word for two states")
    p.add_argument("file")
    p.add_argument("state1", metavar="m:s1")
    p.add_argument("state2", metavar="m:s2")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("bisim", help="bisimilarity relation of a machine")
    p.add_argument("file")
    p.add_argument("machine")
    p.set_defaults(func=_cmd_bisim)

    p = sub.add_parser("ioco-compat", help="compatibility relation of a suspension automaton")
    p.add_argument("file")
    p.add_argument("machine")
    p.set_defaults(func=_cmd_ioco_compat)

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
    p.add_argument("--style", choices=["hj", "openmap"], default="hj")
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
