import io
import contextlib
import errno
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ubisim
import ubisim.cli as cli
from helpers import fixture_path, random_partial_mealy, random_sa
from ubisim import Document, PartialMealyMachine, eval_semantics, render
from ubisim.cli import main

GOLDEN = Path(__file__).parent / "golden"

PATHS = {
    name: fixture_path(f"{name}.txt")
    for name in ("quadruple", "conflict_tree", "lax_chain", "sa_morphism", "nontransitive_sa")
}


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def load_golden(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[0].startswith("# cmd: ") and lines[1].startswith("# exit: ")
    argv = [tok.format(**PATHS) for tok in json.loads(lines[0][len("# cmd: "):])]
    exit_code = int(lines[1][len("# exit: "):])
    return argv, exit_code, "".join(lines[2:])


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.txt")))
def test_golden(name):
    argv, expected_code, expected_out = load_golden(GOLDEN / name)
    code, out = run_cli(argv)
    assert out == expected_out
    assert code == expected_code


def test_byte_order_mark_is_ignored(tmp_path):
    # every golden again, on copies of its fixtures saved with a UTF-8 BOM
    copies = {}
    for name, path in PATHS.items():
        copies[path] = tmp_path / f"{name}.txt"
        copies[path].write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
    for golden in sorted(GOLDEN.glob("*.txt")):
        argv, expected_code, expected_out = load_golden(golden)
        for path, copy in copies.items():
            argv = [tok.replace(path, str(copy)) for tok in argv]
        assert run_cli(argv) == (expected_code, expected_out), golden.name


def test_first_token_contract():
    # the first stdout token is machine-readable and tied to the exit code
    refuting = {"APART", "VIOLATION", "NOT-SIMULATION", "merge", "INCOMPATIBLE"}
    for path in GOLDEN.glob("*.txt"):
        argv, code, out = load_golden(path)
        first = out.split()[0]
        if code == 1:
            assert first in refuting, (path.name, first)
        else:
            assert first not in refuting, (path.name, first)


def test_usage_error_exit_code():
    code, _ = run_cli(["no-such-command"])
    assert code == 2
    code, _ = run_cli([])
    assert code == 2
    code, _ = run_cli(["morphism", PATHS["lax_chain"], "g", "--kind", "weird"])
    assert code == 2


# each subcommand in the order `ubisim --help` lists it, with its help
# string and its usage line at 80 columns
SUBCOMMANDS = (
    ("check", "decide a compatibility relation between two states",
     "usage: ubisim check [-h] {uncertain} file m:s1 m:s2"),
    ("witness", "minimal separating word for two states", "usage: ubisim witness [-h] file m:s1 m:s2"),
    ("bisim", "bisimilarity relation of a machine", "usage: ubisim bisim [-h] file machine"),
    ("ioco-compat", "compatibility relation of a suspension automaton",
     "usage: ubisim ioco-compat [-h] file machine"),
    ("morphism", "check a state map as a morphism",
     "usage: ubisim morphism [-h] --kind {strict,lax,oplax} file map"),
    ("identify", "merge two states by a lax map, or show the conflict",
     "usage: ubisim identify [-h] file m:s1 m:s2"),
    ("join", "synthesize a joint simulator for two states", "usage: ubisim join [-h] file m:s1 m:s2"),
    ("restrict", "shrink the source of an oplax map until it commutes", "usage: ubisim restrict [-h] file map"),
    ("simulate", "check a declared relation as a simulation", "usage: ubisim simulate [-h] file rel"),
    ("learn-demo", "run output queries and show the observation tree",
     "usage: ubisim learn-demo [-h] --hidden file:machine --queries w1,w2,..."),
)


@pytest.mark.parametrize("command, usage", [(name, usage) for name, _, usage in SUBCOMMANDS])
def test_subcommand_help(monkeypatch, capsys, command, usage):
    monkeypatch.setenv("COLUMNS", "80")
    code, out = run_cli([command, "--help"])
    assert code == 0 and capsys.readouterr().err == ""
    assert out.splitlines()[0] == usage


def test_help_lists_the_subcommands_in_order(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    code, out = run_cli(["--help"])
    assert code == 0 and capsys.readouterr().err == ""
    choices = "{" + ",".join(name for name, _, _ in SUBCOMMANDS) + "}"
    listed = out.split(f"\n  {choices}\n", 1)[1].split("\n\n", 1)[0]
    assert [line.split(None, 1) for line in listed.splitlines()] == [[name, help] for name, help, _ in SUBCOMMANDS]


def test_readme_lists_the_subcommands_in_the_parsers_order():
    # the `sh` block under "Command line" names each subcommand once
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("\n```sh\n", 1)[1].split("\n```", 1)[0]
    assert [line.split()[:2] for line in block.splitlines()] == [["ubisim", name] for name, _, _ in SUBCOMMANDS]


# runs each argv through `ubisim.cli.main` in one fresh interpreter and
# prints the exit code, stdout and stderr of each as JSON
CALLS = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
from ubisim.cli import main
runs = []
for argv in {argvs!r}:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append((code, out.getvalue(), err.getvalue()))
print(json.dumps(runs))
"""


def test_calls_in_one_process_are_independent():
    # each call answers in a process that ran other calls before it as it
    # does when it runs first
    argvs = [["morphism", PATHS["lax_chain"], "g", "--kind", "weird"],
             ["bisim", PATHS["quadruple"], "p"],
             ["ioco-compat", PATHS["sa_morphism"], "C"],
             ["--help"]]
    src = str(Path(ubisim.__file__).resolve().parents[1])

    def calls(argvs):
        script = CALLS.format(src=src, argvs=argvs)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                              env={**os.environ, "COLUMNS": "80"})
        return json.loads(proc.stdout)

    together = calls(argvs)
    assert [code for code, _, _ in together] == [2, 0, 0, 0]
    assert together == [run for argv in argvs for run in calls([argv])]


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("mealy m\ninputs i\noutputs o\nstates s\ntrans s i o nowhere\n")
    code, out = run_cli(["bisim", str(bad), "m"])
    assert code == 2
    assert out == ""
    assert "line 5" in capsys.readouterr().err


def test_unknown_state_exit_code():
    code, _ = run_cli(["witness", PATHS["quadruple"], "p:nope", "r:r0"])
    assert code == 2
    code, _ = run_cli(["witness", PATHS["quadruple"], "zzz:p0", "r:r0"])
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["bisim", "{lax_chain}", "zzz"], "no machine named 'zzz' in the file"),
    (["witness", "{quadruple}", "p:p0", "zzz:r0"], "no machine named 'zzz' in the file"),
    (["learn-demo", "--hidden", "{lax_chain}:zzz", "--queries", "i"], "no machine named 'zzz' in the file"),
    (["morphism", "{lax_chain}", "zzz", "--kind", "lax"], "no map named 'zzz' in the file"),
    (["restrict", "{lax_chain}", "zzz"], "no map named 'zzz' in the file"),
    (["simulate", "{quadruple}", "zzz"], "no relation named 'zzz' in the file"),
])
def test_unknown_name_exit_code(capsys, argv, message):
    code, out = run_cli([tok.format(**PATHS) for tok in argv])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["witness", "{quadruple}", "p0", "r:r0"], "expected <machine>:<state>, got 'p0'"),
    (["learn-demo", "--hidden", "{lax_chain}", "--queries", "i"],
     "expected <file>:<machine>, got '{lax_chain}'"),
    (["learn-demo", "--hidden", "{lax_chain}:T", "--queries", ","], "queries must be non-empty words"),
], ids=["address", "hidden", "empty-query"])
def test_malformed_argument_exit_code(capsys, argv, message):
    code, out = run_cli([tok.format(**PATHS) for tok in argv])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {message.format(**PATHS)}\n"


@pytest.mark.parametrize("argv, message", [
    (["check", "uncertain", "{sa_morphism}", "C:1", "D:1'"],
     "apartness_witness needs a PartialMealyMachine, got SuspensionAutomaton 'C+D'"),
    (["witness", "{sa_morphism}", "C:1", "C:2"],
     "apartness_witness needs a PartialMealyMachine, got SuspensionAutomaton 'C'"),
    (["bisim", "{sa_morphism}", "C"], "bisimilarity needs a PartialMealyMachine, got SuspensionAutomaton 'C'"),
    (["ioco-compat", "{quadruple}", "p"], "ioco_compatibility needs a SuspensionAutomaton, got PartialMealyMachine 'p'"),
    (["identify", "{sa_morphism}", "C:1", "D:1'"],
     "lax_identify needs a PartialMealyMachine, got SuspensionAutomaton 'C+D'"),
    (["learn-demo", "--hidden", "{sa_morphism}:C", "--queries", "a"],
     "Teacher needs a PartialMealyMachine, got SuspensionAutomaton 'C'"),
], ids=["check", "witness", "bisim", "ioco-compat", "identify", "learn-demo"])
def test_wrong_machine_kind_exit_code(capsys, argv, message):
    code, out = run_cli([tok.format(**PATHS) for tok in argv])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("section, argv, message", [
    ("rel r on m x c", ["simulate", "r"], "simulation_violation needs two machines of one kind"),
    ("map h from m to c", ["morphism", "h", "--kind", "lax"], "line 13: StateMap needs two machines of one kind"),
], ids=["simulate-rel", "morphism-map"])
def test_pairs_section_between_two_kinds_exit_code(tmp_path, capsys, section, argv, message):
    # a rel or map between a mealy and an sa section; the map already fails
    # at parse, where its state map is built
    path = tmp_path / "mixed.txt"
    path.write_text("mealy m\ninputs a\noutputs x\nstates s\ntrans s a x s\n\n"
                    f"sa c\ninputs a\noutputs x\nstates s\notrans s x s\n\n{section}\npair s s\n")
    assert run_cli([argv[0], str(path), *argv[1:]]) == (2, "")
    kinds = "got PartialMealyMachine 'm' and SuspensionAutomaton 'c'"
    assert capsys.readouterr().err == f"error: {message}, {kinds}\n"


@pytest.mark.parametrize("file, argv, reason", [
    ("missing", ["bisim", "{path}", "m"], os.strerror(errno.ENOENT)),
    ("dir", ["bisim", "{path}", "m"], os.strerror(errno.EISDIR)),
    ("latin1", ["bisim", "{path}", "m"], "not UTF-8 text"),
    ("missing", ["learn-demo", "--hidden", "{path}:m", "--queries", "i"], os.strerror(errno.ENOENT)),
], ids=["missing", "directory", "not-utf8", "learn-demo-missing"])
def test_unreadable_file_exit_code(tmp_path, capsys, file, argv, reason):
    path = {"missing": tmp_path / "missing.txt", "dir": tmp_path, "latin1": tmp_path / "latin1.txt"}[file]
    if file == "latin1":
        path.write_bytes("mealy m # caf\xe9\n".encode("latin-1"))
    assert run_cli([tok.format(path=path) for tok in argv]) == (2, "")
    assert capsys.readouterr().err == f"error: cannot read {str(path)!r}: {reason}\n"


def test_unknown_state_before_the_union(tmp_path, capsys):
    # the states are checked in their own machines, before the union
    # refuses the differing alphabets
    path = tmp_path / "two.txt"
    path.write_text("mealy a\ninputs i\noutputs x\nstates s\n\nmealy b\ninputs j\noutputs x\nstates t\n")
    for argv, message in [
        (["join", PATHS["sa_morphism"], "C:nope", "D:1'"], "unknown state 'nope' in automaton 'C'"),
        (["witness", str(path), "a:s", "b:nope"], "unknown state 'nope' in machine 'b'"),
        (["witness", str(path), "a:nope", "b:t"], "unknown state 'nope' in machine 'a'"),
        (["witness", str(path), "a:s", "b:t"],
         "disjoint_union needs shared input alphabets, got PartialMealyMachine 'a' and PartialMealyMachine 'b'"),
    ]:
        assert run_cli(argv) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"


def test_simulate_takes_no_style(capsys):
    argv = ["simulate", PATHS["quadruple"], "sim_q_p", "--style", "hj"]
    assert run_cli(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("usage: ubisim ")
    assert [line for line in err.splitlines() if "error" in line] == [
        "ubisim: error: unrecognized arguments: --style hj"]


def test_double_dash_before_names_that_begin_with_a_dash(tmp_path, capsys):
    # argparse reads "-h:1" and "-h" as options; after "--" they are names
    path = tmp_path / "dash.txt"
    path.write_text("mealy -h\ninputs i\noutputs x y\nstates 1 2\ntrans 1 i x 1\ntrans 2 i y 2\n")
    assert run_cli(["witness", str(path), "-h:1", "-h:2"]) == (2, "")
    assert "error: argument -h/--help" in capsys.readouterr().err
    code, out = run_cli(["bisim", str(path), "-h"])
    assert code == 0 and out.startswith("usage: ubisim bisim ")
    assert run_cli(["witness", str(path), "--", "-h:1", "-h:2"]) == (1, "APART i x y\n")
    assert run_cli(["bisim", str(path), "--", "-h"]) == (0, "BISIMILARITY -h 2\npair 1 1\npair 2 2\n")


def test_machine_names_holding_colons(tmp_path, capsys):
    # "p:q:s0" names the state s0 of machine "p:q", the longest prefix that
    # names a machine, and "p:x:y" the state "x:y" of machine "p"
    path = tmp_path / "colons.txt"
    path.write_text(
        "mealy p\ninputs i\noutputs a b\nstates s0 x:y\ntrans s0 i a s0\ntrans x:y i b x:y\n\n"
        "mealy p:q\ninputs i\noutputs a b\nstates s0 s1\ntrans s0 i a s0\ntrans s1 i b s1\n"
    )
    assert run_cli(["check", "uncertain", str(path), "p:q:s0", "p:q:s1"]) == (1, "APART\n")
    assert run_cli(["witness", str(path), "p:s0", "p:q:s0"]) == (0, "UNCERTAIN-BISIMILAR\n")
    assert run_cli(["witness", str(path), "p:x:y", "p:q:s0"]) == (1, "APART i b a\n")
    assert run_cli(["witness", str(path), "r:q:s0", "p:s0"]) == (2, "")
    assert capsys.readouterr().err == "error: no machine named 'r' in the file\n"


def test_cross_machine_addressing_forms_union():
    code, out = run_cli(["identify", PATHS["quadruple"], "q:q0", "p:p0"])
    assert code == 0
    assert out.startswith("QUOTIENT\n")
    assert "q.q0+p.p0" in out


def test_identify_beside_a_plus_named_state(tmp_path):
    # merging a and b forms the class "a+b", which is also a state's name
    path = tmp_path / "plus.txt"
    path.write_text(
        "mealy m\ninputs i\noutputs x\nstates a b a+b\n"
        "trans a i x a\ntrans b i x b\ntrans a+b i x a+b\n"
    )
    code, out = run_cli(["identify", str(path), "m:a", "m:b"])
    assert code == 0
    assert out.startswith("QUOTIENT\n")
    assert "states a+b a+b'\n" in out


def test_learn_demo_with_dotted_inputs(tmp_path):
    # the access words ("i.j",) and ("i", "j") both join to "i.j"
    path = tmp_path / "dotted.txt"
    path.write_text(
        "mealy h\ninputs i j i.j\noutputs x y\nstates s t\n"
        "trans s i x t\ntrans s j x s\ntrans s i.j y s\n"
        "trans t i x t\ntrans t j x s\ntrans t i.j x t\n"
    )
    code, out = run_cli(["learn-demo", "--hidden", f"{path}:h", "--queries", "i j, i.j"])
    assert code == 0
    assert "states ε i i.j i.j'\n" in out
    assert "trans i j x i.j'\n" in out and "trans ε i.j y i.j\n" in out
    assert out.endswith("queries 2\n")


HIDDEN = "inputs i j\noutputs x y\nstates s t\ntrans s i x t\ntrans t i y s\ntrans s j y s\n"
HIDDEN_TREE = (
    "mealy tree\ninputs i j\noutputs x y\nstates ε i j i.i\n"
    "trans ε i x i\ntrans ε j y j\ntrans i i y i.i\n"
    "apart ε i\napart i ε\nqueries 2\n"
)


def test_learn_demo_names_machines_and_files_holding_colons(tmp_path, capsys):
    # "--hidden FILE:MACHINE" splits at the longest prefix before a ":" that
    # is a file, so both the path and the machine name may hold ":"
    path = tmp_path / "a:b.txt"
    path.write_text(f"mealy m\n{HIDDEN}\nmealy p:q\n{HIDDEN}")
    for name in ("m", "p:q"):
        assert run_cli(["learn-demo", "--hidden", f"{path}:{name}", "--queries", "i i, j"]) == (0, HIDDEN_TREE)
    # with no prefix that is a file, the path is the text before the last ":"
    missing = tmp_path / "no:such.txt"
    assert run_cli(["learn-demo", "--hidden", f"{missing}:p:q", "--queries", "i"]) == (2, "")
    assert capsys.readouterr().err == f"error: cannot read {f'{missing}:p'!r}: {os.strerror(errno.ENOENT)}\n"


def test_restrict_refuses_suspension_automata(tmp_path, capsys):
    doc = (
        "sa A\ninputs a\noutputs o\nstates s\nitrans s a s\notrans s o s\n\n"
        "sa B\ninputs a\noutputs o\nstates t\nitrans t a t\notrans t o t\n\n"
        "map f from A to B\npair s t\n"
    )
    path = tmp_path / "sa.txt"
    path.write_text(doc)
    code, out = run_cli(["restrict", str(path), "f"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: restrict_along needs a PartialMealyMachine, got SuspensionAutomaton 'A'\n"


def test_cross_machine_answers_ignore_symbol_order(tmp_path):
    # pairs of random machines, once as drawn and once with the second
    # machine declaring its inputs and outputs in a shuffled order: every
    # cross-machine subcommand answers the same, byte for byte
    rng = random.Random(5)
    for draw in range(12):
        if draw % 3:
            a, b = (random_partial_mealy(rng, rng.randint(1, 4), 3, 3, name=n) for n in "ab")
        else:
            a, b = (random_sa(rng, rng.randint(1, 4), ("i", "j"), ("u", "v", "w"), name=n) for n in "ab")
        shuffled = b.replace(inputs=rng.sample(b.inputs, len(b.inputs)),
                             outputs=rng.sample(b.outputs, len(b.outputs)))
        plain, mixed = tmp_path / f"plain{draw}.txt", tmp_path / f"mixed{draw}.txt"
        plain.write_text(render(Document((a, b))))
        mixed.write_text(render(Document((a, shuffled))))
        assert plain.read_text() != mixed.read_text()
        for x in a.states:
            for y in b.states:
                for command in (["check", "uncertain"], ["witness"], ["identify"], ["join"]):
                    answer = run_cli([*command, str(plain), f"a:{x}", f"b:{y}"])
                    assert run_cli([*command, str(mixed), f"a:{x}", f"b:{y}"]) == answer, (draw, command, x, y)
                    mealy_only = command != ["join"]
                    assert answer[0] in (0, 1) or mealy_only and isinstance(a, ubisim.SuspensionAutomaton)


# names the text format allows that look like the CLI's own notation:
# union prefixes, quotient classes, joint pairs, primes, the tree root and
# machine-state addresses
LAW_NAMES = ("a.b", "a+b", "(a|b)", "x'", "ε", "p:q")


def test_laws_through_the_cli_text(tmp_path):
    # on every pair of states of random documents, the printed answers keep
    # the laws: apart exactly when a witness word exists, which replays to
    # the printed outputs, a joint simulator exactly for compatible pairs,
    # and a lax quotient and bisimilarity each imply compatibility
    rng = random.Random(23)
    seen = set()
    for draw in range(30):
        machines = []
        for name in rng.sample(LAW_NAMES, rng.randint(1, 2)):
            states = tuple(rng.sample(LAW_NAMES, rng.randint(1, 3 - len(machines))))
            delta = {(s, i): (rng.choice("xy"), rng.choice(states))
                     for s in states for i in "ij" if rng.random() < 0.7}
            machines.append(PartialMealyMachine(name, ("i", "j"), ("x", "y"), states, delta))
        path = tmp_path / f"laws{draw}.txt"
        path.write_text(render(Document(tuple(machines))), encoding="utf-8")
        file = str(path)
        compatible = set()
        located = {f"{m.name}:{s}": (m, s) for m in machines for s in m.states}
        for a, b in itertools.combinations_with_replacement(located, 2):
            verdict = run_cli(["check", "uncertain", file, a, b])
            assert verdict in ((0, "UNCERTAIN-BISIMILAR\n"), (1, "APART\n")), (draw, a, b)
            apart = verdict[0] == 1
            witness = run_cli(["witness", file, a, b])
            assert witness[1].startswith("APART ") == apart, (draw, a, b, witness)
            if apart:
                *word, left, right = witness[1].split()[1:]
                assert eval_semantics(*located[a], word) == left and eval_semantics(*located[b], word) == right
            assert (run_cli(["join", file, a, b])[0] == 0) != apart, (draw, a, b)
            quotient = run_cli(["identify", file, a, b])[1].startswith("QUOTIENT\n")
            assert not (quotient and apart), (draw, a, b)
            seen.update({("apart", apart), ("quotient", quotient)})
            if not apart:
                compatible.update({(a, b), (b, a)})
        for m in machines:
            code, out = run_cli(["bisim", file, m.name])
            heading, *pairs = out.splitlines()
            assert code == 0 and heading == f"BISIMILARITY {m.name} {len(pairs)}"
            for line in pairs:
                _, x, y = line.split(" ")
                assert (f"{m.name}:{x}", f"{m.name}:{y}") in compatible, (draw, line)
    # each law is met on both sides, not only vacuously
    assert seen == {("apart", True), ("apart", False), ("quotient", True), ("quotient", False)}


# The names bench/worker.py (CLI_CALLS) rebinds on `ubisim.cli` to trace
# each library call the CLI makes, and the classes whose methods it wraps
# (CLI_METHODS), all looked up with getattr.
TRACED_CALLS = (
    "parse_file", "render", "disjoint_union", "uncertain_bisimilarity", "bisimilarity",
    "ioco_compatibility", "apartness_witness", "check_morphism", "lax_identify",
    "restrict_along", "joint_simulator", "simulation_violation", "tree_apartness_frontier",
)
TRACED_METHODS = (("Teacher", "output_query"), ("ObservationTree", "record"),
                  ("ObservationTree", "as_machine"))


def test_traced_names_resolve_on_the_cli_module():
    for name in TRACED_CALLS:
        assert getattr(cli, name) is getattr(ubisim, name), name
    for cls, method in TRACED_METHODS:
        assert callable(getattr(getattr(ubisim, cls), method))


@pytest.mark.parametrize("golden, name", [
    ("check_apart.txt", "parse_file"),
    ("check_apart.txt", "disjoint_union"),
    ("check_apart.txt", "apartness_witness"),
    ("witness_p_r.txt", "apartness_witness"),
    ("bisim_hypothesis.txt", "bisimilarity"),
    ("ioco_compat_C.txt", "ioco_compatibility"),
    ("morphism_g_lax.txt", "check_morphism"),
    ("identify_conflict.txt", "lax_identify"),
    ("identify_quotient.txt", "render"),
    ("join_q_s.txt", "joint_simulator"),
    ("restrict_k.txt", "restrict_along"),
    ("simulate_q_p.txt", "simulation_violation"),
    ("learn_demo.txt", "tree_apartness_frontier"),
])
def test_handlers_call_the_module_attribute(monkeypatch, golden, name):
    # a name rebound on `ubisim.cli` is what the handler calls
    argv, expected_code, expected_out = load_golden(GOLDEN / golden)
    real, calls = getattr(cli, name), []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, name, spy)
    assert run_cli(argv) == (expected_code, expected_out)
    assert calls
