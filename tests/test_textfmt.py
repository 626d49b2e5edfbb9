import contextlib
import io
import random
import re

import pytest

from helpers import FIXTURES, fixture_doc, mealy_corpus, random_lax_map, random_sa
from ubisim import (
    Document,
    MapDecl,
    ParseError,
    PartialMealyMachine,
    Relation,
    RelDecl,
    StateMap,
    ValidationError,
    parse,
    parse_file,
    render,
    uncertain_bisimilarity,
)
from ubisim.cli import main
from ubisim.machines import SuspensionAutomaton

ALL_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.txt"))


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_roundtrip_on_fixtures(name):
    doc = fixture_doc(name)
    text = render(doc)
    again = parse(text)
    assert again == doc
    assert render(again) == text


def test_quadruple_contents():
    doc = fixture_doc("quadruple.txt")
    machines = doc.machines()
    assert sorted(machines) == ["p", "q", "r", "s"]
    assert sum(len(m.delta) for m in machines.values()) == 6
    assert len(doc.rels()) == 4


def test_sa_fixture_contents():
    doc = fixture_doc("sa_morphism.txt")
    machines = doc.machines()
    assert isinstance(machines["C"], SuspensionAutomaton)
    assert len(machines["C"].dout) == 7
    assert doc.maps()["h"].statemap("3") == "2'"


def test_total_mealy_roundtrip():
    text = "total-mealy t\ninputs i\noutputs o\nstates s\ntrans s i o s\n"
    doc = parse(text)
    machine = doc.machines()["t"]
    assert machine.total
    assert render(doc) == text


def line_of(err):
    return err.value.line


def test_parse_error_undeclared_state():
    with pytest.raises(ParseError) as err:
        parse("mealy m\ninputs i\noutputs o\nstates s\ntrans s i o t\n")
    assert line_of(err) == 5


def test_parse_error_undeclared_symbol():
    with pytest.raises(ParseError) as err:
        parse("mealy m\ninputs i\noutputs o\nstates s\ntrans s k o s\n")
    assert line_of(err) == 5


def test_parse_error_duplicate_transition():
    with pytest.raises(ParseError) as err:
        parse(
            "mealy m\ninputs i\noutputs o p\nstates s\n"
            "trans s i o s\ntrans s i p s\n"
        )
    assert line_of(err) == 6


def test_parse_error_empty_states():
    with pytest.raises(ParseError) as err:
        parse("mealy m\ninputs i\noutputs o\nstates\n")
    assert line_of(err) == 4


def test_parse_error_blocking_sa():
    with pytest.raises(ParseError) as err:
        parse("sa a\ninputs i\noutputs o\nstates s t\notrans s o t\n")
    assert line_of(err) == 1


def test_parse_error_non_total_map():
    text = (
        "mealy m\ninputs i\noutputs o\nstates s t\n\n"
        "mealy n\ninputs i\noutputs o\nstates u\n\n"
        "map f from m to n\npair s u\n"
    )
    with pytest.raises(ParseError):
        parse(text)


def test_parse_error_duplicate_map_entry():
    text = (
        "mealy m\ninputs i\noutputs o\nstates s t\n\n"
        "mealy n\ninputs i\noutputs o\nstates u v\n\n"
        "map f from m to n\npair s u\npair t u\npair s v\n"
    )
    with pytest.raises(ParseError, match="duplicate map entry for 's'") as err:
        parse(text)
    assert line_of(err) == 14


def test_parse_error_duplicate_names():
    with pytest.raises(ParseError) as err:
        parse("mealy m\ninputs i\noutputs o\nstates s\n\nmealy m\ninputs i\noutputs o\nstates s\n")
    assert line_of(err) == 6


def test_parse_error_unknown_machine_reference():
    with pytest.raises(ParseError) as err:
        parse("rel r on nowhere\n")
    assert line_of(err) == 1


def test_parse_error_total_machine_with_hole():
    with pytest.raises(ParseError) as err:
        parse("total-mealy t\ninputs i j\noutputs o\nstates s\ntrans s i o s\n")
    assert line_of(err) == 1


def test_parse_error_stray_line():
    with pytest.raises(ParseError) as err:
        parse("pair a b\n")
    assert line_of(err) == 1


def test_comments_and_blank_lines_ignored():
    text = "# header\n\nmealy m # trailing\ninputs i\noutputs o\nstates s\n"
    doc = parse(text)
    assert doc.machines()["m"].states == ("s",)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_token_deletion_fuzz(name):
    # deleting any single token either fails to parse or still yields a
    # valid, canonically re-renderable document
    source = (FIXTURES / name).read_text()
    lines = source.splitlines()
    for li, line in enumerate(lines):
        parts = line.split("#", 1)[0].split()
        for pi in range(len(parts)):
            mutated_lines = list(lines)
            mutated_lines[li] = " ".join(parts[:pi] + parts[pi + 1 :])
            mutated = "\n".join(mutated_lines)
            try:
                doc = parse(mutated)
            except ParseError:
                continue
            assert parse(render(doc)) == doc


# Every message the parser raises, with its line.  A line with several
# faults reports the first check that fails.  The checks of a transition
# line run in this order: the section kind, the arity, then each token in
# turn (src, in, out, dst for `trans`; src, dst, symbol for `itrans` and
# `otrans`), testing first that the token's list is declared; the
# duplicate test comes last.
MEALY = "mealy m\ninputs i j\noutputs o p\nstates s t\n"  # lines 1-4
SA = "sa a\ninputs i\noutputs o\nstates s t\notrans s o s\notrans t o t\n"  # lines 1-6
TWO = "mealy m\ninputs i\noutputs o\nstates s t\n\nmealy n\ninputs i\noutputs o\nstates u v\n\n"
PARSE_ERRORS = {
    # declared before use, for each of the three lists
    "states-undeclared": ("mealy m\ntrans s i o s\n", 2, "states must be declared before use"),
    "inputs-undeclared": ("mealy m\nstates s\ntrans s i o s\n", 3, "inputs must be declared before use"),
    "outputs-undeclared": ("mealy m\nstates s\ninputs i\ntrans s i o s\n", 4,
                           "outputs must be declared before use"),
    "states-undeclared-at-close": ("mealy m\ninputs i\noutputs o\n", 1, "states must be declared before use"),
    "inputs-undeclared-at-close": ("sa a\nstates s\noutputs o\n", 1, "inputs must be declared before use"),
    # each of the four trans token positions
    "trans-src": (MEALY + "trans u i o s\n", 5, "undeclared state 'u'"),
    "trans-input": (MEALY + "trans s k o s\n", 5, "undeclared input 'k'"),
    "trans-output": (MEALY + "trans s i q s\n", 5, "undeclared output 'q'"),
    "trans-dst": (MEALY + "trans s i o u\n", 5, "undeclared state 'u'"),
    "trans-kind": (SA + "trans s i o s\n", 7, "trans line outside a mealy section"),
    "trans-after-mealy-in-sa": (MEALY + "\n" + SA + "trans s i o s\n", 12,
                                "trans line outside a mealy section"),
    "trans-after-mealy-in-rel": (MEALY + "rel r on m\ntrans s i o s\n", 6,
                                 "expected 'pair <s> <t>' in a rel section"),
    "trans-short": (MEALY + "trans s i o\n", 5, "trans needs <src> <in> <out> <dst>"),
    "trans-long": (MEALY + "trans s i o s t\n", 5, "trans needs <src> <in> <out> <dst>"),
    "trans-hash-in-token": (MEALY + "trans s#1 i o s\n", 5, "trans needs <src> <in> <out> <dst>"),
    # itrans and otrans
    "itrans-symbol": (SA + "itrans s o t\n", 7, "undeclared symbol 'o'"),
    "otrans-symbol": (SA + "otrans s i t\n", 7, "undeclared symbol 'i'"),
    "itrans-src": (SA + "itrans u i t\n", 7, "undeclared state 'u'"),
    "otrans-dst": (SA + "otrans s o u\n", 7, "undeclared state 'u'"),
    "itrans-kind": (MEALY + "itrans s i s\n", 5, "itrans line outside an sa section"),
    "otrans-kind": (MEALY + "otrans s o s\n", 5, "otrans line outside an sa section"),
    "itrans-arity": (SA + "itrans s i\n", 7, "itrans needs <src> <sym> <dst>"),
    "otrans-arity": (SA + "otrans s o t t\n", 7, "otrans needs <src> <sym> <dst>"),
    "itrans-inputs-undeclared": ("sa a\nstates s\nitrans s i s\n", 3, "inputs must be declared before use"),
    "otrans-outputs-undeclared": ("sa a\nstates s\notrans s o s\n", 3, "outputs must be declared before use"),
    # duplicates
    "trans-duplicate": (MEALY + "trans s i o s\ntrans s i p t\n", 6, "duplicate transition for (s, i)"),
    "itrans-duplicate": (SA + "itrans s i s\nitrans s i t\n", 8, "duplicate itrans for (s, i)"),
    "otrans-duplicate": (SA + "otrans s o t\n", 7, "duplicate otrans for (s, o)"),
    "states-line-duplicate": (MEALY + "states u\n", 5, "duplicate states line"),
    "outputs-line-empty": ("mealy m\ninputs i\noutputs # none\n", 3, "empty outputs list"),
    "section-name-duplicate": (TWO + "rel m on m\n", 11, "duplicate section name 'm'"),
    "map-entry-duplicate": (TWO + "map f from m to n\npair s u\npair s v\n", 13,
                            "duplicate map entry for 's'"),
    # the other line checks
    "machine-key": (MEALY + "pair s t\n", 5, "unexpected 'pair' in a machine section"),
    "stray-line": ("# header\ntrans s i o s\n", 2, "unexpected 'trans' outside any section"),
    "section-needs-name": ("sa\n", 1, "sa section needs a name"),
    "machine-one-name": ("total-mealy m n\n", 1, "total-mealy takes exactly one name"),
    "map-header": (TWO + "map f from m into n\n", 11, "expected 'map <name> from <m1> to <m2>'"),
    "rel-header": (TWO + "rel r on m n\n", 11, "expected 'rel <name> on <m1> [x <m2>]'"),
    "unknown-machine": (TWO + "rel r on m x k\n", 11, "unknown machine 'k'"),
    "pair-arity": (TWO + "rel r on m x n\npair s\n", 12, "expected 'pair <s> <t>' in a rel section"),
    "pair-left": (TWO + "map f from m to n\npair u u\n", 12, "undeclared state 'u' in machine 'm'"),
    "pair-right": (TWO + "rel r on m x n\npair s s\n", 12, "undeclared state 's' in machine 'n'"),
    # checks of the whole section, reported at its first line
    "total-hole": ("total-mealy m\ninputs i j\noutputs o\nstates s\ntrans s i o s\n", 1,
                   "machine declared total but 's' has no transition on 'j'"),
    "blocking": ("sa a\ninputs i\noutputs o\nstates s t\notrans s o t\n", 1,
                 "blocking state 't': no output transition"),
    "map-not-total": (TWO + "map f from m to n\npair s u\n", 11, "map is not total: missing 't'"),
    "inputs-repeat": ("mealy m\ninputs i j i\noutputs o\nstates s\n", 1, "duplicate input symbol: 'i'"),
    "outputs-repeat": ("mealy m\ninputs i\noutputs o p o\nstates s\n", 1, "duplicate output symbol: 'o'"),
    "states-repeat": (MEALY.replace("s t", "s t s") + "trans s i o t\ntrans t j p s\n", 1, "duplicate state: 's'"),
    "sa-states-repeat": ("sa a\ninputs i\noutputs o\nstates s s\notrans s o s\n", 1, "duplicate state: 's'"),
    "sa-states-repeat-before-blocking": ("sa a\ninputs i\noutputs o\nstates s t s\notrans s o s\n", 1,
                                         "duplicate state: 's'"),
    # two faults on one line: the earlier check's message wins
    "kind-before-arity": (SA + "trans s i\n", 7, "trans line outside a mealy section"),
    "arity-before-declared": ("mealy m\ntrans s i o\n", 2, "trans needs <src> <in> <out> <dst>"),
    "src-before-input": (MEALY + "trans u k o s\n", 5, "undeclared state 'u'"),
    "src-before-inputs-declared": ("mealy m\nstates s\ntrans u i o s\n", 3, "undeclared state 'u'"),
    "input-before-output": (MEALY + "trans s k q u\n", 5, "undeclared input 'k'"),
    "output-before-dst": (MEALY + "trans s i q u\n", 5, "undeclared output 'q'"),
    "dst-before-symbol": (SA + "itrans s k u\n", 7, "undeclared state 'u'"),
    "token-before-duplicate": (MEALY + "trans s i o s\ntrans s i q s\n", 6, "undeclared output 'q'"),
    # two faults of one section: line checks first, then repeated input,
    # output and state names in that order, whatever the order of their
    # lines, then a hole in a total machine
    "inputs-repeat-before-states-repeat": ("mealy m\nstates s s\noutputs o\ninputs i i\n", 1,
                                           "duplicate input symbol: 'i'"),
    "outputs-repeat-before-states-repeat": ("mealy m\nstates s s\ninputs i\noutputs o o\n", 1,
                                            "duplicate output symbol: 'o'"),
    "line-before-states-repeat": ("mealy m\ninputs i\noutputs o\nstates s s\ntrans s i q s\n", 5,
                                  "undeclared output 'q'"),
    "duplicate-before-states-repeat": ("mealy m\ninputs i\noutputs o\nstates s s\ntrans s i o s\ntrans s i o s\n",
                                       6, "duplicate transition for (s, i)"),
    "sa-duplicate-before-states-repeat": ("sa a\ninputs i\noutputs o\nstates s s\notrans s o s\notrans s o s\n",
                                          6, "duplicate otrans for (s, o)"),
    "states-repeat-before-hole": ("total-mealy m\ninputs i j\noutputs o\nstates s s\ntrans s i o s\n", 1,
                                  "duplicate state: 's'"),
    "close-before-header": ("sa a\ninputs i\noutputs o\nstates s\n\nmealy\n", 1,
                            "blocking state 's': no output transition"),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_message_and_line(case):
    text, line, message = PARSE_ERRORS[case]
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (line_of(err), str(err.value)) == (line, f"line {line}: {message}")
    with pytest.raises(ParseError) as err:
        parse(text.replace("\n", "\r\n"))
    assert str(err.value) == f"line {line}: {message}"


def corpus_document(seed):
    """Renamed corpus machines, each with its uncertain bisimilarity as a
    rel, suspension automata, and lax maps with their graphs as rels
    between two machines."""
    rng = random.Random(seed)
    sections = []
    for k, m in enumerate(mealy_corpus(4, seed)):
        m = m.replace(name=f"m{k}")
        sections += [m, RelDecl(f"u{k}", m.name, m.name, uncertain_bisimilarity(m))]
    sections += [random_sa(rng, rng.randint(1, 5), name=f"a{k}") for k in range(2)]
    for k in range(2):
        h = random_lax_map(rng)
        src, tgt = h.source.replace(name=f"c{k}"), h.target.replace(name=f"d{k}")
        statemap = StateMap(src, tgt, h.mapping, name=f"h{k}")
        graph = Relation(src.states, tgt.states, h.mapping.items())
        sections += [src, tgt, MapDecl(f"h{k}", src.name, tgt.name, statemap),
                     RelDecl(f"g{k}", src.name, tgt.name, graph)]
    return Document(tuple(sections))


def clutter(text, rng):
    """The same document with comments, blank lines, runs of spaces and
    tabs, and CRLF line endings."""
    lines = []
    for line in text.splitlines():
        if rng.random() < 0.2:
            lines.append("# a comment line")
        if rng.random() < 0.2:
            lines.append(rng.choice(("", "  ", "\t")))
        toks = line.split()
        lines.append(rng.choice((" ", "  ", "\t")).join(toks) + rng.choice(("", " # trailing", "#x#y", " ")))
    return "\r\n".join(lines) + "\r\n"


@pytest.mark.parametrize("seed", range(12))
def test_roundtrip_on_generated_documents(seed):
    doc = corpus_document(seed)
    text = render(doc)
    assert parse(text) == doc
    assert render(parse(text)) == text
    cluttered = clutter(text, random.Random(seed))
    assert parse(cluttered) == doc
    assert render(parse(cluttered)) == text


def test_parse_file_ignores_a_byte_order_mark(tmp_path):
    text = render(corpus_document(0))
    path = tmp_path / "bom.txt"
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert parse_file(path) == parse(text)


# the characters besides "\n" and "\r" at which str.splitlines() ends a
# line; the parser ends lines at "\n" alone, so in a comment they are text
LINE_SEPARATORS = {"VT": "\x0b", "FF": "\x0c", "FS": "\x1c", "GS": "\x1d", "RS": "\x1e",
                   "NEL": "\x85", "LS": "\u2028", "PS": "\u2029"}


def commented(text, sep):
    """`text` with a comment after every line that holds `sep` between words."""
    return "".join(f"{line} # a note{sep}trans s i o s{sep}\n" for line in text.splitlines())


@pytest.mark.parametrize("name", sorted(LINE_SEPARATORS))
def test_line_separator_in_a_comment_keeps_the_verdict(name, tmp_path):
    path = tmp_path / "conflict_tree.txt"
    path.write_text(commented((FIXTURES / "conflict_tree.txt").read_text(encoding="utf-8"), LINE_SEPARATORS[name]),
                    encoding="utf-8")
    assert parse_file(path) == fixture_doc("conflict_tree.txt")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", "uncertain", str(path), "m:p", "m:q"])
    assert (code, out.getvalue()) == (0, "UNCERTAIN-BISIMILAR\n")


@pytest.mark.parametrize("name", sorted(LINE_SEPARATORS))
def test_line_separator_in_a_comment_keeps_later_line_numbers(name):
    sep = LINE_SEPARATORS[name]
    text = f"mealy m # first{sep}second{sep}third\ninputs i\noutputs o\nstates s\ntrans s i o t\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == "line 5: undeclared state 't'"


@pytest.mark.parametrize("name", sorted(LINE_SEPARATORS))
def test_lone_carriage_returns_end_lines_in_a_file(name, tmp_path):
    # parse_file reads with universal newlines: "\r" and "\r\n" end lines too
    text = commented(render(corpus_document(1)), LINE_SEPARATORS[name])
    path = tmp_path / "cr.txt"
    path.write_bytes(text.replace("\n", "\r").encode("utf-8"))
    assert parse_file(path) == corpus_document(1)


UNWRITABLE = ("", "t u", "s#1", "a\tb", "x\n", " s", "#")


@pytest.mark.parametrize("bad", UNWRITABLE)
@pytest.mark.parametrize("what", ("section name", "input symbol", "output symbol", "state"))
def test_render_refuses_unwritable_machine_names(what, bad):
    names = {"section name": "m", "input symbol": "i", "output symbol": "o", "state": "s"}
    names[what] = bad
    m, i, o, s = names.values()
    machine = PartialMealyMachine(m, (i,), (o,), (s,), {(s, i): (o, s)})
    with pytest.raises(ValidationError, match=re.escape(f"cannot render {what} {bad!r}:")):
        render(Document((machine,)))


@pytest.mark.parametrize("bad", UNWRITABLE)
def test_render_refuses_unwritable_section_names(bad):
    m = PartialMealyMachine("m", ("i",), ("o",), ("s",), {})
    for section in (RelDecl(bad, "m", "m", Relation.identity(m.states)),
                    MapDecl(bad, "m", "m", StateMap(m, m, {"s": "s"}, name=bad))):
        with pytest.raises(ValidationError, match=re.escape(f"cannot render section name {bad!r}:")):
            render(Document((m, section)))


def test_render_refuses_the_first_unwritable_name():
    # "s#1 t u" would read back as three states, and the trans line would fail
    m = PartialMealyMachine("m", ("a",), ("x",), ("s#1", "t u"), {("s#1", "a"): ("x", "t u")})
    with pytest.raises(ValidationError, match="cannot render state 's#1'"):
        render(Document((m,)))
    sa = SuspensionAutomaton("sa", ("a b",), ("x",), ("s",), {}, {("s", "x"): "s"})
    with pytest.raises(ValidationError, match="cannot render input symbol 'a b'"):
        render(Document((sa,)))


def test_render_writes_transitions_in_declaration_order():
    # the transition dicts are filled out of declaration order: lines stay
    # state-major in declaration order, every itrans line before any otrans line
    m = PartialMealyMachine("m", ("i", "j"), ("x", "y"), ("s", "t", "u"),
                            {("u", "i"): ("x", "s"), ("t", "j"): ("y", "u"),
                             ("s", "j"): ("x", "t"), ("s", "i"): ("y", "s")})
    sa = SuspensionAutomaton("c", ("a", "b"), ("x", "y"), ("1", "2"),
                             {("2", "a"): "1", ("1", "b"): "2", ("1", "a"): "1"},
                             {("2", "y"): "2", ("1", "y"): "1", ("2", "x"): "1", ("1", "x"): "2"})
    assert render(Document((m,))) == (
        "mealy m\ninputs i j\noutputs x y\nstates s t u\n"
        "trans s i y s\ntrans s j x t\ntrans t j y u\ntrans u i x s\n"
    )
    assert render(Document((sa,))) == (
        "sa c\ninputs a b\noutputs x y\nstates 1 2\n"
        "itrans 1 a 1\nitrans 1 b 2\nitrans 2 a 1\n"
        "otrans 1 x 2\notrans 1 y 1\notrans 2 x 1\notrans 2 y 2\n"
    )


@pytest.mark.parametrize("text, built", [
    # an itrans line before the outputs line: the tables are allocated per
    # label list, once it and the states are declared
    ("sa c\ninputs a\nstates 1 2\nitrans 1 a 2\noutputs x y\notrans 2 y 1\notrans 1 x 1\n",
     SuspensionAutomaton("c", ("a",), ("x", "y"), ("1", "2"), {("1", "a"): "2"}, {("1", "x"): "1", ("2", "y"): "1"})),
    # no itrans line
    ("sa d\ninputs a b\noutputs x\nstates 1\notrans 1 x 1\n",
     SuspensionAutomaton("d", ("a", "b"), ("x",), ("1",), {}, {("1", "x"): "1"})),
])
def test_sa_sections_fill_their_tables_line_by_line(text, built):
    doc = parse(text)
    a = doc.machines()[built.name]
    assert not {"din", "dout"} & vars(a).keys()
    assert (a.tables(), a.index) == (built.tables(), built.index)
    assert a == built
    assert parse(render(doc)) == doc


def test_parsed_delta_is_read_back_from_the_tables_in_declaration_order():
    # the parser fills the tables and stores no transition dict: `delta` is
    # built on first read, state-major with inputs in declaration order,
    # whatever the order of the trans lines
    lines = (("u", "i", "x", "s"), ("t", "j", "y", "u"), ("s", "j", "x", "t"), ("s", "i", "y", "s"))
    text = "mealy m\ninputs i j\noutputs x y\nstates s t u\n" + "".join(f"trans {' '.join(t)}\n" for t in lines)
    m = parse(text).machines()["m"]
    assert "delta" not in vars(m)
    assert list(m.delta) == [("s", "i"), ("s", "j"), ("t", "j"), ("u", "i")]
    assert vars(m)["delta"] is m.delta
    built = PartialMealyMachine("m", ("i", "j"), ("x", "y"), ("s", "t", "u"), {(s, i): (o, d) for s, i, o, d in lines})
    assert m == built
    assert (m.tables(), m.index, m.input_index) == (built.tables(), built.index, built.input_index)
    assert render(Document((m,))) == render(Document((built,))) == (
        "mealy m\ninputs i j\noutputs x y\nstates s t u\n"
        "trans s i y s\ntrans s j x t\ntrans t j y u\ntrans u i x s\n"
    )
    with pytest.raises(TypeError, match=r"PartialMealyMachine\(\) takes the fields"):
        PartialMealyMachine("m", ("i",), ("x",), ("s",))


@pytest.mark.parametrize("empty", ("inputs", "outputs", "states"))
def test_render_refuses_an_empty_list(empty):
    # `parse` refuses an inputs, outputs or states line without a name
    lists = {"inputs": ("i",), "outputs": ("o",), "states": ("s",), empty: ()}
    m = PartialMealyMachine("m", *lists.values(), {})
    with pytest.raises(ValidationError, match=re.escape(f"cannot render section 'm': its {empty} list is empty")):
        render(Document((m,)))


def test_render_refuses_two_sections_of_one_name():
    m = PartialMealyMachine("m", ("i",), ("o",), ("s",), {})
    for second in (m.replace(states=("t",)), RelDecl("m", "m", "m", Relation.identity(m.states))):
        with pytest.raises(ValidationError, match="cannot render section 'm': an earlier section has that name"):
            render(Document((m, second)))


def test_render_refuses_a_pairs_section_before_its_machine():
    m = PartialMealyMachine("m", ("i",), ("o",), ("s",), {})
    n = m.replace(name="n")
    rel = RelDecl("r", "m", "m", Relation.identity(m.states))
    cases = [
        ((rel, m), "r", "m"),
        ((MapDecl("h", "m", "m", StateMap(m, m, {"s": "s"}, name="h")), m), "h", "m"),
        ((m, RelDecl("q", "m", "n", Relation(m.states, n.states, ())), n), "q", "n"),
        ((m, rel, RelDecl("q", "r", "m", Relation.identity(m.states))), "q", "r"),  # a rel is no machine
    ]
    for sections, name, missing in cases:
        with pytest.raises(ValidationError,
                           match=re.escape(f"cannot render section {name!r}: no earlier machine section is {missing!r}")):
            render(Document(sections))
    assert parse(render(Document((m, n, rel)))) == Document((m, n, rel))


def test_render_refuses_a_rel_whose_carriers_are_not_its_machines_states():
    # `parse` builds a rel's carriers from the named machines' states tuples,
    # in order: a narrower carrier would read back wider, and another
    # machine's states would not read back at all
    m = PartialMealyMachine("m", ("i",), ("o",), ("s", "t"), {})
    n = PartialMealyMachine("n", ("i",), ("o",), ("u",), {})
    cases = [
        (RelDecl("r", "m", "m", Relation(("s",), m.states, {("s", "s")})), "left carrier", "m"),
        (RelDecl("r", "m", "m", Relation(m.states, ("t", "s"), {("s", "s")})), "right carrier", "m"),
        (RelDecl("r", "m", "n", Relation(n.states, n.states, {("u", "u")})), "left carrier", "m"),
    ]
    for rel, side, machine in cases:
        with pytest.raises(ValidationError, match=re.escape(
                f"cannot render section 'r': its {side} is not the states of machine {machine!r}")):
            render(Document((m, n, rel)))
    fitting = RelDecl("r", "m", "n", Relation(m.states, n.states, {("t", "u")}))
    assert parse(render(Document((m, n, fitting)))) == Document((m, n, fitting))


def test_render_refuses_a_map_whose_state_map_is_not_between_its_machines():
    # `parse` builds a map's state map between the named machines
    m = PartialMealyMachine("m", ("i",), ("o",), ("s", "t"), {})
    n = PartialMealyMachine("n", ("i",), ("o",), ("u",), {})
    other_m = m.replace(delta={("s", "i"): ("o", "t")})
    cases = [
        (MapDecl("h", "m", "n", StateMap(n, n, {"u": "u"}, name="h")), "source", "m"),
        (MapDecl("h", "m", "n", StateMap(m, m, {"s": "s", "t": "s"}, name="h")), "target", "n"),
        (MapDecl("h", "m", "n", StateMap(other_m, n, {"s": "u", "t": "u"}, name="h")), "source", "m"),
    ]
    for section, side, machine in cases:
        with pytest.raises(ValidationError, match=re.escape(
                f"cannot render section 'h': its {side} is not machine {machine!r}")):
            render(Document((m, n, section)))
