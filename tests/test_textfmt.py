import pytest

from helpers import FIXTURES, fixture_doc
from ubisim import ParseError, parse, render
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
