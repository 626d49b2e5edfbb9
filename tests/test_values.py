"""Value semantics of the library's record classes.

Each record compares equal to a copy rebuilt from its fields, and to
nothing of another class, a plain tuple included; it hashes its fields
when they are all hashable; it refuses assignment and deletion; and its
repr lists its fields in order.
"""

import pytest

from ubisim import (
    ApartnessWitness,
    Conflict,
    Document,
    JointSimulator,
    MapDecl,
    MealySuccessors,
    MorphismReport,
    ObservationTree,
    PartialMealyMachine,
    PowersetSystem,
    PowSuccessors,
    Quotient,
    RelDecl,
    Relation,
    SaSuccessors,
    SimulationWitness,
    SpanFailure,
    StateMap,
    SuspensionAutomaton,
    TreeConflict,
    Violation,
)
from ubisim.morphisms import MergeStep

MEALY = PartialMealyMachine("m", ("a", "b"), ("x", "y"), ("s", "t"),
                            {("s", "a"): ("x", "t"), ("t", "b"): ("y", "s")})
SA = SuspensionAutomaton("c", ("a",), ("x", "y"), ("s", "t"), {("s", "a"): "t"},
                         {("s", "x"): "s", ("t", "y"): "t"})
POW = PowersetSystem("w", ("s", "t"), {"s": {"t"}})
REL = Relation(("s", "t"), ("s", "t"), [("s", "t"), ("t", "t")])
IDENTITY = StateMap(MEALY, MEALY, {"s": "s", "t": "t"}, "id")
VIOLATION = Violation("s", "in", "a", "not matched at image")
STEP = MergeStep("s", "t", ())
WITNESS = SimulationWitness(Relation.identity(("s", "t")),
                            {("s", "s"): MealySuccessors(("a", "b"), (("x", ("t", "t")), None)),
                             ("t", "t"): MealySuccessors(("a", "b"), (None, ("y", ("s", "s"))))}, "hj")
RELDECL = RelDecl("r", "m", "m", REL)

# one sample of each record class, with its fields in order
SAMPLES = {
    MealySuccessors: (MEALY.successors("s"), ("inputs", "entries")),
    SaSuccessors: (SA.successors("s"), ("inputs", "outputs", "in_entries", "out_entries")),
    PowSuccessors: (POW.successors("s"), ("elems",)),
    PartialMealyMachine: (MEALY, ("name", "inputs", "outputs", "states", "delta", "total")),
    SuspensionAutomaton: (SA, ("name", "inputs", "outputs", "states", "din", "dout")),
    PowersetSystem: (POW, ("name", "states", "succ")),
    Relation: (REL, ("left", "right", "rows")),
    RelDecl: (RELDECL, ("name", "left_machine", "right_machine", "relation")),
    MapDecl: (MapDecl("h", "m", "m", IDENTITY), ("name", "source_machine", "target_machine", "statemap")),
    Document: (Document((MEALY, RELDECL)), ("sections",)),
    ApartnessWitness: (ApartnessWitness(("a", "b"), "x", "y"), ("word", "left_output", "right_output")),
    StateMap: (IDENTITY, ("source", "target", "mapping", "name")),
    Violation: (VIOLATION, ("state", "side", "symbol", "note")),
    MorphismReport: (MorphismReport("lax", (VIOLATION,)), ("kind", "violations")),
    MergeStep: (STEP, ("left", "right", "word")),
    Conflict: (Conflict((STEP,), "s", "t", "a", "x", "y", ("a",)),
               ("merges", "left_state", "right_state", "input", "left_output", "right_output", "word")),
    Quotient: (Quotient(MEALY, IDENTITY, (("s",), ("t",))), ("machine", "projection", "classes")),
    SimulationWitness: (WITNESS, ("relation", "structure", "style")),
    SpanFailure: (SpanFailure(("s", "t"), "a", "output-mismatch"), ("pair", "symbol", "reason")),
    JointSimulator: (JointSimulator(MEALY, "s", REL, REL, WITNESS, WITNESS),
                     ("machine", "state", "left", "right", "left_witness", "right_witness")),
    ObservationTree: (ObservationTree(("a", "b"), ("x",)).record(("a", "b"), ("x", "x")).record(("b",), ("x",)),
                      ("inputs", "outputs")),
    TreeConflict: (TreeConflict(("a", "b")), ("word",)),
}

# the samples whose fields are all hashable; the others hold a dict (a
# machine's transitions, a map, a span structure) or are observation trees
HASHABLE = {MealySuccessors, SaSuccessors, PowSuccessors, Relation, RelDecl, ApartnessWitness, Violation,
            MorphismReport, MergeStep, Conflict, SpanFailure, TreeConflict}


class Step(MergeStep):
    """A subclass that declares no fields of its own."""


def rebuilt(value):
    """An equal copy of `value`, built anew through its constructor."""
    if isinstance(value, Relation):
        return Relation(value.left, value.right, reversed(value.ordered_pairs()))
    if isinstance(value, ObservationTree):  # the same observations, recorded in another order
        return ObservationTree(value.inputs, value.outputs).record(("b",), ("x",)).record(("a", "b"), ("x", "x"))
    return type(value)(*(getattr(value, name) for name in SAMPLES[type(value)][1]))


def test_every_record_class_has_a_sample():
    assert len(SAMPLES) == 22


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_equal_to_a_rebuilt_copy_only(cls):
    value, fields = SAMPLES[cls]
    copy = rebuilt(value)
    assert copy is not value
    assert copy == value and not copy != value
    assert value != tuple(getattr(value, name) for name in fields)
    for other, _ in SAMPLES.values():
        if other is not value:
            assert value != other and other != value


def test_equality_reads_the_fields():
    assert PartialMealyMachine("n", MEALY.inputs, MEALY.outputs, MEALY.states, MEALY.delta) != MEALY
    assert PartialMealyMachine(*(getattr(MEALY, name) for name in SAMPLES[PartialMealyMachine][1][:-1])) == MEALY
    assert Relation(REL.left, REL.right, [("s", "t")]) != REL
    assert StateMap(MEALY, MEALY, IDENTITY.mapping) != IDENTITY  # the name is a field
    assert SimulationWitness(WITNESS.relation, WITNESS.structure, "openmap") != WITNESS


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_hash(cls):
    value, _ = SAMPLES[cls]
    if cls in HASHABLE:
        assert hash(value) == hash(rebuilt(value))
    else:
        with pytest.raises(TypeError):
            hash(value)


def test_equal_relations_hash_equal():
    assert hash(Relation.from_rows(REL.left, REL.right, REL.rows)) == hash(REL)
    assert len({REL, rebuilt(REL), Relation.identity(REL.left)}) == 2
    assert hash(SimulationWitness(REL, None, "hj")) == hash(SimulationWitness(rebuilt(REL), None, "hj"))


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
def test_fields_are_read_only(cls):
    value, fields = SAMPLES[cls]
    before = repr(value)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert repr(value) == before and not hasattr(value, "extra")


@pytest.mark.parametrize("cls", [cls for cls in SAMPLES if cls is not ObservationTree], ids=lambda cls: cls.__name__)
def test_repr_lists_the_fields_in_order(cls):
    value, fields = SAMPLES[cls]
    assert repr(value) == f"{cls.__name__}(" + ", ".join(f"{name}={getattr(value, name)!r}" for name in fields) + ")"


def test_literal_reprs():
    assert repr(MEALY) == (
        "PartialMealyMachine(name='m', inputs=('a', 'b'), outputs=('x', 'y'), states=('s', 't'), "
        "delta={('s', 'a'): ('x', 't'), ('t', 'b'): ('y', 's')}, total=False)"
    )
    assert repr(SA) == (
        "SuspensionAutomaton(name='c', inputs=('a',), outputs=('x', 'y'), states=('s', 't'), "
        "din={('s', 'a'): 't'}, dout={('s', 'x'): 's', ('t', 'y'): 't'})"
    )
    assert repr(REL) == "Relation(left=('s', 't'), right=('s', 't'), rows=(2, 2))"


def test_machine_attributes_stay_out_of_equality_and_repr():
    # the indexes and tables are attributes, not fields
    for machine in (MEALY, SA, POW):
        assert machine.index == {"s": 0, "t": 1}
        assert "index" not in repr(machine) and "tables" not in repr(machine)
    assert MEALY.input_index == {"a": 0, "b": 1}
    tree = SAMPLES[ObservationTree][0].as_machine()
    assert tree == PartialMealyMachine(tree.name, tree.inputs, tree.outputs, tree.states, tree.delta)
    assert tree.tables() == PartialMealyMachine(*(getattr(tree, f) for f in SAMPLES[PartialMealyMachine][1])).tables()


def test_fields_bind_by_position_or_name():
    assert PartialMealyMachine(states=MEALY.states, delta=MEALY.delta, name="m", inputs=MEALY.inputs,
                               outputs=MEALY.outputs) == MEALY
    assert PartialMealyMachine("m", MEALY.inputs, MEALY.outputs, MEALY.states, MEALY.delta, total=False) == MEALY
    assert StateMap(MEALY, MEALY, {"s": "s", "t": "t"}).name == ""
    assert TreeConflict(word=("a", "b")) == SAMPLES[TreeConflict][0]
    for args, kwargs in [((), {}), (("s", "t"), {}), (("s", "t", (), ()), {}), (("s", "t"), {"words": ()}),
                         (("s", "t", ()), {"left": "s"})]:
        with pytest.raises(TypeError):
            MergeStep(*args, **kwargs)


@pytest.mark.parametrize("cls", [cls for cls in SAMPLES if cls not in (Relation, ObservationTree)],
                         ids=lambda cls: cls.__name__)
def test_replace_rebuilds_through_the_constructor(cls):
    value, fields = SAMPLES[cls]
    assert value.replace() == value and value.replace() is not value
    for name in fields:
        assert getattr(value.replace(**{name: getattr(value, name)}), name) == getattr(value, name)
    with pytest.raises(TypeError):
        value.replace(no_such_field=None)


def test_a_subclass_keeps_the_fields_but_compares_apart():
    step = Step("s", "t", ())
    assert repr(step) == "Step(left='s', right='t', word=())"
    assert step == Step("s", "t", ()) and hash(step) == hash(Step("s", "t", ()))
    assert step != STEP and STEP != step
