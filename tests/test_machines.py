import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    assert_successors_read_the_tables,
    conflict_machine,
    lax_chain,
    mealy_corpus,
    quadruple,
    random_partial_mealy,
    random_sa,
    random_total_mealy,
    sa_pair,
    words_up_to,
)
from references import all_mealy_successors, all_pow_successors, all_sa_successors, semantic_oracle_uncertain
from ubisim import (
    ContractError,
    Document,
    MealySuccessors,
    ObservationTree,
    PartialMealyMachine,
    PowSuccessors,
    PowersetSystem,
    Relation,
    SaSuccessors,
    SimulationWitness,
    StateMap,
    SuspensionAutomaton,
    Teacher,
    UbisimError,
    ValidationError,
    apartness_witness,
    bisimilarity,
    check_morphism,
    check_simulation,
    disjoint_union,
    eval_semantics,
    find_lax_morphism_from_tree,
    hj_to_openmap,
    ioco_compatibility,
    joint_simulator,
    kernel,
    lax_identify,
    order_leq,
    parse,
    relation_is_ioco_compatibility,
    relation_is_uncertain_bisimulation,
    render,
    restrict_along,
    run,
    simulation_violation,
    synthesize_span_structure,
    uncertain_bisimilarity,
    witness_violations,
)
from ubisim.machines import assemble, distinct_names, map_structure, order_failures


# ---------------------------------------------------------------------------
# construction and validation


def refused(message):
    return pytest.raises(ValidationError, match=f"^{re.escape(message)}$")


def test_machine_validation():
    with refused("duplicate state: 's'"):
        PartialMealyMachine("m", ("i",), ("o",), ("s", "s"), {})
    for delta, message in [
        ({("u", "i"): ("o", "s")}, "transition from unknown state 'u'"),
        ({("s", "j"): ("o", "s")}, "transition on unknown input 'j'"),
        ({("s", "i"): ("p", "s")}, "transition with unknown output 'p'"),
        ({("s", "i"): ("o", "t")}, "transition to unknown state 't'"),
        # a transition with several faults reports the first in this order
        ({("u", "j"): ("p", "t")}, "transition from unknown state 'u'"),
        ({("s", "j"): ("p", "t")}, "transition on unknown input 'j'"),
        ({("s", "i"): ("p", "t")}, "transition with unknown output 'p'"),
    ]:
        with refused(message):
            PartialMealyMachine("m", ("i",), ("o",), ("s",), delta)


def test_total_machine_validation():
    delta = {("s", "i"): ("o", "s")}
    PartialMealyMachine("m", ("i",), ("o",), ("s",), delta, total=True)
    with refused("machine declared total but 's' has no transition on 'j'"):
        PartialMealyMachine("m", ("i", "j"), ("o",), ("s",), delta, total=True)
    # holes at (s, j) and (t, i): the first in state-major order is reported
    delta = {("s", "i"): ("o", "t"), ("t", "j"): ("o", "s")}
    with refused("machine declared total but 's' has no transition on 'j'"):
        PartialMealyMachine("m", ("i", "j"), ("o",), ("s", "t"), delta, total=True)


def test_sa_validation():
    def automaton(din, dout):
        return SuspensionAutomaton("a", ("i",), ("o",), ("s", "t"), din, dout)

    fine = {("s", "o"): "t", ("t", "o"): "s"}
    for din, dout, message in [
        ({("s", "i"): "u"}, fine, "input transition 's' -i-> 'u' uses unknown state"),
        ({("u", "i"): "s"}, fine, "input transition 'u' -i-> 's' uses unknown state"),
        ({}, {**fine, ("u", "o"): "s"}, "output transition 'u' -o-> 's' uses unknown state"),
        ({("s", "j"): "t"}, fine, "input transition on unknown symbol 'j'"),
        ({}, {**fine, ("s", "p"): "t"}, "output transition on unknown symbol 'p'"),
        # unknown states come before unknown symbols, inputs before outputs
        ({("u", "j"): "s"}, fine, "input transition 'u' -j-> 's' uses unknown state"),
        ({("s", "j"): "t"}, {**fine, ("u", "o"): "s"}, "input transition on unknown symbol 'j'"),
    ]:
        with refused(message):
            automaton(din, dout)


def test_sa_non_blocking():
    with refused("blocking state 't': no output transition"):
        SuspensionAutomaton("a", ("i",), ("o",), ("s", "t"), {}, {("s", "o"): "t"})


def test_successor_structure_validation():
    with refused("entries must align with the input alphabet"):
        MealySuccessors(("i",), ())
    with refused("entries must align with the alphabets"):
        SaSuccessors(("i",), ("o",), (None,), ())
    with refused("unknown input symbol 'j'"):
        MealySuccessors.make(("i",), {"j": ("o", "s")})
    with refused("unknown input symbol 'j'"):
        SaSuccessors.make(("i",), ("o",), {"j": "s"}, {})
    with refused("unknown output symbol 'p'"):
        SaSuccessors.make(("i",), ("o",), {}, {"p": "s"})
    with refused("unknown input symbol 'j'"):
        MealySuccessors.make(("i",), {}).entry("j")
    sa = SaSuccessors.make(("i",), ("o",), {}, {"o": "s"})
    with refused("unknown input symbol 'j'"):
        sa.input_entry("j")
    with refused("unknown output symbol 'p'"):
        sa.output_entry("p")


def test_powerset_validation():
    PowersetSystem("n", ("a", "b"), {"a": {"b"}})
    with pytest.raises(ValidationError):
        PowersetSystem("n", ("a",), {"a": {"zzz"}})


# ---------------------------------------------------------------------------
# the state index and the dense tables


def _index_samples():
    C, D, _ = sa_pair()
    return [
        *quadruple(),
        conflict_machine(),
        C,
        D,
        PowersetSystem("n", ("a", "b", "c"), {"a": {"b"}, "c": {"a", "c"}}),
        PartialMealyMachine("empty", ("i",), ("o",), (), {}),
    ]


def test_index_numbers_states_in_order():
    for m in _index_samples():
        assert m.index == {s: m.states.index(s) for s in m.states}


def assert_mealy_tables(m):
    succ, out = m.tables()
    assert len(succ) == len(out) == len(m.inputs)
    for k, i in enumerate(m.inputs):
        assert len(succ[k]) == len(out[k]) == len(m.states)
        for x, s in enumerate(m.states):
            e = m.delta.get((s, i))
            assert succ[k][x] == (-1 if e is None else m.states.index(e[1]))
            assert out[k][x] == (None if e is None else e[0])


def assert_sa_tables(a):
    ins, outs = a.tables()
    for labels, trans, rows in ((a.inputs, a.din, ins), (a.outputs, a.dout, outs)):
        assert len(rows) == len(labels)
        for k, label in enumerate(labels):
            expected = [trans.get((s, label)) for s in a.states]
            assert rows[k] == [-1 if d is None else a.states.index(d) for d in expected]


def random_automata():
    rng = random.Random(7)
    C, D, _ = sa_pair()
    return [C, D] + [
        random_sa(rng, rng.randint(1, 8), ("a", "b")[: rng.randint(1, 2)], ("u", "v", "w")[: rng.randint(2, 3)])
        for _ in range(100)
    ]


def test_mealy_tables_agree_with_delta():
    for m in list(mealy_corpus(100)) + list(quadruple()):
        assert_mealy_tables(m)


def test_sa_tables_agree_with_din_and_dout():
    for a in random_automata():
        assert_sa_tables(a)


def test_successors_read_the_tables():
    # constructed machines of both kinds, then the same machines parsed
    constructed = [*mealy_corpus(100), *random_automata()]
    for m in constructed:
        assert_successors_read_the_tables(m)
    renamed = [m.replace(name=f"m{k}") for k, m in enumerate(constructed)]
    for m in parse(render(Document(tuple(renamed)))).machines().values():
        assert_successors_read_the_tables(m)


def test_a_constructed_machine_keeps_no_transition_dict():
    # the constructor fills the tables from the caller's dicts and keeps
    # none: each is read back on first use, state-major with symbols in
    # declaration order, and later changes to the caller's dicts show nowhere
    delta = {("u", "i"): ("x", "s"), ("t", "j"): ("y", "u"), ("s", "j"): ("x", "t"), ("s", "i"): ("y", "s")}
    din = {("2", "a"): "1", ("1", "b"): "2", ("1", "a"): "1"}
    dout = {("2", "y"): "2", ("1", "y"): "1", ("2", "x"): "1"}
    m = PartialMealyMachine("m", ("i", "j"), ("x", "y"), ("s", "t", "u"), delta)
    a = SuspensionAutomaton("c", ("a", "b"), ("x", "y"), ("1", "2"), din, dout)
    expected = [
        (m, "delta", delta, [("s", "i"), ("s", "j"), ("t", "j"), ("u", "i")]),
        (a, "din", din, [("1", "a"), ("1", "b"), ("2", "a")]),
        (a, "dout", dout, [("1", "y"), ("2", "x"), ("2", "y")]),
    ]
    given = {name: dict(trans) for _, name, trans, _ in expected}
    tables = [[row[:] for row in table] for machine in (m, a) for table in machine.tables()]
    for machine, name, trans, _ in expected:
        assert name not in vars(machine)
        trans.clear()
    assert [table for machine in (m, a) for table in machine.tables()] == tables
    for machine, name, _, order in expected:
        assert list(getattr(machine, name)) == order
        assert getattr(machine, name) == given[name]
        assert vars(machine)[name] is getattr(machine, name)
        assert machine.replace() == machine
    assert repr(m) == ("PartialMealyMachine(name='m', inputs=('i', 'j'), outputs=('x', 'y'), states=('s', 't', 'u'), "
                       "delta={('s', 'i'): ('y', 's'), ('s', 'j'): ('x', 't'), ('t', 'j'): ('y', 'u'), "
                       "('u', 'i'): ('x', 's')}, total=False)")


def test_an_automaton_without_outputs_blocks():
    # every state of an automaton with no output symbol is blocking
    with refused("blocking state 's': no output transition"):
        SuspensionAutomaton("a", ("i",), (), ("s",), {}, {})


def test_tables_are_built_once():
    for m in [*mealy_corpus(20), *random_automata()[:20]]:
        first, again = m.tables(), m.tables()
        assert first[0] is again[0] and first[1] is again[1]


def test_replace_builds_new_tables():
    rng = random.Random(11)
    for m in mealy_corpus(50):
        # drop some transitions and redirect the rest to random states
        delta = {
            key: (o, rng.choice(m.states)) for key, (o, _) in m.delta.items() if rng.random() < 0.7
        }
        changed = m.replace(delta=delta)
        assert changed.tables()[0] is not m.tables()[0]
        assert_mealy_tables(changed)
    for a in random_automata()[:50]:
        flipped = {key: rng.choice(a.states) for key in a.din}
        changed = a.replace(din=flipped, dout={(s, a.outputs[0]): s for s in a.states})
        assert changed.tables()[0] is not a.tables()[0]
        assert_sa_tables(changed)


def test_replace_checks_the_copy():
    # `replace` goes through the constructor: a copy is validated again,
    # and only fields can change
    _, q, _, _, _ = quadruple()
    (src, i), (o, _) = next(iter(q.delta.items()))
    with pytest.raises(ValidationError, match="transition to unknown state 'nowhere'"):
        q.replace(delta={**q.delta, (src, i): (o, "nowhere")})
    with pytest.raises(ValidationError, match="machine declared total but"):
        q.replace(delta={}, total=True)
    C, *_ = sa_pair()
    with pytest.raises(ValidationError, match="blocking state"):
        C.replace(dout={})
    with pytest.raises(ValidationError, match="successor set of 'a' leaves the state set"):
        PowersetSystem("n", ("a", "b"), {"a": {"b"}}).replace(states=("a",))
    with pytest.raises(TypeError):
        q.replace(index={})
    assert q.replace() == q and q.replace() is not q
    assert q.replace(name="other") == PartialMealyMachine("other", q.inputs, q.outputs, q.states, q.delta)


def test_index_is_not_a_field():
    assert PartialMealyMachine._fields == ("name", "inputs", "outputs", "states", "delta", "total")
    assert SuspensionAutomaton._fields == ("name", "inputs", "outputs", "states", "din", "dout")
    assert PowersetSystem._fields == ("name", "states", "succ")
    for m in _index_samples():
        assert "index" not in repr(m)


def test_input_index_numbers_inputs_in_order():
    # a Mealy machine's input positions index its tables' rows; `replace`
    # builds them anew
    for m in [*mealy_corpus(20), *quadruple()]:
        assert m.input_index == {i: k for k, i in enumerate(m.inputs)}
    _, q, _, _, _ = quadruple()
    swapped = q.replace(inputs=tuple(reversed(q.inputs)))
    assert swapped.input_index == {i: k for k, i in enumerate(reversed(q.inputs))}


def test_equal_machines_compare_equal():
    for build in (quadruple, sa_pair):
        assert build() == build()
    first = PowersetSystem("n", ("a", "b"), {"a": {"b"}})
    assert first == PowersetSystem("n", ["a", "b"], {"a": ["b"]})
    assert first != PowersetSystem("n", ("b", "a"), {"a": {"b"}})


def test_replace_builds_a_fresh_index():
    _, q, _, _, _ = quadruple()
    swapped = q.replace(states=tuple(reversed(q.states)))
    assert swapped.index == {s: k for k, s in enumerate(reversed(q.states))}
    assert q.index == {s: k for k, s in enumerate(q.states)}
    C, _, _ = sa_pair()
    grown = C.replace(states=C.states + ("extra",), dout={**C.dout, ("extra", C.outputs[0]): "extra"})
    assert grown.index["extra"] == len(C.states)
    assert "extra" not in C.index


def test_unknown_states_are_refused():
    _, q, _, _, _ = quadruple()
    C, D, h = sa_pair()
    for m in (q, C):
        with pytest.raises(ValidationError):
            m.check_state("nowhere")
        with pytest.raises(ValidationError):
            m.successors("nowhere")
    with pytest.raises(ValidationError):
        PowersetSystem("n", ("a",), {"a": {"a"}}).successors("nowhere")
    with pytest.raises(ValidationError):
        StateMap(C, D, {**h.mapping, "nowhere": D.states[0]})
    with pytest.raises(ValidationError):
        StateMap(C, D, {**h.mapping, C.states[0]: "nowhere"})


# ---------------------------------------------------------------------------
# run and eval


def test_run_examples():
    m = conflict_machine()
    assert run(m, "p", ("v", "v")) == "q'"
    assert run(m, "p", ()) == "p"
    _, q, _, _, _ = quadruple()
    assert run(q, "q0", ("j",)) is None


def test_run_validation_distinct_from_undefined():
    _, q, _, _, _ = quadruple()
    with pytest.raises(ValidationError):
        run(q, "nope", ("i",))
    with pytest.raises(ValidationError):
        run(q, "q0", ("k",))


def test_run_and_eval_outcomes_keep_their_order():
    # s -i/a-> t -j/b-> s; s has no j, t has no i
    delta = {("s", "i"): ("a", "t"), ("t", "j"): ("b", "s")}
    m = PartialMealyMachine("m", ("i", "j"), ("a", "b"), ("s", "t"), delta)
    for walk in (run, eval_semantics):
        # an unknown start state is refused before any input is read
        with refused("unknown state 'nope' in machine 'm'"):
            walk(m, "nope", ("k",))
        # an unknown input is refused when the walk reaches it, also where
        # no transition leaves the state
        for word in (("k",), ("i", "k"), ("i", "j", "i", "k"), ("i", "k", "i")):
            with refused("unknown input symbol 'k'"):
                walk(m, "s", word)
        with refused("unknown input symbol 'k'"):
            walk(m, "t", ("k",))
        # a missing transition before the unknown input ends the walk
        for word in (("j", "k"), ("i", "i", "k"), ("j",), ("i", "i")):
            assert walk(m, "s", word) is None
    assert run(m, "s", ("i", "j", "i")) == "t" and eval_semantics(m, "s", ("i", "j", "i")) == "a"
    assert run(m, "s", iter(("i", "j"))) == "s" and eval_semantics(m, "s", iter(("i", "j"))) == "b"
    # the empty word: run stays put, eval_semantics refuses it first
    assert run(m, "t", ()) == "t"
    with refused("unknown state 'nope' in machine 'm'"):
        run(m, "nope", ())
    for state in ("s", "nope"):
        with pytest.raises(ContractError, match="^eval_semantics requires a non-empty word$"):
            eval_semantics(m, state, ())


def test_eval_examples():
    m = conflict_machine()
    assert eval_semantics(m, "p", ("w", "i")) == "a"
    assert eval_semantics(m, "q", ("w", "i")) is None
    assert eval_semantics(m, "p", ("v", "v", "w", "i")) == "b"
    with pytest.raises(ContractError):
        eval_semantics(m, "p", ())


def test_eval_full_table():
    m = conflict_machine()
    expected = {
        ("p", "w"): "o", ("p", "wi"): "a", ("p", "v"): "o", ("p", "vw"): "o",
        ("p", "vv"): "o", ("p", "vvw"): "o", ("p", "vvwi"): "b", ("p", "vwi"): None,
        ("q", "w"): "o", ("q", "wi"): None, ("q", "v"): "o", ("q", "vw"): "o",
        ("q", "vv"): None, ("q", "vvw"): None, ("q", "vvwi"): None, ("q", "vwi"): "b",
    }
    for (state, word), value in expected.items():
        assert eval_semantics(m, state, tuple(word)) == value, (state, word)


def test_eval_prefix_condition_on_fixtures():
    machines = [conflict_machine(), quadruple()[4], lax_chain()[1]]
    for m in machines:
        for x in m.states:
            for word in words_up_to(m.inputs, 6):
                if eval_semantics(m, x, word) is not None:
                    for k in range(1, len(word)):
                        assert eval_semantics(m, x, word[:k]) is not None


def test_run_eval_consistency_random():
    rng = random.Random(7)
    for _ in range(30):
        m = random_partial_mealy(rng, rng.randint(1, 5), rng.randint(1, 3), rng.randint(1, 3))
        for x in m.states:
            for word in words_up_to(m.inputs, 4):
                reached = run(m, x, word)
                value = eval_semantics(m, x, word)
                assert (value is None) == (reached is None)
                if value is not None:
                    before = run(m, x, word[:-1])
                    assert m.delta[(before, word[-1])] == (value, reached)


# ---------------------------------------------------------------------------
# the successor-structure order


def test_order_mealy_examples():
    bottom = MealySuccessors.make(("i", "j"), {})
    anything = MealySuccessors.make(("i", "j"), {"i": ("a", "s1"), "j": ("b", "s2")})
    assert order_leq(bottom, anything)
    t = MealySuccessors.make(("i",), {"i": ("a", "s1")})
    s = MealySuccessors.make(("i",), {"i": ("b", "s1")})
    assert not order_leq(t, s)
    # over the same symbols in another order, structures compare by symbol
    known = MealySuccessors.make(("j", "i"), {"i": ("a", "s1")})
    assert order_leq(known, anything) and not order_leq(anything, known)
    assert not order_leq(known, MealySuccessors.make(("i", "j"), {"i": ("b", "s1")}))


def test_order_sa_example():
    outs = ("w", "x", "y", "z")
    left = SaSuccessors.make(("a",), outs, {}, {"x": "6", "y": "6"})
    right = SaSuccessors.make(("a",), outs, {"a": "6"}, {"y": "6"})
    assert order_leq(left, right)
    assert not order_leq(right, left)
    flipped = SaSuccessors.make(("a",), outs[::-1], {"a": "6"}, {"y": "6"})
    assert order_leq(left, flipped) and not order_leq(flipped, left)


def test_order_pow_is_inclusion():
    assert order_leq(PowSuccessors(frozenset("a")), PowSuccessors(frozenset("ab")))
    assert not order_leq(PowSuccessors(frozenset("ab")), PowSuccessors(frozenset("a")))


def test_order_contract_violations():
    mealy = MealySuccessors.make(("i",), {})
    for other, message in [
        (PowSuccessors(frozenset()), "order_leq needs two machines of one kind, got MealySuccessors and PowSuccessors"),
        (MealySuccessors.make(("j",), {}),
         "order_leq needs shared input alphabets, got MealySuccessors and MealySuccessors"),
    ]:
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            order_leq(mealy, other)
    with pytest.raises(ContractError, match="^no per-symbol order on PowSuccessors$"):
        next(order_failures(PowSuccessors(frozenset()), PowSuccessors(frozenset())))
    with pytest.raises(ContractError, match="^unsupported machine kind Relation$"):
        assemble(Relation.identity(()), "r", [])


@pytest.mark.parametrize(
    "structs",
    [
        all_mealy_successors(("i", "j"), ("a", "b"), ("s", "t")),
        all_sa_successors(("i", "j"), ("a", "b"), ("s", "t")),
        all_pow_successors(("s", "t")),
    ],
    ids=["mealy", "sa", "pow"],
)
def test_order_is_partial_order(structs):
    leq = {
        (i, j)
        for i, t in enumerate(structs)
        for j, s in enumerate(structs)
        if order_leq(t, s)
    }
    for i in range(len(structs)):
        assert (i, i) in leq
    for i, j in leq:
        if i != j:
            assert (j, i) not in leq  # antisymmetry
    for i, j in leq:
        for k in range(len(structs)):
            if (j, k) in leq:
                assert (i, k) in leq  # transitivity


# ---------------------------------------------------------------------------
# disjoint unions


def test_union_of_two():
    _, q, _, s, _ = quadruple()
    combined, (rq, rs) = disjoint_union(q, s)
    assert len(combined.states) == 4
    assert combined.delta[(rq["q0"], "i")] == ("a", rq["q1"])
    assert combined.delta[(rs["s0"], "j")] == ("b", rs["s1"])


def test_union_with_empty_machine():
    _, q, _, _, _ = quadruple()
    empty = PartialMealyMachine("e", q.inputs, q.outputs, (), {})
    combined, (rq, _) = disjoint_union(q, empty)
    assert len(combined.states) == len(q.states)
    assert combined.delta == {(rq["q0"], "i"): ("a", rq["q1"])}


def test_self_union():
    _, q, _, _, _ = quadruple()
    combined, (r1, r2) = disjoint_union(q, q)
    assert len(combined.states) == 4
    assert r1["q0"] != r2["q0"]
    assert combined.delta[(r1["q0"], "i")] == ("a", r1["q1"])
    assert combined.delta[(r2["q0"], "i")] == ("a", r2["q1"])


def test_union_alphabet_mismatch():
    _, q, _, _, _ = quadruple()
    for what, other in (("input", PartialMealyMachine("o", ("k",), q.outputs, ("u",), {})),
                        ("output", PartialMealyMachine("o", q.inputs, ("k",), ("u",), {}))):
        message = f"disjoint_union needs shared {what} alphabets, got PartialMealyMachine 'q' and PartialMealyMachine 'o'"
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            disjoint_union(q, other)
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            disjoint_union(q, q, other)  # each later part against the first


def test_union_of_permuted_alphabets():
    # the union lists the symbols in the first machine's order and keeps
    # every transition by symbol
    first = PartialMealyMachine("a", ("i", "j"), ("x", "y"), ("s",), {("s", "i"): ("x", "s")})
    second = PartialMealyMachine("b", ("j", "i"), ("y", "x"), ("t",),
                                 {("t", "i"): ("y", "t"), ("t", "j"): ("x", "t")})
    combined, _ = disjoint_union(first, second)
    assert (combined.inputs, combined.outputs) == (("i", "j"), ("x", "y"))
    assert combined.delta == {("a.s", "i"): ("x", "a.s"), ("b.t", "i"): ("y", "b.t"), ("b.t", "j"): ("x", "b.t")}
    C, *_ = sa_pair()
    flipped = C.replace(name="F", inputs=C.inputs[::-1], outputs=C.outputs[::-1])
    combined, (rc, rf) = disjoint_union(C, flipped)
    assert (combined.inputs, combined.outputs) == (C.inputs, C.outputs)
    for x in C.states:
        assert combined.successors(rc[x]) == map_structure(C.successors(x), rc)
        assert combined.successors(rf[x]) == map_structure(C.successors(x), rf)


def test_union_commutes_with_eval():
    rng = random.Random(11)
    for _ in range(20):
        m1 = random_partial_mealy(rng, 3, 2, 2, name="m1")
        m2 = random_partial_mealy(rng, 3, 2, 2, name="m2")
        combined, (ren1, ren2) = disjoint_union(m1, m2)
        for m, ren in ((m1, ren1), (m2, ren2)):
            for x in m.states:
                for word in words_up_to(m.inputs, 3):
                    assert eval_semantics(m, x, word) == eval_semantics(
                        combined, ren[x], word
                    )


def test_sa_union():
    C, D, _ = sa_pair()
    combined, (rc, rd) = disjoint_union(C, D)
    assert len(combined.states) == len(C.states) + len(D.states)
    assert combined.din[(rc["1"], "a")] == rc["3"]
    assert combined.dout[(rd["1'"], "x")] == rd["2'"]


def test_powerset_union():
    left = PowersetSystem("n", ("a", "b"), {"a": {"a", "b"}})
    right = PowersetSystem("k", ("a",), {"a": {"a"}})
    combined, (rn, rk) = disjoint_union(left, right)
    assert rn == {"a": "n.a", "b": "n.b"}
    assert rk == {"a": "k.a"}
    assert combined.states == ("n.a", "n.b", "k.a")
    assert combined.succ == {
        "n.a": frozenset({"n.a", "n.b"}),
        "n.b": frozenset(),
        "k.a": frozenset({"k.a"}),
    }


def test_union_names_never_collide():
    # "a" + "." + "b.c" and "a.b" + "." + "c" spell the same name
    first = PartialMealyMachine("a", ("i",), ("o",), ("b.c",), {("b.c", "i"): ("o", "b.c")})
    second = PartialMealyMachine("a.b", ("i",), ("o",), ("c",), {})
    combined, (r1, r2) = disjoint_union(first, second)
    assert (r1["b.c"], r2["c"]) == ("a.b.c", "a.b.c'")
    assert combined.states == ("a.b.c", "a.b.c'")
    assert combined.delta == {("a.b.c", "i"): ("o", "a.b.c")}


def test_union_of_total_machines_stays_total():
    a = PartialMealyMachine("a", ("i",), ("o",), ("s",), {("s", "i"): ("o", "s")}, total=True)
    b = PartialMealyMachine("b", ("i",), ("o",), ("t",), {("t", "i"): ("o", "t")}, total=True)
    assert disjoint_union(a, b)[0].total
    assert not disjoint_union(a, b.replace(total=False))[0].total
    assert not disjoint_union(b.replace(total=False), a)[0].total


def test_union_of_total_machines_is_built_total():
    # the union of total machines is declared total when it is built, and
    # so checked once, by the constructor
    rng = random.Random(4)
    machines = [random_total_mealy(rng, rng.randint(1, 5), 2, 2, name) for name in "abcde"]
    for first, second, third in zip(machines, machines[1:], machines[2:]):
        combined, renames = disjoint_union(first, second, third)
        assert combined.total
        assert combined == PartialMealyMachine(combined.name, combined.inputs, combined.outputs, combined.states,
                                               combined.delta, True)
        assert len(combined.delta) == sum(len(m.delta) for m in (first, second, third))
    a = machines[0]
    items = [(s, a.successors(s)) for s in a.states]
    assert assemble(a, "t", items, total=True).total and not assemble(a, "p", items).total
    with pytest.raises(ValidationError, match="machine declared total but"):
        assemble(a, "t", items[:-1] + [(a.states[-1], MealySuccessors(a.inputs, (None,) * len(a.inputs)))], total=True)


def test_distinct_names_examples():
    assert distinct_names(["x", "y", "x", "x'"]) == ["x", "y", "x''", "x'"]
    assert distinct_names([]) == []


@given(st.lists(st.sampled_from(["a", "a'", "a''", "b", "b'", "a+b", ""]), max_size=12))
def test_distinct_names_properties(names):
    out = distinct_names(names)
    assert len(out) == len(names)
    assert len(set(out)) == len(out)
    firsts = {}
    for k, n in enumerate(names):
        firsts.setdefault(n, k)
    for n, k in firsts.items():
        assert out[k] == n
    if len(set(names)) == len(names):
        assert out == names


# ---------------------------------------------------------------------------
# single-kind operations

# each operation defined on one machine kind, called on a machine m with its
# first state
MEALY_ONLY = {
    "uncertain_bisimilarity": lambda m: uncertain_bisimilarity(m),
    "bisimilarity": lambda m: bisimilarity(m),
    "apartness_witness": lambda m: apartness_witness(m, m.states[0], m.states[0]),
    "lax_identify": lambda m: lax_identify(m, m.states[0], m.states[0]),
    "Teacher": lambda m: Teacher(m, m.states[0]),
    "run": lambda m: run(m, m.states[0], ()),
    "eval_semantics": lambda m: eval_semantics(m, m.states[0], ("a",)),
    "find_lax_morphism_from_tree":
        lambda m: find_lax_morphism_from_tree(ObservationTree(("a", "b"), ("x",)), m, m.states[0]),
    "semantic_oracle_uncertain": lambda m: semantic_oracle_uncertain(m, m.states[0], m.states[0]),
}
SA_ONLY = {
    "ioco_compatibility": lambda m: ioco_compatibility(m),
    "relation_is_ioco_compatibility": lambda m: relation_is_ioco_compatibility(m, Relation.identity(m.states)),
}


@pytest.mark.parametrize("operation, kind, call", [
    *(pytest.param(op, PartialMealyMachine, call, id=op) for op, call in MEALY_ONLY.items()),
    *(pytest.param(op, SuspensionAutomaton, call, id=op) for op, call in SA_ONLY.items()),
])
def test_single_kind_operations_refuse_other_kinds(operation, kind, call):
    C, _, _ = sa_pair()
    _, q, _, _, _ = quadruple()
    system = PowersetSystem("w", ("a",), {"a": {"a"}})
    for m in (C, q, system):
        if isinstance(m, kind):
            continue
        message = f"{operation} needs a {kind.__name__}, got {type(m).__name__} {m.name!r}"
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            call(m)


# ---------------------------------------------------------------------------
# the kind matrix: every public operation that takes machines, on each kind

# one machine of each kind on the states s and t, partners whose input or
# output alphabet differs as a set, and copies of the Mealy machine and the
# suspension automaton that declare their inputs or outputs in another order
KIND_SAMPLES = {
    "mealy": PartialMealyMachine("m", ("a", "b"), ("x",), ("s", "t"), {("s", "a"): ("x", "t")}),
    "sa": SuspensionAutomaton("c", ("a",), ("x", "y"), ("s", "t"), {("s", "a"): "t"},
                              {("s", "x"): "s", ("t", "x"): "t"}),
    "pow": PowersetSystem("w", ("s", "t"), {"s": {"t"}}),
    "mealy-b": PartialMealyMachine("m2", ("b",), ("x",), ("s", "t"), {}),
    "sa-y": SuspensionAutomaton("c2", ("a",), ("y",), ("s", "t"), {}, {("s", "y"): "s", ("t", "y"): "t"}),
}
KIND_SAMPLES["mealy-ba"] = KIND_SAMPLES["mealy"].replace(inputs=("b", "a"))
KIND_SAMPLES["sa-yx"] = KIND_SAMPLES["sa"].replace(outputs=("y", "x"))
M, S, P = "PartialMealyMachine 'm'", "SuspensionAutomaton 'c'", "PowersetSystem 'w'"
EITHER = "needs a PartialMealyMachine or SuspensionAutomaton, got"
IDENTITY, SAME = Relation.identity(("s", "t")), {"s": "s", "t": "t"}
UNWITNESSED = SimulationWitness(IDENTITY, None, "hj")

# operations on one machine m that take more than one kind
ONE_MACHINE = {
    "relation_is_uncertain_bisimulation": lambda m: relation_is_uncertain_bisimulation(m, IDENTITY),
    "synthesize_span_structure": lambda m: synthesize_span_structure(m, IDENTITY),
    "joint_simulator": lambda m: joint_simulator(m, "s", "t"),
    "render": lambda m: render(Document((m,))),
}
TWO_MACHINES = {
    "StateMap": lambda a, b: StateMap(a, b, SAME),
    "check_morphism": lambda a, b: check_morphism(StateMap(a, b, SAME), "lax"),
    "kernel": lambda a, b: kernel(StateMap(a, b, SAME)),
    "restrict_along": lambda a, b: restrict_along(StateMap(a, b, SAME)),
    "check_simulation": lambda a, b: check_simulation(IDENTITY, a, b),
    "simulation_violation": lambda a, b: simulation_violation(IDENTITY, a, b),
    "witness_violations": lambda a, b: witness_violations(UNWITNESSED, a, b),
    "hj_to_openmap": lambda a, b: hj_to_openmap(UNWITNESSED, a, b),
    "disjoint_union": lambda a, b: disjoint_union(a, b),
}
PAIRS = ("mealy mealy", "sa sa", "pow pow", "mealy sa", "sa mealy", "mealy pow", "pow mealy", "mealy mealy-b",
         "sa sa-y")


def _pair_checked(op: str, mealy: str = "ok", sa: str = "ok") -> dict:
    """The outcomes of an operation that checks the kinds, then the
    alphabets of its two machines."""
    kinds = f"ContractError: {op} needs two machines of one kind, got"
    return {
        "mealy mealy": mealy, "sa sa": sa, "pow pow": f"ContractError: {op} {EITHER} {P}",
        "mealy sa": f"{kinds} {M} and {S}", "sa mealy": f"{kinds} {S} and {M}",
        "mealy pow": f"{kinds} {M} and {P}", "pow mealy": f"ContractError: {op} {EITHER} {P}",
        "mealy mealy-b": f"ContractError: {op} needs shared input alphabets, got {M} and PartialMealyMachine 'm2'",
        "sa sa-y": f"ContractError: {op} needs shared output alphabets, got {S} and SuspensionAutomaton 'c2'",
    }


KIND_MATRIX = {
    **{op: {"mealy": "ok", "sa": f"ContractError: {op} needs a PartialMealyMachine, got {S}",
            "pow": f"ContractError: {op} needs a PartialMealyMachine, got {P}"} for op in MEALY_ONLY},
    **{op: {"mealy": f"ContractError: {op} needs a SuspensionAutomaton, got {M}", "sa": "ok",
            "pow": f"ContractError: {op} needs a SuspensionAutomaton, got {P}"} for op in SA_ONLY},
    "relation_is_uncertain_bisimulation": {"mealy": "ok", "sa": "ok", "pow": "ok"},
    **{op: {"mealy": "ok", "sa": "ok", "pow": f"ContractError: {op} {EITHER} {P}"}
       for op in ("synthesize_span_structure", "joint_simulator", "render")},
    **{op: _pair_checked(op) for op in ("StateMap", "simulation_violation", "witness_violations")},
    "check_simulation": _pair_checked("simulation_violation"),
    "check_morphism": _pair_checked("StateMap"),
    "kernel": _pair_checked("StateMap"),
    "restrict_along": _pair_checked("StateMap",
                                    sa=f"ContractError: restrict_along needs a PartialMealyMachine, got {S}"),
    "hj_to_openmap": {
        **_pair_checked("witness_violations", mealy="ContractError: witness does not validate: witness carries "
                        "no span structure"),
        **{pair: f"ContractError: hj_to_openmap needs a PartialMealyMachine, got {S if pair[0] == 's' else P}"
           for pair in ("sa sa", "pow pow", "sa mealy", "pow mealy", "sa sa-y")},
    },
    "disjoint_union": {**_pair_checked("disjoint_union"), "pow pow": "ok", "pow mealy":
                       f"ContractError: disjoint_union needs two machines of one kind, got {P} and {M}"},
}


def _outcome(call, *machines) -> str:
    """"ok" for a result, the type and message of a refusal; any other
    exception fails the test."""
    try:
        call(*machines)
    except UbisimError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


@pytest.mark.parametrize("operation", sorted(KIND_MATRIX))
def test_kind_matrix(operation):
    if operation in TWO_MACHINES:
        outcomes = {pair: _outcome(TWO_MACHINES[operation], *map(KIND_SAMPLES.get, pair.split())) for pair in PAIRS}
        # declaring a partner's symbols in another order changes no outcome
        for same, permuted in (("mealy mealy", "mealy mealy-ba"), ("sa sa", "sa sa-yx")):
            assert _outcome(TWO_MACHINES[operation], *map(KIND_SAMPLES.get, permuted.split())) == outcomes[same]
    else:
        call = {**MEALY_ONLY, **SA_ONLY, **ONE_MACHINE}[operation]
        outcomes = {kind: _outcome(call, KIND_SAMPLES[kind]) for kind in ("mealy", "sa", "pow")}
    assert outcomes == KIND_MATRIX[operation]


# each operation that takes a relation between machine states, called on a
# relation whose left or right carrier holds a state the machine lacks; the
# two-machine operations relate m to a renamed copy, so that each side's
# message names its own machine
TWIN = KIND_SAMPLES["mealy"].replace(name="twin")
CARRIER_CHECKED = {
    "simulation_violation": lambda rel, m: simulation_violation(rel, m, TWIN),
    "witness_violations": lambda rel, m: witness_violations(SimulationWitness(rel, None, "hj"), m, TWIN),
    "relation_is_ioco_compatibility": lambda rel, m: relation_is_ioco_compatibility(m, rel),
    "relation_is_uncertain_bisimulation": lambda rel, m: relation_is_uncertain_bisimulation(m, rel),
    "synthesize_span_structure": lambda rel, m: synthesize_span_structure(m, rel),
}


@pytest.mark.parametrize("operation", sorted(CARRIER_CHECKED))
def test_relation_carriers_stay_within_the_states(operation):
    m = KIND_SAMPLES["sa" if operation == "relation_is_ioco_compatibility" else "mealy"]
    dst = TWIN if operation in ("simulation_violation", "witness_violations") else m
    strays = {"left": (Relation.identity(("s", "u", "t")), "u", m),
              "right": (Relation(("s", "t"), ("v", "s", "t"), ()), "v", dst)}
    if operation == "synthesize_span_structure":
        del strays["right"]  # refused first as not reflexive
    for side, (rel, stray, owner) in strays.items():
        with refused(f"{operation} needs the relation's {side} carrier within the states of "
                     f"{type(owner).__name__} {owner.name!r}, got {stray!r}"):
            CARRIER_CHECKED[operation](rel, m)
