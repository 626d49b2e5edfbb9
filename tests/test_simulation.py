import random
import re

import pytest

from helpers import (
    conflict_machine,
    fixture_doc,
    mealy_corpus,
    quadruple,
    random_oplax_map,
    random_sa,
    sa_pair,
)
from ubisim import (
    ApartnessWitness,
    ContractError,
    JointSimulator,
    MealySuccessors,
    PartialMealyMachine,
    PowSuccessors,
    Relation,
    SaSuccessors,
    SimulationWitness,
    SpanFailure,
    SuspensionAutomaton,
    bisimilarity,
    check_simulation,
    disjoint_union,
    hj_to_openmap,
    ioco_compatibility,
    joint_simulator,
    lax_identify,
    map_structure,
    order_leq,
    synthesize_span_structure,
    uncertain_bisimilarity,
    witness_violations,
)
from ubisim.machines import _same_kind
from ubisim.morphisms import Conflict
from ubisim.simulation import STYLES


# ---------------------------------------------------------------------------
# relational simulation checks


def test_quadruple_arrows():
    rels = fixture_doc("quadruple.txt").rels()
    p, q, r, s, _ = quadruple()
    assert check_simulation(rels["sim_q_p"].relation, q, p)
    assert check_simulation(rels["sim_q_r"].relation, q, r)
    assert check_simulation(rels["sim_s_r"].relation, s, r)
    assert not check_simulation(rels["sim_bad"].relation, r, q)


def test_no_completion_simulates_r_into_q():
    p, q, r, s, _ = quadruple()
    base = {("r0", "q0")}
    for extra in [set(), {("r1", "q1")}, {("r1", "q1"), ("r2", "q1")}, {("r2", "q0")}]:
        rel = Relation(r.states, q.states, frozenset(base | extra))
        assert not check_simulation(rel, r, q)


def test_diagonal_simulates():
    m = conflict_machine()
    assert check_simulation(Relation.identity(m.states), m, m)


def test_sa_alternating_simulation_on_map_graph():
    C, D, h = sa_pair()
    graph = Relation(C.states, D.states, frozenset((s, h(s)) for s in C.states))
    assert check_simulation(graph, C, D)


def test_style_validation():
    # a span style is declared on a witness, and only there
    identity = Relation.identity(conflict_machine().states)
    for style in ("weird", "hughes-jacobs", "open-map"):
        with pytest.raises(ContractError) as exc:
            SimulationWitness(identity, None, style)
        assert str(exc.value) == f"unknown simulation style '{style}'"


# ---------------------------------------------------------------------------
# span structure synthesis


def test_span_on_equality_replicates_structure():
    m = conflict_machine()
    structure = synthesize_span_structure(m, Relation.identity(m.states))
    assert not isinstance(structure, SpanFailure)
    for s in m.states:
        expected = {
            i: (o, (dst, dst))
            for (src, i), (o, dst) in m.delta.items()
            if src == s
        }
        assert dict(structure[(s, s)].defined()) == expected


def test_span_on_quadruple_pair():
    *_, union = quadruple()
    rel = Relation.identity(union.states).union(
        Relation.square(union.states, {("q.q0", "s.s0")})
    )
    structure = synthesize_span_structure(union, rel)
    assert dict(structure[("q.q0", "s.s0")].defined()) == {
        "i": ("a", ("q.q1", "q.q1")),
        "j": ("b", ("s.s1", "s.s1")),
    }


def test_span_failure_reports_output_mismatch_first():
    *_, union = quadruple()
    rel = Relation.identity(union.states).union(
        Relation.square(union.states, {("p.p0", "r.r0")})
    )
    failure = synthesize_span_structure(union, rel)
    assert failure == SpanFailure(("p.p0", "r.r0"), "j", "output-mismatch")


def test_span_failure_on_a_suspension_input():
    # 1 and 2 share the output o into (1, 1), but their a-successors 3 and 4
    # are not related
    a = SuspensionAutomaton("A", ("a",), ("o",), ("1", "2", "3", "4"), {("1", "a"): "3", ("2", "a"): "4"},
                            {("1", "o"): "1", ("2", "o"): "1", ("3", "o"): "3", ("4", "o"): "4"})
    rel = Relation.identity(a.states).union(Relation.square(a.states, {("1", "2")}))
    assert synthesize_span_structure(a, rel) == SpanFailure(("1", "2"), "a", "successor-missing")


def test_span_needs_reflexivity():
    *_, union = quadruple()
    with pytest.raises(ContractError):
        synthesize_span_structure(union, Relation.square(union.states, {("q.q0", "s.s0")}))


def test_span_projections_are_oplax():
    m = conflict_machine()
    rel = uncertain_bisimilarity(m)
    structure = synthesize_span_structure(m, rel)
    assert not isinstance(structure, SpanFailure)
    w = SimulationWitness(rel, structure, "hj")
    # a span over one machine is a witness from the machine into itself
    # after reading pairs as (left, right)
    for (x, y), struct in structure.items():
        left = MealySuccessors(struct.inputs, tuple(
            None if e is None else (e[0], e[1][0]) for e in struct.entries))
        right = MealySuccessors(struct.inputs, tuple(
            None if e is None else (e[0], e[1][1]) for e in struct.entries))
        from ubisim import order_leq
        assert order_leq(m.successors(x), left)
        assert order_leq(m.successors(y), right)


def test_sa_span_synthesis():
    C, *_ = sa_pair()
    rel = ioco_compatibility(C)
    structure = synthesize_span_structure(C, rel)
    assert not isinstance(structure, SpanFailure)
    for (x, y), struct in structure.items():
        assert struct.has_output
    bad = Relation.identity(C.states).union(
        Relation.square(C.states, {("1", "6")})
    )
    failure = synthesize_span_structure(C, bad)
    assert isinstance(failure, SpanFailure)
    assert failure.pair == ("1", "6")


# ---------------------------------------------------------------------------
# joint simulators


def test_joint_quadruple_matches_sibling():
    *_, union = quadruple()
    joint = joint_simulator(union, "q.q0", "s.s0")
    assert isinstance(joint, JointSimulator)
    assert set(joint.machine.states) == {"(q.q0|s.s0)", "(q.q1|q.q1)", "(s.s1|s.s1)"}
    assert joint.machine.delta[(joint.state, "i")][0] == "a"
    assert joint.machine.delta[(joint.state, "j")][0] == "b"
    # the synthesized simulator state behaves exactly like r0
    r = quadruple()[2]
    both, (rj, rr) = disjoint_union(joint.machine, r)
    assert (rj[joint.state], rr["r0"]) in bisimilarity(both)


def test_joint_apart_returns_witness():
    *_, union = quadruple()
    w = joint_simulator(union, "p.p0", "r.r0")
    assert isinstance(w, ApartnessWitness)
    assert (w.word, w.left_output, w.right_output) == (("j",), "a", "b")


def test_joint_self_is_reachable_diagonal():
    m = conflict_machine()
    joint = joint_simulator(m, "q", "q")
    reachable = {"q", "y", "q'", "z", "z'"}
    assert set(joint.machine.states) == {f"({s}|{s})" for s in reachable}
    both, (rj, rm) = disjoint_union(joint.machine, m)
    assert (rj["(q|q)"], rm["q"]) in bisimilarity(both)


def test_joint_on_conflict_pair_exists():
    # no lax map merges p and q, but a joint simulator exists: the two
    # notions genuinely differ
    m = conflict_machine()
    assert isinstance(lax_identify(m, "p", "q"), Conflict)
    joint = joint_simulator(m, "p", "q")
    assert isinstance(joint, JointSimulator)
    assert check_simulation(joint.left, m, joint.machine)
    assert check_simulation(joint.right, m, joint.machine)
    assert witness_violations(joint.left_witness, m, joint.machine) == []
    assert witness_violations(joint.right_witness, m, joint.machine) == []


def test_joint_witness_structures_convert_to_openmap():
    *_, union = quadruple()
    joint = joint_simulator(union, "q.q0", "s.s0")
    om = hj_to_openmap(joint.left_witness, union, joint.machine)
    assert om.style == "openmap"
    assert witness_violations(om, union, joint.machine) == []
    # an openmap witness is an hj witness verbatim
    as_hj = SimulationWitness(om.relation, om.structure, "hj")
    assert witness_violations(as_hj, union, joint.machine) == []


def test_sa_joint_simulator():
    C, *_ = sa_pair()
    joint = joint_simulator(C, "2", "3")
    assert isinstance(joint, JointSimulator)
    assert check_simulation(joint.left, C, joint.machine)
    assert check_simulation(joint.right, C, joint.machine)
    assert witness_violations(joint.left_witness, C, joint.machine) == []
    assert joint_simulator(C, "1", "6") is None


def test_joint_names_never_collide():
    # the pairs (a|b, c) and (a, b|c) both spell "(a|b|c)"
    cycle = {"a|b": "a", "a": "c", "c": "b|c", "b|c": "a|b"}
    m = PartialMealyMachine(
        "m", ("i", "j"), ("o",), tuple(cycle),
        {(s, i): ("o", t) for s, t in cycle.items() for i in ("i", "j")},
    )
    joint = joint_simulator(m, "a|b", "c")
    assert isinstance(joint, JointSimulator)
    assert joint.state == "(a|b|c)"
    assert joint.machine.states == ("(a|b|c)", "(a|b|c)'", "(c|a|b)", "(b|c|a)")
    assert joint.machine.delta[("(a|b|c)", "i")] == ("o", "(a|b|c)'")
    assert joint.machine.delta[("(b|c|a)", "j")] == ("o", "(a|b|c)")
    assert check_simulation(joint.left, m, joint.machine)
    assert check_simulation(joint.right, m, joint.machine)
    assert witness_violations(joint.left_witness, m, joint.machine) == []
    assert witness_violations(joint.right_witness, m, joint.machine) == []


def test_hj_to_openmap_drops_extra_entries():
    # source u has no transitions at all; a span may still step, and the
    # conversion must delete that entry to make the left projection exact
    src = PartialMealyMachine("s", ("i",), ("o",), ("u",), {})
    dst = PartialMealyMachine("d", ("i",), ("o",), ("w",), {("w", "i"): ("o", "w")})
    rel = Relation(("u",), ("w",), {("u", "w")})
    structure = {("u", "w"): MealySuccessors.make(("i",), {"i": ("o", ("u", "w"))})}
    hj = SimulationWitness(rel, structure, "hj")
    assert witness_violations(hj, src, dst) == []
    om = hj_to_openmap(hj, src, dst)
    assert om.structure[("u", "w")].entries == (None,)
    assert witness_violations(om, src, dst) == []


def test_hj_to_openmap_identity_on_strict():
    m = conflict_machine()
    joint = joint_simulator(m, "x", "x")
    om = hj_to_openmap(joint.left_witness, m, joint.machine)
    assert om.structure == dict(joint.left_witness.structure)


def spans_of_u_into_w():
    """A source state u and a target state w that both loop on i, a
    relation holding (u, w) alone, and one span structure at (u, w) per
    problem `witness_violations` can name (with the one-step behaviour the
    loops give, where it checks out)."""
    src = PartialMealyMachine("s", ("i", "j"), ("o",), ("u",), {("u", "i"): ("o", "u")})
    dst = PartialMealyMachine("d", ("i", "j"), ("o",), ("w",), {("w", "i"): ("o", "w")})
    rel = Relation(("u",), ("w",), {("u", "w")})
    step = lambda entries: {("u", "w"): MealySuccessors.make(("i", "j"), entries)}  # noqa: E731
    return src, dst, rel, {
        "valid": step({"i": ("o", ("u", "w"))}),
        "empty": step({}),
        "outside": step({"i": ("o", ("u", "u"))}),
        "extra": step({"i": ("o", ("u", "w")), "j": ("o", ("u", "w"))}),
        "unhashable": step({"i": ("o", (["u"], "w"))}),
    }


def test_witness_violations_name_each_problem():
    src, dst, rel, spans = spans_of_u_into_w()

    def problems(structure, style="hj"):
        return witness_violations(SimulationWitness(rel, structure, style), src, dst)

    assert problems(spans["valid"]) == problems(spans["valid"], "openmap") == []
    assert problems(None) == ["witness carries no span structure"]
    assert problems({}) == ["no structure for pair ('u', 'w')"]
    assert problems(spans["outside"]) == [
        "structure of ('u', 'w') leaves the relation at ('u', 'u')",
        "right projection not lax at ('u', 'w')",
    ]
    assert problems(spans["empty"], "openmap") == ["left projection not strict at ('u', 'w')"]
    assert problems(spans["empty"]) == ["left projection not oplax at ('u', 'w')"]
    assert problems(spans["extra"]) == ["right projection not lax at ('u', 'w')"]
    assert problems(spans["extra"], "openmap") == [
        "left projection not strict at ('u', 'w')",
        "right projection not lax at ('u', 'w')",
    ]
    # a two-element successor with an unhashable member is no pair either
    for style in ("hj", "openmap"):
        assert problems(spans["unhashable"], style) == ["structure of ('u', 'w') leaves the relation at (['u'], 'w')"]


def test_witness_violations_name_a_structure_of_another_alphabet_or_kind():
    # a structure over ("i", "k") between machines over ("i",), or of
    # another kind, is a listed problem of its pair
    src = PartialMealyMachine("s", ("i",), ("o",), ("u",), {("u", "i"): ("o", "u")})
    dst = PartialMealyMachine("d", ("i",), ("o",), ("w",), {("w", "i"): ("o", "w")})
    rel = Relation(("u",), ("w",), {("u", "w")})
    for struct in (MealySuccessors(("i", "k"), (("o", ("u", "w")), None)),
                   MealySuccessors(("k",), (("o", ("u", "w")),)),
                   SaSuccessors(("i",), ("o",), (("u", "w"),), (("u", "w"),)),
                   PowSuccessors({("u", "w")})):
        w = SimulationWitness(rel, {("u", "w"): struct}, "hj")
        problem = "structure of ('u', 'w') is not a MealySuccessors over the machines' alphabets"
        assert witness_violations(w, src, dst) == [problem]
        with pytest.raises(ContractError, match=re.escape(f"witness does not validate: {problem}")):
            hj_to_openmap(w, src, dst)
    valid = MealySuccessors(("i",), (("o", ("u", "w")),))
    assert witness_violations(SimulationWitness(rel, {("u", "w"): valid}, "hj"), src, dst) == []


def test_span_witness_across_permuted_inputs():
    # the witness's structure lists i before j, the source j before i: the
    # projections compare by symbol, and the conversion keeps the entry on
    # i, which the source carries, and drops the one on j
    src = PartialMealyMachine("s", ("j", "i"), ("o",), ("u",), {("u", "i"): ("o", "u")})
    dst = PartialMealyMachine("d", ("i", "j"), ("o",), ("w",), {("w", "i"): ("o", "w"), ("w", "j"): ("o", "w")})
    rel = Relation(("u",), ("w",), {("u", "w")})
    structure = {("u", "w"): MealySuccessors.make(("i", "j"), {"i": ("o", ("u", "w")), "j": ("o", ("u", "w"))})}
    hj = SimulationWitness(rel, structure, "hj")
    assert witness_violations(hj, src, dst) == []
    om = hj_to_openmap(hj, src, dst)
    assert om.style == "openmap"
    assert om.structure == {("u", "w"): MealySuccessors.make(("i", "j"), {"i": ("o", ("u", "w"))})}
    assert witness_violations(om, src, dst) == []
    flipped = PartialMealyMachine("d", ("j", "i"), ("o",), ("w",), dst.delta)
    assert witness_violations(om, src, flipped) == []


@pytest.mark.parametrize("kind", ["mealy", "sa"])
def test_a_successor_that_is_no_pair_leaves_the_relation(kind):
    # a successor that is not a pair of states is named as leaving the
    # relation, and its structure's projections are not checked
    if kind == "mealy":
        src, dst, rel, _ = spans_of_u_into_w()
        step = lambda ref: MealySuccessors(("i", "j"), (("o", ("u", "w")), ("o", ref)))  # noqa: E731
    else:
        src = SuspensionAutomaton("s", ("a",), ("x",), ("u",), {}, {("u", "x"): "u"})
        dst = SuspensionAutomaton("d", ("a",), ("x",), ("w",), {}, {("w", "x"): "w"})
        rel = Relation(("u",), ("w",), {("u", "w")})
        step = lambda ref: SaSuccessors(("a",), ("x",), (ref,), (("u", "w"),))  # noqa: E731
    for ref in (7, "q", "q10"):
        problem = f"structure of ('u', 'w') leaves the relation at {ref}"
        for style in STYLES:
            assert witness_violations(SimulationWitness(rel, {("u", "w"): step(ref)}, style), src, dst) == [problem]
        if kind == "mealy":
            with pytest.raises(ContractError, match=re.escape(f"witness does not validate: {problem}")):
                hj_to_openmap(SimulationWitness(rel, {("u", "w"): step(ref)}, "hj"), src, dst)


def _witness_violations_reference(w, src, dst):
    """`witness_violations` on projected copies: each pair's structure
    renamed along each projection, then compared with the machines'
    structures by `order_leq`."""
    if w.structure is None:
        return ["witness carries no span structure"]
    problems = []
    for pair in w.relation.ordered_pairs():
        struct = w.structure.get(pair)
        if struct is None:
            problems.append(f"no structure for pair {pair}")
            continue
        csrc = src.successors(pair[0])
        try:
            _same_kind(struct, csrc, "witness_violations")
        except ContractError:
            problems.append(f"structure of {pair} is not a {type(csrc).__name__} over the machines' alphabets")
            continue
        for ref in struct.refs():
            try:
                inside = ref in w.relation
            except TypeError:  # a member is unhashable: no pair of states
                inside = False
            if not inside:
                problems.append(f"structure of {pair} leaves the relation at {ref}")
        try:
            left, right = (map_structure(struct, {r: r[k] for r in struct.refs()}) for k in (0, 1))
        except TypeError:  # the same: no projections
            continue
        if w.style == "openmap":
            if not (order_leq(csrc, left) and order_leq(left, csrc)):
                problems.append(f"left projection not strict at {pair}")
        elif not order_leq(csrc, left):
            problems.append(f"left projection not oplax at {pair}")
        if not order_leq(right, dst.successors(pair[1])):
            problems.append(f"right projection not lax at {pair}")
    return problems


def test_witness_violations_match_the_projected_copies():
    # the joint simulators' witnesses on the first machines of the
    # acceptance corpus and on random automata, each in both styles and
    # with the other side's structure; then every corruption of the span
    # from u into w
    checked = []
    rng = random.Random(33)
    machines = [*mealy_corpus(30), *(random_sa(rng, rng.randint(2, 4)) for _ in range(20))]
    for m in machines:
        for x in m.states:
            for y in m.states:
                joint = joint_simulator(m, x, y)
                if not isinstance(joint, JointSimulator):
                    continue
                lw, rw = joint.left_witness, joint.right_witness
                for w in (lw, rw, SimulationWitness(lw.relation, rw.structure, "hj")):
                    for style in STYLES:
                        checked.append((SimulationWitness(w.relation, w.structure, style), m, joint.machine))
    src, dst, rel, spans = spans_of_u_into_w()
    checked += [(SimulationWitness(rel, span, style), src, dst) for span in spans.values() for style in STYLES]
    results = [(witness_violations(*args), _witness_violations_reference(*args)) for args in checked]
    assert all(got == want for got, want in results)
    assert sum(bool(got) for got, _ in results) > len(results) // 4  # failing witnesses are compared too


def test_hj_to_openmap_refuses_other_witnesses():
    src, dst, rel, spans = spans_of_u_into_w()
    with pytest.raises(ContractError, match="^conversion starts from a hughes-jacobs witness$"):
        hj_to_openmap(SimulationWitness(rel, spans["valid"], "openmap"), src, dst)
    with pytest.raises(ContractError, match=r"^witness does not validate: left projection not oplax at \('u', 'w'\)$"):
        hj_to_openmap(SimulationWitness(rel, spans["empty"], "hj"), src, dst)


def test_hj_to_openmap_refuses_sa():
    C, *_ = sa_pair()
    joint = joint_simulator(C, "2", "3")
    with pytest.raises(ContractError, match="^hj_to_openmap needs a PartialMealyMachine, got SuspensionAutomaton 'C'$"):
        hj_to_openmap(joint.left_witness, C, joint.machine)


# ---------------------------------------------------------------------------
# bulk properties


def test_characterization_on_corpus():
    for m in mealy_corpus(60, seed=31):
        rel = uncertain_bisimilarity(m)
        for x in m.states:
            for y in m.states:
                joint = joint_simulator(m, x, y)
                if (x, y) in rel:
                    assert isinstance(joint, JointSimulator)
                    assert check_simulation(joint.left, m, joint.machine)
                    assert check_simulation(joint.right, m, joint.machine)
                else:
                    assert isinstance(joint, ApartnessWitness)


def test_oplax_images_stay_compatible():
    rng = random.Random(32)
    for _ in range(60):
        h = random_oplax_map(rng)
        src_rel = uncertain_bisimilarity(h.source)
        dst_rel = uncertain_bisimilarity(h.target)
        for x, y in src_rel.pairs:
            assert (h(x), h(y)) in dst_rel
