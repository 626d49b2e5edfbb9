"""Acceptance suite: the pinned guarantees of the library, one test per
criterion.  A summary line per test is printed at the end of the run."""

import itertools
import random
import time

from helpers import (
    conflict_machine,
    fixture_doc,
    fixture_path,
    lax_chain,
    mealy_corpus,
    quadruple,
    random_lax_map,
    random_oplax_map,
    random_sa,
    sa_pair,
)
from references import all_mealy_successors, semantic_oracle_uncertain, stability_check
from test_cli import GOLDEN, load_golden, run_cli
from ubisim import (
    ApartnessWitness,
    JointSimulator,
    MealySuccessors,
    Relation,
    StateMap,
    check_morphism,
    check_simulation,
    disjoint_union,
    eval_semantics,
    find_lax_morphism_from_tree,
    hj_to_openmap,
    in_lifting,
    in_uncertain_lifting,
    inverse_image,
    ioco_compatibility,
    joint_simulator,
    kernel,
    lax_identify,
    order_leq,
    parse,
    relation_is_uncertain_bisimulation,
    render,
    restrict_along,
    uncertain_bisimilarity,
    witness_violations,
)
from ubisim.learning import ObservationTree, node_id
from ubisim.morphisms import Conflict


def test_a01_quadruple_matrix():
    code, out = run_cli(["witness", fixture_path("quadruple.txt"), "p:p0", "r:r0"])
    assert (code, out) == (1, "APART j a b\n")
    code, out = run_cli(["witness", fixture_path("quadruple.txt"), "p:p0", "s:s0"])
    assert (code, out) == (1, "APART j a b\n")
    for pair in (("q:q0", "s:s0"), ("p:p0", "q:q0"), ("q:q0", "r:r0"), ("r:r0", "s:s0")):
        code, out = run_cli(["check", "uncertain", fixture_path("quadruple.txt"), *pair])
        assert (code, out) == (0, "UNCERTAIN-BISIMILAR\n"), pair
    rels = fixture_doc("quadruple.txt").rels()
    p, q, r, s, _ = quadruple()
    assert check_simulation(rels["sim_q_p"].relation, q, p)
    assert check_simulation(rels["sim_q_r"].relation, q, r)
    assert check_simulation(rels["sim_s_r"].relation, s, r)


def test_a02_conflict_tree_gap():
    m = conflict_machine()
    table = {
        ("p", "w"): "o", ("p", "wi"): "a", ("p", "v"): "o", ("p", "vw"): "o",
        ("p", "vv"): "o", ("p", "vvw"): "o", ("p", "vvwi"): "b", ("p", "vwi"): None,
        ("q", "w"): "o", ("q", "wi"): None, ("q", "v"): "o", ("q", "vw"): "o",
        ("q", "vv"): None, ("q", "vvw"): None, ("q", "vvwi"): None, ("q", "vwi"): "b",
    }
    for (state, word), expected in table.items():
        assert eval_semantics(m, state, tuple(word)) == expected, (state, word)

    rel = uncertain_bisimilarity(m)
    assert ("p", "q") in rel

    from ubisim import apartness_witness
    w = apartness_witness(m, "x", "z")
    assert (w.word, w.left_output, w.right_output) == (("i",), "a", "b")

    conflict = lax_identify(m, "p", "q")
    assert isinstance(conflict, Conflict)
    merged = [(s.left, s.right) for s in conflict.merges]
    assert merged.index(("x", "y")) < merged.index(("y", "z"))
    assert (conflict.input, conflict.left_output, conflict.right_output) == ("i", "a", "b")

    joint = joint_simulator(m, "p", "q")
    assert isinstance(joint, JointSimulator)
    assert check_simulation(joint.left, m, joint.machine)
    assert check_simulation(joint.right, m, joint.machine)
    assert witness_violations(joint.left_witness, m, joint.machine) == []
    assert witness_violations(joint.right_witness, m, joint.machine) == []
    # compatible and jointly simulated, yet not identifiable by any lax
    # map: the one-way implication is strict


def test_a03_functional_simulations():
    T, T2, B, g, h, _ = lax_chain()
    assert check_morphism(g, "lax").ok
    assert check_morphism(h, "lax").ok
    g_strict = {(v.state, v.symbol) for v in check_morphism(g, "strict").violations}
    assert g_strict == {("q0", "j")}
    h_strict = {v.state for v in check_morphism(h, "strict").violations}
    assert h_strict == {"p2"}

    tree = ObservationTree.empty(("i", "j"), ("o",)).record(("i",), ("o",))
    found = find_lax_morphism_from_tree(tree, T2, "p0")
    assert isinstance(found, StateMap)
    assert found.mapping == {node_id(()): "p0", node_id(("i",)): "p1"}


def test_a04_suspension_morphism():
    C, D, h = sa_pair()
    assert check_morphism(h, "lax").ok
    oplax = {(v.state, v.side, v.symbol) for v in check_morphism(h, "oplax").violations}
    assert ("5", "in", "a") in oplax
    strict = {(v.state, v.side, v.symbol) for v in check_morphism(h, "strict").violations}
    assert ("4", "out", "x") in strict

    union, (rc, rd) = disjoint_union(C, D)
    compat = ioco_compatibility(union)
    for x1, x2 in kernel(h).pairs:
        assert (rc[x1], rc[x2]) in compat


def test_a05_lifting_vectors():
    def undef():
        return MealySuccessors.make(("i",), {})

    def over(ref):
        return MealySuccessors.make(("i",), {"i": ("o", ref)})

    S = Relation.square(("x", "y"), {("x", "y")})
    f = {"x": "x"}
    pulled = inverse_image(f, S)
    over_x = [undef(), over("x")]
    over_y = [undef(), over("x"), over("y")]

    def members(member, rel, structs):
        return {
            (i, j)
            for i, t in enumerate(structs)
            for j, s in enumerate(structs)
            if member(rel, t, s)
        }

    # {(?,?)}
    assert members(in_lifting, pulled, over_x) == {(0, 0)}
    assert members(in_uncertain_lifting, pulled, over_x) == {(0, 0)}
    # {(?,?), (x,y)}
    assert members(in_lifting, S, over_y) == {(0, 0), (1, 2)}
    # {(?,?), (x,y), (?,y), (x,?)}
    assert members(in_uncertain_lifting, S, over_y) == {(0, 0), (1, 2), (0, 2), (1, 0)}
    # inverse image {(?,?), (x,?)}
    from ubisim import map_structure
    assert {
        (i, j)
        for i, t in enumerate(over_x)
        for j, s in enumerate(over_x)
        if in_uncertain_lifting(S, map_structure(t, f), map_structure(s, f))
    } == {(0, 0), (1, 0)}

    violation = stability_check(f, S, variant="mealy", inputs=("i",), outputs=("o",), report=True)
    assert violation == (over("x"), undef())
    assert stability_check(
        f, S.reflexive_closure(), variant="mealy", inputs=("i",), outputs=("o",)
    )


def test_a06_oracle_equivalence_500():
    start = time.time()
    for m in mealy_corpus(500):
        rel = uncertain_bisimilarity(m)
        for x in m.states:
            for y in m.states:
                assert semantic_oracle_uncertain(m, x, y) == ((x, y) in rel), (m, x, y)
    assert time.time() - start < 60


def test_a07_joint_simulator_characterization():
    for m in mealy_corpus(500):
        rel = uncertain_bisimilarity(m)
        for x in m.states:
            for y in m.states:
                joint = joint_simulator(m, x, y)
                if (x, y) not in rel:
                    assert isinstance(joint, ApartnessWitness)
                    continue
                assert isinstance(joint, JointSimulator)
                for side in (joint.left, joint.right):
                    assert check_simulation(side, m, joint.machine)
                for w in (joint.left_witness, joint.right_witness):
                    assert witness_violations(w, m, joint.machine) == []
                    om = hj_to_openmap(w, m, joint.machine)
                    assert om.style == "openmap"
                    assert witness_violations(om, m, joint.machine) == []


def test_a08_morphism_properties_500():
    rng = random.Random(20250808)
    for _ in range(500):
        h = random_lax_map(rng)
        assert check_morphism(h, "lax").ok
        ker = kernel(h)
        assert relation_is_uncertain_bisimulation(h.source, ker)
        pulled = inverse_image(dict(h.mapping), uncertain_bisimilarity(h.target))
        assert relation_is_uncertain_bisimulation(h.source, pulled)
    for _ in range(500):
        h = random_oplax_map(rng)
        assert check_morphism(h, "oplax").ok
        src_rel = uncertain_bisimilarity(h.source)
        dst_rel = uncertain_bisimilarity(h.target)
        for x, y in src_rel.pairs:
            assert (h(x), h(y)) in dst_rel
        restricted = restrict_along(h)
        assert check_morphism(StateMap(restricted, h.target, h.mapping), "strict").ok
        for s in h.source.states:
            assert order_leq(restricted.successors(s), h.source.successors(s))


def test_a09_relation_laws():
    # reflexivity and symmetry on every generated system
    for m in mealy_corpus(120, seed=99):
        rel = uncertain_bisimilarity(m)
        assert rel.is_reflexive() and rel.is_symmetric()
    rng = random.Random(100)
    for _ in range(120):
        a = random_sa(rng, rng.randint(2, 5))
        rel = ioco_compatibility(a)
        assert rel.is_reflexive() and rel.is_symmetric()

    # the pinned non-transitive triples
    *_, union = quadruple()
    rel = uncertain_bisimilarity(union)
    assert ("p.p0", "q.q0") in rel and ("q.q0", "s.s0") in rel
    assert ("p.p0", "s.s0") not in rel
    a = fixture_doc("nontransitive_sa.txt").machines()["n"]
    compat = ioco_compatibility(a)
    assert ("s1", "s0") in compat and ("s0", "s2") in compat
    assert ("s1", "s2") not in compat

    # lifting laws, exhaustively over small carriers and alphabets; at the
    # largest size the relation space is sampled (structure pairs always
    # exhaustive)
    def relations(carrier, sample):
        pairs = [(x, y) for x in carrier for y in carrier]
        if sample is None:
            for bits in itertools.product([0, 1], repeat=len(pairs)):
                yield Relation.square(carrier, {p for p, b in zip(pairs, bits) if b})
            return
        local = random.Random(7)
        yield Relation.square(carrier, set())
        yield Relation.identity(carrier)
        yield Relation.total(carrier)
        for p in pairs:
            yield Relation.square(carrier, {p})
        for _ in range(sample):
            yield Relation.square(carrier, {p for p in pairs if local.random() < 0.4})

    cases = [
        (("u", "v"), ("i", "j"), ("a", "b"), None),
        (("u", "v", "w"), ("i",), ("a", "b"), None),
        (("u", "v", "w"), ("i", "j"), ("a", "b"), 10),
    ]
    for carrier, inputs, outputs, sample in cases:
        structs = all_mealy_successors(inputs, outputs, carrier)
        pairs_all = [(x, y) for x in carrier for y in carrier]
        for member in (in_lifting, in_uncertain_lifting):
            for rel in relations(carrier, sample):
                current = {
                    (i, j)
                    for i, t in enumerate(structs)
                    for j, s in enumerate(structs)
                    if member(rel, t, s)
                }
                for extra in pairs_all:
                    if extra in rel:
                        continue
                    bigger = Relation.square(carrier, rel.pairs | {extra})
                    grown = {
                        (i, j)
                        for i, t in enumerate(structs)
                        for j, s in enumerate(structs)
                        if member(bigger, t, s)
                    }
                    assert current <= grown
                converse = rel.converse()
                conv = {
                    (i, j)
                    for i, t in enumerate(structs)
                    for j, s in enumerate(structs)
                    if member(converse, t, s)
                }
                assert conv == {(j, i) for i, j in current}
            eq = Relation.identity(carrier)
            for t in structs:
                assert member(eq, t, t)


def test_a10_cli_contract():
    for path in sorted(GOLDEN.glob("*.txt")):
        argv, expected_code, expected_out = load_golden(path)
        code, out = run_cli(argv)
        assert (code, out) == (expected_code, expected_out), path.name
    for name in ("quadruple", "conflict_tree", "lax_chain", "sa_morphism", "nontransitive_sa"):
        doc = fixture_doc(f"{name}.txt")
        text = render(doc)
        assert parse(text) == doc
        assert render(parse(text)) == text
