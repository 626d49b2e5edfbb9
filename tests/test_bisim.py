import random

from helpers import (
    conflict_machine,
    fixture_doc,
    ioco_compatible_search,
    lax_chain,
    mealy_corpus,
    mealy_cycle,
    quadruple,
    random_sa,
    sa_cycle,
    sa_pair,
    words_up_to,
)
from ubisim import (
    PartialMealyMachine,
    Relation,
    SuspensionAutomaton,
    apartness_witness,
    bisimilarity,
    disjoint_union,
    eval_semantics,
    ioco_compatibility,
    relation_is_ioco_compatibility,
    relation_is_uncertain_bisimulation,
    semantic_oracle_uncertain,
    uncertain_bisimilarity,
)
from ubisim.bisim import _shrink_rounds

# ---------------------------------------------------------------------------
# the defining clauses, restated for the round-based fixpoint: each says
# whether pair (x, y) violates its relation's clause against `current`


def uncertain_violates(m):
    def violates(x, y, current):
        for i in m.inputs:
            dx, dy = m.delta.get((x, i)), m.delta.get((y, i))
            if dx and dy and (dx[0] != dy[0] or (dx[1], dy[1]) not in current):
                return True
        return False

    return violates


def bisimilarity_violates(m):
    def violates(x, y, current):
        for i in m.inputs:
            dx, dy = m.delta.get((x, i)), m.delta.get((y, i))
            if (dx is None) != (dy is None):
                return True
            if dx and (dx[0] != dy[0] or (dx[1], dy[1]) not in current):
                return True
        return False

    return violates


def ioco_violates(a):
    def violates(x, y, current):
        for i in a.inputs:
            dx, dy = a.din.get((x, i)), a.din.get((y, i))
            if dx is not None and dy is not None and (dx, dy) not in current:
                return True
        return not any(
            (x, o) in a.dout and (y, o) in a.dout and (a.dout[(x, o)], a.dout[(y, o)]) in current
            for o in a.outputs
        )

    return violates


def rounds_fixpoint(states, violates):
    *_, final = _shrink_rounds(states, violates)
    return final


# ---------------------------------------------------------------------------
# uncertain bisimilarity on the pinned machines


def test_quadruple_matrix():
    *_, union = quadruple()
    rel = uncertain_bisimilarity(union)
    assert ("q.q0", "s.s0") in rel
    assert ("p.p0", "q.q0") in rel
    assert ("q.q0", "r.r0") in rel
    assert ("r.r0", "s.s0") in rel
    assert ("p.p0", "s.s0") not in rel
    assert ("p.p0", "r.r0") not in rel


def test_conflict_machine_compatibility():
    m = conflict_machine()
    rel = uncertain_bisimilarity(m)
    assert ("p", "q") in rel
    assert ("x", "z") not in rel


def test_reflexive_on_every_machine():
    for m in [conflict_machine(), quadruple()[4], lax_chain()[2]]:
        rel = uncertain_bisimilarity(m)
        assert Relation.identity(m.states).pairs <= rel.pairs
        assert rel.is_symmetric()


def test_non_transitivity_triple():
    *_, union = quadruple()
    rel = uncertain_bisimilarity(union)
    assert ("p.p0", "q.q0") in rel
    assert ("q.q0", "s.s0") in rel
    assert ("p.p0", "s.s0") not in rel


def test_rounds_shrink_monotonically():
    *_, union = quadruple()
    rounds = list(_shrink_rounds(union.states, uncertain_violates(union)))
    assert len(rounds) >= 2
    for earlier, later in zip(rounds, rounds[1:]):
        assert later < earlier
    assert rounds[-1] == uncertain_bisimilarity(union).pairs


# ---------------------------------------------------------------------------
# apartness witnesses


def test_witness_examples():
    *_, union = quadruple()
    w = apartness_witness(union, "p.p0", "r.r0")
    assert (w.word, w.left_output, w.right_output) == (("j",), "a", "b")
    m = conflict_machine()
    w = apartness_witness(m, "x", "z")
    assert (w.word, w.left_output, w.right_output) == (("i",), "a", "b")
    assert apartness_witness(m, "p", "p") is None


def test_witness_agrees_with_relation():
    for m in [conflict_machine(), quadruple()[4]]:
        rel = uncertain_bisimilarity(m)
        for x in m.states:
            for y in m.states:
                assert (apartness_witness(m, x, y) is None) == ((x, y) in rel)


def test_witness_outputs_are_real():
    for m in [conflict_machine(), quadruple()[4]]:
        for x in m.states:
            for y in m.states:
                w = apartness_witness(m, x, y)
                if w is not None:
                    assert eval_semantics(m, x, w.word) == w.left_output
                    assert eval_semantics(m, y, w.word) == w.right_output


def test_witness_minimality():
    for m in [conflict_machine(), quadruple()[4]]:
        for x in m.states:
            for y in m.states:
                w = apartness_witness(m, x, y)
                if w is None:
                    continue
                for word in words_up_to(m.inputs, len(w.word) - 1):
                    ox, oy = eval_semantics(m, x, word), eval_semantics(m, y, word)
                    assert ox is None or oy is None or ox == oy


# ---------------------------------------------------------------------------
# the semantic oracle


def test_oracle_examples():
    m = conflict_machine()
    assert semantic_oracle_uncertain(m, "p", "q")
    assert not semantic_oracle_uncertain(m, "x", "z")
    assert semantic_oracle_uncertain(m, "x", "x")
    *_, union = quadruple()
    assert semantic_oracle_uncertain(union, "q.q0", "s.s0")


def test_oracle_both_paths_agree():
    _, q, _, s, _ = quadruple()
    union, _ = disjoint_union(q, s)
    for x in union.states:
        for y in union.states:
            by_words = semantic_oracle_uncertain(union, x, y, budget=10**9)
            by_graph = semantic_oracle_uncertain(union, x, y, budget=0)
            assert by_words == by_graph


def test_oracle_fallback_logs(caplog):
    m = conflict_machine()
    with caplog.at_level("INFO", logger="ubisim.bisim"):
        semantic_oracle_uncertain(m, "p", "q", budget=0)
    assert any("reachability" in rec.message for rec in caplog.records)


def test_oracle_matches_fixpoint_on_corpus():
    for m in mealy_corpus(100, seed=5):
        rel = uncertain_bisimilarity(m)
        for x in m.states:
            for y in m.states:
                assert semantic_oracle_uncertain(m, x, y) == ((x, y) in rel)


# ---------------------------------------------------------------------------
# ordinary bisimilarity


def test_bisimilarity_on_chain():
    T, T2, B, *_ = lax_chain()
    union, _ = disjoint_union(T, T2, B)
    rel = bisimilarity(union)
    leaves = ["T.q1", "T'.p1", "T'.p2", "B.r1"]
    for a in leaves:
        for b in leaves:
            assert (a, b) in rel
    assert ("T.q0", "T'.p0") not in rel
    assert ("T.q0", "B.r0") not in rel
    assert ("T'.p0", "B.r0") not in rel
    assert Relation.identity(union.states).pairs <= rel.pairs


def test_bisimilarity_refines_uncertain():
    for m in list(mealy_corpus(50, seed=6)) + [conflict_machine(), quadruple()[4]]:
        assert bisimilarity(m).pairs <= uncertain_bisimilarity(m).pairs


# ---------------------------------------------------------------------------
# checking externally supplied relations


def test_relation_check_examples():
    *_, union = quadruple()
    assert relation_is_uncertain_bisimulation(union, uncertain_bisimilarity(union))
    assert not relation_is_uncertain_bisimulation(
        union, Relation.square(union.states, {("p.p0", "s.s0")})
    )
    assert relation_is_uncertain_bisimulation(union, Relation.square(union.states, set()))


def test_relation_check_on_corpus():
    for m in mealy_corpus(40, seed=7):
        assert relation_is_uncertain_bisimulation(m, uncertain_bisimilarity(m))


def test_uncertain_result_is_greatest():
    # adding any pair the engine removed breaks the defining clause
    for m in mealy_corpus(25, seed=77):
        rel = uncertain_bisimilarity(m)
        for x in m.states:
            for y in m.states:
                if (x, y) not in rel:
                    grown = Relation.square(m.states, rel.pairs | {(x, y)})
                    assert not relation_is_uncertain_bisimulation(m, grown)


def test_ioco_result_is_greatest():
    rng = random.Random(78)
    for _ in range(25):
        a = random_sa(rng, rng.randint(2, 5))
        rel = ioco_compatibility(a)
        for x in a.states:
            for y in a.states:
                if (x, y) not in rel:
                    grown = Relation.square(a.states, rel.pairs | {(x, y)})
                    assert not relation_is_ioco_compatibility(a, grown)


# ---------------------------------------------------------------------------
# compatibility on suspension automata


def test_ioco_reflexive_symmetric():
    C, D, _ = sa_pair()
    for a in (C, D):
        rel = ioco_compatibility(a)
        assert Relation.identity(a.states).pairs <= rel.pairs
        assert rel.is_symmetric()


def test_ioco_pinned_table():
    C, _, _ = sa_pair()
    rel = ioco_compatibility(C)
    off_diagonal = {p for p in rel.pairs if p[0] != p[1]}
    assert off_diagonal == {("2", "3"), ("3", "2"), ("4", "5"), ("5", "4")}


def test_ioco_matches_search_oracle():
    C, D, _ = sa_pair()
    rng = random.Random(8)
    automata = [C, D] + [random_sa(rng, rng.randint(2, 5)) for _ in range(40)]
    for a in automata:
        rel = ioco_compatibility(a)
        for x in a.states:
            for y in a.states:
                assert ioco_compatible_search(a, x, y) == ((x, y) in rel), (a.name, x, y)


def test_ioco_union_graph_of_map():
    C, D, h = sa_pair()
    union, (rc, rd) = disjoint_union(C, D)
    rel = ioco_compatibility(union)
    for k in C.states:
        assert (rc[k], rd[h(k)]) in rel


def test_ioco_result_passes_recheck():
    C, D, _ = sa_pair()
    rng = random.Random(9)
    for a in [C, D] + [random_sa(rng, rng.randint(2, 5)) for _ in range(20)]:
        assert relation_is_ioco_compatibility(a, ioco_compatibility(a))


def test_ioco_rounds_cascade():
    # (1, 4) shares output x with successors (2, 6), so it survives the
    # first round; once (2, 6) is removed for lacking common outputs, the
    # second round takes (1, 4) with it
    C, _, _ = sa_pair()
    rounds = list(_shrink_rounds(C.states, ioco_violates(C)))
    assert ("2", "6") in rounds[0] and ("2", "6") not in rounds[1]
    assert ("1", "4") in rounds[1] and ("1", "4") not in rounds[2]
    assert rounds[-1] == ioco_compatibility(C).pairs


def test_ioco_non_transitive_regression():
    # frozen result of the seeded random search (see the fixture comment)
    a = fixture_doc("nontransitive_sa.txt").machines()["n"]
    rel = ioco_compatibility(a)
    assert ("s1", "s0") in rel
    assert ("s0", "s2") in rel
    assert ("s1", "s2") not in rel


def test_ioco_non_transitive_search_reproduces():
    rng = random.Random(424242)
    found = None
    for _ in range(500):
        a = random_sa(rng, 3)
        rel = ioco_compatibility(a)
        for x in a.states:
            for y in a.states:
                for z in a.states:
                    if len({x, y, z}) == 3 and (x, y) in rel and (y, z) in rel and (x, z) not in rel:
                        found = (a, x, y, z)
                        break
                if found:
                    break
            if found:
                break
        if found:
            break
    assert found is not None
    a, x, y, z = found
    assert relation_is_ioco_compatibility(a, ioco_compatibility(a))


# ---------------------------------------------------------------------------
# the propagation engine against the round-based fixpoint


def test_engine_matches_rounds_on_mealy():
    machines = list(mealy_corpus(200)) + [
        mealy_cycle(30),
        mealy_cycle(60),
        PartialMealyMachine("one", ("a", "b"), ("x",), ("s",), {("s", "a"): ("x", "s")}),
        PartialMealyMachine("none", ("a", "b"), ("x", "y"), ("s0", "s1", "s2"), {}),
        PartialMealyMachine("empty", ("a",), ("x",), (), {}),
    ]
    for m in machines:
        assert uncertain_bisimilarity(m).pairs == rounds_fixpoint(m.states, uncertain_violates(m))
        assert bisimilarity(m).pairs == rounds_fixpoint(m.states, bisimilarity_violates(m))


def test_engine_matches_rounds_on_sa():
    rng = random.Random(4711)
    automata = [random_sa(rng, rng.randint(1, 6)) for _ in range(100)]
    automata += [
        random_sa(rng, rng.randint(1, 8), inputs=("a", "b"), outputs=("u", "v", "w"))
        for _ in range(100)
    ]
    automata += [
        sa_cycle(30),
        sa_cycle(60),
        SuspensionAutomaton("one", ("a",), ("u",), ("s",), {}, {("s", "u"): "s"}),
    ]
    for a in automata:
        assert ioco_compatibility(a).pairs == rounds_fixpoint(a.states, ioco_violates(a))


def test_cycles_need_n_rounds():
    # the cycles above are the round engine's worst case: the full product,
    # then n - 1 rounds that each remove pairs
    for n in (30, 60):
        m, a = mealy_cycle(n), sa_cycle(n)
        assert len(list(_shrink_rounds(m.states, uncertain_violates(m)))) == n
        assert len(list(_shrink_rounds(a.states, ioco_violates(a)))) == n
