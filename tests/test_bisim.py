import random
from functools import reduce
from operator import or_

import pytest

import ubisim.bisim
from helpers import (
    conflict_machine,
    fixture_doc,
    ioco_compatible_search,
    lax_chain,
    mealy_chain,
    mealy_corpus,
    mealy_cycle,
    quadruple,
    random_partial_mealy,
    random_sa,
    random_total_mealy,
    sa_cycle,
    sa_pair,
    words_up_to,
)
from ubisim import (
    ApartnessWitness,
    ObservationTree,
    PartialMealyMachine,
    Relation,
    SuspensionAutomaton,
    Teacher,
    ValidationError,
    apartness_witness,
    bisimilarity,
    disjoint_union,
    eval_semantics,
    ioco_compatibility,
    relation_is_ioco_compatibility,
    relation_is_uncertain_bisimulation,
    uncertain_bisimilarity,
)
from references import _shrink_rounds, semantic_oracle_uncertain
from ubisim.lifting import _refuses

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
    with pytest.raises(ValidationError, match="^an apartness witness needs a non-empty word$"):
        ApartnessWitness((), "a", "b")
    with pytest.raises(ValidationError, match="^an apartness witness needs differing outputs$"):
        ApartnessWitness(("i",), "a", "a")


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
    with caplog.at_level("INFO", logger="references"):
        semantic_oracle_uncertain(m, "p", "q", budget=0)
    assert any("lifting's greatest fixpoint" in rec.message for rec in caplog.records)


def test_oracle_matches_fixpoint_on_corpus():
    for m in mealy_corpus(100, seed=5):
        rel = uncertain_bisimilarity(m)
        for x in m.states:
            for y in m.states:
                assert semantic_oracle_uncertain(m, x, y) == ((x, y) in rel)


def test_oracle_is_independent_of_the_engine(monkeypatch, caplog):
    # with the engine's propagation and the product search broken, the
    # oracle still gives the engine's answer, by words or by the lifting
    corpus = [(m, uncertain_bisimilarity(m)) for m in mealy_corpus(500)]

    def broken(*args):
        raise AssertionError("the oracle ran the code it checks")

    monkeypatch.setattr(ubisim.bisim, "apartness_witness", broken)
    monkeypatch.setattr(ubisim.bisim, "_dead_pairs", broken)
    with caplog.at_level("INFO", logger="references"):
        for m, rel in corpus:
            for x in m.states:
                for y in m.states:
                    assert semantic_oracle_uncertain(m, x, y) == ((x, y) in rel), (m, x, y)
    assert caplog.records  # some pairs were past the word budget


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


def full_round_classes(m):
    """Bisimilarity's classes by whole rounds, on names rather than
    positions: first the states' outputs per input (None where undefined),
    then each round splits every class by its members' successor classes,
    until no class splits."""

    def number(keys):
        ids = {}
        return {x: ids.setdefault(key, len(ids)) for x, key in keys.items()}

    cls = number({x: tuple(m.delta.get((x, i), (None,))[0] for i in m.inputs) for x in m.states})
    steps = {x: [m.delta.get((x, i), (None, None))[1] for i in m.inputs] for x in m.states}
    while True:
        new = number({x: (cls[x], *map(cls.get, steps[x])) for x in m.states})
        if len(set(new.values())) == len(set(cls.values())):
            return new
        cls = new


def propagated_pairs(m):
    """Bisimilarity's pairs by the backward least-fixpoint engine, an
    algorithm apart from refinement: seeded by the pairs whose outputs per
    input (None where undefined) differ, a pair dies when an input leads
    both its states to a dead pair."""
    n = len(m.states)
    succ, out = m.tables()
    dead = ubisim.bisim._dead_pairs(n, succ, ubisim.bisim._differing(list(zip(*out)) or [()] * n))
    return {(x, y) for a, x in enumerate(m.states) for b, y in enumerate(m.states) if not dead[a] >> b & 1}


def glued(rng, n, k, inputs=3):
    """A random machine of n states glued to a chain of k: the first whole
    rounds split many classes, then each splits one class of the chain, so
    the refinement runs on for about k rounds after the random part is
    settled."""
    part = random_partial_mealy(rng, n, inputs, 1, density=0.7, name="r")
    return disjoint_union(part, mealy_chain(k, inputs))[0]


def test_bisimilarity_matches_full_rounds_at_scale():
    # past the rounds oracle's reach: chains and cycles, which split one
    # class per round, random partial machines, and random machines glued
    # to chains; checked against refinement on names and against the
    # propagation engine, which shares no code with the refinement
    rng = random.Random(1971)
    machines = []
    for n in (400, 800):
        machines += [mealy_chain(n), mealy_cycle(n), random_partial_mealy(rng, n, 3, 2, density=0.7)]
    machines += [glued(rng, n, k) for n, k in ((150, 50), (250, 120), (400, 200))]
    for m in machines:
        cls = full_round_classes(m)
        pairs = {(x, y) for x in m.states for y in m.states if cls[x] == cls[y]}
        assert bisimilarity(m).pairs == pairs, (m.name, len(m.states))
        assert propagated_pairs(m) == pairs, (m.name, len(m.states))


def test_bisimilarity_is_an_equivalence_inside_uncertain_bisimilarity():
    # every bisimilar pair is an uncertain bisimilar pair
    for m in mealy_corpus(500):
        pairs = bisimilarity(m).pairs
        assert {(x, x) for x in m.states} <= pairs
        assert {(y, x) for x, y in pairs} == pairs
        assert {(x, z) for x, y in pairs for w, z in pairs if y == w} <= pairs
        assert pairs <= uncertain_bisimilarity(m).pairs


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


def test_ioco_relation_check_matches_the_clauses():
    # random relations, some with carriers that leave out states a pair
    # steps to, against `ioco_violates`'s clauses read off the definition
    rng = random.Random(2026)
    verdicts = set()
    for k in range(300):
        alphabets = {} if k % 2 else {"inputs": ("a", "b"), "outputs": ("u", "v", "w")}
        a = random_sa(rng, rng.randint(1, 6), **alphabets)
        if k % 3:
            left = right = a.states
        else:
            left, right = (rng.sample(a.states, rng.randint(1, len(a.states))) for _ in range(2))
        compatible = ioco_compatibility(a)
        keep = rng.choice((0.3, 0.7, 0.95))
        pairs = {(x, y) for x in left for y in right
                 if ((x, y) in compatible) == (rng.random() < keep)}
        rel = Relation(left, right, pairs)
        expected = not any(ioco_violates(a)(x, y, rel) for x, y in pairs)
        assert relation_is_ioco_compatibility(a, rel) == expected, (a, rel)
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_ioco_rounds_cascade():
    # (1, 4) shares output x with successors (2, 6), so it survives the
    # first round; once (2, 6) is removed for lacking common outputs, the
    # second round takes (1, 4) with it
    C, _, _ = sa_pair()
    rounds = list(_shrink_rounds(C.states, ioco_violates(C)))
    assert ("2", "6") in rounds[0] and ("2", "6") not in rounds[1]
    assert ("1", "4") in rounds[1] and ("1", "4") not in rounds[2]
    assert rounds[-1] == ioco_compatibility(C).pairs


def test_ioco_is_uncertain_bisimilarity_on_suspension_automata():
    # the paper's instantiation: ioco compatibility is the greatest fixpoint
    # of the uncertain lifting of suspension structures, and an uncertain
    # bisimulation; the references above restate the ioco clauses instead
    rng = random.Random(2023)
    for k in range(200):
        alphabets = {} if k % 2 else {"inputs": ("a", "b"), "outputs": ("u", "v", "w")}
        a = random_sa(rng, rng.randint(1, 7), **alphabets)
        compatible = ioco_compatibility(a)
        # `_refuses` takes the violation from `_uncertain_linked` on a's successors
        assert compatible.pairs == rounds_fixpoint(a.states, _refuses(a)), a
        assert relation_is_uncertain_bisimulation(a, compatible), a


def test_ioco_relation_without_partners_is_no_uncertain_bisimulation():
    # x moves on input a to z and y does not: the ioco clause asks nothing
    # of z, the uncertain lifting asks z for a partner
    a = SuspensionAutomaton("t", ("a",), ("o",), ("x", "y", "z"), {("x", "a"): "z"},
                            {(s, "o"): s for s in ("x", "y", "z")})
    one_sided = Relation.square(a.states, {("x", "y")})
    assert relation_is_ioco_compatibility(a, one_sided)
    assert not relation_is_uncertain_bisimulation(a, one_sided)
    partnered = Relation.square(a.states, {("x", "y"), ("z", "z")})
    assert relation_is_ioco_compatibility(a, partnered)
    assert relation_is_uncertain_bisimulation(a, partnered)


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
    rng = random.Random(6502)
    # more than 64 states: each row of dead pairs is wider than a machine word
    wide = [
        random_partial_mealy(rng, n, inputs, 3, density=density)
        for n in (65, 90)
        for inputs in (2, 3)
        for density in (0.3, 0.9)
    ]
    # from sparse to dense, up to 200 states, with 1 to 3 inputs and outputs
    wide += [
        random_partial_mealy(rng, n, rng.randint(1, 3), rng.randint(1, 3), density=density)
        for n, density in ((65, 0.1), (80, 0.3), (100, 0.5), (150, 0.7), (200, 0.9), (200, 0.4))
    ]
    # chains and cycles split one class per refinement round; glued to a
    # random machine, a chain keeps refining after the random part settles
    chains = [mealy_chain(n, inputs) for n in (1, 2, 5, 50) for inputs in (1, 2)]
    chains.append(glued(rng, 150, 50, inputs=2))
    machines = list(mealy_corpus(200)) + wide + chains + [
        mealy_cycle(1),
        mealy_cycle(2),
        mealy_cycle(30),
        mealy_cycle(60),
        mealy_cycle(70),
        mealy_cycle(90),
        PartialMealyMachine("one", ("a", "b"), ("x",), ("s",), {("s", "a"): ("x", "s")}),
        PartialMealyMachine("none", ("a", "b"), ("x", "y"), ("s0", "s1", "s2"), {}),
        PartialMealyMachine("no_inputs", (), ("x",), ("s0", "s1", "s2"), {}),
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
    # more than 64 states: each row of dead pairs is wider than a machine word
    automata += [
        random_sa(rng, 70, inputs=("a", "b"), outputs=("u", "v", "w")),
        random_sa(rng, 90, in_density=0.2, out_density=0.3),
        sa_cycle(70),
    ]
    for a in automata:
        assert ioco_compatibility(a).pairs == rounds_fixpoint(a.states, ioco_violates(a))


def block_edge_machines(rng, n):
    """A partial Mealy machine and a suspension automaton of n random
    states, in which state 0 steps to the last state on input a, and the
    last state steps nowhere on input b (or a, in the automaton)."""
    m = random_partial_mealy(rng, n, 2, 3, density=0.9)
    a = random_sa(rng, n, outputs=("u", "v", "w"), in_density=0.5, out_density=0.1)
    if not n:
        return m, a
    first, last = m.states[0], m.states[-1]
    delta = {**m.delta, (first, "a"): ("x", last)}
    delta.pop((last, "b"), None)
    din = {**a.din, (first, "a"): last}
    if n > 1:
        din.pop((last, "a"), None)
    return (
        PartialMealyMachine(m.name, m.inputs, m.outputs, m.states, delta),
        SuspensionAutomaton(a.name, a.inputs, a.outputs, a.states, din, a.dout),
    )


def test_engine_matches_rounds_at_the_block_edges():
    # the engine gathers pre-images in blocks of 255 states, and a table
    # entry of 255 stands for no successor in the block: partial machines
    # on either side of one and two blocks, whose last state (255 or more
    # from 256 states on) is reached, against the round-based fixpoint
    rng = random.Random(255)
    for n in (0, 1, 254, 255, 256, 510, 511):
        m, a = block_edge_machines(rng, n)
        for labels in (m.tables()[0], [*a.tables()[0], *a.tables()[1]]):
            steps = [d for succ in labels for d in succ]
            assert n == 0 or -1 in steps and n - 1 in steps
        assert uncertain_bisimilarity(m).pairs == rounds_fixpoint(m.states, uncertain_violates(m)), n
        assert ioco_compatibility(a).pairs == rounds_fixpoint(a.states, ioco_violates(a)), n


def test_cycles_need_n_rounds():
    # the cycles above are the round engine's worst case: the full product,
    # then n - 1 rounds that each remove pairs
    for n in (30, 60):
        m, a = mealy_cycle(n), sa_cycle(n)
        assert len(list(_shrink_rounds(m.states, uncertain_violates(m)))) == n
        assert len(list(_shrink_rounds(a.states, ioco_violates(a)))) == n


def test_bisimilarity_seeded_by_defined_inputs_only():
    # one output, so no two states conflict: every seed of bisimilarity is
    # a pair whose sets of defined inputs differ
    m = random_partial_mealy(random.Random(8088), 80, 3, 1, density=0.6)
    assert len(uncertain_bisimilarity(m)) == 80 * 80
    same_inputs = {
        (x, y)
        for x in m.states
        for y in m.states
        if all(((x, i) in m.delta) == ((y, i) in m.delta) for i in m.inputs)
    }
    rel = bisimilarity(m)
    assert rel.pairs == rounds_fixpoint(m.states, bisimilarity_violates(m))
    assert Relation.identity(m.states).pairs < rel.pairs < same_inputs


# ---------------------------------------------------------------------------
# the propagation kernel's precondition, and its depth-first post-order


def kernel_labels():
    """(name, n, successor arrays) of Mealy machines, per input, and of
    automata, per input and per output, of 20 to 200 states: rows narrower
    and wider than a 64-bit machine word.  One machine has an input defined
    nowhere, and one has no inputs, so no label at all."""
    rng = random.Random(3030)
    states = tuple(f"s{k}" for k in range(20))
    machines = [
        random_partial_mealy(rng, n, 3, 2, density=density)
        for n, density in ((20, 0.5), (63, 0.9), (64, 0.7), (65, 0.3), (130, 0.7), (200, 1.0))
    ]
    machines += [
        mealy_chain(100, 2),
        mealy_cycle(70),
        PartialMealyMachine(
            "nowhere", ("a", "b"), ("x",), states, {(s, "a"): ("x", states[k // 2]) for k, s in enumerate(states)}
        ),
        PartialMealyMachine("no_inputs", (), ("x",), states, {}),
    ]
    for m in machines:
        yield m.name, len(m.states), m.tables()[0]
    automata = [random_sa(rng, n, inputs=("a", "b"), outputs=("u", "v", "w")) for n in (20, 64, 65, 200)]
    automata += [random_sa(rng, 120, in_density=0.9, out_density=0.9), sa_cycle(90)]
    for a in automata:
        ins, outs = a.tables()
        yield a.name, len(a.states), [*ins, *outs]


def block_edge_labels():
    """(name, n, [successor array]) of random partial labels at the edges
    of the engine's blocks of 255 states, each with undefined successors
    and with its last state reached."""
    rng = random.Random(3032)
    for n in (254, 255, 256, 510, 511):
        succ = [rng.randrange(n) if rng.random() < 0.7 else -1 for _ in range(n)]
        succ[0], succ[-1] = n - 1, -1
        yield f"edge{n}", n, [succ]


def decode(n, tables):
    """The successor array that a label's block tables hold."""
    succ = [-1] * n
    for block, table in enumerate(tables):
        assert len(table) == n
        for k, entry in enumerate(table):
            if entry != 255:
                assert succ[n - 1 - k] == -1  # one block per successor
                succ[n - 1 - k] = 255 * block + entry
    return succ


def test_predecessor_rows_are_disjoint():
    # `_dead_pairs` takes a label's pre-image of a row D as one gather per
    # block of 255 states through the label's successor tables and sums
    # them, which is sound because each state steps to at most one state
    # on a label: the blocks' rows share no bit and their sum is their OR
    rng = random.Random(3031)
    seen_nowhere = seen_no_inputs = False
    for name, n, labels in [*kernel_labels(), *block_edge_labels()]:
        seen_no_inputs |= not labels
        for succ in labels:
            pred, tables, defined = ubisim.bisim._predecessors(n, succ)
            assert len(tables) == -(-n // 255) and decode(n, tables) == succ, name
            for b in range(n):
                assert pred[b] == [x for x, d in enumerate(succ) if d == b], name
            assert defined == sum(1 << x for x, d in enumerate(succ) if d >= 0), name
            for _ in range(5):
                delta = rng.getrandbits(n)
                flags = bin(delta)[:1:-1].encode()
                rows = [
                    int(table.translate(flags[j : j + 255].ljust(256, b"0")), 2)
                    for j, table in zip(range(0, n, 255), tables)
                ]
                assert sum(rows) == reduce(or_, rows, 0), name
                assert sum(rows) == sum(1 << x for x, d in enumerate(succ) if d >= 0 and delta >> d & 1), name
            if not defined:
                seen_nowhere = True
                assert pred == [[]] * n, name
    assert seen_nowhere and seen_no_inputs
    # with no label the engine propagates nothing: the dead pairs are the seeds
    seeds = [rng.getrandbits(20) for _ in range(20)]
    assert ubisim.bisim._dead_pairs(20, [], seeds) == seeds


def observation_tree_machines():
    """Trees of 20 to a few hundred nodes, as machines: acyclic, with
    gaps where a node has no child on an input."""
    rng = random.Random(3033)
    for size, queries, length in ((5, 14, 4), (30, 50, 6), (60, 150, 8)):
        hidden = random_total_mealy(rng, size, 3, 2)
        teacher, tree = Teacher(hidden, hidden.states[0]), ObservationTree.empty(hidden.inputs, hidden.outputs)
        for _ in range(queries):
            word = [rng.choice(hidden.inputs) for _ in range(rng.randint(1, length))]
            tree = tree.record(word, teacher.output_query(word))
        yield tree.as_machine()


def test_post_order_is_a_post_order():
    # a permutation of the states on every successor graph; on an acyclic
    # one, each state comes after its successors, and so after every
    # state it reaches
    for name, n, labels in kernel_labels():
        assert sorted(ubisim.bisim._post_order(n, labels)) == list(range(n)), name
    trees = list(observation_tree_machines())
    assert 20 <= len(trees[0].states) and len(trees[-1].states) >= 200
    acyclic = [mealy_chain(n, inputs) for n in (1, 2, 50, 130) for inputs in (1, 3)]
    for m in [*acyclic, conflict_machine(), *trees]:
        n, succ = len(m.states), m.tables()[0]
        order = ubisim.bisim._post_order(n, succ)
        assert sorted(order) == list(range(n)), m.name
        position = {x: k for k, x in enumerate(order)}
        for x in range(n):
            for step in succ:
                assert step[x] < 0 or position[step[x]] < position[x], (m.name, x)
    # with no labels nothing is reached, and the order is the states' own
    for n in (0, 1, 20, 65):
        assert ubisim.bisim._post_order(n, []) == list(range(n))
    assert ubisim.bisim._post_order(0, [[], []]) == []
