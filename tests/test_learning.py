import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_successors_read_the_tables,
    conflict_machine,
    lax_chain,
    quadruple,
    random_total_mealy,
    totalize,
    words_up_to,
)
from references import semantic_oracle_uncertain
from ubisim import (
    ContractError,
    ObservationConflictError,
    ObservationTree,
    StateMap,
    Teacher,
    TreeConflict,
    ValidationError,
    eval_semantics,
    find_lax_morphism_from_tree,
    lax_identify,
    query_and_record,
    run,
    tree_apartness_frontier,
)
from ubisim.bisim import _mealy_dead
from ubisim.learning import node_id
from ubisim.machines import PartialMealyMachine, distinct_names
from ubisim.morphisms import Conflict


def conflict_tree() -> ObservationTree:
    """An observation tree replicating the conflict machine."""
    tree = ObservationTree.empty(("v", "w", "i"), ("a", "b", "o"))
    tree = tree.record(("w", "i"), ("o", "a"))
    tree = tree.record(("v", "w"), ("o", "o"))
    tree = tree.record(("v", "v", "w", "i"), ("o", "o", "o", "b"))
    return tree


# ---------------------------------------------------------------------------
# teacher


def test_output_query_on_loop_machine():
    *_, B, _, _, _ = lax_chain()
    teacher = Teacher(B, "r0")
    assert teacher.output_query(("j", "j", "i")) == ("o", "o", "o")
    assert teacher.queries == 1


def test_output_query_single_step():
    _, _, r, _, _ = quadruple()
    teacher = Teacher(totalize(r, "a"), "r0")
    assert teacher.output_query(("i",)) == ("a",)


def test_output_query_validation():
    # B: r0 -i/o-> r1, r0 -j/o-> r0, and nothing out of r1
    *_, B, _, _, _ = lax_chain()
    teacher = Teacher(B, "r0")
    for word in (("k",), ("j", "k"), ("k", "i", "i")):
        with pytest.raises(ValidationError, match="^unknown input symbol 'k'$"):
            teacher.output_query(word)
    with pytest.raises(ContractError, match="^output queries need a non-empty word$"):
        teacher.output_query(())
    assert (teacher.queries, teacher.symbols) == (0, 0)
    assert teacher.output_query(("j", "i")) == ("o", "o")
    # a partial hidden machine refuses to answer past its knowledge; a
    # missing transition is reported before an unknown input after it
    for word, message in [
        (("i", "i"), "hidden machine has no transition for 'i' after ['o']"),
        (("i", "j", "k"), "hidden machine has no transition for 'j' after ['o']"),
        (("j", "i", "i", "k"), "hidden machine has no transition for 'i' after ['o', 'o']"),
    ]:
        with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
            teacher.output_query(word)
    assert (teacher.queries, teacher.symbols) == (1, 2)


def test_teacher_counts_queries():
    *_, B, _, _, _ = lax_chain()
    teacher = Teacher(B, "r0")
    for k in range(3):
        teacher.output_query(("j",) * (k + 1))
    assert teacher.queries == 3
    assert teacher.symbols == 1 + 2 + 3


# ---------------------------------------------------------------------------
# recording observations


def test_record_fresh_path():
    tree = ObservationTree.empty(("i", "j"), ("a", "b")).record(("i", "j"), ("a", "b"))
    machine = tree.as_machine()
    assert machine.states == ("ε", "i", "i.j")
    assert machine.delta == {
        ("ε", "i"): ("a", "i"),
        ("i", "j"): ("b", "i.j"),
    }


def test_record_existing_prefix_is_noop():
    tree = ObservationTree.empty(("i", "j"), ("a", "b")).record(("j",), ("b",))
    assert tree.record(("j",), ("b",)) == tree


def test_record_clash():
    tree = ObservationTree.empty(("i", "j"), ("a", "b")).record(("i",), ("a",))
    with pytest.raises(ObservationConflictError) as err:
        tree.record(("i",), ("b",))
    assert err.value.prefix == ("i",)


def test_equal_trees_mean_equal_observations():
    # positions follow the order of recording, `==` does not
    asked = [(("b", "a"), ("y", "x")), (("a",), ("x",)), (("a", "b", "b"), ("x", "x", "y"))]
    empty = ObservationTree.empty(("a", "b"), ("x", "y"))
    forward, backward = empty, empty
    for word, outs in asked:
        forward = forward.record(word, outs)
    for word, outs in reversed(asked):
        backward = backward.record(word, outs)
    assert forward._into != backward._into
    assert forward == backward
    assert forward.words() == backward.words()
    assert forward.as_machine() == backward.as_machine()
    assert forward != forward.record(("b", "b"), ("y", "x"))
    assert forward != empty.record(("b", "a"), ("y", "y"))
    assert forward != ObservationTree.empty(("b", "a"), ("x", "y"))
    assert empty != ObservationTree.empty(("a", "b"), ("x",))
    # a tree equals no other kind of value
    assert not forward == 1 and forward != 1
    assert forward != forward.as_machine()


def test_tree_repr_shows_alphabets_and_observations():
    tree = ObservationTree.empty(("a", "b"), ("x", "y")).record(("b", "a"), ("y", "x"))
    assert repr(tree) == ("ObservationTree(inputs=('a', 'b'), outputs=('x', 'y'), "
                          "edges={((), 'b'): 'y', (('b',), 'a'): 'x'})")


def test_edges_rebuild_from_words():
    rng = random.Random(7)
    hidden = random_total_mealy(rng, 5, 3, 2)
    teacher = Teacher(hidden, hidden.states[0])
    tree = ObservationTree.empty(hidden.inputs, hidden.outputs)
    for _ in range(10):
        word = [rng.choice(hidden.inputs) for _ in range(rng.randint(1, 4))]
        tree = query_and_record(tree, teacher, word)
    rebuilt = {(w[:-1], w[-1]): tree.output_along(w)[-1] for w in tree.words()[1:]}
    assert tree.edges == rebuilt
    assert len(tree.edges) == len(tree.words()) - 1


def test_record_length_mismatch():
    tree = ObservationTree.empty(("i",), ("a",))
    with pytest.raises(ContractError):
        tree.record(("i",), ("a", "a"))


def test_repeated_input_symbol_is_refused():
    with pytest.raises(ValidationError, match="duplicate input symbol: 'a'"):
        ObservationTree.empty(("a", "a"), ("x", "y"))


def test_repeated_output_symbol_is_refused():
    with pytest.raises(ValidationError, match="duplicate output symbol: 'x'"):
        ObservationTree.empty(("a", "b"), ("x", "y", "x"))


def test_unknown_output_symbol_is_refused():
    tree = ObservationTree.empty(("a",), ("x", "y"))
    with pytest.raises(ValidationError, match="unknown output symbol 'z'"):
        tree.record(("a",), ("z",))


@pytest.mark.parametrize(
    "word, outs, message",
    [
        (("k",), ("x",), "unknown input symbol 'k'"),
        (("a", "k", "m"), ("x", "x", "x"), "unknown input symbol 'k'"),  # the first one
        (("a", "a", "a"), ("x", "z", "w"), "unknown output symbol 'z'"),
        (("a", "k"), ("z", "x"), "unknown input symbol 'k'"),  # inputs before outputs
    ],
)
def test_record_names_the_first_unknown_symbol(word, outs, message):
    tree = ObservationTree.empty(("a",), ("x", "y"))
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        tree.record(word, outs)


def test_input_named_like_the_root_gets_a_primed_node():
    # the access word ("ε",) joins to the root's id; the root keeps it
    tree = ObservationTree.empty(("ε", "a"), ("x",)).record(("ε",), ("x",))
    machine = tree.as_machine()
    assert machine.states == ("ε", "ε'")
    assert machine.delta == {("ε", "ε"): ("x", "ε'")}


def test_dotted_inputs_get_unique_node_names():
    # the words ("i.j",) and ("i", "j") both join to "i.j"
    tree = ObservationTree.empty(("i", "j", "i.j"), ("x",))
    tree = tree.record(("i", "j"), ("x", "x")).record(("i.j",), ("x",))
    machine = tree.as_machine()
    assert machine.states == ("ε", "i", "i.j", "i.j'")
    assert machine.delta[("i", "j")] == ("x", "i.j'")
    morphism = find_lax_morphism_from_tree(tree, totalize(machine, "x"), "ε")
    assert morphism.mapping == {s: s for s in machine.states}


# ---------------------------------------------------------------------------
# the apartness frontier


def test_frontier_on_conflict_tree():
    tree = conflict_tree()
    frontier = tree_apartness_frontier(tree)
    x, z = node_id(("w",)), node_id(("v", "v", "w"))
    p, q = node_id(()), node_id(("v",))
    assert (x, z) in frontier
    assert (p, q) not in frontier


def test_frontier_of_single_state_tree():
    tree = ObservationTree.empty(("i",), ("a",))
    assert len(tree_apartness_frontier(tree)) == 0


def test_frontier_matches_oracle():
    _, _, r, _, _ = quadruple()
    hidden = totalize(r, "a")
    teacher = Teacher(hidden, "r0")
    tree = ObservationTree.empty(hidden.inputs, hidden.outputs)
    for word in (("i",), ("j",), ("i", "i"), ("j", "j")):
        tree = query_and_record(tree, teacher, word)
    machine = tree.as_machine()
    frontier = tree_apartness_frontier(tree)
    for x in machine.states:
        for y in machine.states:
            assert ((x, y) in frontier) == (not semantic_oracle_uncertain(machine, x, y))


def test_frontier_is_monotone_under_recording():
    hidden = totalize(conflict_machine(), "o")
    teacher = Teacher(hidden, "p")
    tree = ObservationTree.empty(hidden.inputs, hidden.outputs)
    previous: set = set()
    for word in (("w",), ("w", "i"), ("v", "w", "i"), ("v", "v", "w", "i"), ("i", "i")):
        tree = query_and_record(tree, teacher, word)
        current = set(tree_apartness_frontier(tree).pairs)
        assert previous <= current
        previous = current


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_frontier_monotone_random(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    hidden = random_total_mealy(rng, 4, 2, 2)
    teacher = Teacher(hidden, hidden.states[0])
    tree = ObservationTree.empty(hidden.inputs, hidden.outputs)
    words = data.draw(
        st.lists(
            st.lists(st.sampled_from(hidden.inputs), min_size=1, max_size=4),
            min_size=1,
            max_size=6,
        )
    )
    previous: set = set()
    for word in words:
        tree = query_and_record(tree, teacher, tuple(word))
        frontier = set(tree_apartness_frontier(tree).pairs)
        assert previous <= frontier
        previous = frontier


# four alphabets: the last has a dotted input and an input named like the
# root, so node names get primes
ALPHABETS = (("a", "b"), ("a", "b", "c"), ("a", "b", "c", "d"), ("a", "b", "a.b", "ε"))


def _observed(hidden, word):
    """The longest prefix of `word` the hidden machine runs from its first
    state, with its outputs: queries past a gap of a partial machine stop
    there, so trees get gaps too."""
    state, outs = hidden.states[0], []
    for i in word:
        step = hidden.delta.get((state, i))
        if step is None:
            break
        outs.append(step[0])
        state = step[1]
    return tuple(word[: len(outs)]), tuple(outs)


def _breadth_first(tree):
    """Node positions breadth-first from the root, children in input
    declaration order, walked here without the tree's own ranking."""
    order = [0]
    for p in order:
        order.extend(c for c in tree._children[p] if c >= 0)
    return order


def _position_pairs(tree, frontier):
    """The frontier as pairs of node positions, packed into ints: a node
    keeps its position while recording may prime its name."""
    pos = dict(zip(frontier.left, _breadth_first(tree)))
    return {pos[x] << 20 | pos[y] for x, y in frontier.ordered_pairs()}


def _growing_trees(rng, inputs, size, density, target, outputs=("x", "y", "z")):
    """Random queries, each extending a word already in the tree, on a
    random (partial) hidden machine of `size` states over `inputs` and
    `outputs`, recorded until the tree has `target` nodes: the tree after
    each record."""
    states = tuple(f"s{k}" for k in range(size))
    delta = {
        (s, i): (rng.choice(outputs), rng.choice(states))
        for s in states
        for i in inputs
        if rng.random() < density
    }
    hidden = PartialMealyMachine("h", inputs, outputs, states, delta)
    tree = ObservationTree.empty(inputs, hidden.outputs)
    words = [()]
    for _ in range(4 * target):
        if len(words) >= target:
            break
        base = rng.choice(words)
        tree = tree.record(*_observed(hidden, base + tuple(rng.choice(inputs) for _ in range(rng.randint(1, 6)))))
        yield tree
        words = tree.words()


def _assert_tree_machine(tree):
    """The tree's machine is the one the validating constructor builds from
    the access words' names and the observations, and it is the source of
    the lax morphism into that machine's totalization.  Its successor
    structures read its tables, not its `delta`."""
    assert_successors_read_the_tables(tree.as_machine())
    machine, names = tree.as_machine(), distinct_names(map(node_id, tree.words()))
    name = dict(zip(tree.words(), names))
    delta = {(name[w], i): (o, name[(*w, i)]) for (w, i), o in tree.edges.items()}
    checked = PartialMealyMachine("tree", tree.inputs, tree.outputs, names, delta)
    assert machine == checked
    assert list(machine.delta.items()) == list(checked.delta.items())
    assert machine.tables() == checked.tables()
    assert (machine.index, machine.input_index) == (checked.index, checked.input_index)
    morphism = find_lax_morphism_from_tree(tree, totalize(checked), names[0])
    assert morphism.source == checked
    assert morphism.mapping == dict(zip(names, names))
    assert list(morphism.mapping) == list(machine.states)  # in `words()` order


@pytest.mark.parametrize("inputs", ALPHABETS)
def test_ranks_and_names_match_their_definitions(inputs):
    # the ranked edges are the edges in a breadth-first walk, each node's
    # name is its access word's `node_id`, made distinct, and the index
    # maps each name to its rank; one walk sets all three, whichever is
    # read first on a fresh tree
    def trees():  # lazily, so each tree is fresh when it arrives
        last = ObservationTree.empty(inputs, ("x",))
        yield last
        for tree in _growing_trees(random.Random(1), inputs, 5, 0.8, 80):
            if tree is not last:  # a record that adds no node returns its tree
                yield tree
            last = tree

    walked = ("_ranked", "_names", "_index")
    firsts = ("_names", "_index", "_ranked")
    for tree, *fresh in zip(trees(), *(trees() for _ in firsts)):
        for first, copy in zip(firsts, fresh):
            assert not vars(copy).keys() & set(walked)
            getattr(copy, first)
            assert vars(copy).keys() >= set(walked)
        order = _breadth_first(tree)
        rank = {p: r for r, p in enumerate(order)}
        expected = [(rank[q], k, o) for q, k, o in (tree._into[p] for p in order[1:])]
        assert tree._ranked == expected
        assert list(tree._names) == distinct_names(map(node_id, tree.words()))
        assert tree._index == {name: r for r, name in enumerate(tree._names)} == tree.as_machine().index
        for copy in fresh:
            assert [getattr(copy, a) for a in walked] == [getattr(tree, a) for a in walked]
        _assert_tree_machine(tree)
    assert len(tree._into) >= 80
    with pytest.raises(AttributeError, match="_rank"):
        tree._rank


def _reference(tree):
    """`==`'s earlier definition, kept as the reference: the alphabets and
    the observations keyed by access word."""
    return tree.inputs, tree.outputs, tree.edges


@pytest.mark.parametrize("inputs", ALPHABETS)
def test_equality_matches_the_observations(inputs):
    # `==` compares the alphabets and the ranked edges; it agrees with the
    # reference on the same queries recorded in shuffled order (equal),
    # over a permuted input alphabet (unequal, also where the symbols are
    # renamed along the permutation, so the ranked edges are the same),
    # and on consecutive trees of a growing run
    rng, previous, reordered = random.Random(3), None, 0
    permuted = inputs[1:] + inputs[:1]
    rename = dict(zip(inputs, permuted))
    for tree in _growing_trees(random.Random(3), inputs, 5, 0.8, 60):
        queries = [(word, tree.output_along(word)) for word in tree.words()[1:]]
        rng.shuffle(queries)
        shuffled = ObservationTree.empty(inputs, tree.outputs)
        moved = renamed = ObservationTree.empty(permuted, tree.outputs)
        for word, outs in queries:
            shuffled, moved = shuffled.record(word, outs), moved.record(word, outs)
            renamed = renamed.record([rename[i] for i in word], outs)
        reordered += shuffled._into != tree._into
        assert _reference(shuffled) == _reference(tree) and shuffled == tree
        assert _reference(moved) != _reference(tree) and moved != tree
        assert renamed._ranked == tree._ranked and renamed != tree and _reference(renamed) != _reference(tree)
        if previous is not None:
            assert (tree == previous) == (_reference(tree) == _reference(previous))
        previous = tree
    assert len(tree._into) >= 60 and reordered > 0


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    inputs=st.sampled_from(ALPHABETS),
    size=st.integers(2, 8),
    density=st.sampled_from((0.5, 0.8, 1.0)),
    target=st.integers(20, 300),
)
def test_frontier_matches_row_engine(seed, inputs, size, density, target):
    # the one-pass frontier against the general fixpoint engine, after
    # every record of random queries on random (partial) hidden machines
    rng = random.Random(seed)
    previous = set()
    for tree in _growing_trees(rng, inputs, size, density, target):
        frontier = tree_apartness_frontier(tree)
        _assert_tree_machine(tree)
        machine = tree.as_machine()
        assert frontier.rows == tuple(_mealy_dead(machine))
        assert frontier.left == frontier.right == machine.states
        current = _position_pairs(tree, frontier)
        assert previous <= current
        previous = current


@pytest.mark.parametrize("outputs", [("x",), ("v", "w", "x", "y", "z")])
def test_frontier_lifts_the_children_of_agreeing_edges(outputs):
    # the lift skips the children of edges whose output differs from the
    # edge being lifted; with one output it skips none (and nothing is
    # apart), with five it skips most
    for seed in range(4):
        trees = list(_growing_trees(random.Random(seed), ("a", "b", "c"), 8, 0.9, 160, outputs))
        assert len(trees[-1]._into) >= 160
        for tree in trees:
            assert tree_apartness_frontier(tree).rows == tuple(_mealy_dead(tree.as_machine()))


def test_frontier_on_a_large_tree():
    # wide rows with many set bits: a total 60-state hidden machine with 4
    # inputs, seeded random queries of 8-10 symbols
    rng = random.Random(2022)
    inputs, states = ("a", "b", "c", "d"), tuple(f"s{k}" for k in range(60))
    delta = {(s, i): (rng.choice(("x", "y")), rng.choice(states)) for s in states for i in inputs}
    hidden = PartialMealyMachine("h", inputs, ("x", "y"), states, delta, total=True)
    teacher = Teacher(hidden, "s0")
    tree = ObservationTree.empty(inputs, hidden.outputs)
    for _ in range(280):
        word = [rng.choice(hidden.inputs) for _ in range(rng.randint(8, 10))]
        tree = query_and_record(tree, teacher, word)
    assert len(tree._into) >= 1500
    assert tree_apartness_frontier(tree).rows == tuple(_mealy_dead(tree.as_machine()))
    _assert_tree_machine(tree)


# ---------------------------------------------------------------------------
# consistency between tree and teacher


def test_tree_agrees_with_teacher():
    rng = random.Random(41)
    for _ in range(15):
        hidden = random_total_mealy(rng, rng.randint(2, 5), 2, 2)
        teacher = Teacher(hidden, hidden.states[0])
        tree = ObservationTree.empty(hidden.inputs, hidden.outputs)
        asked = []
        for _ in range(6):
            word = tuple(rng.choice(hidden.inputs) for _ in range(rng.randint(1, 4)))
            asked.append((word, teacher.output_query(word)))
            tree = tree.record(*asked[-1])
        machine = tree.as_machine()
        for word, outs in asked:
            assert eval_semantics(machine, machine.states[0], word) == outs[-1]
            assert tree.output_along(word) == outs
        for word in words_up_to(hidden.inputs, 3):
            if tree.output_along(word) is None:
                assert eval_semantics(machine, machine.states[0], word) is None


def test_words_walk_matches_sorted_definition():
    # access words are shortest first, then by input declaration order:
    # the breadth-first walk must give exactly that sort of all of them
    rng = random.Random(1969)
    for _ in range(40):
        hidden = random_total_mealy(rng, rng.randint(2, 6), 3, 2)
        inputs = list(hidden.inputs)
        rng.shuffle(inputs)
        teacher = Teacher(hidden, hidden.states[0])
        tree = ObservationTree.empty(inputs, hidden.outputs)
        for _ in range(rng.randint(0, 12)):
            word = [rng.choice(inputs) for _ in range(rng.randint(1, 5))]
            tree = query_and_record(tree, teacher, word)
        index = {i: k for k, i in enumerate(inputs)}
        expected = sorted(
            {()} | {prefix + (i,) for prefix, i in tree.edges},
            key=lambda w: (len(w), [index[i] for i in w]),
        )
        assert tree.words() == expected


# ---------------------------------------------------------------------------
# lax morphisms out of trees


def test_reconstructs_map_into_hypothesis():
    _, T2, *_ = lax_chain()
    tree = ObservationTree.empty(("i", "j"), ("o",)).record(("i",), ("o",))
    found = find_lax_morphism_from_tree(tree, T2, "p0")
    assert isinstance(found, StateMap)
    assert found.mapping == {node_id(()): "p0", node_id(("i",)): "p1"}


def test_conflict_on_wrong_output():
    tree = ObservationTree.empty(("i",), ("a", "b")).record(("i",), ("a",))
    hyp = PartialMealyMachine("h", ("i",), ("a", "b"), ("u",), {("u", "i"): ("b", "u")})
    result = find_lax_morphism_from_tree(tree, hyp, "u")
    assert result == TreeConflict(("i",))
    message = ("find_lax_morphism_from_tree needs shared output alphabets, got ObservationTree and "
               "PartialMealyMachine 'h'")
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        find_lax_morphism_from_tree(ObservationTree.empty(("i",), ("a",)), hyp, "u")


def test_conflict_against_forced_merge_machine():
    # build the machine that merging p and q would force, ignoring the
    # output clash by keeping the first member's transition per class;
    # the observation tree then refutes it on the shortest clashing word
    m = conflict_machine()
    result = lax_identify(m, "p", "q")
    assert isinstance(result, Conflict)
    parent = {s: s for s in m.states}

    def find(s):
        while parent[s] != s:
            s = parent[s]
        return s

    for step in result.merges:
        parent[find(step.right)] = find(step.left)
    classes: dict[str, list[str]] = {}
    for s in m.states:
        classes.setdefault(find(s), []).append(s)
    names = {rep: "+".join(ms) for rep, ms in classes.items()}
    delta = {}
    for s in m.states:
        for i in m.inputs:
            step = m.delta.get((s, i))
            if step is not None:
                delta.setdefault((names[find(s)], i), (step[0], names[find(step[1])]))
    forced = PartialMealyMachine(
        "forced", m.inputs, m.outputs, tuple(names[r] for r in classes), delta
    )
    tree = conflict_tree()
    result = find_lax_morphism_from_tree(tree, forced, names[find("p")])
    assert isinstance(result, TreeConflict)


def _reversed_alphabets(m):
    return PartialMealyMachine(m.name, m.inputs[::-1], m.outputs[::-1], m.states, m.delta)


def _first_unmatched(tree, hypothesis, root):
    """The first access word in `words()` order whose last edge the
    hypothesis does not match from the image of its parent, or None."""
    for word in tree.words()[1:]:
        step = hypothesis.delta.get((run(hypothesis, root, word[:-1]), word[-1]))
        if step is None or step[0] != tree.output_along(word)[-1]:
            return word
    return None


def test_lax_morphism_reads_hypothesis_inputs_by_name():
    # a hypothesis declaring its alphabets in reverse order gives the same
    # map, and the same conflict on a wrong output or a missing transition
    rng = random.Random(13)
    for _ in range(25):
        hidden = random_total_mealy(rng, rng.randint(2, 6), 3, 2)
        root = hidden.states[0]
        teacher = Teacher(hidden, root)
        tree = ObservationTree.empty(hidden.inputs, hidden.outputs)
        for _ in range(6):
            word = [rng.choice(hidden.inputs) for _ in range(rng.randint(1, 5))]
            tree = query_and_record(tree, teacher, word)
        found = find_lax_morphism_from_tree(tree, hidden, root)
        assert isinstance(found, StateMap)
        again = find_lax_morphism_from_tree(tree, _reversed_alphabets(hidden), root)
        assert again.mapping == found.mapping
        # break the hidden transition under one tree edge
        word = rng.choice(tree.words()[1:])
        key = (run(hidden, root, word[:-1]), word[-1])
        o, d = hidden.delta[key]
        wrong = {**hidden.delta, key: (hidden.outputs[1 - hidden.outputs.index(o)], d)}
        missing = {k: v for k, v in hidden.delta.items() if k != key}
        for delta in (wrong, missing):
            broken = PartialMealyMachine("h", hidden.inputs, hidden.outputs, hidden.states, delta)
            expected = _first_unmatched(tree, broken, root)
            assert expected is not None and len(expected) <= len(word)
            for hypothesis in (broken, _reversed_alphabets(broken)):
                assert find_lax_morphism_from_tree(tree, hypothesis, root) == TreeConflict(expected)


def test_morphism_into_hidden_is_sound():
    rng = random.Random(42)
    for _ in range(25):
        hidden = random_total_mealy(rng, rng.randint(2, 5), 2, 2)
        teacher = Teacher(hidden, hidden.states[0])
        tree = ObservationTree.empty(hidden.inputs, hidden.outputs)
        for _ in range(8):
            word = tuple(rng.choice(hidden.inputs) for _ in range(rng.randint(1, 5)))
            tree = query_and_record(tree, teacher, word)
        found = find_lax_morphism_from_tree(tree, teacher._hidden, hidden.states[0])
        assert isinstance(found, StateMap)
        # each access word goes where the hidden machine's run takes it
        for word in tree.words():
            assert found.mapping[node_id(word)] == run(hidden, hidden.states[0], word)
        # provably different tree states never map to the same hidden state
        frontier = tree_apartness_frontier(tree)
        for x, y in frontier.pairs:
            assert found.mapping[x] != found.mapping[y]
