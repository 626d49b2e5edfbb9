import itertools
import math
import random
import re

import pytest

from helpers import (
    conflict_machine,
    quadruple,
    lax_chain,
    lax_identify_reference,
    mealy_corpus,
    merge_cycle,
    random_lax_map,
    random_oplax_map,
    random_partial_mealy,
    random_strict_map,
    sa_pair,
)
from test_machines import KIND_SAMPLES
from ubisim import (
    Conflict,
    ContractError,
    PartialMealyMachine,
    Quotient,
    Relation,
    StateMap,
    ValidationError,
    Violation,
    check_morphism,
    disjoint_union,
    inverse_image,
    kernel,
    lax_identify,
    map_structure,
    order_leq,
    relation_is_uncertain_bisimulation,
    restrict_along,
    uncertain_bisimilarity,
)
from ubisim.machines import order_failures
from ubisim.morphisms import KINDS, MorphismReport


def violating(report):
    return {(v.state, v.side, v.symbol) for v in report.violations}


# ---------------------------------------------------------------------------
# state map validation


@pytest.mark.parametrize(
    "mapping, message",
    [
        # T' has states p0 p1 p2, B has r0 r1
        ({"p1": "r1"}, "map is not total: missing 'p0'"),  # the first in source order
        ({"p0": "r0", "p1": "r1", "p2": "r0", "zz": "r0"}, "map defined on unknown state 'zz'"),
        ({"p0": "r0", "p1": "nope", "p2": "r0"}, "map sends 'p1' outside the target"),
        ({"p0": "nope", "p1": "r1"}, "map is not total: missing 'p2'"),  # before p0's image
        ({"p0": "r0", "p1": "nope", "zz": "r0", "p2": "r0"}, "map sends 'p1' outside the target"),
        ({"p0": "r0", "zz": "nope", "p1": "r1", "p2": "r0"}, "map defined on unknown state 'zz'"),
    ],
    ids=["missing", "unknown", "outside", "missing-first", "outside-first", "unknown-first"],
)
def test_statemap_must_be_total(mapping, message):
    # each message, and where a map has two faults, the one found first:
    # a missing state before any pair, then the pairs in the map's order
    _, T2, B, *_ = lax_chain()
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        StateMap(T2, B, mapping)


def test_statemap_needs_shared_alphabets():
    T, *_ = lax_chain()
    other = PartialMealyMachine("o", ("k",), ("o",), ("u",), {})
    message = "StateMap needs shared input alphabets, got PartialMealyMachine 'T' and PartialMealyMachine 'o'"
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        StateMap(T, other, {"q0": "u", "q1": "u"})


# ---------------------------------------------------------------------------
# morphism checks on the pinned maps


def test_unmatched_at_image_notes():
    # a's i-transition has no counterpart at its image b, which has none
    source = PartialMealyMachine("A", ("i",), ("o",), ("a",), {("a", "i"): ("o", "a")})
    target = PartialMealyMachine("B", ("i",), ("o",), ("b",), {})
    h = StateMap(source, target, {"a": "b"})
    unmatched = (Violation("a", "in", "i", "not matched at image"),)
    assert check_morphism(h, "lax").violations == unmatched
    assert check_morphism(h, "strict").violations == unmatched
    assert check_morphism(h, "oplax").ok


def test_chain_g_lax_not_strict():
    *_, g, _, _ = lax_chain()
    assert check_morphism(g, "lax").ok
    assert violating(check_morphism(g, "strict")) == {("q0", "in", "j")}
    assert violating(check_morphism(g, "oplax")) == {("q0", "in", "j")}


def test_chain_h_lax_not_strict():
    *_, h, _ = lax_chain()
    assert check_morphism(h, "lax").ok
    strict = violating(check_morphism(h, "strict"))
    assert strict and all(state == "p2" for state, _, _ in strict)


def test_sa_map_lax_oplax_strict():
    C, D, h = sa_pair()
    assert check_morphism(h, "lax").ok
    oplax = violating(check_morphism(h, "oplax"))
    assert ("5", "in", "a") in oplax
    strict = violating(check_morphism(h, "strict"))
    assert ("4", "out", "x") in strict


def test_identity_is_strict():
    m = conflict_machine()
    ident = StateMap(m, m, {s: s for s in m.states})
    for kind in ("strict", "lax", "oplax"):
        assert check_morphism(ident, kind).ok
    with pytest.raises(ContractError, match="^unknown morphism kind 'weird'$"):
        check_morphism(ident, "weird")


def test_strict_implies_lax_and_oplax():
    rng = random.Random(21)
    for _ in range(40):
        h = random_strict_map(rng)
        assert check_morphism(h, "strict").ok
        assert check_morphism(h, "lax").ok
        assert check_morphism(h, "oplax").ok


def _check_morphism_reference(h, kind):
    """The morphism check on mapped copies: each state's structure renamed
    along the map, then compared with its image's with equality as the
    link."""
    found = {}
    for x in h.source.states:
        mapped = map_structure(h.source.successors(x), h.mapping)
        image = h.target.successors(h(x))
        if kind in ("lax", "strict"):
            for side, symbol in order_failures(mapped, image):
                found.setdefault((x, side, symbol), "not matched at image")
        if kind in ("oplax", "strict"):
            for side, symbol in order_failures(image, mapped):
                found.setdefault((x, side, symbol), "not matched at source")
    return MorphismReport(kind, tuple(Violation(*key, note) for key, note in found.items()))


def test_morphism_checks_match_the_mapped_copies():
    # random lax, oplax and strict maps, each beside a random map between
    # the same machines; then every map between machines that declare
    # their symbols in another order, both ways
    rng = random.Random(23)
    maps = []
    for make in (random_lax_map, random_oplax_map, random_strict_map):
        for _ in range(40):
            h = make(rng)
            maps += [h, StateMap(h.source, h.target, {s: rng.choice(h.target.states) for s in h.source.states})]
    for a, b in (("mealy", "mealy-ba"), ("sa", "sa-yx")):
        for src, dst in ((KIND_SAMPLES[a], KIND_SAMPLES[b]), (KIND_SAMPLES[b], KIND_SAMPLES[a])):
            maps += [StateMap(src, dst, dict(zip(src.states, images)))
                     for images in itertools.product(dst.states, repeat=len(src.states))]
    reports = [(check_morphism(h, kind), _check_morphism_reference(h, kind)) for h in maps for kind in KINDS]
    assert all(got == want for got, want in reports)
    assert sum(not got.ok for got, _ in reports) > len(reports) // 4  # failing reports are compared too


# ---------------------------------------------------------------------------
# kernels


def test_kernel_examples():
    C, D, h = sa_pair()
    ker = kernel(h)
    off = {p for p in ker.pairs if p[0] != p[1]}
    assert off == {("2", "3"), ("3", "2"), ("4", "5"), ("5", "4")}

    T, T2, _, g, *_ = lax_chain()
    assert kernel(g).pairs == Relation.identity(T.states).pairs

    single = PartialMealyMachine("one", T.inputs, T.outputs, ("z",), {})
    const = StateMap(T2, single, {s: "z" for s in T2.states})
    assert len(kernel(const)) == 9


# ---------------------------------------------------------------------------
# restriction along an oplax map


def test_restrict_identity():
    m = conflict_machine()
    ident = StateMap(m, m, {s: s for s in m.states})
    assert restrict_along(ident).delta == m.delta


def test_restrict_reverse_chain():
    T, T2, _, _, _, k = lax_chain()
    assert check_morphism(k, "oplax").ok
    restricted = restrict_along(k)
    assert dict(restricted.delta) == {("p0", "i"): ("o", "p1")}
    assert check_morphism(StateMap(restricted, T, k.mapping), "strict").ok
    for s in T2.states:
        assert order_leq(restricted.successors(s), T2.successors(s))


def test_restrict_onto_transition_free_state():
    m = conflict_machine()
    single = PartialMealyMachine("one", m.inputs, m.outputs, ("z",), {})
    h = StateMap(m, single, {s: "z" for s in m.states})
    assert restrict_along(h).delta == {}


def test_restrict_requires_oplax():
    *_, g, _, _ = lax_chain()  # g is lax but not oplax
    with pytest.raises(ContractError) as err:
        restrict_along(g)
    assert "q0" in str(err.value)


def test_restrict_refuses_sa():
    C, D, h = sa_pair()
    with pytest.raises(ContractError):
        restrict_along(h)


def test_restrict_on_generated_oplax():
    rng = random.Random(22)
    for _ in range(60):
        h = random_oplax_map(rng)
        restricted = restrict_along(h)
        assert check_morphism(StateMap(restricted, h.target, h.mapping), "strict").ok
        for s in h.source.states:
            assert order_leq(restricted.successors(s), h.source.successors(s))


# ---------------------------------------------------------------------------
# merging two states by a lax map


def test_identify_conflict_chain():
    m = conflict_machine()
    result = lax_identify(m, "p", "q")
    assert isinstance(result, Conflict)
    merged = [(step.left, step.right) for step in result.merges]
    assert merged[0] == ("p", "q")
    assert ("x", "y") in merged
    assert ("y", "z") in merged
    assert merged.index(("x", "y")) < len(merged)
    assert (result.input, result.left_output, result.right_output) == ("i", "a", "b")
    assert {result.left_state, result.right_state} == {"x", "z"}


def test_identify_conflict_word_is_the_last_forcing_word():
    # the word is the last merge's forcing word plus the clashing input:
    # "v w" leads from p to y and from q to z, while the clash is x / z
    result = lax_identify(conflict_machine(), "p", "q")
    assert isinstance(result, Conflict)
    assert result.word == result.merges[-1].word + (result.input,)
    assert result.word == ("v", "w", "i")
    assert (result.merges[-1].left, result.merges[-1].right) == ("y", "z")


def test_identify_self_is_isomorphic():
    m = conflict_machine()
    result = lax_identify(m, "x", "x")
    assert isinstance(result, Quotient)
    assert len(result.machine.states) == len(m.states)
    assert check_morphism(result.projection, "strict").ok


def test_identify_quadruple_pair():
    _, q, _, _, _ = quadruple()
    p = quadruple()[0]
    union, (rq, rp) = disjoint_union(q, p)
    result = lax_identify(union, rq["q0"], rp["p0"])
    assert isinstance(result, Quotient)
    classes = {frozenset(c) for c in result.classes}
    assert classes == {
        frozenset({"q.q0", "p.p0"}),
        frozenset({"q.q1", "p.p1"}),
        frozenset({"p.p2"}),
    }
    assert check_morphism(result.projection, "lax").ok


def test_identify_names_never_collide():
    # merging a and b names the class "a+b", the name of the third state
    m = PartialMealyMachine(
        "m", ("i",), ("x", "y"), ("a", "b", "a+b"),
        {("a", "i"): ("x", "a"), ("b", "i"): ("x", "b"), ("a+b", "i"): ("y", "a+b")},
    )
    result = lax_identify(m, "a", "b")
    assert isinstance(result, Quotient)
    assert result.classes == (("a", "b"), ("a+b",))
    assert result.machine.states == ("a+b", "a+b'")
    assert result.projection.mapping == {"a": "a+b", "b": "a+b", "a+b": "a+b'"}
    assert result.machine.delta == {("a+b", "i"): ("x", "a+b"), ("a+b'", "i"): ("y", "a+b'")}
    assert check_morphism(result.projection, "lax").ok


def test_identify_quotient_implies_compatible():
    rng = random.Random(23)
    checked = 0
    for _ in range(120):
        h = random_lax_map(rng)
        m = h.source
        rel = uncertain_bisimilarity(m)
        states = m.states
        x, y = rng.choice(states), rng.choice(states)
        result = lax_identify(m, x, y)
        if isinstance(result, Quotient):
            assert (x, y) in rel
            assert check_morphism(result.projection, "lax").ok
            checked += 1
    assert checked > 10


def test_identify_stress_both_outcomes():
    # on every outcome the reported evidence must replay: quotients are
    # well-defined lax projections, conflicts name a real output clash on
    # two states that the recorded merges force together
    rng = random.Random(27)
    quotients = conflicts = 0
    for _ in range(300):
        m = (
            quadruple()[4]
            if rng.random() < 0.1
            else random_partial_mealy(rng, rng.randint(2, 6), rng.randint(1, 3), rng.randint(1, 3))
        )
        x, y = rng.choice(m.states), rng.choice(m.states)
        result = lax_identify(m, x, y)
        if isinstance(result, Quotient):
            quotients += 1
            assert result.projection(x) == result.projection(y)
            assert check_morphism(result.projection, "lax").ok
            assert sorted(s for c in result.classes for s in c) == sorted(m.states)
        else:
            conflicts += 1
            du = m.delta[(result.left_state, result.input)]
            dv = m.delta[(result.right_state, result.input)]
            assert (du[0], dv[0]) == (result.left_output, result.right_output)
            assert du[0] != dv[0]
            parent = {s: s for s in m.states}

            def find(s):
                while parent[s] != s:
                    s = parent[s]
                return s

            for step in result.merges:
                parent[find(step.left)] = find(step.right)
            assert find(result.left_state) == find(result.right_state)
            assert find(x) == find(y)
    assert quotients > 20 and conflicts > 20


def _replays(m, x, y, result):
    """The conflict evidence holds: the chain starts at the requested pair,
    its merges put the two clashing states in one class, and their outputs
    on the input really differ."""
    assert (result.merges[0].left, result.merges[0].right) == (x, y)
    du = m.delta[(result.left_state, result.input)]
    dv = m.delta[(result.right_state, result.input)]
    assert (du[0], dv[0]) == (result.left_output, result.right_output)
    assert du[0] != dv[0]
    parent = {s: s for s in m.states}

    def find(s):
        while parent[s] != s:
            s = parent[s]
        return s

    for step in result.merges:
        parent[find(step.left)] = find(step.right)
    assert find(result.left_state) == find(result.right_state)


def test_identify_matches_reference():
    rng = random.Random(31)
    cases = [(m, rng.choice(m.states), rng.choice(m.states)) for m in mealy_corpus(300, seed=31)]
    cases += [
        (m, rng.choice(m.states), rng.choice(m.states))
        for m in (random_partial_mealy(rng, rng.randint(10, 30), 2, 1) for _ in range(40))
    ]
    cases += [(merge_cycle(n), "c0", f"c{k}") for n in (1, 2, 7, 12, 60) for k in range(n)]
    cm = conflict_machine()
    cases += [(cm, x, y) for x in cm.states for y in ("p", "q", "y")]
    kinds = set()
    for m, x, y in cases:
        got, want = lax_identify(m, x, y), lax_identify_reference(m, x, y)
        assert type(got) is type(want)
        kinds.add(type(got))
        if isinstance(want, Quotient):
            assert got.classes == want.classes
            assert got.machine == want.machine
            assert got.projection.mapping == want.projection.mapping
        else:
            _replays(m, x, y, got)
    assert kinds == {Quotient, Conflict}


def test_identify_merge_cycles_give_residue_classes():
    for n in (1, 2, 3, 30, 97, 200, 400):
        for k in {0, 1, 2, n // 3, n // 2, n - 1}:
            result = lax_identify(merge_cycle(n), "c0", f"c{k % n}")
            g = math.gcd(n, k)
            assert result.classes == tuple(tuple(f"c{j}" for j in range(r, n, g)) for r in range(g))


def test_identify_converse_fails_on_conflict_machine():
    # p and q are compatible, yet no lax map can merge them; this gap is
    # exactly what the joint-simulator construction repairs
    m = conflict_machine()
    assert ("p", "q") in uncertain_bisimilarity(m)
    assert isinstance(lax_identify(m, "p", "q"), Conflict)


# ---------------------------------------------------------------------------
# generated morphism corpora


def test_lax_kernels_are_compatible():
    rng = random.Random(24)
    for _ in range(80):
        h = random_lax_map(rng)
        assert check_morphism(h, "lax").ok
        ker = kernel(h)
        assert relation_is_uncertain_bisimulation(h.source, ker)
        assert ker.pairs <= uncertain_bisimilarity(h.source).pairs


def test_lax_maps_reflect_compatibility():
    rng = random.Random(25)
    for _ in range(80):
        h = random_lax_map(rng)
        target_rel = uncertain_bisimilarity(h.target)
        pulled = inverse_image(dict(h.mapping), target_rel)
        assert relation_is_uncertain_bisimulation(h.source, pulled)


def test_oplax_maps_preserve_compatibility():
    rng = random.Random(26)
    for _ in range(80):
        h = random_oplax_map(rng)
        assert check_morphism(h, "oplax").ok
        source_rel = uncertain_bisimilarity(h.source)
        target_rel = uncertain_bisimilarity(h.target)
        for x, y in source_rel.pairs:
            assert (h(x), h(y)) in target_rel
