import itertools
import random

import pytest

from helpers import (
    entry_pair_product,
    mealy_canonical_entry_pairs,
    mealy_uncertain_entry_pairs,
)
from references import (
    EnumerationLimitError,
    all_mealy_successors,
    all_pow_successors,
    all_sa_successors,
    completions,
    in_uncertain_lifting_enumerated,
    stability_check,
)
from ubisim import (
    ContractError,
    MealySuccessors,
    PowSuccessors,
    Relation,
    SaSuccessors,
    ValidationError,
    in_lifting,
    in_uncertain_lifting,
    inverse_image,
    map_structure,
    order_leq,
)
from ubisim.lifting import _check_args
from ubisim.machines import order_failures


def undef(inputs=("i",)):
    return MealySuccessors.make(inputs, {})


def single(ref, inputs=("i",), output="o"):
    return MealySuccessors.make(inputs, {inputs[0]: (output, ref)})


# ---------------------------------------------------------------------------
# the pinned one-input vectors: carrier X = {x} embeds into Y = {x, y},
# the relation on Y links x to y and nothing else


@pytest.fixture
def vectors():
    S = Relation.square(("x", "y"), {("x", "y")})
    empty_on_x = Relation.square(("x",), set())
    return S, empty_on_x


def lifted_set(member, rel, structs):
    return {
        (i, j)
        for i, t in enumerate(structs)
        for j, s in enumerate(structs)
        if member(rel, t, s)
    }


def test_canonical_vectors(vectors):
    S, empty_on_x = vectors
    over_y = [undef(), single("x"), single("y")]  # 0 = unknown, 1 = x, 2 = y
    assert lifted_set(in_lifting, S, over_y) == {(0, 0), (1, 2)}
    over_x = [undef(), single("x")]
    assert lifted_set(in_lifting, empty_on_x, over_x) == {(0, 0)}


def test_uncertain_vectors(vectors):
    S, empty_on_x = vectors
    over_y = [undef(), single("x"), single("y")]
    assert lifted_set(in_uncertain_lifting, S, over_y) == {(0, 0), (0, 2), (1, 0), (1, 2)}
    over_x = [undef(), single("x")]
    assert lifted_set(in_uncertain_lifting, empty_on_x, over_x) == {(0, 0)}


def test_inverse_image_of_uncertain_lifting(vectors):
    S, _ = vectors
    f = {"x": "x"}
    over_x = [undef(), single("x")]
    members = {
        (i, j)
        for i, t in enumerate(over_x)
        for j, s in enumerate(over_x)
        if in_uncertain_lifting(S, map_structure(t, f), map_structure(s, f))
    }
    assert members == {(0, 0), (1, 0)}


def test_equality_is_preserved():
    carrier = ("u", "v")
    eq = Relation.identity(carrier)
    for t in all_mealy_successors(("i", "j"), ("a",), carrier):
        assert in_lifting(eq, t, t)
        assert in_uncertain_lifting(eq, t, t)
    for t in all_sa_successors(("i",), ("a", "b"), carrier):
        assert in_lifting(eq, t, t)
        assert in_uncertain_lifting(eq, t, t)


def test_pow_lifting_examples():
    rel = Relation.square(("a", "b"), {("a", "b")})
    assert in_lifting(rel, PowSuccessors(frozenset("a")), PowSuccessors(frozenset("b")))
    assert not in_lifting(rel, PowSuccessors(frozenset()), PowSuccessors(frozenset("b")))
    assert in_lifting(rel, PowSuccessors(frozenset()), PowSuccessors(frozenset()))
    assert in_uncertain_lifting(rel, PowSuccessors(frozenset("a")), PowSuccessors(frozenset()))
    assert not in_uncertain_lifting(rel, PowSuccessors(frozenset("b")), PowSuccessors(frozenset()))


def test_bottom_pairs_with_anything_over_reflexive_relations():
    # the all-unknown structure can be completed to match any partner as
    # long as every partner successor has some related state; reflexivity
    # guarantees that unconditionally
    carrier = ("u", "v")
    bottom = undef(("i", "j"))
    for extra in (set(), {("u", "v")}, {("v", "u")}):
        rel = Relation.identity(carrier).union(Relation.square(carrier, extra))
        for t in all_mealy_successors(("i", "j"), ("a",), carrier):
            assert in_uncertain_lifting(rel, t, bottom)
            assert in_uncertain_lifting(rel, bottom, t)


def test_bottom_needs_partners_without_reflexivity():
    # without reflexivity the bottom structure is not unconditionally
    # compatible: a successor outside the relation's domain has no
    # completion (this is exactly the pinned one-input vector (x, ?) over
    # the empty relation)
    rel = Relation.square(("u", "v"), {("u", "v")})
    for t in all_mealy_successors(("i", "j"), ("a",), ("u", "v")):
        assert in_uncertain_lifting(rel, t, undef(("i", "j"))) == all(
            e is None or e[1] == "u" for e in t.entries
        )


def test_sa_lifting_needs_outputs():
    # structures with an empty output part have no witness to relate them
    rel = Relation.identity(("u",))
    blocked = SaSuccessors.make(("i",), ("a",), {}, {})
    live = SaSuccessors.make(("i",), ("a",), {}, {"a": "u"})
    assert not in_lifting(rel, blocked, blocked)
    assert not in_uncertain_lifting(rel, blocked, blocked)
    assert in_lifting(rel, live, live)


def test_contract_violations():
    rel = Relation(("a",), ("a", "b"), set())
    with pytest.raises(ContractError):
        in_lifting(rel, undef(), undef())
    square = Relation.square(("a",), set())
    # the liftings pair entries by position, so they refuse other kinds
    # and alphabets in another order
    shape = "^lifting membership needs two structures of one kind over one alphabet order$"
    for other in (PowSuccessors(frozenset()), undef(("j", "i"))):
        with pytest.raises(ContractError, match=shape):
            in_lifting(square, undef(("i", "j")), other)
        with pytest.raises(ContractError, match=shape):
            in_uncertain_lifting(square, undef(("i", "j")), other)
    with pytest.raises(ContractError):
        in_lifting(square, single("zzz"), undef())
    with pytest.raises(ContractError, match="^Mealy completions need the output alphabet$"):
        next(completions(undef(), ("a",)))
    with pytest.raises(ContractError, match="^unsupported structure kind Relation$"):
        next(completions(square, ("a",)))
    with pytest.raises(ValidationError, match="^unknown variant 'weird'$"):
        stability_check({"a": "a"}, square, variant="weird")


# ---------------------------------------------------------------------------
# the two decision paths agree


def relations_on(carrier, rng=None, sample=None):
    pairs = [(x, y) for x in carrier for y in carrier]
    if sample is None:
        for bits in itertools.product([0, 1], repeat=len(pairs)):
            yield Relation.square(carrier, {p for p, b in zip(pairs, bits) if b})
        return
    rng = rng or random.Random(0)
    seen = set()
    small = [frozenset()] + [frozenset({p}) for p in pairs]
    full = [frozenset(pairs), frozenset((x, x) for x in carrier)]
    for chosen in small + full:
        seen.add(chosen)
        yield Relation.square(carrier, chosen)
    while len(seen) < sample:
        chosen = frozenset(p for p in pairs if rng.random() < 0.4)
        if chosen not in seen:
            seen.add(chosen)
            yield Relation.square(carrier, chosen)


@pytest.mark.parametrize(
    "carrier,inputs,outputs,sample",
    [
        (("u",), ("i", "j"), ("a", "b"), None),
        (("u", "v"), ("i", "j"), ("a",), None),
        (("u", "v"), ("i",), ("a", "b"), None),
        (("u", "v"), ("i", "j"), ("a", "b"), 6),
        (("u", "v", "w"), ("i",), ("a",), None),
        (("u", "v", "w"), ("i", "j"), ("a", "b"), 3),
    ],
)
def test_uncertain_paths_agree_mealy(carrier, inputs, outputs, sample):
    structs = all_mealy_successors(inputs, outputs, carrier)
    for rel in relations_on(carrier, sample=sample):
        for t in structs:
            for s in structs:
                direct = in_uncertain_lifting(rel, t, s)
                brute = in_uncertain_lifting_enumerated(rel, t, s, outputs=outputs)
                assert direct == brute, (rel.pairs, t, s)


@pytest.mark.parametrize(
    "carrier,inputs,outputs,sample",
    [
        (("u", "v"), ("i",), ("a", "b"), None),
        (("u", "v"), ("i", "j"), ("a",), 8),
    ],
)
def test_uncertain_paths_agree_sa(carrier, inputs, outputs, sample):
    structs = all_sa_successors(inputs, outputs, carrier)
    for rel in relations_on(carrier, sample=sample):
        for t in structs:
            for s in structs:
                direct = in_uncertain_lifting(rel, t, s)
                brute = in_uncertain_lifting_enumerated(rel, t, s)
                assert direct == brute, (rel.pairs, t, s)


def test_uncertain_paths_agree_pow():
    carrier = ("u", "v", "w")
    structs = all_pow_successors(carrier)
    for rel in relations_on(carrier, sample=20):
        for t in structs:
            for s in structs:
                assert in_uncertain_lifting(rel, t, s) == in_uncertain_lifting_enumerated(
                    rel, t, s
                )


@pytest.mark.parametrize(
    "kind,structs,outputs",
    [
        ("mealy", all_mealy_successors(("i", "j"), ("a", "b"), ("u", "v")), ("a", "b")),
        ("sa", all_sa_successors(("i", "j"), ("a", "b"), ("u", "v")), None),
        ("pow", all_pow_successors(("u", "v", "w")), None),
    ],
)
def test_completions_are_the_structures_above(kind, structs, outputs):
    # every structure once: (1 + |outputs| * |carrier|) ** |inputs| Mealy
    # structures, 3 ** 2 input maps times 3 ** 2 - 1 non-empty output maps,
    # 2 ** 3 subsets
    assert len(structs) == len(set(structs)) == {"mealy": 25, "sa": 72, "pow": 8}[kind]
    carrier = ("u", "v", "w") if kind == "pow" else ("u", "v")
    for t in structs:
        above = list(completions(t, carrier, outputs))
        assert len(above) == len(set(above))
        assert set(above) == {s for s in structs if order_leq(t, s)}, t


def test_enumeration_cap():
    carrier = tuple(f"c{k}" for k in range(5))
    rel = Relation.identity(carrier)
    with pytest.raises(EnumerationLimitError):
        in_uncertain_lifting_enumerated(
            rel, undef(), undef(), outputs=("o",)
        )


def test_entry_product_matches_library():
    # independent per-input reconstruction of both lifting sets
    carrier, inputs, outputs = ("u", "v"), ("i", "j"), ("a", "b")
    structs = all_mealy_successors(inputs, outputs, carrier)
    for rel in relations_on(carrier, sample=10):
        canon = entry_pair_product(mealy_canonical_entry_pairs(rel.pairs, outputs), len(inputs))
        uncert = entry_pair_product(mealy_uncertain_entry_pairs(rel.pairs, outputs), len(inputs))
        for t in structs:
            for s in structs:
                assert in_lifting(rel, t, s) == ((t.entries, s.entries) in canon)
                assert in_uncertain_lifting(rel, t, s) == ((t.entries, s.entries) in uncert)


def test_the_first_stray_successor_is_named():
    # successors outside the carrier on both sides: the first of t's is
    # named, and s's only when t has none
    square = Relation.square(("a",), set())
    two = lambda x, y: MealySuccessors(("i", "j"), (("o", x), ("o", y)))  # noqa: E731
    cases = [(two("x1", "x2"), two("y1", "y2"), "x1"), (two("a", "x2"), two("y1", "y2"), "x2"),
             (two("a", "a"), two("a", "y2"), "y2"), (two("x2", "x1"), two("a", "a"), "x2")]
    for t, s, stray in cases:
        for member in (in_lifting, in_uncertain_lifting):
            with pytest.raises(ContractError, match=f"^successor {stray!r} is outside the relation's carrier$"):
                member(square, t, s)


def _in_lifting_reference(rel, t, s):
    """Canonical lifting membership as the order both ways: each side's
    entries matched by the other's through rel, symbol by symbol; an
    automaton's structures need an output on both sides."""
    _check_args(rel, t, s)
    if isinstance(t, SaSuccessors) and not (t.has_output and s.has_output):
        return False
    if isinstance(t, PowSuccessors):
        return (all(any((x, y) in rel for y in s.elems) for x in t.elems)
                and all(any((x, y) in rel for x in t.elems) for y in s.elems))
    there = order_failures(t, s, lambda a, b: (a, b) in rel)
    back = order_failures(s, t, lambda a, b: (b, a) in rel)
    return next(there, None) is None and next(back, None) is None


@pytest.mark.parametrize("kind", ["mealy", "sa", "pow"])
def test_lifting_entry_by_entry_matches_the_two_way_order(kind):
    carrier, sample = ("u", "v"), None
    if kind == "mealy":
        structs = all_mealy_successors(("i", "j"), ("a", "b"), carrier)
    elif kind == "sa":
        # with the structures that have no output, which the lifting refuses
        blocked = [SaSuccessors(("i",), ("a", "b"), (e,), (None, None)) for e in (None, *carrier)]
        structs = all_sa_successors(("i",), ("a", "b"), carrier) + blocked
    else:
        carrier, sample = ("u", "v", "w"), 20
        structs = all_pow_successors(carrier)
    for rel in relations_on(carrier, sample=sample):
        members = lifted_set(in_lifting, rel, structs)
        assert members == lifted_set(_in_lifting_reference, rel, structs), rel.pairs


# ---------------------------------------------------------------------------
# lifting laws


def laws_cases():
    yield ("u", "v"), ("i", "j"), ("a", "b"), None
    yield ("u", "v", "w"), ("i",), ("a", "b"), None
    yield ("u", "v", "w"), ("i", "j"), ("a",), 20
    yield ("u", "v", "w"), ("i", "j"), ("a", "b"), 12


@pytest.mark.parametrize("member", [in_lifting, in_uncertain_lifting], ids=["canonical", "uncertain"])
@pytest.mark.parametrize("case", list(laws_cases()), ids=["2x2x2", "3x1x2", "3x2x1", "3x2x2"])
def test_lifting_laws_mealy(member, case):
    carrier, inputs, outputs, sample = case
    structs = all_mealy_successors(inputs, outputs, carrier)
    pairs_all = [(x, y) for x in carrier for y in carrier]
    for rel in relations_on(carrier, sample=sample):
        members = lifted_set(member, rel, structs)
        # monotonicity under single-pair extension
        for extra in pairs_all:
            if extra not in rel.pairs:
                bigger = Relation.square(carrier, rel.pairs | {extra})
                assert members <= lifted_set(member, bigger, structs)
        # converse
        conv = lifted_set(member, rel.converse(), structs)
        assert conv == {(j, i) for i, j in members}
        # equality preservation
        eq_members = lifted_set(member, Relation.identity(carrier), structs)
        assert all((i, i) in eq_members for i in range(len(structs)))


def test_inverse_image_inclusion():
    # pushing a structure pair through a map can only gain memberships
    X, Y = ("u", "v"), ("x", "y")
    inputs, outputs = ("i", "j"), ("a",)
    structs = all_mealy_successors(inputs, outputs, X)
    maps = [dict(zip(X, images)) for images in itertools.product(Y, repeat=len(X))]
    for f in maps:
        for rel in relations_on(Y, sample=8):
            pulled = inverse_image(f, rel)
            for t in structs:
                for s in structs:
                    if in_uncertain_lifting(pulled, t, s):
                        assert in_uncertain_lifting(
                            rel, map_structure(t, f), map_structure(s, f)
                        )


# ---------------------------------------------------------------------------
# stability


def test_stability_counterexample():
    S = Relation.square(("x", "y"), {("x", "y")})
    violation = stability_check(
        {"x": "x"}, S, variant="mealy", inputs=("i",), outputs=("o",), report=True
    )
    assert violation == (single("x", ("i",)), undef(("i",)))
    assert stability_check({"x": "x"}, S, variant="mealy", inputs=("i",), outputs=("o",)) is False


def test_stability_reflexive_closure():
    S = Relation.square(("x", "y"), {("x", "y")}).reflexive_closure()
    assert stability_check({"x": "x"}, S, variant="mealy", inputs=("i",), outputs=("o",))


def test_stability_identity_map():
    for pairs in (set(), {("x", "y")}, {("x", "x"), ("x", "y")}):
        S = Relation.square(("x", "y"), pairs)
        assert stability_check(
            {"x": "x", "y": "y"}, S, variant="mealy", inputs=("i",), outputs=("o",)
        )


def test_stability_pow():
    # x alone is related to y: {x} is linked to {} after mapping x to
    # itself, but not before, where the pulled-back relation is empty
    S = Relation.square(("x", "y"), {("x", "y")})
    pow_x, pow_empty = PowSuccessors(frozenset("x")), PowSuccessors(frozenset())
    assert stability_check({"x": "x"}, S, variant="pow", report=True) == (pow_x, pow_empty)
    assert stability_check({"x": "x"}, S, variant="pow") is False
    assert stability_check({"x": "x"}, S.reflexive_closure(), variant="pow")


def test_stability_cap():
    S = Relation.identity(("x",))
    with pytest.raises(EnumerationLimitError):
        stability_check({f"c{k}": "x" for k in range(4)}, S, variant="mealy",
                        inputs=("i",), outputs=("o",))
    with pytest.raises(EnumerationLimitError):
        stability_check({"x": "x"}, S, variant="mealy", inputs=("i", "j", "k"), outputs=("o",))


def all_relations_on(carrier):
    pairs = [(x, y) for x in carrier for y in carrier]
    for bits in itertools.product([0, 1], repeat=len(pairs)):
        yield Relation.square(carrier, {p for p, b in zip(pairs, bits) if b})


@pytest.mark.parametrize("variant", ["mealy", "sa"])
def test_stability_on_reflexive_relations(variant):
    Y = ("x", "y")
    fs = ({"x": "x"}, {"u0": "x", "u1": "y"}, {"u0": "x", "u1": "x"})
    for f in fs:
        for rel in all_relations_on(Y):
            if not rel.is_reflexive():
                continue
            for ii in (("i",), ("i", "j")):
                for oo in (("o",), ("o", "p")):
                    assert stability_check(f, rel, variant=variant, inputs=ii, outputs=oo)


def test_stability_sa_empirical_scan():
    # Empirical finding, frozen: across every relation on a 2-element
    # target (reflexive or not), all three maps and alphabets up to 2, the
    # suspension variant showed no stability violation.  This is an
    # observation at these sizes, not a general claim.
    Y = ("x", "y")
    fs = ({"x": "x"}, {"u0": "x", "u1": "y"}, {"u0": "x", "u1": "x"})
    violations = []
    for f in fs:
        for rel in all_relations_on(Y):
            v = stability_check(f, rel, variant="sa", inputs=("i",), outputs=("o", "p"), report=True)
            if v is not None:
                violations.append((f, rel, v))
    assert violations == []


def test_stability_mealy_has_nonreflexive_violations():
    # the same scan for the Mealy variant does find violating instances,
    # all of them non-reflexive
    Y = ("x", "y")
    violating = []
    for rel in all_relations_on(Y):
        if not stability_check({"x": "x"}, rel, variant="mealy", inputs=("i",), outputs=("o",)):
            violating.append(rel)
    assert violating
    assert all(not rel.is_reflexive() for rel in violating)
