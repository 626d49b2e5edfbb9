import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubisim import (
    PowersetSystem,
    Relation,
    ValidationError,
    in_uncertain_lifting,
    inverse_image,
    kernel_relation,
)


def test_pairs_must_stay_inside_carriers():
    with pytest.raises(ValidationError):
        Relation(("a",), ("b",), {("a", "zzz")})


def test_square_checks_pairs_and_from_rows_checks_rows():
    with pytest.raises(ValidationError):
        Relation.square(("a", "b"), {("a", "zzz")})
    with pytest.raises(ValidationError):
        Relation.from_rows(("a", "b"), ("x",), [0b1, 0b10])  # bit 1 is past ("x",)
    with pytest.raises(ValidationError):
        Relation.from_rows(("a", "b"), ("x", "y"), [0b1])  # one row for two elements
    with pytest.raises(ValidationError):
        Relation.from_rows(("a", "b"), ("x",), [0b1, -1])  # a negative row
    assert Relation.from_rows((), ("x",), []).rows == ()
    pairs = {("a", "b"), ("b", "b")}
    rows = Relation.from_rows(("a", "b"), ("a", "b"), [0b10, 0b10])
    assert rows == Relation.square(("a", "b"), pairs)
    assert rows.pairs == pairs and rows.ordered_pairs() == [("a", "b"), ("b", "b")]


def test_identity_total_and_containment():
    carrier = ("a", "b", "c")
    ident = Relation.identity(carrier)
    total = Relation.total(carrier)
    assert ident.is_reflexive() and ident.is_symmetric()
    assert ident.pairs <= total.pairs
    assert ("a", "b") in total and ("a", "b") not in ident


def test_converse_involution():
    rel = Relation(("a", "b"), ("x", "y"), {("a", "x"), ("b", "x")})
    assert rel.converse().converse() == rel
    assert rel.converse().pairs == {("x", "a"), ("x", "b")}


def test_composition():
    r = Relation(("a", "b"), ("m", "n"), {("a", "m"), ("b", "n")})
    s = Relation(("m", "n"), ("z",), {("n", "z")})
    assert r.compose(s).pairs == {("b", "z")}
    with pytest.raises(ValidationError):
        s.compose(r)


def test_composition_with_identity_is_neutral():
    carrier = ("a", "b", "c")
    rel = Relation.square(carrier, {("a", "b"), ("c", "c")})
    ident = Relation.identity(carrier)
    assert rel.compose(ident) == rel
    assert ident.compose(rel) == rel


def test_kernel_is_pullback_of_equality():
    f = {"a": "x", "b": "x", "c": "y"}
    eq = Relation.identity(("x", "y"))
    assert kernel_relation(f) == inverse_image(f, eq)
    assert kernel_relation(f).pairs >= {("a", "b"), ("b", "a")}


def test_inverse_image_carrier_check():
    rel = Relation.identity(("x", "y"))
    with pytest.raises(ValidationError):
        inverse_image({"a": "nowhere"}, rel)


def test_ordered_pairs_follow_declaration_order():
    rel = Relation(("b", "a"), ("y", "x"), {("a", "x"), ("b", "y"), ("a", "y")})
    assert rel.ordered_pairs() == [("b", "y"), ("a", "y"), ("a", "x")]


def test_powerset_states_all_pairwise_compatible():
    # with inclusion as the order, successor sets can always grow to cover
    # each other, so the total relation never conflicts at one step
    system = PowersetSystem(
        "n", ("a", "b", "c"), {"a": {"b"}, "b": {"a", "c"}, "c": set()}
    )
    total = Relation.total(system.states)
    for x in system.states:
        for y in system.states:
            assert in_uncertain_lifting(total, system.successors(x), system.successors(y))


# ---------------------------------------------------------------------------
# the row form against a plain model of pairs

NAMES = st.lists(st.sampled_from("abcdefghij"), max_size=8, unique=True).map(tuple)


@st.composite
def relations(draw, left=NAMES, right=NAMES):
    left, right = draw(left), draw(right)
    product = [(x, y) for x in left for y in right]
    pairs = frozenset(draw(st.lists(st.sampled_from(product), max_size=30))) if product else frozenset()
    return Relation(left, right, pairs), pairs


def permutations(carrier):
    return st.permutations(carrier).map(tuple)


@settings(max_examples=300, deadline=None)
@given(relations(), st.data())
def test_rows_agree_with_pair_sets(drawn, data):
    rel, pairs = drawn
    left, right = rel.left, rel.right
    assert rel.pairs == pairs and len(rel) == len(pairs)
    for x in left + ("zz",):
        for y in right + ("zz",):
            assert ((x, y) in rel) == ((x, y) in pairs)
    assert rel.ordered_pairs() == [(x, y) for x in left for y in right if (x, y) in pairs]
    assert rel.domain() == {x for x, _ in pairs} and rel.codomain() == {y for _, y in pairs}
    conv = rel.converse()
    assert (conv.left, conv.right) == (right, left)
    assert conv.pairs == {(y, x) for x, y in pairs} and conv.converse() == rel
    assert rel.complement().pairs == {(x, y) for x in left for y in right} - pairs
    rows = Relation.from_rows(left, right, rel.rows)
    assert rows == rel and hash(rows) == hash(rel)
    assert rows == Relation(left, right, sorted(pairs, key=repr))

    # the middle carrier of a composition may come in another order
    other, other_pairs = data.draw(relations(left=permutations(right)))
    composed = rel.compose(other)
    assert (composed.left, composed.right) == (left, other.right)
    assert composed.pairs == {(x, z) for x, y in pairs for y2, z in other_pairs if y == y2}

    same, same_pairs = data.draw(relations(left=st.just(left), right=st.just(right)))
    assert rel.union(same).pairs == pairs | same_pairs
    assert (rel == same) == (pairs == same_pairs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_square_rows_agree_with_pair_sets(data):
    carrier = data.draw(NAMES)
    rel, pairs = data.draw(relations(left=st.just(carrier), right=st.just(carrier)))
    assert rel.reflexive_closure().pairs == pairs | {(x, x) for x in carrier}
    assert rel.is_reflexive() == all((x, x) in pairs for x in carrier)
    assert rel.is_symmetric() == all((y, x) in pairs for x, y in pairs)
    assert rel.union(rel.converse()).is_symmetric()
    assert Relation.identity(carrier).pairs == {(x, x) for x in carrier}
    assert Relation.total(carrier).pairs == {(x, y) for x in carrier for y in carrier}

    # a map into the carrier, from a domain of its own
    domain = data.draw(st.lists(st.sampled_from("pqrstuvw"), max_size=6, unique=True))
    f = {x: data.draw(st.sampled_from(carrier)) for x in domain} if carrier else {}
    pulled = inverse_image(f, rel)
    assert pulled.left == pulled.right == tuple(f)
    assert pulled.pairs == {(a, b) for a in f for b in f if (f[a], f[b]) in pairs}
    assert kernel_relation(f).pairs == {(a, b) for a in f for b in f if f[a] == f[b]}


def test_square_carriers_that_are_equal_but_distinct_objects():
    # an equal right carrier shares the left positions; a reordered one does not
    left = ("a", "b", "c")
    right = tuple(list(left))
    assert right is not left
    rel = Relation(left, right, {("a", "c"), ("c", "a")})
    assert rel.is_square and rel == Relation.square(left, {("a", "c"), ("c", "a")})
    assert ("a", "c") in rel and ("c", "a") in rel and ("a", "b") not in rel
    assert rel.rows == (0b100, 0, 0b1)
    swapped = Relation(left, ("c", "b", "a"), {("a", "c"), ("c", "a")})
    assert not swapped.is_square and swapped.rows == (0b1, 0, 0b100)
    assert ("a", "c") in swapped and ("a", "a") not in swapped
    with pytest.raises(ValidationError):
        Relation(("a", "a"), ("a", "a"), set())


def test_non_square_symmetry_and_duplicate_carriers():
    rel = Relation(("a", "b"), ("b", "a", "c"), {("a", "b"), ("b", "a")})
    assert rel.is_symmetric() and not rel.is_reflexive()
    assert not Relation(("a", "b"), ("b", "a", "c"), {("a", "c")}).is_symmetric()
    with pytest.raises(ValidationError):
        Relation(("a", "a"), ("x",), set())
    with pytest.raises(ValidationError, match="^reflexive closure needs a square relation$"):
        rel.reflexive_closure()
    with pytest.raises(ValidationError, match="^union requires identical carriers$"):
        rel.union(Relation.square(("a", "b"), set()))
