import pytest

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


def test_square_checks_pairs_and_engine_square_agrees():
    with pytest.raises(ValidationError):
        Relation.square(("a", "b"), {("a", "zzz")})
    pairs = {("a", "b"), ("b", "b")}
    fast = Relation.engine_square(("a", "b"), iter(pairs))
    assert fast == Relation.square(("a", "b"), pairs)
    assert isinstance(fast.pairs, frozenset) and fast.ordered_pairs() == [("a", "b"), ("b", "b")]


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
