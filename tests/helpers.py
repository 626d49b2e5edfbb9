"""Shared test helpers: fixture loading, random system generators, and the
independent oracles used to cross-check the library's decision procedures.
The references by the uncertain lifting's definition are in `references.py`."""

from __future__ import annotations

import itertools
import random
from pathlib import Path

from ubisim import (
    MealySuccessors,
    PartialMealyMachine,
    SaSuccessors,
    StateMap,
    SuspensionAutomaton,
    parse_file,
)

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def fixture_doc(name: str):
    return parse_file(fixture_path(name))


def quadruple():
    """The four machines p, q, r, s plus their four-way union."""
    from ubisim import disjoint_union

    machines = fixture_doc("quadruple.txt").machines()
    p, q, r, s = machines["p"], machines["q"], machines["r"], machines["s"]
    union, _ = disjoint_union(p, q, r, s)
    return p, q, r, s, union


def conflict_machine() -> PartialMealyMachine:
    return fixture_doc("conflict_tree.txt").machines()["m"]


def lax_chain():
    doc = fixture_doc("lax_chain.txt")
    machines, maps = doc.machines(), doc.maps()
    return (
        machines["T"],
        machines["T'"],
        machines["B"],
        maps["g"].statemap,
        maps["h"].statemap,
        maps["k"].statemap,
    )


def sa_pair():
    doc = fixture_doc("sa_morphism.txt")
    machines, maps = doc.machines(), doc.maps()
    return machines["C"], machines["D"], maps["h"].statemap


def totalize(m: PartialMealyMachine, output: str | None = None) -> PartialMealyMachine:
    """Complete a partial machine with self-loops on a fixed output."""
    output = output if output is not None else m.outputs[0]
    delta = dict(m.delta)
    for s in m.states:
        for i in m.inputs:
            delta.setdefault((s, i), (output, s))
    return PartialMealyMachine(m.name, m.inputs, m.outputs, m.states, delta, total=True)


def assert_successors_read_the_tables(m) -> None:
    """Every state's `successors` is the structure `make` builds from the
    machine's transition dicts, and asking for them leaves those dicts
    unbuilt: a machine whose dicts were not read yet passes."""
    dicts = {"delta"} if isinstance(m, PartialMealyMachine) else {"din", "dout"}
    assert not dicts & vars(m).keys()
    got = [m.successors(s) for s in m.states]
    assert not dicts & vars(m).keys()
    if isinstance(m, PartialMealyMachine):
        want = [MealySuccessors.make(m.inputs, {i: e for (x, i), e in m.delta.items() if x == s}) for s in m.states]
    else:
        want = [SaSuccessors.make(m.inputs, m.outputs, {a: d for (x, a), d in m.din.items() if x == s},
                                  {o: d for (x, o), d in m.dout.items() if x == s}) for s in m.states]
    assert got == want


# ---------------------------------------------------------------------------
# random generators

INPUT_POOL = ("a", "b", "c")
OUTPUT_POOL = ("x", "y", "z")


def random_partial_mealy(
    rng: random.Random,
    n_states: int,
    n_inputs: int,
    n_outputs: int,
    density: float | None = None,
    name: str = "m",
) -> PartialMealyMachine:
    states = tuple(f"s{k}" for k in range(n_states))
    inputs, outputs = INPUT_POOL[:n_inputs], OUTPUT_POOL[:n_outputs]
    density = rng.uniform(0.3, 0.9) if density is None else density
    delta = {}
    for s in states:
        for i in inputs:
            if rng.random() < density:
                delta[(s, i)] = (rng.choice(outputs), rng.choice(states))
    return PartialMealyMachine(name, inputs, outputs, states, delta)


def random_total_mealy(rng, n_states, n_inputs, n_outputs, name="m") -> PartialMealyMachine:
    return totalize(
        random_partial_mealy(rng, n_states, n_inputs, n_outputs, density=1.0, name=name)
    )


def random_sa(
    rng: random.Random,
    n_states: int,
    inputs=("a",),
    outputs=("u", "v"),
    in_density: float = 0.35,
    out_density: float = 0.45,
    name: str = "n",
) -> SuspensionAutomaton:
    states = tuple(f"s{k}" for k in range(n_states))
    din, dout = {}, {}
    for s in states:
        for a in inputs:
            if rng.random() < in_density:
                din[(s, a)] = rng.choice(states)
        outs = [o for o in outputs if rng.random() < out_density]
        if not outs:
            outs = [rng.choice(outputs)]
        for o in outs:
            dout[(s, o)] = rng.choice(states)
    return SuspensionAutomaton(name, inputs, outputs, states, din, dout)


def mealy_cycle(n: int) -> PartialMealyMachine:
    """A one-input n-cycle that outputs x everywhere except y at the last
    state: only the diagonal is uncertain bisimilar, and the round-based
    fixpoint needs n rounds to find that."""
    states = tuple(f"c{k}" for k in range(n))
    delta = {
        (states[k], "i"): ("y" if k == n - 1 else "x", states[(k + 1) % n]) for k in range(n)
    }
    return PartialMealyMachine("cyc", ("i",), ("x", "y"), states, delta)


def mealy_chain(n: int, n_inputs: int = 1) -> PartialMealyMachine:
    """An n-state chain that steps to the next state on every input and
    outputs x, with no transition at the end: no two states are bisimilar,
    and every refinement round separates one more state."""
    states, inputs = tuple(f"c{k}" for k in range(n)), INPUT_POOL[:n_inputs]
    delta = {(states[k], i): ("x", states[k + 1]) for k in range(n - 1) for i in inputs}
    return PartialMealyMachine("chain", inputs, ("x",), states, delta)


def merge_cycle(n: int) -> PartialMealyMachine:
    """A one-input n-cycle with a single output: identifying c0 with ck
    merges exactly the residue classes modulo gcd(n, k)."""
    states = tuple(f"c{k}" for k in range(n))
    delta = {(states[k], "i"): ("x", states[(k + 1) % n]) for k in range(n)}
    return PartialMealyMachine("mcyc", ("i",), ("x",), states, delta)


def sa_cycle(n: int) -> SuspensionAutomaton:
    """The suspension-automaton twin of `mealy_cycle`: input a and output x
    step around the cycle, the last state offers only y."""
    states = tuple(f"c{k}" for k in range(n))
    din = {(states[k], "a"): states[(k + 1) % n] for k in range(n)}
    dout = {(states[k], "y" if k == n - 1 else "x"): states[(k + 1) % n] for k in range(n)}
    return SuspensionAutomaton("sacyc", ("a",), ("x", "y"), states, din, dout)


def mealy_corpus(count: int, seed: int = 20250801):
    """The randomized machine corpus shared by the bulk properties."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_partial_mealy(rng, rng.randint(2, 6), rng.randint(1, 3), rng.randint(1, 3))


def _duplicated_source(rng, target, keep_prob, extra_prob):
    copies = {s: [f"{s}.{k}" for k in range(rng.randint(1, 2))] for s in target.states}
    states = tuple(c for s in target.states for c in copies[s])
    mapping = {c: s for s in target.states for c in copies[s]}
    delta = {}
    for s in target.states:
        for c in copies[s]:
            for i in target.inputs:
                step = target.delta.get((s, i))
                if step is not None:
                    if rng.random() < keep_prob:
                        o, dst = step
                        delta[(c, i)] = (o, rng.choice(copies[dst]))
                elif rng.random() < extra_prob:
                    delta[(c, i)] = (rng.choice(target.outputs), rng.choice(states))
    source = PartialMealyMachine("C", target.inputs, target.outputs, states, delta)
    return StateMap(source, target, mapping, name="h")


def random_lax_map(rng: random.Random) -> StateMap:
    """A lax-by-construction map: the source is built from duplicated target
    states with transitions randomly deleted."""
    target = random_partial_mealy(
        rng, rng.randint(2, 4), rng.randint(1, 3), rng.randint(1, 3), name="D"
    )
    return _duplicated_source(rng, target, keep_prob=0.7, extra_prob=0.0)


def random_oplax_map(rng: random.Random, extra_prob: float = 0.4) -> StateMap:
    """An oplax-by-construction map: the source keeps every target
    transition (to some copy) and may add transitions the target lacks."""
    target = random_partial_mealy(
        rng, rng.randint(2, 4), rng.randint(1, 3), rng.randint(1, 3), name="D"
    )
    return _duplicated_source(rng, target, keep_prob=1.0, extra_prob=extra_prob)


def random_strict_map(rng: random.Random) -> StateMap:
    return random_oplax_map(rng, extra_prob=0.0)


# ---------------------------------------------------------------------------
# independent oracles


def ioco_compatible_search(a: SuspensionAutomaton, x: str, y: str) -> bool:
    """Backtracking search for any relation containing (x, y) that is closed
    under the two compatibility clauses.  Independent of the pair-removal
    engine: common-input successors are forced, output support is chosen
    with backtracking."""

    def input_closure(rel: frozenset) -> frozenset:
        rel = set(rel)
        queue = list(rel)
        while queue:
            u, v = queue.pop()
            for i in a.inputs:
                du, dv = a.din.get((u, i)), a.din.get((v, i))
                if du is not None and dv is not None and (du, dv) not in rel:
                    rel.add((du, dv))
                    queue.append((du, dv))
        return frozenset(rel)

    def extend(rel: frozenset) -> bool:
        rel = input_closure(rel)
        unsupported = None
        for u, v in sorted(rel):
            if not any(
                (u, o) in a.dout and (v, o) in a.dout and (a.dout[(u, o)], a.dout[(v, o)]) in rel
                for o in a.outputs
            ):
                unsupported = (u, v)
                break
        if unsupported is None:
            return True
        u, v = unsupported
        for o in a.outputs:
            if (u, o) in a.dout and (v, o) in a.dout:
                if extend(rel | {(a.dout[(u, o)], a.dout[(v, o)])}):
                    return True
        return False

    return extend(frozenset({(x, y)}))


def lax_identify_reference(m: PartialMealyMachine, x: str, y: str):
    """The quadratic closure `lax_identify` replaced, kept as its oracle:
    on each union every pair across the two classes is queued and checked
    on every input.  Same verdict, classes, quotient and projection; a
    conflict may come with a different (equally valid) forcing chain."""
    from collections import deque

    from ubisim import Conflict, Quotient
    from ubisim.machines import distinct_names
    from ubisim.morphisms import MergeStep

    parent = {s: s for s in m.states}
    members = {s: [s] for s in m.states}

    def find(s):
        while parent[s] != s:
            s = parent[s]
        return s

    merges, queue = [], deque()

    def union(a, b, word):
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        merges.append(MergeStep(a, b, word))
        cross = sorted(
            ((u, v) for u in members[ra] for v in members[rb]),
            key=lambda p: (m.index[p[0]], m.index[p[1]]),
        )
        parent[rb] = ra
        members[ra].extend(members.pop(rb))
        queue.append((a, b, word))
        queue.extend((u, v, word) for u, v in cross if (u, v) != (a, b))

    union(x, y, ())
    while queue:
        u, v, word = queue.popleft()
        for i in m.inputs:
            du, dv = m.delta.get((u, i)), m.delta.get((v, i))
            if du is None or dv is None:
                continue
            if du[0] != dv[0]:
                return Conflict(tuple(merges), u, v, i, du[0], dv[0], word + (i,))
            union(du[1], dv[1], word + (i,))

    classes = {}
    for s in m.states:
        classes.setdefault(find(s), []).append(s)
    class_list = sorted((tuple(c) for c in classes.values()), key=lambda c: m.index[c[0]])
    class_names = distinct_names("+".join(c) for c in class_list)
    names = {find(c[0]): n for c, n in zip(class_list, class_names)}
    proj = {s: names[find(s)] for s in m.states}
    delta = {}
    for (src, i), (o, dst) in m.delta.items():
        step = (o, proj[dst])
        assert delta.setdefault((proj[src], i), step) == step, "quotient not well-defined"
    quotient = PartialMealyMachine(m.name + "-quotient", m.inputs, m.outputs, tuple(class_names), delta)
    return Quotient(quotient, StateMap(m, quotient, proj), tuple(class_list))


def words_up_to(inputs, max_len):
    for length in range(1, max_len + 1):
        yield from itertools.product(inputs, repeat=length)


# entry-level reconstructions of the lifting memberships: one admissible
# per-input value pair at a time, so lifting sets can be built as products


def mealy_canonical_entry_pairs(rel_pairs, outputs):
    return [(None, None)] + [((o, p[0]), (o, p[1])) for o in outputs for p in sorted(rel_pairs)]


def mealy_uncertain_entry_pairs(rel_pairs, outputs):
    dom = sorted({p[0] for p in rel_pairs})
    cod = sorted({p[1] for p in rel_pairs})
    return (
        mealy_canonical_entry_pairs(rel_pairs, outputs)
        + [((o, v), None) for o in outputs for v in dom]
        + [(None, (o, v)) for o in outputs for v in cod]
    )


def entry_pair_product(entry_pairs, n_inputs):
    """All (t-entries, s-entries) pairs whose per-input components are all
    admissible; as raw tuples for speed."""
    return frozenset(
        (tuple(c[0] for c in combo), tuple(c[1] for c in combo))
        for combo in itertools.product(entry_pairs, repeat=n_inputs)
    )
